//! The layer budget: per layer, the traced rep's count times the probe's
//! cost, against the untraced run window. It is the table the next
//! optimisation target is read from, so the part no row explains is shown
//! as a row of its own, never subtracted away.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use storm_iscsi::TransportKind;

use crate::run::{ratio, Workload};
use crate::scenario::{FullStack, SimOutcome};

/// A layer, how its cost was derived, and the host seconds per rep that
/// derivation explains.
pub struct Row {
    layer: &'static str,
    basis: String,
    seconds: f64,
    /// Informational rows break a summed row down and are not added again.
    summed: bool,
}

/// The rows for one workload. `iscsi_pdus` is the PDU count of the rep on
/// the wire (0 on nvmeq and the fleet); `probe` maps metric to probe cost.
pub fn rows(
    workload: Workload,
    s: &SimOutcome,
    iscsi_pdus: f64,
    probe: &BTreeMap<&'static str, f64>,
) -> Vec<Row> {
    let w = &s.window;
    let p = |name: &str| probe.get(name).copied().unwrap_or(0.0);
    let mb_s = |bytes: u64, name: &str| ratio(bytes as f64 / 1e6, p(name));
    let ns = 1e-9;
    let mut rows: Vec<Row> = Vec::new();
    let mut row = |layer, basis: String, seconds: f64, summed: bool| {
        if seconds > 0.0 {
            rows.push(Row {
                layer,
                basis,
                seconds,
                summed,
            });
        }
    };
    let events = w.events as f64;
    match workload {
        Workload::Full(kind) => {
            row(
                "sim + net engine",
                format!("{} events x net.engine.ns_per_event", w.events),
                events * p("net.engine.ns_per_event") * ns,
                true,
            );
            row(
                "  sim.event_queue",
                format!("{} events x push_pop_ns", w.events),
                events * p("sim.event_queue.push_pop_ns") * ns,
                false,
            );
            row(
                "  net.tcp",
                format!("{} segments x ns_per_seg", w.tcp_segs),
                w.tcp_segs as f64 * p("net.tcp.ns_per_seg") * ns,
                false,
            );
            row(
                "  net.flow + net.nat",
                format!("{} frames x (lookup_ns + translate_ns)", w.frames),
                w.frames as f64 * (p("net.flow.lookup_ns") + p("net.nat.translate_ns")) * ns,
                false,
            );
            // Sender encodes, receiver decodes; a relay decodes every PDU
            // once more and re-encodes the ones it may not forward verbatim.
            let encodes = iscsi_pdus + (w.pdus_forwarded - w.verbatim_forwards) as f64;
            let decodes = iscsi_pdus + w.pdus_forwarded as f64;
            if kind.transport() == TransportKind::Iscsi {
                row(
                    "iscsi codec",
                    format!("{encodes:.0} encodes + {decodes:.0} stream decodes"),
                    (encodes * p("iscsi.encode_into_ns")
                        + decodes * p("iscsi.stream.feed_ns_per_pdu"))
                        * ns,
                    true,
                );
            } else {
                let frames = (w.doorbells + w.cq_frames) as f64;
                row(
                    "nvmeq codec",
                    format!(
                        "{:.0} frame decodes + {} entries",
                        2.0 * frames,
                        w.sqes + w.cqes
                    ),
                    (2.0 * frames * p("nvmeq.stream.feed_ns_per_frame")
                        + (w.sqes + w.cqes) as f64 * p("nvmeq.codec.sqe_cqe_ns"))
                        * ns,
                    true,
                );
            }
            match kind {
                FullStack::RelayStream64k => row(
                    "services.chacha20",
                    format!("{} bytes / on_pdu_mb_per_s", s.services.cipher_bytes),
                    mb_s(s.services.cipher_bytes, "services.chacha20.on_pdu_mb_per_s"),
                    true,
                ),
                FullStack::ChainWrite16k => {
                    row(
                        "services.dedup",
                        format!("{} written bytes / on_pdu_mb_per_s", s.write_bytes),
                        mb_s(s.write_bytes, "services.dedup.on_pdu_mb_per_s"),
                        true,
                    );
                    row(
                        "services.compress",
                        format!("{} bytes / on_pdu_mb_per_s", s.payload_bytes),
                        mb_s(s.payload_bytes, "services.compress.on_pdu_mb_per_s"),
                        true,
                    );
                    row(
                        "services.aes_xts",
                        format!("{} bytes / on_pdu_mb_per_s", s.services.cipher_bytes),
                        mb_s(s.services.cipher_bytes, "services.aes_xts.on_pdu_mb_per_s"),
                        true,
                    );
                }
                FullStack::PostmarkMonitor => {
                    row(
                        "services.monitor",
                        format!("{} pdus x on_pdu_ns", w.pdus_forwarded),
                        w.pdus_forwarded as f64 * p("services.monitor.on_pdu_ns") * ns,
                        true,
                    );
                    row(
                        "  core.semantics",
                        format!("{} writes x observe_ns_per_write", s.writes),
                        s.writes as f64 * p("core.semantics.observe_ns_per_write") * ns,
                        false,
                    );
                }
                FullStack::NvmeqQd32 | FullStack::Fwd4kQd32 => {}
            }
            let read_bytes = s.payload_bytes - s.write_bytes;
            row(
                "block.volume",
                format!(
                    "{} written + {} read 4 KiB blocks",
                    s.write_bytes / 4096,
                    read_bytes / 4096
                ),
                (s.write_bytes as f64 / 4096.0 * p("block.volume.write_ns_per_4k")
                    + read_bytes as f64 / 4096.0 * p("block.volume.read_ns_per_4k"))
                    * ns,
                true,
            );
        }
        Workload::Fleet => row(
            "sim.event_queue",
            format!("{} events x push_pop_ns", w.events),
            events * p("sim.event_queue.push_pop_ns") * ns,
            true,
        ),
    }
    rows
}

/// Renders the table and returns it with the share of the window that
/// the summed rows explain.
pub fn render(workload: &str, rows: &[Row], window_s: f64) -> (String, f64) {
    let explained: f64 = rows.iter().filter(|r| r.summed).map(|r| r.seconds).sum();
    let mut table = String::new();
    let _ = writeln!(
        table,
        "layer budget: {} (count x probe cost per layer, against {:.3} s of run window per rep)",
        workload, window_s
    );
    let _ = writeln!(
        table,
        "  {:<22} {:>9} {:>7}  basis",
        "layer", "seconds", "share"
    );
    for r in rows {
        let _ = writeln!(
            table,
            "  {:<22} {:>9.4} {:>6.1}%  {}{}",
            r.layer,
            r.seconds,
            100.0 * ratio(r.seconds, window_s),
            r.basis,
            if r.summed {
                ""
            } else {
                " (within the row above)"
            }
        );
    }
    let _ = writeln!(
        table,
        "  {:<22} {:>9.4} {:>6.1}%  window - explained rows (app logic, executor, dispatch, allocation)",
        "unexplained remainder",
        window_s - explained,
        100.0 * (1.0 - ratio(explained, window_s)),
    );

    (table, ratio(explained, window_s))
}
