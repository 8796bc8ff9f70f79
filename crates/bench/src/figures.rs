//! The fidelity table, executable: the paper's claims as predicates over
//! the measured rows, and `BENCH_figures.md`, the paper-vs-measured
//! tables rendered from those rows.
//!
//! Thresholds restate the paper's claim with slack; they are never fitted
//! to a measured digit (the exact digits are what the baseline `diff`
//! holds). The paper's own numbers sit in `figures.tmpl.md`, beside the
//! cells they are compared with.

use crate::{Row, SCENARIOS};

/// One row of the fidelity table: a claim of the paper, as a predicate
/// over the measured rows.
pub struct Claim {
    /// The claim, as the fidelity summary words it.
    pub text: &'static str,
    /// Whether this reproduction is known to meet it. `bench_smoke` fails
    /// when `check` disagrees, in either direction.
    pub holds: bool,
    /// `Ok` when the rows bear the claim out, else what was measured.
    pub check: fn(&[Row]) -> Result<(), String>,
}

/// [`Row::metric`] of the row `name`. NaN when the row or the metric is
/// absent, so every comparison a claim makes against it is false and the
/// claim fails.
fn get(rows: &[Row], name: &str, metric: &str) -> f64 {
    let row = rows.iter().find(|r| r.name == name);
    row.and_then(|r| r.metric(metric)).unwrap_or(f64::NAN)
}

/// Request sizes of the Fig 4/5/7/8 sweep and thread counts of the Fig 6/9
/// sweep, as row-name suffixes.
const SIZES: [&str; 4] = ["4k", "16k", "64k", "256k"];
const THREADS: [&str; 4] = ["t4", "t8", "t16", "t32"];

/// Name of the sweep row for path-mode `stem` at `point` (a [`SIZES`] or
/// [`THREADS`] suffix): `fig4.fwd.64k`, `fig5.active.4k`, `fig6.legacy.t32`.
pub(crate) fn sweep_row(stem: &str, point: &str) -> String {
    let fig = match stem {
        _ if point.starts_with('t') => "fig6",
        "legacy" | "fwd" => "fig4",
        _ => "fig5",
    };
    format!("{fig}.{stem}.{point}")
}

/// IOPS of mode `num` over mode `den` at each sweep point.
fn iops_ratio<const N: usize>(rows: &[Row], points: [&str; N], num: &str, den: &str) -> [f64; N] {
    let iops = |stem, point| get(rows, &sweep_row(stem, point), "iops");
    points.map(|p| iops(num, p) / iops(den, p))
}

fn ensure(holds: bool, measured: String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(measured)
    }
}

/// Fig 4/7: MB-FWD delivers fewer IOPS than LEGACY at every size, and the
/// loss grows with request size.
pub(crate) const REDIRECTION_COST_GROWS: Claim = Claim {
    text: "redirection costs, growing with I/O size (Fig 4/7)",
    holds: true,
    check: |rows| {
        let r = iops_ratio(rows, SIZES, "fwd", "legacy");
        let falling = r[0] < 1.0 && r.windows(2).all(|w| w[1] < w[0]);
        ensure(falling, format!("fwd/legacy IOPS {r:.2?} by size"))
    },
};

/// Fig 5/8: the active relay trails MB-FWD at 4-16 KiB and overtakes it at
/// 64-256 KiB, despite doing cipher work MB-FWD does not.
pub(crate) const ACTIVE_OVERTAKES_FWD: Claim = Claim {
    text: "active relay overtakes MB-FWD at large sizes (Fig 5/8)",
    holds: true,
    check: |rows| {
        let r = iops_ratio(rows, SIZES, "active", "fwd");
        let crossover = r[0] < 1.0 && r[1] < 1.0 && r[2] >= 1.0 && r[3] >= 1.0;
        ensure(crossover, format!("active/fwd IOPS {r:.2?} by size"))
    },
};

/// Fig 5/8 and 6/9: the passive relay's per-packet cost shows at 4 KiB, and
/// nowhere does it run ahead of MB-FWD by more than 1 %.
pub(crate) const PASSIVE_PAYS_PER_PACKET: Claim = Claim {
    text: "passive relay pays per-packet processing (Fig 5/8, 6/9)",
    holds: true,
    check: |rows| {
        let sizes = iops_ratio(rows, SIZES, "passive", "fwd");
        let threads = iops_ratio(rows, THREADS, "passive", "fwd");
        let behind = sizes[0] < 1.0 && sizes.iter().chain(&threads).all(|&r| r <= 1.01);
        let measured = format!("passive/fwd IOPS {sizes:.3?} by size, {threads:.3?} by threads");
        ensure(behind, measured)
    },
};

/// Fig 6/9: the active relay's lead over MB-FWD never shrinks as threads
/// are added, ends above where it started and reaches 1.3x at 32 threads
/// (paper: 1.39x).
pub(crate) const ACTIVE_GAIN_GROWS_WITH_THREADS: Claim = Claim {
    text: "active-relay advantage grows with parallelism (Fig 6/9)",
    holds: true,
    check: |rows| {
        let r = iops_ratio(rows, THREADS, "active", "fwd");
        let rising = r.windows(2).all(|w| w[1] >= w[0]) && r[3] > r[0] && r[3] >= 1.3;
        ensure(rising, format!("active/fwd IOPS {r:.2?} by threads"))
    },
};

/// Fig 6: the paper's active relay stays within 10 % of LEGACY. Ours does
/// not (this simulator's LEGACY saturates at full-duplex line rate), so
/// the claim is carried as expected-false: closing the gap, like opening
/// any other, has to be a reviewed edit here.
pub(crate) const ACTIVE_NEAR_LEGACY: Claim = Claim {
    text: "active relay within 10 % of LEGACY (Fig 6)",
    holds: false,
    check: |rows| {
        let r = get(rows, "fig6.active.t32", "active_over_legacy");
        ensure(r >= 0.9, format!("active/legacy IOPS {r:.2} at 32 threads"))
    },
};

/// Fig 10: moving AES-XTS into the middle-box roughly halves the tenant
/// VM's CPU (paper: 85.0 % -> 37.1 %) and saves CPU in total (paper: 23.6
/// points).
pub(crate) const MIDDLEBOX_HALVES_GUEST_CPU: Claim = Claim {
    text: "middle-box encryption halves guest CPU (Fig 10)",
    holds: true,
    check: |rows| {
        let cpu = |row, metric| get(rows, &format!("fig10.{row}.ftp"), metric);
        let (guest, mb) = (
            cpu("in_guest", "vm_cpu_pct"),
            cpu("middlebox", "vm_cpu_pct"),
        );
        let saved = cpu("in_guest", "total_cpu_pct") - cpu("middlebox", "total_cpu_pct");
        let measured = format!("guest CPU {guest:.1} % -> {mb:.1} %, {saved:.1} points saved");
        ensure(mb <= 0.55 * guest && saved >= 15.0, measured)
    },
};

/// PostMark components, as row extras.
const POSTMARK: [&str; 6] = [
    "read_ops_s",
    "append_ops_s",
    "create_ops_s",
    "delete_ops_s",
    "read_mbps",
    "write_mbps",
];

/// Fig 11: every PostMark component runs 1.2-1.5x faster with encryption in
/// the middle-box (paper: 1.23-1.34x).
pub(crate) const POSTMARK_GAINS: Claim = Claim {
    text: "middle-box beats in-guest dm-crypt on PostMark (Fig 11)",
    holds: true,
    check: |rows| {
        let of = |row, metric| get(rows, &format!("fig11.{row}.postmark"), metric);
        let r = POSTMARK.map(|m| of("middlebox", m) / of("in_guest", m));
        let gains = r.iter().all(|r| (1.2..=1.5).contains(r));
        ensure(gains, format!("middle-box/in-guest {r:.2?}"))
    },
};

/// Fig 12/13: the database sees no error, the failed replica is evicted
/// (one of two backups left), TPS dips but does not stop, and striped
/// reads beat the single store by 1.5x (paper: ~1.8x).
pub(crate) const REPLICATION_SURVIVES_AND_STRIPES: Claim = Claim {
    text: "replication: transparent failover + striped reads (Fig 12/13)",
    holds: true,
    check: |rows| {
        let rep = |metric| get(rows, "fig13.replicated.oltp", metric);
        let (errors, alive) = (rep("client_errors"), rep("alive_replicas"));
        let (before, after) = (rep("tps_before"), rep("tps_after"));
        let single = get(rows, "fig13.single.oltp", "tps_before");
        let survived = errors == 0.0 && alive == 1.0 && 0.0 < after && after < before;
        let measured = format!(
            "{errors} errors, {alive} backups alive, TPS {before:.0} -> {after:.0}, single {single:.0}"
        );
        ensure(survived && before >= 1.5 * single, measured)
    },
};

/// Tables I-III: Table II's two operations are attributed to their files
/// byte for byte and raise the watch-list alert; all 8 steps of the Ganiw
/// installation are recovered, with the 19 paths Table III lists once its
/// two `rc[1-5].d` rows are expanded (1 + 5 + 1 + 1 + 5 + 4 + 1 + 1).
pub(crate) const MONITOR_RECONSTRUCTS: Claim = Claim {
    text: "file-op reconstruction from raw blocks (Tables I-III)",
    holds: true,
    check: |rows| {
        let t1 = ["name1_write_bytes", "name9_read_bytes", "alerts"]
            .map(|m| get(rows, "table1.monitor.synthetic", m));
        let t3 = ["steps", "artifacts", "missed"].map(|m| get(rows, "table3.ganiw.install", m));
        let exact = t1[0] == 32768.0 && t1[1] == 4096.0 && t1[2] > 0.0 && t3 == [8.0, 19.0, 0.0];
        let measured = format!(
            "Table I {t1:?} B written / B read / alerts, Table III {t3:?} steps / artifacts / missed"
        );
        ensure(exact, measured)
    },
};

/// `BENCH_figures.md` with the paper's numbers typed in and `{..}` cells
/// for [`render_figures`] to fill beside them:
/// `{row:metric}` is a value, `{a:m / b:n}` a ratio, `{a:m - b:n}` a
/// difference, `{rows prefix}` the names of the rows a section reads and
/// `{claims}` the verdict of every [`Claim`] in the scenario table.
const TEMPLATE: &str = include_str!("figures.tmpl.md");

/// Fills one `{..}` cell of [`TEMPLATE`].
fn cell(rows: &[Row], expr: &str) -> String {
    let value = |operand: &str| {
        let (name, metric) = operand.trim().split_once(':').unwrap_or((operand, ""));
        get(rows, name, metric)
    };
    if let Some(prefix) = expr.strip_prefix("rows ") {
        let named = rows.iter().filter(|r| r.name.starts_with(prefix));
        let names: Vec<String> = named.map(|r| format!("`{}`", r.name)).collect();
        names.join(", ")
    } else if expr == "claims" {
        let verdict = |ok| if ok { "✓" } else { "✗" };
        let line = |c: &Claim| {
            let measured = (c.check)(rows);
            let (expected, computed) = (verdict(c.holds), verdict(measured.is_ok()));
            let detail = measured.err().unwrap_or_default();
            format!("| {} | {expected} | {computed} | {detail} |", c.text)
        };
        let lines: Vec<String> = SCENARIOS.iter().flat_map(|s| s.claims).map(line).collect();
        lines.join("\n")
    } else if let Some((a, b)) = expr.split_once('/') {
        format!("{:.2}", value(a) / value(b))
    } else if let Some((a, b)) = expr.split_once(" - ") {
        format!("{:.1}", value(a) - value(b))
    } else {
        match value(expr) {
            v if v.fract() == 0.0 => format!("{v}"),
            v => format!("{v:.1}"),
        }
    }
}

/// Renders `BENCH_figures.md`: per paper figure and table, the paper's
/// value beside the one computed from `rows`, then the fidelity summary
/// with each claim's computed verdict. A pure function of `rows` and the
/// scenario table, so equal runs render equal bytes.
pub fn render_figures(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut rest = TEMPLATE;
    while let Some((text, tail)) = rest.split_once('{') {
        let (expr, tail) = tail.split_once('}').expect("every cell closes");
        out.push_str(text);
        out.push_str(&cell(rows, expr));
        rest = tail;
    }
    out + rest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FioPoint, PathMode};

    fn row(name: &str, iops: f64, extras: &[(&'static str, f64)]) -> Row {
        let point = FioPoint {
            ops: iops as u64,
            iops,
            mean_latency_ms: 1000.0 / iops,
            p50_ms: 0.0,
            p99_ms: 0.0,
        };
        let mut row = Row::new(name, PathMode::Legacy, 4096, 1, 1, point);
        row.extras = extras.to_vec();
        row
    }

    /// A synthetic row set shaped like the paper's own results, so every
    /// claim holds on it, the LEGACY one included.
    fn faithful() -> Vec<Row> {
        // [legacy, fwd, passive, active] IOPS per sweep point.
        let sizes = SIZES.iter().zip([
            [1000.0, 930.0, 900.0, 920.0],
            [900.0, 780.0, 760.0, 770.0],
            [500.0, 415.0, 400.0, 440.0],
            [200.0, 164.0, 150.0, 187.0],
        ]);
        let threads = THREADS.iter().zip([
            [4000.0, 3500.0, 3400.0, 3700.0],
            [4100.0, 3600.0, 3500.0, 3950.0],
            [4200.0, 3000.0, 2900.0, 3800.0],
            [4200.0, 2800.0, 2700.0, 3900.0],
        ]);
        let mut rows = Vec::new();
        for (point, iops) in sizes.chain(threads) {
            for (stem, iops) in ["legacy", "fwd", "passive", "active"].iter().zip(iops) {
                rows.push(row(&sweep_row(stem, point), iops, &[]));
            }
        }
        rows.last_mut().expect("t32").extras = vec![("active_over_legacy", 3900.0 / 4200.0)];
        let cpu = |vm, total| [("vm_cpu_pct", vm), ("total_cpu_pct", total)];
        let postmark = |v| POSTMARK.map(|key| (key, v));
        let oltp = |before, after, alive| {
            let tps = [("tps_before", before), ("tps_after", after)];
            [[("client_errors", 0.0), ("alive_replicas", alive)], tps].concat()
        };
        let table1 = [
            ("alerts", 2.0),
            ("name1_write_bytes", 32768.0),
            ("name9_read_bytes", 4096.0),
        ];
        let table3 = [("steps", 8.0), ("artifacts", 19.0), ("missed", 0.0)];
        rows.extend([
            row("fig10.in_guest.ftp", 400.0, &cpu(85.0, 110.0)),
            row("fig10.middlebox.ftp", 400.0, &cpu(37.0, 86.0)),
            row("fig11.in_guest.postmark", 1000.0, &postmark(10.0)),
            row("fig11.middlebox.postmark", 1300.0, &postmark(13.0)),
            row("fig13.replicated.oltp", 4000.0, &oltp(800.0, 700.0, 1.0)),
            row("fig13.single.oltp", 2000.0, &oltp(440.0, 440.0, 0.0)),
            row("table1.monitor.synthetic", 1500.0, &table1),
            row("table3.ganiw.install", 1500.0, &table3),
        ]);
        rows
    }

    /// Asserts that `claim` holds on [`faithful`] and stops holding once
    /// `metric` (an extra, else IOPS) of the row `name` reads `value`.
    fn broken_by(claim: &Claim, name: &str, metric: &str, value: f64) {
        let mut rows = faithful();
        assert_eq!((claim.check)(&rows), Ok(()), "{}", claim.text);
        let row = rows.iter_mut().find(|r| r.name == name).expect(name);
        match row.extras.iter_mut().find(|(k, _)| *k == metric) {
            Some(extra) => extra.1 = value,
            None => row.point.iops = value,
        }
        let verdict = (claim.check)(&rows);
        assert!(verdict.is_err(), "{name} {metric} = {value}");
    }

    #[test]
    fn redirection_that_is_free_or_does_not_grow_fails() {
        broken_by(&REDIRECTION_COST_GROWS, "fig4.fwd.4k", "iops", 1000.0);
        broken_by(&REDIRECTION_COST_GROWS, "fig4.fwd.256k", "iops", 170.0);
    }

    #[test]
    fn no_crossover_fails() {
        broken_by(&ACTIVE_OVERTAKES_FWD, "fig5.active.64k", "iops", 410.0);
        broken_by(&ACTIVE_OVERTAKES_FWD, "fig5.active.4k", "iops", 940.0);
    }

    #[test]
    fn passive_relay_ahead_of_fwd_fails() {
        broken_by(&PASSIVE_PAYS_PER_PACKET, "fig5.passive.4k", "iops", 930.0);
        broken_by(&PASSIVE_PAYS_PER_PACKET, "fig6.passive.t16", "iops", 3100.0);
    }

    /// A lead that is flat at 1.35x passes the 1.3x bar at 32 threads but
    /// does not grow; a dip on the way or a final 1.29x fails too.
    #[test]
    fn active_gain_flat_across_threads_fails() {
        let claim = &ACTIVE_GAIN_GROWS_WITH_THREADS;
        let mut rows = faithful();
        for (threads, fwd) in THREADS.iter().zip([3500.0, 3600.0, 3000.0, 2800.0]) {
            let name = sweep_row("active", threads);
            let active = rows.iter_mut().find(|r| r.name == name).expect("row");
            active.point.iops = 1.35 * fwd;
        }
        assert!((claim.check)(&rows).is_err(), "flat at 1.35x");
        broken_by(claim, "fig6.active.t8", "iops", 3600.0 * 1.5);
        broken_by(claim, "fig6.active.t32", "iops", 2800.0 * 1.29);
    }

    /// The expected-false claim: it holds on the paper's shape, not on our
    /// measured 0.45, and the table's `holds` flag sides with ours. If the
    /// gap ever closes, `bench_smoke` fails until that flag is edited.
    #[test]
    fn the_known_gap_is_false_on_our_ratio_and_declared_so() {
        broken_by(
            &ACTIVE_NEAR_LEGACY,
            "fig6.active.t32",
            "active_over_legacy",
            0.45,
        );
        let claims = SCENARIOS.iter().flat_map(|s| s.claims);
        let expected_false: Vec<_> = claims.filter(|c| !c.holds).map(|c| c.text).collect();
        assert_eq!(expected_false, [ACTIVE_NEAR_LEGACY.text]);
    }

    #[test]
    fn guest_cpu_not_halved_fails() {
        let claim = &MIDDLEBOX_HALVES_GUEST_CPU;
        broken_by(claim, "fig10.middlebox.ftp", "vm_cpu_pct", 60.0);
        broken_by(claim, "fig10.middlebox.ftp", "total_cpu_pct", 100.0);
    }

    #[test]
    fn postmark_ratio_of_one_fails() {
        broken_by(
            &POSTMARK_GAINS,
            "fig11.middlebox.postmark",
            "write_mbps",
            10.0,
        );
    }

    #[test]
    fn replication_regressions_fail() {
        let (claim, replicated) = (&REPLICATION_SURVIVES_AND_STRIPES, "fig13.replicated.oltp");
        broken_by(claim, replicated, "client_errors", 1.0);
        broken_by(claim, replicated, "alive_replicas", 2.0);
        broken_by(claim, replicated, "tps_after", 0.0);
        broken_by(claim, replicated, "tps_after", 900.0);
        broken_by(claim, "fig13.single.oltp", "tps_before", 600.0);
    }

    #[test]
    fn a_missed_artifact_or_misattributed_byte_fails() {
        let claim = &MONITOR_RECONSTRUCTS;
        broken_by(claim, "table3.ganiw.install", "missed", 1.0);
        broken_by(
            claim,
            "table1.monitor.synthetic",
            "name1_write_bytes",
            28672.0,
        );
    }

    /// Run-free: the renderer is a pure function of the rows, names every
    /// figure and table row the scenario table declares and every claim,
    /// and a claim that fails on missing rows says so rather than passing.
    #[test]
    fn figures_render_purely_and_name_every_declared_row() {
        let rows = faithful();
        let rendered = render_figures(&rows);
        assert_eq!(rendered, render_figures(&rows));
        let declared = SCENARIOS.iter().flat_map(|s| s.rows);
        for name in declared.filter(|n| n.starts_with("fig") || n.starts_with("table")) {
            assert!(rows.iter().any(|r| r.name == *name), "{name} missing");
            assert!(rendered.contains(&format!("`{name}`")), "{name}");
        }
        for claim in SCENARIOS.iter().flat_map(|s| s.claims) {
            assert!(rendered.contains(claim.text), "{}", claim.text);
            assert!((claim.check)(&[]).is_err(), "{} on no rows", claim.text);
        }
    }
}
