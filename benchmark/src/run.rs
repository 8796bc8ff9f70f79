//! The run protocol for one workload in one process: warm-up, timed reps
//! with tracing off, and (with `--trace 1`) the traced rep, the probes
//! and the layer budget.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use storm_iscsi::TransportKind;
use storm_sim::trace::TraceHook;
use storm_telemetry::{analyze, Recorder};

use crate::scenario::{self, FullStack, SimOutcome, Slice};
use crate::spans::Spans;
use crate::{alloc, budget, fleet, probes, procfs, registry, stats};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Full(FullStack),
    Fleet,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        FullStack::ALL
            .into_iter()
            .map(Workload::Full)
            .chain([Workload::Fleet])
            .find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Full(kind) => kind.name(),
            Workload::Fleet => "fleet_1k",
        }
    }

    /// Discarded reps before timing: the fleet's first runs also pay for
    /// thread-stack and channel warm-up.
    fn warmups(self) -> usize {
        match self {
            Workload::Full(_) => 1,
            Workload::Fleet => 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// Host-clock readings of one rep.
#[derive(Debug, Clone)]
pub struct RepTimes {
    /// `run.window` + `run.drain`, from the spans.
    pub run_s: f64,
    /// The run window piece by piece: what `host_ops_per_s` is made of.
    /// The fleet model cannot be cut, so a fleet rep is one slice.
    pub slices: Vec<Slice>,
}

pub struct RunResult {
    pub workload: &'static str,
    pub opts: Opts,
    /// The sim-clock outcome every rep reproduced.
    pub sim: SimOutcome,
    /// Timed, untraced reps.
    pub reps: Vec<RepTimes>,
    /// Set-up times of the builds made only to be timed (`--trace 0`).
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub per_layer: Option<BTreeMap<&'static str, f64>>,
    pub budget_table: Option<String>,
    /// Correctness checks that failed; empty means `correct`.
    pub failures: Vec<String>,
    pub spans: Spans,
}

const SETUP_SPANS: [&str; 4] = [
    "setup.build_cloud",
    "setup.image",
    "setup.deploy_chain",
    "setup.login",
];

/// What arming a rep adds to it.
#[derive(Default)]
struct Armed {
    recorder: Option<Arc<Recorder>>,
    count_allocs: bool,
    /// Worker threads for the fleet (ignored by full-stack workloads).
    fleet_threads: usize,
}

struct Rep {
    sim: SimOutcome,
    times: RepTimes,
    /// `(allocations, bytes)` inside the run window, when counted.
    allocs: (u64, u64),
}

fn one_rep(opts: &Opts, armed: &Armed, spans: &mut Spans) -> Rep {
    let rep = spans.enter("rep");
    let mut allocs = (0, 0);
    let mut slices = Vec::new();
    let sim = match opts.workload {
        Workload::Full(kind) => {
            let hook = armed
                .recorder
                .as_ref()
                .map_or_else(TraceHook::none, Recorder::hook);
            let mut built = scenario::build(kind, opts.seed, opts.quick, hook, spans);
            let start = built.counters();
            if armed.count_allocs {
                alloc::start_counting();
            }
            slices = built.run(spans);
            if armed.count_allocs {
                allocs = alloc::stop_counting();
            }
            spans.enter("collect");
            let sim = built.collect(&start);
            spans.exit();
            sim
        }
        Workload::Fleet => {
            // The set-up span sits inside `fleet::rep`, so allocations of
            // the set-up run are counted too: 1000 tenants' worth, next to
            // 60 000 requests.
            if armed.count_allocs {
                alloc::start_counting();
            }
            let sim = fleet::rep(opts.seed, armed.fleet_threads, opts.quick, spans);
            if armed.count_allocs {
                allocs = alloc::stop_counting();
            }
            sim
        }
    };
    spans.exit();
    let run_s = spans.seconds_under(rep, "run.window") + spans.seconds_under(rep, "run.drain");
    if slices.is_empty() {
        slices.push(Slice {
            events: sim.window.events,
            host_s: run_s,
        });
    }
    let times = RepTimes { run_s, slices };
    Rep { sim, times, allocs }
}

const FLEET_THREADS: usize = 2;

// Both host-clock rates are the BEST observation, not the median. Every
// slice of a window, and every set-up, repeats identical deterministic work
// from rep to rep, and on the shared 2-vCPU reference box interference only
// ever adds time to it: in bursts of about a second, and in phases of
// minutes during which everything runs 1.5x slower. The best observation
// is the machine's own speed and repeats from run to run; the median
// follows whatever the neighbours did. Measured over four sets of ten runs,
// IQR/median of `host_ops_per_s`: 1-7 % (16 % with two runs of ten inside a
// slow phase) for the fastest slice, 2-12 % (27 %) for the 95th percentile,
// 9-26 % for the median. `setup_s` medians of two sets: within 14 % for the
// fastest build, 27 % apart for the median.

/// Builds made only to be timed, after every timed rep: this many, or as
/// many as fit the budget (`postmark_monitor` prepares an image for 0.16 s).
/// They are spread over the run so that some fall outside any one burst.
/// A rep's own set-up is no sample: it runs on the heap the rep before it
/// has just torn down.
const SETUPS_PER_REP: usize = 4;
const SETUPS_PER_REP_BUDGET_S: f64 = 0.2;

pub fn run(opts: Opts) -> RunResult {
    let mut spans = Spans::new();
    spans.enter("workload");
    let plain = Armed {
        fleet_threads: FLEET_THREADS,
        ..Armed::default()
    };
    let mut failures = Vec::new();
    // A traced fleet run is unpinned and can hit the executor's slow mode
    // (seconds per rep), so it spends one warm-up and two reps less.
    let lean = opts.trace && opts.workload == Workload::Fleet;
    if !opts.quick {
        for _ in 0..opts.workload.warmups() - lean as usize {
            spans.enter("warmup");
            one_rep(&opts, &plain, &mut spans);
            spans.exit();
        }
    }

    // Timed reps, tracing and allocation counting off. With `--trace 1`
    // they are only the baseline the traced rep is compared with, and get
    // a third of the time; the traced rep and the probes get the rest.
    let timed_budget = if opts.trace {
        opts.seconds / 3.0
    } else {
        opts.seconds
    };
    let min_reps = match (opts.quick, lean) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => 3,
    };
    let cpu_before = procfs::cpu_seconds();
    let phase = Instant::now();
    let mut reps: Vec<RepTimes> = Vec::new();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut sim: Option<SimOutcome> = None;
    loop {
        let rep = one_rep(&opts, &plain, &mut spans);
        reps.push(rep.times);
        check_same(&mut sim, rep.sim, &mut failures);
        if !opts.trace {
            timed_setups(&opts, &mut spans, &mut setup_s);
        }
        let elapsed = phase.elapsed().as_secs_f64();
        let mean_rep = elapsed / reps.len() as f64;
        // Stop when another rep would overshoot by more than half a rep.
        let time_up = opts.quick || elapsed + mean_rep / 2.0 >= timed_budget;
        if reps.len() >= min_reps && time_up {
            break;
        }
    }
    let cpu_after = procfs::cpu_seconds();
    let peak_rss_mb = procfs::peak_rss_mb();
    let sim = sim.expect("at least one timed rep ran");
    failures.extend(sim.check_failures.iter().cloned());
    let min_ops = if opts.quick { 500 } else { 2000 };
    if sim.ops < min_ops {
        failures.push(format!("{} ops per rep, p99 needs {min_ops}", sim.ops));
    }

    let mut result = RunResult {
        workload: opts.workload.name(),
        opts,
        sim,
        reps,
        setup_s,
        peak_rss_mb,
        per_layer: None,
        budget_table: None,
        failures,
        spans,
    };
    if opts.trace {
        let cpu = (
            (cpu_after.0 - cpu_before.0) / result.reps.len() as f64,
            (cpu_after.1 - cpu_before.1) / result.reps.len() as f64,
        );
        let remaining = (opts.seconds - phase.elapsed().as_secs_f64()).max(0.0);
        traced_phase(&mut result, cpu, remaining);
    }
    result.spans.exit();
    result
}

/// Builds the scenario a few times only to time the set-up.
fn timed_setups(opts: &Opts, spans: &mut Spans, samples: &mut Vec<f64>) {
    let started = Instant::now();
    for _ in 0..SETUPS_PER_REP {
        let id = spans.enter("setup_only");
        match opts.workload {
            Workload::Full(kind) => {
                scenario::build(kind, opts.seed, opts.quick, TraceHook::none(), spans);
            }
            Workload::Fleet => fleet::setup(opts.seed, FLEET_THREADS, opts.quick, spans),
        }
        spans.exit();
        samples.push(SETUP_SPANS.iter().map(|n| spans.seconds_under(id, n)).sum());
        if started.elapsed().as_secs_f64() >= SETUPS_PER_REP_BUDGET_S {
            break;
        }
    }
}

/// Every rep must reproduce the first one bit for bit.
fn check_same(first: &mut Option<SimOutcome>, next: SimOutcome, failures: &mut Vec<String>) {
    match first {
        None => *first = Some(next),
        Some(f) if *f != next => failures.push(format!(
            "a timed rep diverged on the sim clock: digest {:016x} vs {:016x}, ops {} vs {}",
            f.digest, next.digest, f.ops, next.ops
        )),
        Some(_) => {}
    }
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Operations the tenant attempted, and those that errored or never
    /// completed. A grouped replay counts whole transactions.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let s = &self.sim;
        let attempted = s.ops + s.unfinished;
        (attempted.max(1), (s.errors + s.unfinished).min(attempted))
    }

    /// Host-clock throughput of every timed slice of every timed rep, in
    /// tenant operations per second: the slice's events per second times
    /// the rep's operations per event. Events are the finer and more even
    /// unit of simulator work; an operation is hundreds of them.
    pub fn host_rates(&self) -> Vec<f64> {
        let mut rates = Vec::new();
        for rep in &self.reps {
            let events: u64 = rep.slices.iter().map(|s| s.events).sum();
            let ops_per_event = self.sim.ops as f64 / events.max(1) as f64;
            rates.extend(
                rep.slices
                    .iter()
                    .map(|s| s.events as f64 / s.host_s * ops_per_event),
            );
        }
        rates
    }

    pub fn sim_seconds(&self) -> f64 {
        self.sim.measured_ns as f64 / 1e9
    }

    pub fn sim_p50_ms(&self) -> f64 {
        stats::percentile_sorted_ns(&self.sim.lat_sorted_ns, 50.0) / 1e6
    }

    /// Every end-to-end metric, in registry order.
    pub fn end_to_end(&self) -> Vec<(&'static registry::EndToEnd, f64)> {
        let s = &self.sim;
        let mean_ns = s.lat_sorted_ns.iter().map(|&v| v as f64).sum::<f64>()
            / s.lat_sorted_ns.len().max(1) as f64;
        registry::END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "sim_iops" => s.ops as f64 / self.sim_seconds(),
                    "sim_mbps" => s.payload_bytes as f64 / 1e6 / self.sim_seconds(),
                    "sim_mean_ms" => mean_ns / 1e6,
                    "sim_p99_ms" => stats::percentile_sorted_ns(&s.lat_sorted_ns, 99.0) / 1e6,
                    "host_ops_per_s" => self.host_rates().into_iter().fold(0.0, f64::max),
                    "peak_rss_mb" => self.peak_rss_mb,
                    "setup_s" => self.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
                    other => unreachable!("unregistered end-to-end metric {other}"),
                };
                (m, v)
            })
            .collect()
    }
}

/// Files a per-layer value under its registered name; a name the registry
/// lacks would otherwise vanish from the output without a word.
fn set(m: &mut BTreeMap<&'static str, f64>, name: &str, value: f64) {
    match m.get_mut(name) {
        Some(slot) => *slot = value,
        None => panic!("{name} is not a registered per-layer metric"),
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn traced_phase(result: &mut RunResult, cpu_per_rep: (f64, f64), remaining_s: f64) {
    let opts = result.opts;
    let spans = &mut result.spans;
    let untraced_run_s = stats::median(&result.reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let mut m: BTreeMap<&'static str, f64> =
        registry::PER_LAYER.iter().map(|p| (p.name, 0.0)).collect();

    // The traced rep: sim-clock recorder and counting allocator armed.
    let recorder = Arc::new(Recorder::new());
    let traced = one_rep(
        &opts,
        &Armed {
            recorder: matches!(opts.workload, Workload::Full(_)).then(|| recorder.clone()),
            count_allocs: true,
            fleet_threads: FLEET_THREADS,
        },
        spans,
    );
    if traced.sim != result.sim {
        result.failures.push(format!(
            "traced rep diverged on the sim clock: digest {:016x} vs {:016x}",
            traced.sim.digest, result.sim.digest
        ));
    }
    let s = &result.sim;
    let ops = s.ops as f64;
    let w = &s.window;

    set(&mut m, "sim.events_per_op", ratio(w.events as f64, ops));
    set(
        &mut m,
        "sim.latency_p50_ms",
        stats::percentile_sorted_ns(&s.lat_sorted_ns, 50.0) / 1e6,
    );
    set(
        &mut m,
        "host.allocs_per_op",
        ratio(traced.allocs.0 as f64, ops),
    );
    set(
        &mut m,
        "host.alloc_bytes_per_op",
        ratio(traced.allocs.1 as f64, ops),
    );
    set(&mut m, "host.cpu_user_s", cpu_per_rep.0);
    set(&mut m, "host.cpu_sys_s", cpu_per_rep.1);
    set(
        &mut m,
        "host.ns_per_event",
        ratio(untraced_run_s * 1e9, w.events as f64),
    );

    let mut iscsi_pdus = 0.0;
    match opts.workload {
        Workload::Full(kind) => {
            set(&mut m, "net.frames_per_op", ratio(w.frames as f64, ops));
            set(
                &mut m,
                "net.wire_bytes_per_payload_byte",
                ratio(w.wire_bytes as f64, s.payload_bytes as f64),
            );
            set(&mut m, "net.tcp.segs_per_op", ratio(w.tcp_segs as f64, ops));
            if kind.transport() == TransportKind::Iscsi {
                let (per_read, per_write) = probes::iscsi_pdus_per_read_write(kind.block_bytes());
                iscsi_pdus = (s.reads * per_read + s.writes * per_write) as f64;
                set(&mut m, "iscsi.pdus_per_op", ratio(iscsi_pdus, ops));
            }
            set(
                &mut m,
                "nvmeq.frames_per_op",
                ratio((w.doorbells + w.cq_frames) as f64, ops),
            );
            set(
                &mut m,
                "nvmeq.doorbell_batch",
                ratio(w.sqes as f64, w.doorbells as f64),
            );
            set(
                &mut m,
                "nvmeq.cq_batch",
                ratio(w.cqes as f64, w.cq_frames as f64),
            );
            set(&mut m, "nvmeq.sq_peak", s.sq_peak as f64);
            let forwarded = w.pdus_forwarded as f64;
            set(
                &mut m,
                "core.relay.pdus_forwarded_per_op",
                ratio(forwarded, ops),
            );
            set(
                &mut m,
                "core.relay.verbatim_share",
                ratio(w.verbatim_forwards as f64, forwarded),
            );
            set(
                &mut m,
                "core.relay.data_bytes_copied_per_pdu",
                ratio(w.data_bytes_copied as f64, forwarded),
            );
            set(
                &mut m,
                "core.relay.header_bytes_copied_per_pdu",
                ratio(w.header_bytes_copied as f64, forwarded),
            );
            set(
                &mut m,
                "core.semantics.events_per_write",
                ratio(s.services.monitor_log_rows as f64, s.writes as f64),
            );
            set(
                &mut m,
                "services.encryption.bytes_per_op",
                ratio(s.services.cipher_bytes as f64, ops),
            );
            set(&mut m, "services.dedup.ratio", s.services.dedup_ratio);
            set(&mut m, "services.compress.ratio", s.services.compress_ratio);
            set(
                &mut m,
                "cloud.target.cmds_per_dispatch_tick",
                ratio(w.dispatch_cmds as f64, w.dispatch_ticks as f64),
            );

            set(
                &mut m,
                "telemetry.trace_overhead_share",
                ratio(traced.times.run_s, untraced_run_s) - 1.0,
            );
            // Sim-clock attribution of the traced rep.
            let events = recorder.events();
            set(
                &mut m,
                "telemetry.trace_events_per_op",
                ratio(events.len() as f64, ops),
            );
            spans.enter("collect.attribute");
            let report = analyze::attribute(&events);
            let attribute_s = spans.exit().seconds();
            set(&mut m, "telemetry.attribute_ms", attribute_s * 1e3);
            set(&mut m, "attr.incomplete_requests", report.incomplete as f64);
            for row in &report.rows {
                let key = match row.label.as_str() {
                    "disk" => "attr.disk.share",
                    "target" => "attr.target.share",
                    "network" => "attr.network.share",
                    "virtio" => "attr.virtio.share",
                    "forward" => "attr.forward.share",
                    "relay" => "attr.relay.share",
                    l if l.starts_with("service") => "attr.service.share",
                    _ => continue,
                };
                *m.get_mut(key).expect("registered") += row.share / 100.0;
            }
            if report.requests == 0 {
                result
                    .failures
                    .push("the traced rep attributed no request".to_string());
            }
        }
        Workload::Fleet => {
            // Two extra reps on a single worker thread: the executor's
            // speed-up, and the proof that thread count cannot move the
            // sim clock. Unpinned wall clock is scheduler-sensitive, so
            // the ratio compares the best rep at each thread count.
            let mut t1_best_s = f64::INFINITY;
            for _ in 0..2 {
                let t1 = one_rep(
                    &opts,
                    &Armed {
                        fleet_threads: 1,
                        ..Armed::default()
                    },
                    spans,
                );
                if t1.sim.digest != s.digest {
                    result.failures.push(format!(
                        "fleet digest differs between 1 and {FLEET_THREADS} threads: {:016x} vs {:016x}",
                        t1.sim.digest, s.digest
                    ));
                }
                t1_best_s = t1_best_s.min(t1.times.run_s);
            }
            let t2_best_s = result
                .reps
                .iter()
                .map(|r| r.run_s)
                .fold(f64::INFINITY, f64::min);
            set(&mut m, "sim.shard.ops_per_s_t2", ratio(ops, untraced_run_s));
            set(
                &mut m,
                "sim.shard.events_per_s_t1",
                ratio(w.events as f64, t1_best_s),
            );
            set(
                &mut m,
                "sim.shard.speedup_t2_over_t1",
                ratio(t1_best_s, t2_best_s),
            );
            set(
                &mut m,
                "sim.shard.sys_cpu_share",
                ratio(cpu_per_rep.1, cpu_per_rep.0 + cpu_per_rep.1),
            );
        }
    }

    // Probes share what is left of the time, never less than 20 ms each;
    // quick mode gives each 5 ms and no more.
    const PROBES: f64 = 21.0;
    let each = if opts.quick {
        Duration::from_millis(5)
    } else {
        Duration::from_secs_f64((remaining_s - traced.times.run_s).max(0.0) / PROBES)
            .max(Duration::from_millis(20))
    };
    let probe = probes::run_all(each, spans);
    for (name, v) in &probe {
        set(&mut m, name, *v);
    }

    // The layer budget: counts of the traced rep x probe costs, against
    // the untraced window.
    let rows = budget::rows(opts.workload, s, iscsi_pdus, &probe);
    let (table, explained_share) = budget::render(result.workload, &rows, untraced_run_s);
    set(&mut m, "host.layer_explained_share", explained_share);

    result.per_layer = Some(m);
    result.budget_table = Some(table);
}
