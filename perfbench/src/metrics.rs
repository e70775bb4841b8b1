//! Checking the reports of a repetition and turning repetitions into
//! the end-to-end and per-layer metrics `BENCHMARK.json` names.

use crate::check::{self, References};
use crate::spans::Span;
use crate::workload::{program_of, Program, SetupCounts, SimOutcome, Workload};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use tls_core::{CmpSimulator, RunOptions, SimReport};
use tls_harness::store::StoredPrograms;
use tls_trace::{OpSink, Pc, ProgramBuilder};

/// `(name, value, unit)` in output order.
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Totals of the modelled components over every report of a run.
#[derive(Debug, Default, Clone)]
pub struct SimTotals {
    pub cycles: u64,
    pub cpu_cycles: u64,
    pub failed_cycles: u64,
    pub dispatched_ops: u64,
    pub program_ops: u64,
    pub violations_primary: u64,
    pub violations_secondary: u64,
    pub subthreads_started: u64,
    pub l2_accesses: u64,
    pub l2_hits: u64,
    pub buffered_stores: u64,
    pub store_drains: u64,
    pub predicted_hits: u64,
}

impl SimTotals {
    fn add(&mut self, r: &SimReport) {
        self.cycles += r.total_cycles;
        self.cpu_cycles += r.total_cycles * r.cpus as u64;
        self.failed_cycles += r.breakdown.failed;
        self.dispatched_ops += r.dispatched_ops;
        self.program_ops += r.program_ops;
        self.violations_primary += r.violations.primary;
        self.violations_secondary += r.violations.secondary;
        self.subthreads_started += r.subthreads_started;
        self.l2_accesses += r.l2.accesses;
        self.l2_hits += r.l2.hits;
        self.buffered_stores += r.buffered_stores;
        self.store_drains += r.store_drains;
        self.predicted_hits += r.predicted_hits;
    }
}

/// What checking one repetition's reports found.
#[derive(Debug, Default)]
pub struct Checked {
    /// Simulations attempted.
    pub attempted: u64,
    /// Simulations that panicked or failed the output check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Counter digest per simulation (0 for a panicked one).
    pub digests: Vec<u32>,
    /// Modelled-component totals over the successful reports.
    pub totals: SimTotals,
    /// Host seconds of each simulation.
    pub sim_host_s: Vec<f64>,
}

/// Checks every outcome against the invariants and the references.
pub fn check_all(
    w: &Workload,
    programs: &[Arc<StoredPrograms>],
    outcomes: &[SimOutcome],
    refs: &References,
) -> Checked {
    let mut epochs: HashMap<(usize, Program), u64> = HashMap::new();
    let mut out = Checked { attempted: outcomes.len() as u64, ..Checked::default() };
    for (i, (sim, outcome)) in w.sims.iter().zip(outcomes).enumerate() {
        out.sim_host_s.push(outcome.host_s);
        let r = match &outcome.report {
            Ok(r) => r,
            Err(panic) => {
                out.failed += 1;
                out.digests.push(0);
                out.failures.push(format!("{}: panicked: {panic}", sim.label));
                continue;
            }
        };
        let want_epochs = *epochs.entry((sim.trace, sim.program)).or_insert_with(|| {
            let view = program_of(&programs[sim.trace], sim.program).view();
            view.regions.iter().map(|r| r.epochs() as u64).sum()
        });
        let digest = check::digest(r);
        out.digests.push(digest);
        let failure = check::invariant_failure(r, want_epochs)
            .or_else(|| refs.exact[i].as_ref().and_then(|f| check::exact_mismatch(r, f)))
            .or_else(|| {
                let want = refs.digests.as_ref()?[i];
                (want != digest).then(|| format!("digest {digest:08x}, reference {want:08x}"))
            });
        match failure {
            Some(why) => {
                out.failed += 1;
                out.failures.push(format!("{}: {why}", sim.label));
            }
            None => out.totals.add(r),
        }
    }
    out
}

/// One repetition of a workload.
pub struct Rep {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Seconds from an empty store to every trace mapped.
    pub setup_s: f64,
    /// Seconds from traces ready to the last report checked.
    pub run_s: f64,
    /// Set-up counters.
    pub setup: SetupCounts,
    /// The output check.
    pub checked: Checked,
    /// Recorded spans (traced repetitions only).
    pub spans: Vec<Span>,
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end metrics. Untraced repetitions form rounds of `k` (one
/// per workload input); each metric is the median over rounds of the
/// round's per-input mean (times) or total ratio (rates).
pub fn end_to_end(reps: &[Rep], k: usize) -> Metrics {
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let rounds: Vec<&[&Rep]> = untraced.chunks_exact(k).collect();
    let over_rounds = |f: &dyn Fn(&[&Rep]) -> f64| {
        let mut v: Vec<f64> = rounds.iter().map(|r| f(r)).collect();
        median(&mut v)
    };
    let sum = |round: &[&Rep], f: &dyn Fn(&Rep) -> f64| round.iter().map(|r| f(r)).sum::<f64>();
    let run_s = |round: &[&Rep]| sum(round, &|r| r.run_s);
    let attempted: u64 = untraced.iter().map(|r| r.checked.attempted).sum();
    let failed: u64 = untraced.iter().map(|r| r.checked.failed).sum();
    vec![
        ("setup_s", over_rounds(&|r| sum(r, &|r| r.setup_s) / k as f64), "s"),
        ("run_s", over_rounds(&|r| run_s(r) / k as f64), "s"),
        (
            "points_per_hour",
            over_rounds(&|r| ratio(sum(r, &|r| r.checked.attempted as f64) * 3600.0, run_s(r))),
            "points/h",
        ),
        (
            "sim_mcycles_per_host_s",
            over_rounds(&|r| ratio(sum(r, &|r| r.checked.totals.cycles as f64) / 1e6, run_s(r))),
            "Mcycles/s",
        ),
        (
            "sim_mops_per_host_s",
            over_rounds(&|r| {
                ratio(sum(r, &|r| r.checked.totals.dispatched_ops as f64) / 1e6, run_s(r))
            }),
            "Mops/s",
        ),
        ("peak_rss_mb", tls_harness::sweep::peak_rss_kb() as f64 / 1024.0, "MB"),
        ("correct_share", ratio((attempted - failed) as f64, attempted as f64), "share"),
    ]
}

/// Sum of the durations of spans named `name`, in seconds.
fn span_s(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e9).sum()
}

/// Median host milliseconds of a one-op simulation on each distinct
/// machine of the grid: a proxy for machine construction.
pub fn construct_ms(w: &Workload) -> f64 {
    let mut b = ProgramBuilder::new("construct");
    b.int_ops(Pc::new(0, 0), 1);
    let program = b.finish();
    let mut seen: Vec<String> = Vec::new();
    let mut times: Vec<f64> = Vec::new();
    for sim in &w.sims {
        let mut key = String::new();
        serde::Serialize::serialize(&sim.cfg, &mut key);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let start = Instant::now();
        let report = CmpSimulator::new(sim.cfg).run_view(
            &program.view(),
            RunOptions::checked_default(),
            None,
        );
        times.push(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(report);
    }
    median(&mut times)
}

/// Per-layer metrics of one traced repetition. `wall_overhead` is the
/// tracing overhead measured against the untraced repetitions.
fn layer_metrics(rep: &Rep, workers: usize, construct_ms: f64, wall_overhead: f64) -> Metrics {
    let sp = &rep.spans;
    let t = &rep.checked.totals;
    let populate_s = span_s(sp, "minidb.populate");
    let record_s = span_s(sp, "minidb.record");
    let encode_s = span_s(sp, "codec.encode");
    let simulate_s = span_s(sp, "core.simulate");
    let mut sim_ms: Vec<f64> = rep.checked.sim_host_s.iter().map(|s| s * 1e3).collect();
    let max_ms = sim_ms.iter().copied().fold(0.0, f64::max);
    // Worker time inside the run phase's pool calls not spent simulating.
    let run_phase = sp.iter().position(|s| s.name == "bench.run");
    let pool_worker_s: f64 = sp
        .iter()
        .filter(|s| s.name == "runner.run" && run_phase.is_some() && s.parent == run_phase)
        .map(|s| s.dur_ns() as f64 / 1e9 * workers as f64)
        .sum();
    vec![
        ("minidb.populate.calls", rep.setup.populations as f64, "count"),
        ("minidb.populate.s", populate_s, "s"),
        ("minidb.record.s", record_s, "s"),
        ("minidb.record.ops", rep.setup.recorded_ops as f64, "count"),
        (
            "minidb.record.mops_per_s",
            ratio(rep.setup.recorded_ops as f64 / 1e6, record_s),
            "Mops/s",
        ),
        ("codec.encode.s", encode_s, "s"),
        ("codec.encode.bytes", rep.setup.encoded_bytes as f64, "bytes"),
        ("codec.encode.mb_per_s", ratio(rep.setup.encoded_bytes as f64 / 1e6, encode_s), "MB/s"),
        ("mapped.write.s", span_s(sp, "mapped.write"), "s"),
        ("mapped.open.s", span_s(sp, "mapped.open"), "s"),
        ("core.construct.ms", construct_ms, "ms"),
        ("core.simulate.s", simulate_s, "s"),
        ("core.simulate.ns_per_op", ratio(simulate_s * 1e9, t.dispatched_ops as f64), "ns"),
        ("core.simulate.p50_ms", median(&mut sim_ms), "ms"),
        ("core.simulate.max_ms", max_ms, "ms"),
        ("runner.busy_share", ratio(simulate_s, workers as f64 * rep.run_s), "share"),
        ("runner.wait_s", (pool_worker_s - simulate_s).max(0.0), "s"),
        ("trace.overhead_share", wall_overhead, "share"),
        ("trace.spans", sp.len() as f64, "count"),
        ("sim.cycles", t.cycles as f64, "cycles"),
        ("sim.dispatched_ops", t.dispatched_ops as f64, "count"),
        ("sim.program_ops", t.program_ops as f64, "count"),
        ("sim.useful_op_share", ratio(t.program_ops as f64, t.dispatched_ops as f64), "share"),
        ("sim.failed_cycle_share", ratio(t.failed_cycles as f64, t.cpu_cycles as f64), "share"),
        ("sim.violations.primary", t.violations_primary as f64, "count"),
        ("sim.violations.secondary", t.violations_secondary as f64, "count"),
        ("sim.subthreads_started", t.subthreads_started as f64, "count"),
        ("sim.l2.miss_rate", 1.0 - ratio(t.l2_hits as f64, t.l2_accesses as f64), "share"),
        ("sim.buffered_stores", t.buffered_stores as f64, "count"),
        ("sim.store_drains", t.store_drains as f64, "count"),
        ("sim.predicted_hits", t.predicted_hits as f64, "count"),
    ]
}

/// Per-layer metrics: the median of each metric over the traced
/// repetitions. Repetitions come in (untraced, traced) pairs on the same
/// input; the tracing overhead is the median over pairs of the traced
/// wall time over the untraced one, less one.
pub fn per_layer(reps: &[Rep], workers: usize, construct_ms: f64) -> Metrics {
    let mut overheads: Vec<f64> = reps
        .chunks_exact(2)
        .map(|p| ratio(p[1].setup_s + p[1].run_s, p[0].setup_s + p[0].run_s) - 1.0)
        .collect();
    let overhead = median(&mut overheads);
    let per_rep: Vec<Metrics> = reps
        .iter()
        .filter(|r| r.traced)
        .map(|r| layer_metrics(r, workers, construct_ms, overhead))
        .collect();
    per_rep[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let mut v: Vec<f64> = per_rep.iter().map(|m| m[i].1).collect();
            (name, median(&mut v), unit)
        })
        .collect()
}
