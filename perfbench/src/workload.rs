//! The three cold workloads and the two phases every repetition runs:
//! set-up (populate, record, encode, write, map every trace the workload
//! needs) and run (simulate every grid point across the pool).
//!
//! Grids come from the repository's own public grid builders —
//! [`ExperimentKind::configure`] for the Figure 5 grid and
//! [`SweepPlan`] for the sweeps — so the benchmark simulates exactly
//! what `suite` and `suite sweep` simulate.

use crate::spans::{self, timed};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tls_core::experiment::{BenchmarkPrograms, ExperimentKind};
use tls_core::{CmpConfig, CmpSimulator, MemoryModel, RunOptions, SimReport};
use tls_harness::plan::Job;
use tls_harness::store::{KeyedProgram, StoredPrograms};
use tls_harness::sweep::SweepSpec;
use tls_harness::{
    codec, instances, paper_machine, JobPool, MapOutcome, Scale, SweepPlan, TraceKey, TraceView,
};
use tls_minidb::{OptLevel, Tpcc, Transaction};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["figure5_cold", "design_sweep", "tiny_sweep"];

/// Which recorded program of a trace pair a simulation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Program {
    /// The unmodified execution.
    Plain,
    /// The TLS-transformed execution.
    Tls,
    /// The unmodified execution with every region serialized.
    SerialPlain,
    /// The TLS-transformed execution with every region serialized.
    SerialTls,
}

/// One simulation of the grid.
#[derive(Debug, Clone)]
pub struct Sim {
    /// Index into [`Workload::traces`].
    pub trace: usize,
    /// Which program of the pair.
    pub program: Program,
    /// The machine.
    pub cfg: CmpConfig,
    /// Stable label (`payment/BASELINE`, a sweep point key, ...).
    pub label: String,
}

/// A closed batch: traces to set up, then simulations to run.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Workload scale.
    pub scale: Scale,
    /// Workload seeds the traces were drawn from.
    pub seeds: Vec<u64>,
    /// Every trace the grid needs, in set-up order.
    pub traces: Vec<TraceKey>,
    /// The grid, in run order.
    pub sims: Vec<Sim>,
}

/// Distinct inputs a run of workload `name` cycles through, one per
/// repetition. Recording sizes differ a lot between TPC-C seeds (NEW
/// ORDER draws 5-15 or 50-150 order lines), so the paper-scale
/// workloads draw fresh seeds per repetition and a run averages over
/// several; `tiny_sweep` already spans eight seeds per repetition.
pub fn variants(name: &str) -> u64 {
    match name {
        "figure5_cold" | "design_sweep" => 3,
        _ => 1,
    }
}

/// Builds input `variant` of workload `name` for driver seed `seed` at
/// `scale`.
pub fn build(name: &str, seed: u64, variant: u64, scale: Scale) -> Option<Workload> {
    let index = seed * variants(name) + variant;
    match name {
        "figure5_cold" => Some(figure5_cold(index, scale)),
        "design_sweep" => Some(design_sweep(index, scale)),
        "tiny_sweep" => Some(tiny_sweep(index)),
        _ => None,
    }
}

/// The Figure 5 grid: 7 transactions x 5 experiments. Input 0 is the
/// paper's recording (the one `results/figure5.json` holds).
fn figure5_cold(index: u64, scale: Scale) -> Workload {
    let mut tpcc = scale.tpcc();
    tpcc.seed = tpcc.seed.wrapping_add(index);
    let base = paper_machine();
    let mut traces = Vec::new();
    let mut sims = Vec::new();
    for (t, &txn) in Transaction::ALL.iter().enumerate() {
        traces.push(TraceKey { cfg: tpcc.clone(), txn, count: instances(txn, scale) });
        for &kind in &ExperimentKind::ALL {
            let program = match (kind.serialized(), kind.uses_tls_trace()) {
                (true, true) => Program::SerialTls,
                (true, false) => Program::SerialPlain,
                (false, true) => Program::Tls,
                (false, false) => Program::Plain,
            };
            sims.push(Sim {
                trace: t,
                program,
                cfg: kind.configure(&base),
                label: format!("{}/{}", txn.trace_name(), kind.label()),
            });
        }
    }
    Workload { name: "figure5_cold", scale, seeds: vec![tpcc.seed], traces, sims }
}

/// Lays out the points of several sweep plans over the same seeds
/// seed-major (one trace per seed, shared by every plan).
fn sweep_workload(name: &'static str, scale: Scale, plans: &[SweepPlan]) -> Workload {
    let seeds = plans[0].spec.seeds.clone();
    let mut traces = Vec::new();
    let mut sims = Vec::new();
    for (t, &seed) in seeds.iter().enumerate() {
        traces.push(plans[0].trace_key(seed));
        for plan in plans {
            for (ci, point) in plan.selected(None).into_iter().filter(|(_, p)| p.seed == seed) {
                sims.push(Sim {
                    trace: t,
                    program: Program::Tls,
                    cfg: *plan.config(ci).0,
                    label: point.key(),
                });
            }
        }
    }
    Workload { name, scale, seeds, traces, sims }
}

/// NEW ORDER over sub-thread contexts x spacing x memory model x value
/// predictor; spacing is dropped on the one-context points, where it
/// is a no-op.
fn design_sweep(index: u64, scale: Scale) -> Workload {
    const SEEDS: u64 = 2;
    let seeds: Vec<u64> = (0..SEEDS).map(|i| index * SEEDS + i + 1).collect();
    let spec = |contexts: u8, spacings: Vec<u64>| SweepSpec {
        name: "design".to_string(),
        benchmark: Transaction::NewOrder,
        count: 0,
        seeds: seeds.clone(),
        spacings,
        contexts: vec![contexts],
        mem_latencies: vec![paper_machine().mem.mem_min_latency],
        vpredict_entries: vec![0, 1024],
        memory_models: vec![MemoryModel::Sc, MemoryModel::Tso { buffer_entries: 8 }],
    };
    let plans = [
        SweepPlan::new(spec(8, vec![1000, 5000]), scale),
        SweepPlan::new(spec(1, vec![5000]), scale),
    ];
    sweep_workload("design_sweep", scale, &plans)
}

/// The test-scale PAYMENT CI grid (`crates/harness/specs/sweep_grid.json`
/// axes) over eight seeds; input 0 covers the CI grid's own seeds 1-4.
fn tiny_sweep(index: u64) -> Workload {
    const SEEDS: u64 = 8;
    let spec = SweepSpec {
        name: "tiny".to_string(),
        benchmark: Transaction::Payment,
        count: 1,
        seeds: (0..SEEDS).map(|i| index * SEEDS + i + 1).collect(),
        spacings: vec![500, 1000, 1500, 2000, 2500, 3000, 4000, 5000, 7500, 10000],
        contexts: vec![1, 2, 4, 6, 8],
        mem_latencies: vec![25, 50, 75, 100, 150],
        vpredict_entries: Vec::new(),
        memory_models: Vec::new(),
    };
    sweep_workload("tiny_sweep", Scale::Test, &[SweepPlan::new(spec, Scale::Test)])
}

/// Per-trace set-up counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupCounts {
    /// `Tpcc::new` calls.
    pub populations: u64,
    /// Dynamic ops recorded (plain + TLS).
    pub recorded_ops: u64,
    /// Snapshot bytes encoded.
    pub encoded_bytes: u64,
}

/// Populates, records, encodes, writes and maps one trace pair.
fn setup_trace(key: &TraceKey, dir: &Path) -> (Arc<StoredPrograms>, SetupCounts) {
    let _g = spans::span("bench.trace");
    let hash = key.hash();
    let mut plain_cfg = key.cfg.clone();
    plain_cfg.opts = OptLevel::none();
    let mut plain_db = timed("minidb.populate", || Tpcc::new(plain_cfg));
    let plain = timed("minidb.record", || plain_db.record_plain(key.txn, key.count));
    drop(plain_db);
    let mut tls_db = timed("minidb.populate", || Tpcc::new(key.cfg.clone()));
    let tls = timed("minidb.record", || tls_db.record(key.txn, key.count));
    drop(tls_db);
    let recorded_ops = (plain.total_ops() + tls.total_ops()) as u64;
    let pair = BenchmarkPrograms { plain, tls };
    let bytes = timed("codec.encode", || codec::encode_pair_file(hash, &pair));
    drop(pair);
    let path = dir.join(key.file_name());
    timed("mapped.write", || write_synced(&path, &bytes));
    let encoded_bytes = bytes.len() as u64;
    drop(bytes);
    let view = match timed("mapped.open", || TraceView::open(&path, hash)) {
        MapOutcome::Mapped(view) => view,
        other => panic!("snapshot {} did not map: {other:?}", path.display()),
    };
    let counts = SetupCounts { populations: 2, recorded_ops, encoded_bytes };
    (Arc::new(StoredPrograms::from_view(Arc::new(*view))), counts)
}

/// Writes `bytes` the way the snapshot store does: temp file, fsync,
/// rename.
fn write_synced(path: &Path, bytes: &[u8]) {
    use std::io::Write;
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp).expect("create snapshot temp file");
    f.write_all(bytes).expect("write snapshot");
    f.sync_all().expect("sync snapshot");
    std::fs::rename(&tmp, path).expect("publish snapshot");
}

/// Sets up every trace of `w` into the empty directory `dir`.
pub fn setup(w: &Workload, dir: &Path, pool: &JobPool) -> (Vec<Arc<StoredPrograms>>, SetupCounts) {
    let _g = spans::span("bench.setup");
    std::fs::create_dir_all(dir).expect("create trace store");
    let jobs: Vec<Job<'_, (Arc<StoredPrograms>, SetupCounts)>> = w
        .traces
        .iter()
        .map(|key| {
            let job: Job<'_, _> = Box::new(move || setup_trace(key, dir));
            job
        })
        .collect();
    let results = spans::fan_out(pool, jobs);
    let mut total = SetupCounts::default();
    let programs = results
        .into_iter()
        .map(|(p, c)| {
            total.populations += c.populations;
            total.recorded_ops += c.recorded_ops;
            total.encoded_bytes += c.encoded_bytes;
            p
        })
        .collect();
    (programs, total)
}

/// The program a simulation runs. A serialized variant is built on
/// first use, inside the simulation job, as the suite builds it.
pub fn program_of(progs: &StoredPrograms, which: Program) -> &KeyedProgram {
    match which {
        Program::Plain => &progs.plain,
        Program::Tls => &progs.tls,
        Program::SerialPlain => timed("core.serialize", || progs.serialized(false)),
        Program::SerialTls => timed("core.serialize", || progs.serialized(true)),
    }
}

/// One simulation's outcome and host time.
pub struct SimOutcome {
    /// The report, or the panic message.
    pub report: Result<SimReport, String>,
    /// Host seconds the simulation took on its worker.
    pub host_s: f64,
}

/// Simulates every grid point of `w` across `pool`.
pub fn run(w: &Workload, programs: &[Arc<StoredPrograms>], pool: &JobPool) -> Vec<SimOutcome> {
    let _g = spans::span("bench.run");
    let jobs: Vec<Job<'_, SimOutcome>> = w
        .sims
        .iter()
        .map(|sim| {
            let progs = &programs[sim.trace];
            let job: Job<'_, SimOutcome> =
                Box::new(move || simulate(&sim.cfg, program_of(progs, sim.program)));
            job
        })
        .collect();
    spans::fan_out(pool, jobs)
}

fn simulate(cfg: &CmpConfig, program: &KeyedProgram) -> SimOutcome {
    let _g = spans::span("core.simulate");
    let start = Instant::now();
    let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        CmpSimulator::new(*cfg).run_view(&program.view(), RunOptions::checked_default(), None)
    }))
    .map_err(|p| tls_harness::runner::panic_message(p.as_ref()));
    SimOutcome { report, host_s: start.elapsed().as_secs_f64() }
}
