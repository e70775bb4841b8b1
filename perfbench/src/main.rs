//! Cold-path benchmark of the sub-thread TLS reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <figure5_cold|design_sweep|tiny_sweep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --record-reference
//! ```
//!
//! Run from the repository root. Each repetition starts from an empty
//! trace store with no report cache: set-up populates, records, encodes,
//! writes and maps every trace the workload needs; the run simulates the
//! grid across a pool of one worker per CPU and checks every report.
//! Repetitions continue until `--seconds` have passed (at least
//! [`MIN_REPS`]). Workloads whose inputs differ per repetition (see
//! [`workload::variants`]) repeat in rounds that cover every input
//! once; end-to-end metrics are medians over rounds of each round's
//! per-input mean.
//!
//! `--trace 0` reports the end-to-end metrics, measured with spans off.
//! `--trace 1` runs each input untraced and then traced, reports the
//! per-layer metrics from the traced runs plus the tracing overhead,
//! prints each layer's self time, and writes the spans to
//! `.perfbench/` as JSON and as Perfetto `trace_event` JSON.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod metrics;
mod spans;
mod workload;

use check::References;
use metrics::{Metrics, Rep};
use std::path::{Path, PathBuf};
use std::time::Instant;
use tls_harness::{JobPool, Scale};

/// Fewest repetitions a run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    record_reference: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        record_reference: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record-reference" {
            out.record_reference = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num =
            |v: &str| v.parse::<u64>().map_err(|_| format!("{flag} needs a number, got '{v}'"));
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = num(value)?,
            "--seconds" => out.seconds = num(value)? as f64,
            "--trace" => out.trace = num(value)? != 0,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !workload::NAMES.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload '{}' is not one of {}",
            out.workload,
            workload::NAMES.join(", ")
        ));
    }
    Ok(out)
}

/// Runs one repetition from an empty store under `dir`.
fn repetition(
    w: &workload::Workload,
    refs: &References,
    dir: &Path,
    pool: &JobPool,
    traced: bool,
) -> Rep {
    let _ = std::fs::remove_dir_all(dir);
    spans::set_enabled(traced);
    let start = Instant::now();
    let (programs, setup) = workload::setup(w, dir, pool);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let outcomes = workload::run(w, &programs, pool);
    let checked = spans::timed("bench.check", || metrics::check_all(w, &programs, &outcomes, refs));
    let run_s = start.elapsed().as_secs_f64();
    spans::set_enabled(false);
    let spans = if traced { spans::take() } else { Vec::new() };
    drop(programs);
    let _ = std::fs::remove_dir_all(dir);
    Rep { traced, setup_s, run_s, setup, checked, spans }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let inputs: Vec<workload::Workload> = (0..workload::variants(&args.workload))
        .map(|v| {
            workload::build(&args.workload, args.seed, v, Scale::Paper).expect("known workload")
        })
        .collect();
    let mut refs: Vec<References> =
        match inputs.iter().map(|w| References::load(&root, w)).collect() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: cannot load references: {e}");
                std::process::exit(1);
            }
        };
    if args.record_reference {
        // Recording replaces the digests; the invariants and the
        // repository's exact artifacts still gate what gets recorded.
        refs.iter_mut().for_each(|r| r.digests = None);
    }
    let pool = JobPool::new(JobPool::available());
    let work = root.join(".perfbench");
    let dir = work.join(format!("store-{}-{}", args.workload, std::process::id()));
    for w in &inputs {
        eprintln!(
            "perfbench: {} seed {} (workload seeds {:?}), {} traces, {} simulations, {} workers, \
             {} build",
            w.name,
            args.seed,
            w.seeds,
            w.traces.len(),
            w.sims.len(),
            pool.workers(),
            if cfg!(debug_assertions) { "debug" } else { "release" }
        );
    }

    if args.record_reference {
        for (w, refs) in inputs.iter().zip(&refs) {
            let rep = repetition(w, refs, &dir, &pool, false);
            let code = record_reference(&root, w, &rep);
            if code != 0 {
                std::process::exit(code);
            }
        }
        let _ = std::fs::remove_dir(&work);
        return;
    }

    // Untraced runs make rounds that cover every input once; traced runs
    // make pairs (untraced, then traced) on the same input.
    let k = inputs.len();
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let i = reps.len();
        let (input, traced) = if args.trace { ((i / 2) % k, i % 2 == 1) } else { (i % k, false) };
        let rep = repetition(&inputs[input], &refs[input], &dir, &pool, traced);
        eprintln!(
            "  rep {i}{}: seeds {:?}, setup {:.3} s, run {:.3} s, {}/{} reports failed",
            if traced { " (traced)" } else { "" },
            inputs[input].seeds,
            rep.setup_s,
            rep.run_s,
            rep.checked.failed,
            rep.checked.attempted
        );
        for f in rep.checked.failures.iter().take(5) {
            eprintln!("    {f}");
        }
        reps.push(rep);
        let (min, unit) = if args.trace { (2, 2) } else { (MIN_REPS.max(k), k) };
        let n = reps.len();
        if n >= min && n.is_multiple_of(unit) && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir(&work);

    let attempted: u64 = reps.iter().map(|r| r.checked.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.checked.failed).sum();
    let m = if args.trace {
        let construct_ms = metrics::construct_ms(&inputs[0]);
        let traced = reps.iter().find(|r| r.traced).expect("a traced repetition");
        write_spans(&work, &args.workload, args.seed, traced);
        metrics::per_layer(&reps, pool.workers(), construct_ms)
    } else {
        metrics::end_to_end(&reps, k)
    };
    println!("{}", result_line(failed == 0, attempted, failed, &m));
}

/// Writes the first traced repetition's spans and prints layer self times.
fn write_spans(work: &Path, workload: &str, seed: u64, rep: &Rep) {
    let _ = std::fs::create_dir_all(work);
    let stem = format!("{workload}_seed{seed}");
    let json: PathBuf = work.join(format!("spans_{stem}.json"));
    let perfetto: PathBuf = work.join(format!("trace_{stem}.perfetto.json"));
    let ok = std::fs::write(&json, spans::to_json(&rep.spans))
        .and_then(|_| std::fs::write(&perfetto, spans::to_perfetto(&rep.spans)));
    if let Err(e) = ok {
        eprintln!("perfbench: cannot write spans: {e}");
    }
    println!("layer self time (traced repetition, {} spans):", rep.spans.len());
    for (layer, s) in spans::layer_self_s(&rep.spans) {
        println!("  {layer:<8} {s:>10.4} s");
    }
    println!("spans: {}  perfetto: {}", json.display(), perfetto.display());
}

/// Adds this run's report digests to the workload's reference table.
fn record_reference(root: &Path, w: &workload::Workload, rep: &Rep) -> i32 {
    if rep.checked.failed != 0 {
        eprintln!("perfbench: not recording a reference from a run that failed its check");
        return 1;
    }
    let path = root.join(check::digest_file(w.name));
    let mut table = match std::fs::read_to_string(&path) {
        Ok(text) => match check::parse_digest_table(&text) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("perfbench: {}: {e}", path.display());
                return 1;
            }
        },
        Err(_) => Default::default(),
    };
    let hex: String = rep.checked.digests.iter().map(|d| format!("{d:08x}")).collect();
    table.insert(check::digest_key(w), hex);
    if let Err(e) = std::fs::write(&path, check::render_digest_table(&table)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        return 1;
    }
    eprintln!("perfbench: recorded {} digests under {}", rep.checked.digests.len(), path.display());
    0
}

/// The final output line.
fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let metrics: Vec<String> = m
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// Simulations kept per workload, so debug builds (auditor and
    /// oracle on) finish in reasonable time.
    const SIMS_PER_WORKLOAD: usize = 40;

    fn root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    /// Metric names of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
        let Value::Object(top) = serde::parse(&text).expect("BENCHMARK.json parses") else {
            panic!("BENCHMARK.json is an object")
        };
        let Some((_, Value::Array(items))) = top.iter().find(|(k, _)| k == section) else {
            panic!("BENCHMARK.json has no {section}")
        };
        items
            .iter()
            .map(|m| match m {
                Value::Object(f) => match &f.iter().find(|(k, _)| k == "name").expect("name").1 {
                    Value::Str(s) => s.clone(),
                    other => panic!("name is {other:?}"),
                },
                other => panic!("entry is {other:?}"),
            })
            .collect()
    }

    fn names(m: &Metrics) -> Vec<String> {
        m.iter()
            .map(|(n, v, _)| {
                assert!(v.is_finite(), "{n} = {v}");
                n.to_string()
            })
            .collect()
    }

    /// Input 0 of driver seed 0 at test scale, cut to its first
    /// simulations, with its references cut to match.
    fn small(name: &str) -> (workload::Workload, References) {
        let mut w = workload::build(name, 0, 0, Scale::Test).expect("workload");
        let mut refs = References::load(&root(), &w).expect("references load");
        w.sims.truncate(SIMS_PER_WORKLOAD);
        refs.exact.truncate(SIMS_PER_WORKLOAD);
        if let Some(d) = refs.digests.as_mut() {
            d.truncate(SIMS_PER_WORKLOAD);
        }
        (w, refs)
    }

    #[test]
    fn declared_workloads_are_the_built_ones() {
        assert_eq!(declared("workloads"), workload::NAMES);
    }

    /// One test, run serially: the span recorder is process-wide.
    #[test]
    fn every_metric_is_emitted_and_a_perturbed_reference_fails() {
        let pool = JobPool::new(2);
        let dir = std::env::temp_dir().join(format!("perfbench-selftest-{}", std::process::id()));
        for name in workload::NAMES {
            let (w, refs) = small(name);
            let reps = vec![
                repetition(&w, &refs, &dir, &pool, false),
                repetition(&w, &refs, &dir, &pool, true),
            ];
            for rep in &reps {
                assert_eq!(rep.checked.failed, 0, "{name}: {:?}", rep.checked.failures);
                assert_eq!(rep.checked.attempted, w.sims.len() as u64);
            }
            assert_eq!(
                names(&metrics::end_to_end(&reps[..1], 1)),
                declared("end_to_end"),
                "{name}"
            );
            let layers = metrics::per_layer(&reps, pool.workers(), metrics::construct_ms(&w));
            assert_eq!(names(&layers), declared("per_layer"), "{name}");
            assert!(!reps[1].spans.is_empty() && reps[0].spans.is_empty(), "{name}");

            // A reference that disagrees in one value fails that report.
            let mut digests = reps[0].checked.digests.clone();
            digests[w.sims.len() / 2] ^= 1;
            let perturbed = References { digests: Some(digests), exact: refs.exact.clone() };
            let rep = repetition(&w, &perturbed, &dir, &pool, false);
            assert_eq!(rep.checked.failed, 1, "{name}");
            let e2e = metrics::end_to_end(&[rep], 1);
            let correct = e2e.iter().find(|(n, _, _)| *n == "correct_share").expect("present").1;
            assert!(correct < 1.0, "{name}: failed share must be > 0");
        }
    }

    #[test]
    fn exact_references_cover_the_repository_artifacts() {
        let (_, refs) = small("figure5_cold");
        assert!(
            refs.exact.iter().all(Option::is_some),
            "results-test/figure5.json covers the grid"
        );
        let tiny = workload::build("tiny_sweep", 0, 0, Scale::Test).expect("tiny");
        let refs = References::load(&root(), &tiny).expect("sweep reference");
        let covered = refs.exact.iter().filter(|e| e.is_some()).count();
        assert_eq!(covered, 1000, "sweep_ci.jsonl covers seeds 1-4 of driver seed 0");
    }

    #[test]
    fn result_line_is_one_json_object_with_the_contract_keys() {
        let m: Metrics = vec![("run_s", 1.25, "s"), ("setup_s", 0.5, "s")];
        let line = result_line(true, 3, 0, &m);
        let Value::Object(top) = serde::parse(&line).expect("parses") else { panic!("object") };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
