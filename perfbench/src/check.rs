//! The output check behind `correct_share`.
//!
//! Every report must pass the model's invariants. On top of that, a
//! report is compared exactly against a reference wherever one exists:
//!
//! - `results/figure5.json` (bar cycles and violation counts) for the
//!   paper's Figure 5 recording, and `results-sweep/sweep_ci.jsonl` for
//!   the CI sweep's seeds 1-4 — the repository's own artifacts;
//! - otherwise a digest of the report's model counters recorded from
//!   the parent commit under `perfbench/reference/<workload>.json`.
//!
//! A seed with no reference is still checked by the invariants.

use crate::workload::{Sim, Workload};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;
use tls_core::SimReport;
use tls_harness::Scale;
use tls_minidb::Transaction;

/// Why a report failed the check, if it did.
pub fn invariant_failure(r: &SimReport, program_epochs: u64) -> Option<String> {
    if r.breakdown.total() != r.cpus as u64 * r.total_cycles {
        return Some(format!(
            "breakdown sums to {} != {} cpus x {} cycles",
            r.breakdown.total(),
            r.cpus,
            r.total_cycles
        ));
    }
    if r.committed_epochs != program_epochs {
        return Some(format!(
            "committed {} epochs of the program's {program_epochs}",
            r.committed_epochs
        ));
    }
    if !r.protocol_errors.is_empty() || r.faults.protocol_errors != 0 {
        return Some(format!("{} protocol errors", r.faults.protocol_errors));
    }
    if !r.audit_failures.is_empty() {
        return Some(format!("{} audit failures", r.audit_failures.len()));
    }
    if !r.livelocks.is_empty() {
        return Some(format!("{} livelocks", r.livelocks.len()));
    }
    if r.serializability_breaches != 0 {
        return Some(format!("{} serializability breaches", r.serializability_breaches));
    }
    None
}

/// The model counters a reference digest covers, in a fixed order.
fn model_counters(r: &SimReport) -> [u64; 30] {
    let b = &r.breakdown;
    [
        r.total_cycles,
        r.cpus as u64,
        b.busy,
        b.cache_miss,
        b.latch,
        b.sync,
        b.drain_stall,
        b.idle,
        b.failed,
        r.violations.primary,
        r.violations.secondary,
        r.violations.overflow,
        r.committed_epochs,
        r.subthreads_started,
        r.subthread_merges,
        r.dispatched_ops,
        r.program_ops,
        r.l1.accesses,
        r.l1.hits,
        r.l2.accesses,
        r.l2.hits,
        r.victim.accesses,
        r.mem_accesses,
        r.latch_acquisitions,
        r.predictor_synchronizations,
        r.predicted_hits,
        r.value_mispredicts,
        r.buffered_stores,
        r.forwarded_loads,
        r.store_drains,
    ]
}

/// A 32-bit digest of a report's model counters (FNV-1a, truncated).
pub fn digest(r: &SimReport) -> u32 {
    let mut h = tls_harness::codec::Fnv::new();
    for v in model_counters(r) {
        h.update(&v.to_le_bytes());
    }
    let x = h.finish();
    (x ^ (x >> 32)) as u32
}

/// Exact expectations for one simulation: dotted field path -> value.
type Fields = Vec<(String, Value)>;

/// Everything a run is checked against.
#[derive(Debug, Default)]
pub struct References {
    /// Per-simulation counter digests from the parent commit.
    pub digests: Option<Vec<u32>>,
    /// Per-simulation exact fields from the repository's artifacts.
    pub exact: Vec<Option<Fields>>,
}

impl References {
    /// Loads the references for workload input `w` from the checkout
    /// at `root`.
    pub fn load(root: &Path, w: &Workload) -> Result<References, String> {
        let mut refs = References {
            digests: load_digests(&root.join(digest_file(w.name)), w)?,
            exact: vec![None; w.sims.len()],
        };
        match w.name {
            "figure5_cold" if w.seeds == [w.scale.tpcc().seed] => {
                let file = match w.scale {
                    Scale::Paper => "results/figure5.json",
                    Scale::Test => "results-test/figure5.json",
                };
                figure5_fields(&root.join(file), &mut refs.exact)?;
            }
            "tiny_sweep" => sweep_rows(&root.join("results-sweep/sweep_ci.jsonl"), w, &mut refs)?,
            _ => {}
        }
        Ok(refs)
    }
}

/// The digest file of a workload, relative to the checkout root.
pub fn digest_file(workload: &str) -> String {
    format!("perfbench/reference/{workload}.json")
}

/// The reference key of one workload input: scale and workload seeds.
pub fn digest_key(w: &Workload) -> String {
    let seeds: Vec<String> = w.seeds.iter().map(u64::to_string).collect();
    format!("{}/{}", w.scale.name(), seeds.join(","))
}

fn load_digests(path: &Path, w: &Workload) -> Result<Option<Vec<u32>>, String> {
    let Ok(text) = std::fs::read_to_string(path) else { return Ok(None) };
    let table = parse_digest_table(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(hex) = table.get(&digest_key(w)) else { return Ok(None) };
    if hex.len() != 8 * w.sims.len() {
        return Err(format!(
            "{}: {} has {} digests for {} simulations",
            path.display(),
            digest_key(w),
            hex.len() / 8,
            w.sims.len()
        ));
    }
    let digests = (0..w.sims.len())
        .map(|i| u32::from_str_radix(&hex[8 * i..8 * i + 8], 16))
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|e| format!("{}: bad digest: {e}", path.display()))?;
    Ok(Some(digests))
}

/// Parses `{"<scale>/<seeds>": "<hex digests>", ...}`.
pub fn parse_digest_table(text: &str) -> Result<BTreeMap<String, String>, String> {
    let Value::Object(pairs) = serde::parse(text).map_err(|e| e.0)? else {
        return Err("digest table is not an object".to_string());
    };
    pairs
        .into_iter()
        .map(|(k, v)| match v {
            Value::Str(s) => Ok((k, s)),
            _ => Err(format!("{k}: digests must be a string")),
        })
        .collect()
}

/// Renders a digest table, one key per line.
pub fn render_digest_table(table: &BTreeMap<String, String>) -> String {
    let lines: Vec<String> = table.iter().map(|(k, v)| format!("  \"{k}\": \"{v}\"")).collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Figure 5 bars, in `Transaction::ALL` x `ExperimentKind::ALL` order.
fn figure5_fields(path: &Path, exact: &mut [Option<Fields>]) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let Value::Array(panels) = serde::parse(&text).map_err(|e| e.0)? else {
        return Err(format!("{}: not an array of panels", path.display()));
    };
    for (b, (panel, txn)) in panels.iter().zip(Transaction::ALL).enumerate() {
        if get(panel, "benchmark") != Some(&Value::Str(txn.label().to_string())) {
            return Err(format!("{}: panel {b} is not {}", path.display(), txn.label()));
        }
        let Some(Value::Array(bars)) = get(panel, "bars") else {
            return Err(format!("{}: panel {b} has no bars", path.display()));
        };
        for (k, bar) in bars.iter().enumerate() {
            let fields = [
                ("total_cycles", "total_cycles"),
                ("violations_primary", "violations.primary"),
                ("violations_secondary", "violations.secondary"),
                ("violations_overflow", "violations.overflow"),
            ]
            .iter()
            .filter_map(|(from, to)| get(bar, from).map(|v| (to.to_string(), v.clone())))
            .collect();
            if let Some(slot) = exact.get_mut(b * bars.len() + k) {
                *slot = Some(fields);
            }
        }
    }
    Ok(())
}

/// Flattens every scalar leaf of `v` into `(dotted path, value)`.
fn flatten(prefix: &str, v: &Value, out: &mut Fields) {
    match v {
        Value::Object(pairs) => {
            for (k, v) in pairs {
                let path = if prefix.is_empty() { k.clone() } else { format!("{prefix}.{k}") };
                flatten(&path, v, out);
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                flatten(&format!("{prefix}.{i}"), v, out);
            }
        }
        leaf => out.push((prefix.to_string(), leaf.clone())),
    }
}

/// CI sweep rows whose point key is in the workload's grid.
fn sweep_rows(path: &Path, w: &Workload, refs: &mut References) -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string(path) else { return Ok(()) };
    let index: BTreeMap<&str, usize> =
        w.sims.iter().enumerate().map(|(i, s): (usize, &Sim)| (s.label.as_str(), i)).collect();
    for line in text.lines() {
        let row = serde::parse(line).map_err(|e| format!("{}: {}", path.display(), e.0))?;
        let Some(Value::Str(point)) = get(&row, "point") else { continue };
        let (Some(&i), Some(report)) = (index.get(point.as_str()), get(&row, "report")) else {
            continue;
        };
        let mut fields = Vec::new();
        flatten("", report, &mut fields);
        refs.exact[i] = Some(fields);
    }
    Ok(())
}

/// Why `r` differs from the exact expectation, if it does.
pub fn exact_mismatch(r: &SimReport, fields: &Fields) -> Option<String> {
    let json = serde_json::to_string(r).expect("report serializes");
    let mut ours = Vec::new();
    flatten("", &serde::parse(&json).expect("report JSON parses"), &mut ours);
    let ours: BTreeMap<String, Value> = ours.into_iter().collect();
    for (path, want) in fields {
        match ours.get(path) {
            Some(got) if got == want => {}
            got => return Some(format!("{path}: got {got:?}, reference {want:?}")),
        }
    }
    None
}
