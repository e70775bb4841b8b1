//! In-memory host-time spans recorded around every call into a layer.
//!
//! A span is (name, start, end, parent, worker). Spans nest per thread:
//! a span opened while another is open on the same thread becomes its
//! child, and [`fan_out`] hands the span that submitted a batch of pool
//! jobs to each job as its parent, so a job's spans hang under the phase
//! that created it even though they run on a worker thread.
//!
//! With tracing off every call is one branch on a flag; nothing is
//! timed or stored. At the end the spans are written as plain JSON and
//! as Perfetto `trace_event` JSON with one track per worker.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;
use std::time::Instant;
use tls_harness::plan::Job;
use tls_harness::JobPool;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`minidb.populate`, `core.simulate`, ...).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// 0 for the driver thread, 1.. for pool workers.
    pub worker: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static WORKER: Cell<usize> = const { Cell::new(0) };
    static CURRENT: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Turns span recording on or off (off by default).
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *tracer().spans.lock().expect("span list poisoned"))
}

fn now_ns() -> u64 {
    tracer().epoch.elapsed().as_nanos() as u64
}

/// An open span; closes when dropped.
pub struct Guard {
    index: Option<usize>,
    outer: Option<usize>,
}

/// Opens a span named `name` under the thread's current span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { index: None, outer: None };
    }
    let outer = CURRENT.get();
    let worker = WORKER.get();
    let start_ns = now_ns();
    let index = {
        let mut spans = tracer().spans.lock().expect("span list poisoned");
        spans.push(Span { name, start_ns, end_ns: start_ns, parent: outer, worker });
        spans.len() - 1
    };
    CURRENT.set(Some(index));
    Guard { index: Some(index), outer }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = now_ns();
            if let Ok(mut spans) = tracer().spans.lock() {
                spans[index].end_ns = end;
            }
            CURRENT.set(self.outer);
        }
    }
}

/// Runs `f` inside a span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

/// Runs `jobs` on `pool` in submission order, inside a `runner.run`
/// span. Each job runs with the submitting span as its parent and the
/// worker's index as its track.
pub fn fan_out<'env, T: Send>(pool: &JobPool, jobs: Vec<Job<'env, T>>) -> Vec<T> {
    let _g = span("runner.run");
    if !enabled() {
        return pool.run(jobs);
    }
    let parent = CURRENT.get();
    let seen: Mutex<Vec<ThreadId>> = Mutex::new(Vec::new());
    let seen = &seen;
    let wrapped: Vec<Job<'_, T>> = jobs
        .into_iter()
        .map(|job| {
            let wrapped: Job<'_, T> = Box::new(move || {
                let me = std::thread::current().id();
                let worker = {
                    let mut seen = seen.lock().expect("worker list poisoned");
                    match seen.iter().position(|t| *t == me) {
                        Some(i) => i + 1,
                        None => {
                            seen.push(me);
                            seen.len()
                        }
                    }
                };
                let (old_worker, old_current) = (WORKER.get(), CURRENT.get());
                WORKER.set(worker);
                CURRENT.set(parent);
                let out = job();
                WORKER.set(old_worker);
                CURRENT.set(old_current);
                out
            });
            wrapped
        })
        .collect();
    pool.run(wrapped)
}

/// Length of the union of `intervals` (sorted in place).
fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children on other workers may overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| s.dur_ns().saturating_sub(union_ns(kids)))
        .collect()
}

/// The layer of a span: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self seconds per layer, in first-seen order.
pub fn layer_self_s(spans: &[Span]) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        let layer = layer_of(s.name);
        match out.iter_mut().find(|(l, _)| l == layer) {
            Some((_, v)) => *v += ns as f64 / 1e9,
            None => out.push((layer.to_string(), ns as f64 / 1e9)),
        }
    }
    out
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, worker}`.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"worker\":{}}}",
            s.name, s.start_ns, s.end_ns, s.worker
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Perfetto `trace_event` JSON: one complete (`X`) event per span, one
/// named track per worker (track 0 is the driver thread).
pub fn to_perfetto(spans: &[Span]) -> String {
    let mut events: Vec<String> = Vec::new();
    let mut workers: Vec<usize> = spans.iter().map(|s| s.worker).collect();
    workers.sort_unstable();
    workers.dedup();
    for w in workers {
        let name = if w == 0 { "driver".to_string() } else { format!("worker {w}") };
        events.push(format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{w},\"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
            s.name,
            layer_of(s.name),
            s.worker,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3
        ));
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, worker: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            s("bench.setup", 0, 100, None),
            s("minidb.populate", 10, 50, Some(0)),
            s("minidb.populate", 30, 70, Some(0)),
            s("codec.encode", 80, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 60 - 10, 40, 40, 10]);
        let layers = layer_self_s(&spans);
        assert_eq!(layers[0].0, "bench");
        assert!((layers[1].1 - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn perfetto_export_names_one_track_per_worker() {
        let mut spans = vec![s("core.simulate", 0, 10, None)];
        spans.push(Span { worker: 2, ..s("core.simulate", 5, 9, None) });
        let json = to_perfetto(&spans);
        let parsed = serde::parse(&json).expect("valid JSON");
        let serde::Value::Object(top) = parsed else { panic!("object") };
        let events = &top.iter().find(|(k, _)| k == "traceEvents").expect("events").1;
        let serde::Value::Array(events) = events else { panic!("array") };
        assert_eq!(events.len(), 4, "two track names + two slices");
        assert!(json.contains("\"worker 2\"") && json.contains("\"driver\""));
    }
}
