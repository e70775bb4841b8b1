//! The private, write-through L1 data cache.
//!
//! Per the paper's design: each CPU's L1 "buffers cache lines that have
//! been speculatively read or modified by the thread executing on the
//! corresponding CPU"; it is **write-through**, "ensuring that store values
//! are aggressively propagated to the L2"; and it is unaware of sub-threads
//! — "any dependence violation results in the invalidation of all
//! speculatively-modified cache lines in the appropriate L1 cache".

use crate::{CacheParams, CacheStats, Inserted, SetAssoc};
use serde::{Deserialize, Serialize};
use tls_trace::Addr;

/// Per-line L1 state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
struct L1Line {
    /// Loaded speculatively by the current epoch on this CPU.
    spec_loaded: bool,
    /// Modified speculatively by the current epoch on this CPU.
    spec_modified: bool,
    /// Sub-thread of the first speculative load of this line (only
    /// meaningful while `spec_loaded`); used by the optional sub-thread-
    /// aware invalidation the paper evaluates and dismisses in §2.2.
    first_load_sub: u8,
    /// Highest sub-thread that speculatively modified this line.
    max_mod_sub: u8,
}

/// Outcome of a store against the L1 (the store itself always continues to
/// the L2 — the L1 is write-through, write-no-allocate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1WriteOutcome {
    /// The line was resident and has been updated in place.
    Hit,
    /// The line was not resident; the write went straight through.
    Miss,
}

/// Outcome of a load against the L1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1ReadOutcome {
    /// The line was resident.
    pub hit: bool,
    /// This access set the line's speculatively-loaded mark for the first
    /// time since the last commit/violation. On an L1 hit this tells the
    /// TLS layer it must still notify the L2 to record the
    /// speculatively-loaded bit for the current thread context.
    pub newly_spec_loaded: bool,
}

/// A private write-through L1 data cache.
///
/// Holds tags and speculative marks only — the simulator is trace-driven,
/// so no data payloads are stored anywhere in the hierarchy.
#[derive(Debug, Clone)]
pub struct L1Data {
    params: CacheParams,
    lines: SetAssoc<u64, L1Line>,
    stats: CacheStats,
}

impl L1Data {
    /// An empty L1 with the given geometry.
    pub fn new(params: CacheParams) -> Self {
        L1Data {
            params,
            lines: SetAssoc::new(params.sets() as usize, params.ways as usize),
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Handles a load of `addr`. On miss the caller fetches from the L2
    /// and then calls [`fill`](L1Data::fill).
    ///
    /// `speculative` marks the line as speculatively loaded so a later
    /// violation flash-invalidate can discard it; the outcome reports
    /// whether the mark is new (first speculative touch since the last
    /// commit or violation).
    pub fn read(&mut self, addr: Addr, speculative: bool) -> L1ReadOutcome {
        self.read_sub(addr, speculative, 0)
    }

    /// [`read`](L1Data::read) with the current sub-thread recorded, for
    /// machines with sub-thread-aware L1 invalidation.
    pub fn read_sub(&mut self, addr: Addr, speculative: bool, sub: u8) -> L1ReadOutcome {
        let line = self.params.line_addr(addr).0;
        let set = self.params.set_index(addr);
        let outcome = match self.lines.probe(set, line) {
            Some(state) => {
                let newly = speculative && !state.spec_loaded;
                if newly {
                    state.first_load_sub = sub;
                }
                state.spec_loaded |= speculative;
                L1ReadOutcome { hit: true, newly_spec_loaded: newly }
            }
            None => L1ReadOutcome { hit: false, newly_spec_loaded: speculative },
        };
        self.stats.record(outcome.hit);
        outcome
    }

    /// Installs the line containing `addr` after a miss was serviced.
    /// No-op if the line became resident in the meantime.
    pub fn fill(&mut self, addr: Addr, speculative: bool) {
        self.fill_sub(addr, speculative, 0)
    }

    /// [`fill`](L1Data::fill) with the current sub-thread recorded.
    pub fn fill_sub(&mut self, addr: Addr, speculative: bool, sub: u8) {
        let line = self.params.line_addr(addr).0;
        let set = self.params.set_index(addr);
        if let Some(state) = self.lines.probe(set, line) {
            if speculative && !state.spec_loaded {
                state.first_load_sub = sub;
            }
            state.spec_loaded |= speculative;
            return;
        }
        let state = L1Line {
            spec_loaded: speculative,
            spec_modified: false,
            first_load_sub: sub,
            max_mod_sub: 0,
        };
        if let Inserted::Evicted(..) = self.lines.insert(set, line, state) {
            self.stats.evictions += 1;
        }
    }

    /// Handles a store to `addr`: updates the line in place if resident
    /// (write-no-allocate on miss). The caller always forwards the store to
    /// the L2 (write-through).
    pub fn write(&mut self, addr: Addr, speculative: bool) -> L1WriteOutcome {
        self.write_sub(addr, speculative, 0)
    }

    /// [`write`](L1Data::write) with the current sub-thread recorded.
    pub fn write_sub(&mut self, addr: Addr, speculative: bool, sub: u8) -> L1WriteOutcome {
        let line = self.params.line_addr(addr).0;
        let set = self.params.set_index(addr);
        match self.lines.probe(set, line) {
            Some(state) => {
                state.spec_modified |= speculative;
                if speculative {
                    state.max_mod_sub = state.max_mod_sub.max(sub);
                }
                self.stats.record(true);
                L1WriteOutcome::Hit
            }
            None => {
                self.stats.record(false);
                L1WriteOutcome::Miss
            }
        }
    }

    /// Coherence invalidation of a single line (e.g. the L2 discarded a
    /// speculative version another CPU had cached). Returns true if the
    /// line was resident.
    pub fn invalidate_line(&mut self, line_addr: Addr) -> bool {
        let set = self.params.set_index(line_addr);
        let removed = self.lines.remove(set, line_addr.0).is_some();
        if removed {
            self.stats.invalidations += 1;
        }
        removed
    }

    /// Violation recovery: flash-invalidates every speculatively-modified
    /// line (paper §2.2) and clears the speculative marks on the rest.
    /// Returns the number of lines invalidated.
    pub fn invalidate_speculative(&mut self) -> u64 {
        self.invalidate_speculative_from(0)
    }

    /// Sub-thread-aware violation recovery (the §2.2 extension the paper
    /// found "not worthwhile", modeled for the ablation): only lines
    /// whose speculative modifications could include rewound sub-threads
    /// (`max_mod_sub >= from_sub`) are dropped; loaded marks from rewound
    /// sub-threads are cleared so the replay re-notifies the L2.
    pub fn invalidate_speculative_from(&mut self, from_sub: u8) -> u64 {
        let mut dropped = 0;
        self.lines.retain(|_, state| {
            if state.spec_modified && state.max_mod_sub >= from_sub {
                dropped += 1;
                return false;
            }
            if state.spec_loaded && state.first_load_sub >= from_sub {
                state.spec_loaded = false;
            }
            true
        });
        self.stats.invalidations += dropped;
        dropped
    }

    /// Epoch commit: the speculative marks become ordinary data. Visits
    /// the resident lines in place; residency and LRU order are kept.
    pub fn clear_speculative_marks(&mut self) {
        self.lines.for_each_mut(|_, state| *state = L1Line::default());
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> L1Data {
        L1Data::new(CacheParams::paper_l1())
    }

    #[test]
    fn read_miss_then_fill_then_hit() {
        let mut c = l1();
        assert!(!c.read(Addr(0x100), false).hit);
        c.fill(Addr(0x100), false);
        assert!(c.read(Addr(0x100), false).hit);
        assert!(c.read(Addr(0x11f), false).hit); // same 32-byte line
        assert!(!c.read(Addr(0x120), false).hit); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses(), 2);
    }

    #[test]
    fn write_is_no_allocate() {
        let mut c = l1();
        assert_eq!(c.write(Addr(0x40), false), L1WriteOutcome::Miss);
        assert!(!c.read(Addr(0x40), false).hit); // still not resident
        c.fill(Addr(0x40), false);
        assert_eq!(c.write(Addr(0x40), false), L1WriteOutcome::Hit);
    }

    #[test]
    fn violation_invalidates_only_modified_lines() {
        let mut c = l1();
        c.fill(Addr(0x40), true); // spec loaded
        c.fill(Addr(0x80), false);
        c.write(Addr(0x80), true); // spec modified
        assert_eq!(c.invalidate_speculative(), 1);
        assert!(c.read(Addr(0x40), false).hit); // loaded line survives
        assert!(!c.read(Addr(0x80), false).hit); // modified line dropped
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn commit_clears_marks_but_keeps_lines() {
        let mut c = l1();
        c.fill(Addr(0x40), true);
        c.write(Addr(0x40), true);
        c.clear_speculative_marks();
        assert_eq!(c.invalidate_speculative(), 0);
        assert!(c.read(Addr(0x40), false).hit);
    }

    #[test]
    fn commit_clears_every_mark_in_place() {
        let mut c = l1();
        let stride = 256 * 32; // one set
        let line = |i: u64| Addr(0x40 + i * stride);
        for i in 0..4 {
            c.fill(line(i), true);
        }
        c.write(line(1), true);
        c.write(line(3), true);
        c.fill(Addr(0x80), true); // another set
        assert!(c.read(line(0), true).hit); // the write and read hits leave LRU order 2, 1, 3, 0
        c.clear_speculative_marks();
        assert_eq!(c.resident_lines(), 5);
        // No modified mark survives, and the recency order is untouched:
        // the next fill of the set displaces line 2, not line 0.
        c.fill(line(4), false);
        assert_eq!(c.stats().evictions, 1);
        assert!(!c.read(line(2), false).hit);
        assert_eq!(c.invalidate_speculative(), 0);
        // Every loaded mark is gone: each resident line is a new touch.
        for addr in [line(0), line(1), line(3), line(4), Addr(0x80)] {
            let r = c.read(addr, true);
            assert!(r.hit && r.newly_spec_loaded, "{addr:?}");
        }
    }

    #[test]
    fn coherence_invalidation_removes_line() {
        let mut c = l1();
        c.fill(Addr(0x200), false);
        assert!(c.invalidate_line(Addr(0x200)));
        assert!(!c.invalidate_line(Addr(0x200)));
        assert!(!c.read(Addr(0x200), false).hit);
    }

    #[test]
    fn conflict_evictions_are_counted() {
        let mut c = l1();
        let stride = 256 * 32; // maps to the same set
        for i in 0..5u64 {
            c.fill(Addr(i * stride), false);
        }
        assert_eq!(c.stats().evictions, 1); // 4 ways + 1
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn first_spec_touch_is_flagged_once() {
        let mut c = l1();
        c.fill(Addr(0x40), false);
        let first = c.read(Addr(0x40), true);
        assert!(first.hit && first.newly_spec_loaded);
        let second = c.read(Addr(0x40), true);
        assert!(second.hit && !second.newly_spec_loaded);
        // After commit the next speculative touch is "new" again.
        c.clear_speculative_marks();
        assert!(c.read(Addr(0x40), true).newly_spec_loaded);
        // A miss is always a new speculative touch.
        assert!(c.read(Addr(0xF00), true).newly_spec_loaded);
    }

    #[test]
    fn fill_is_idempotent_for_resident_lines() {
        let mut c = l1();
        c.fill(Addr(0x40), false);
        c.fill(Addr(0x40), true); // upgrades the mark, no duplicate
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(c.invalidate_speculative(), 0); // loaded-mark only
    }
}
