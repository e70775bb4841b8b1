//! Hardware support for profiling violated inter-thread dependences
//! (paper §3.1).
//!
//! Two pieces:
//!
//! * an **exposed-load table** per CPU — "a moderate-sized direct-mapped
//!   table of PCs, indexed by cache tag, which is updated with the PC of
//!   every speculative load which is exposed";
//! * a chip-wide list of *(load PC, store PC)* pairs with "the total
//!   failed speculation cycles attributed to each", with least-cycles
//!   reclamation when the list overflows.
//!
//! The programmer sorts this list by failed cycles to find which
//! dependence to eliminate next — the iterative tuning loop of §3.2.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use tls_trace::{Addr, Pc};

/// Tag bit marking an occupied exposed-load slot (above the 32-bit PC).
const VALID: u64 = 1 << 32;

/// One CPU's direct-mapped exposed-load table.
#[derive(Debug, Clone)]
pub struct ExposedLoadTable {
    /// `(line, VALID | pc)` per slot; all-zero is an empty slot, so a new
    /// table is one zeroed allocation.
    entries: Vec<(u64, u64)>,
    mask: u64,
    line_shift: u32,
}

impl ExposedLoadTable {
    /// A table with `entries` slots (power of two) for lines of
    /// `1 << line_shift` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a nonzero power of two.
    pub fn new(entries: usize, line_shift: u32) -> Self {
        assert!(entries > 0 && entries.is_power_of_two(), "table size must be a power of two");
        ExposedLoadTable { entries: vec![(0, 0); entries], mask: entries as u64 - 1, line_shift }
    }

    fn index(&self, addr: Addr) -> usize {
        ((addr.0 >> self.line_shift) & self.mask) as usize
    }

    /// Records that the exposed load at `pc` read `addr`.
    pub fn record(&mut self, addr: Addr, pc: Pc) {
        let line = addr.0 >> self.line_shift << self.line_shift;
        let i = self.index(addr);
        self.entries[i] = (line, VALID | pc.0 as u64);
    }

    /// Looks up the PC of the exposed load covering `addr`, if the entry
    /// has not been displaced by a conflicting line.
    pub fn lookup(&self, addr: Addr) -> Option<Pc> {
        let line = addr.0 >> self.line_shift << self.line_shift;
        match self.entries[self.index(addr)] {
            (l, tag) if tag & VALID != 0 && l == line => Some(Pc(tag as u32)),
            _ => None,
        }
    }

    /// Forgets everything (used on epoch boundaries).
    pub fn clear(&mut self) {
        self.entries.fill((0, 0));
    }
}

/// One entry of the profiler's report: a dependence, ranked by damage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileEntry {
    /// PC of the consuming (exposed) load, if the exposed-load table still
    /// held it when the violation fired.
    pub load_pc: Option<Pc>,
    /// PC of the producing store.
    pub store_pc: Option<Pc>,
    /// Total failed-speculation cycles this dependence caused.
    pub failed_cycles: u64,
    /// Number of violations attributed to it.
    pub violations: u64,
}

/// The chip-wide violation profiler.
#[derive(Debug, Clone)]
pub struct DependenceProfiler {
    pairs: HashMap<(Option<Pc>, Option<Pc>), (u64, u64)>,
    capacity: usize,
}

impl DependenceProfiler {
    /// A profiler holding at most `capacity` load/store pairs (least
    /// failed-cycles entries are reclaimed beyond that).
    pub fn new(capacity: usize) -> Self {
        DependenceProfiler { pairs: HashMap::new(), capacity: capacity.max(1) }
    }

    /// Attributes `failed_cycles` of rewound execution to the dependence
    /// `(load_pc, store_pc)`.
    pub fn attribute(&mut self, load_pc: Option<Pc>, store_pc: Option<Pc>, failed_cycles: u64) {
        if self.pairs.len() >= self.capacity && !self.pairs.contains_key(&(load_pc, store_pc)) {
            // Reclaim the entry with the least total cycles (paper §3.1).
            if let Some((&k, _)) =
                self.pairs.iter().min_by_key(|(k, (c, _))| (*c, k.0.map(|p| p.0), k.1.map(|p| p.0)))
            {
                self.pairs.remove(&k);
            }
        }
        let e = self.pairs.entry((load_pc, store_pc)).or_insert((0, 0));
        e.0 += failed_cycles;
        e.1 += 1;
    }

    /// The profile, most-damaging dependence first.
    pub fn report(&self) -> Vec<ProfileEntry> {
        let mut out: Vec<ProfileEntry> = self
            .pairs
            .iter()
            .map(|(&(load_pc, store_pc), &(failed_cycles, violations))| ProfileEntry {
                load_pc,
                store_pc,
                failed_cycles,
                violations,
            })
            .collect();
        out.sort_by_key(|e| {
            (std::cmp::Reverse(e.failed_cycles), e.load_pc.map(|p| p.0), e.store_pc.map(|p| p.0))
        });
        out
    }

    /// Number of distinct dependences currently tracked.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no violations have been attributed.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trips_pcs() {
        let mut t = ExposedLoadTable::new(16, 5);
        t.record(Addr(0x1000), Pc::new(1, 1));
        assert_eq!(t.lookup(Addr(0x1008)), Some(Pc::new(1, 1))); // same line
        assert_eq!(t.lookup(Addr(0x2000)), None);
    }

    #[test]
    fn a_fresh_table_holds_nothing_even_for_line_0_and_pc_0() {
        let mut t = ExposedLoadTable::new(4, 5);
        for addr in [0x0, 0x1f, 32, 96, 128] {
            assert_eq!(t.lookup(Addr(addr)), None, "address {addr:#x}");
        }
        // Line 0 with PC 0 is an ordinary entry once recorded.
        t.record(Addr(0x4), Pc(0));
        assert_eq!(t.lookup(Addr(0x0)), Some(Pc(0)));
        assert_eq!(t.lookup(Addr(128)), None); // same slot, other line
        t.clear();
        assert_eq!(t.lookup(Addr(0x0)), None);
    }

    #[test]
    fn conflicting_lines_displace() {
        let mut t = ExposedLoadTable::new(4, 5);
        t.record(Addr(0x0), Pc::new(1, 1));
        // 4 entries * 32B = 128B stride conflicts.
        t.record(Addr(128), Pc::new(2, 2));
        assert_eq!(t.lookup(Addr(0x0)), None);
        assert_eq!(t.lookup(Addr(128)), Some(Pc::new(2, 2)));
    }

    #[test]
    fn clear_forgets() {
        let mut t = ExposedLoadTable::new(4, 5);
        t.record(Addr(0x0), Pc::new(1, 1));
        t.clear();
        assert_eq!(t.lookup(Addr(0x0)), None);
    }

    #[test]
    fn profiler_ranks_by_failed_cycles() {
        let mut p = DependenceProfiler::new(16);
        let a = (Some(Pc::new(1, 0)), Some(Pc::new(1, 1)));
        let b = (Some(Pc::new(2, 0)), Some(Pc::new(2, 1)));
        p.attribute(a.0, a.1, 100);
        p.attribute(b.0, b.1, 50);
        p.attribute(b.0, b.1, 200);
        let r = p.report();
        assert_eq!(r[0].load_pc, b.0);
        assert_eq!(r[0].failed_cycles, 250);
        assert_eq!(r[0].violations, 2);
        assert_eq!(r[1].failed_cycles, 100);
    }

    #[test]
    fn overflow_reclaims_least_cycles() {
        let mut p = DependenceProfiler::new(2);
        p.attribute(Some(Pc::new(1, 0)), None, 100);
        p.attribute(Some(Pc::new(2, 0)), None, 10);
        p.attribute(Some(Pc::new(3, 0)), None, 50);
        assert_eq!(p.len(), 2);
        let r = p.report();
        assert_eq!(r[0].failed_cycles, 100);
        assert_eq!(r[1].failed_cycles, 50);
    }

    #[test]
    fn unknown_pcs_are_tracked_too() {
        let mut p = DependenceProfiler::new(4);
        p.attribute(None, Some(Pc::new(9, 9)), 42);
        let r = p.report();
        assert_eq!(r[0].load_pc, None);
        assert_eq!(r[0].failed_cycles, 42);
    }
}
