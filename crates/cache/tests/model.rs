//! Property tests of the cache building blocks against reference models.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use tls_cache::{CacheParams, Inserted, L1Data, SetAssoc, VictimBuffer};
use tls_trace::Addr;

/// The original `Vec<Vec<Entry>>` set-associative array, kept verbatim
/// as the behavioural reference for the flat [`SetAssoc`]: the simulator's
/// byte-identity depends on its exact hit order, LRU victims, removal
/// order and iteration order, not only on its map semantics.
mod reference {
    use std::fmt::Debug;
    use tls_cache::Inserted;

    #[derive(Debug, Clone)]
    struct Entry<K, V> {
        key: K,
        value: V,
        stamp: u64,
    }

    #[derive(Debug, Clone)]
    pub struct VecSetAssoc<K, V> {
        sets: Vec<Vec<Entry<K, V>>>,
        ways: usize,
        tick: u64,
    }

    impl<K: Copy + Eq + Debug, V> VecSetAssoc<K, V> {
        pub fn new(sets: usize, ways: usize) -> Self {
            assert!(sets > 0 && ways > 0, "cache must have at least one set and way");
            VecSetAssoc {
                sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
                ways,
                tick: 0,
            }
        }

        fn bump(&mut self) -> u64 {
            self.tick += 1;
            self.tick
        }

        pub fn probe(&mut self, set: usize, key: K) -> Option<&mut V> {
            let stamp = self.bump();
            let entry = self.sets[set].iter_mut().find(|e| e.key == key)?;
            entry.stamp = stamp;
            Some(&mut entry.value)
        }

        pub fn peek(&self, set: usize, key: K) -> Option<&V> {
            self.sets[set].iter().find(|e| e.key == key).map(|e| &e.value)
        }

        pub fn touch_where(&mut self, set: usize, mut pred: impl FnMut(&K) -> bool) -> Option<K> {
            let entry = self.sets[set].iter_mut().find(|e| pred(&e.key))?;
            self.tick += 1;
            entry.stamp = self.tick;
            Some(entry.key)
        }

        pub fn insert_with(
            &mut self,
            set: usize,
            key: K,
            value: V,
            mut may_evict: impl FnMut(&K, &V) -> bool,
        ) -> Inserted<K, V> {
            assert!(
                self.sets[set].iter().all(|e| e.key != key),
                "duplicate insert of key {key:?} into set {set}"
            );
            let stamp = self.bump();
            if self.sets[set].len() < self.ways {
                self.sets[set].push(Entry { key, value, stamp });
                return Inserted::Placed;
            }
            let victim = self.sets[set]
                .iter()
                .enumerate()
                .filter(|(_, e)| may_evict(&e.key, &e.value))
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i);
            match victim {
                Some(i) => {
                    let old =
                        std::mem::replace(&mut self.sets[set][i], Entry { key, value, stamp });
                    Inserted::Evicted(old.key, old.value)
                }
                None => Inserted::SetFull,
            }
        }

        pub fn remove(&mut self, set: usize, key: K) -> Option<V> {
            let i = self.sets[set].iter().position(|e| e.key == key)?;
            Some(self.sets[set].swap_remove(i).value)
        }

        pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
            for set in &mut self.sets {
                set.retain_mut(|e| keep(&e.key, &mut e.value));
            }
        }

        pub fn iter(&self) -> impl Iterator<Item = (usize, &K, &V)> + '_ {
            self.sets
                .iter()
                .enumerate()
                .flat_map(|(s, v)| v.iter().map(move |e| (s, &e.key, &e.value)))
        }

        pub fn set_iter_mut(&mut self, set: usize) -> impl Iterator<Item = (&K, &mut V)> + '_ {
            self.sets[set].iter_mut().map(|e| (&e.key, &mut e.value))
        }

        pub fn len(&self) -> usize {
            self.sets.iter().map(Vec::len).sum()
        }

        pub fn set_len(&self, set: usize) -> usize {
            self.sets[set].len()
        }
    }
}

/// One step of the exact-behaviour comparison. Sets and keys are drawn
/// wider than the geometry needs, then reduced modulo it, so one op
/// sequence fits every generated geometry.
#[derive(Debug, Clone)]
enum ExactOp {
    /// `insert_with`; entries with `(key + value) % filter == 0` are
    /// protected (filter 1 protects everything, 0 nothing).
    Insert {
        set: u8,
        key: u8,
        value: u16,
        filter: u8,
    },
    /// `probe`, then overwrite the hit value.
    Probe {
        set: u8,
        key: u8,
        value: u16,
    },
    Peek {
        set: u8,
        key: u8,
    },
    /// `touch_where(|k| k % modulus == residue)`.
    Touch {
        set: u8,
        modulus: u8,
        residue: u8,
    },
    Remove {
        set: u8,
        key: u8,
    },
    /// `retain`, bumping every visited value and dropping those with
    /// `(key + value) % modulus == 0`.
    Retain {
        modulus: u8,
    },
    /// Bumps every value of one set through `set_iter_mut`.
    SetIterMut {
        set: u8,
    },
    /// Bumps every value through `for_each_mut` (the reference visits
    /// with a keep-everything `retain`).
    ForEachMut,
}

fn exact_op() -> impl Strategy<Value = ExactOp> {
    prop_oneof![
        6 => (any::<u8>(), 0u8..12, any::<u16>(), 0u8..4)
            .prop_map(|(set, key, value, filter)| ExactOp::Insert { set, key, value, filter }),
        3 => (any::<u8>(), 0u8..12, any::<u16>())
            .prop_map(|(set, key, value)| ExactOp::Probe { set, key, value }),
        1 => (any::<u8>(), 0u8..12).prop_map(|(set, key)| ExactOp::Peek { set, key }),
        2 => (any::<u8>(), 1u8..4, 0u8..4)
            .prop_map(|(set, modulus, residue)| ExactOp::Touch { set, modulus, residue }),
        2 => (any::<u8>(), 0u8..12).prop_map(|(set, key)| ExactOp::Remove { set, key }),
        1 => (1u8..6).prop_map(|modulus| ExactOp::Retain { modulus }),
        1 => any::<u8>().prop_map(|set| ExactOp::SetIterMut { set }),
        1 => Just(ExactOp::ForEachMut),
    ]
}

#[derive(Debug, Clone)]
enum SaOp {
    Insert(u8, u16),
    Probe(u8),
    Remove(u8),
}

fn sa_op() -> impl Strategy<Value = SaOp> {
    prop_oneof![
        3 => (any::<u8>(), any::<u16>()).prop_map(|(k, v)| SaOp::Insert(k, v)),
        2 => any::<u8>().prop_map(SaOp::Probe),
        1 => any::<u8>().prop_map(SaOp::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The set-associative array behaves as a bounded map: a probe hit
    /// returns the latest inserted value; capacity per set is never
    /// exceeded; anything reported evicted or removed is really gone.
    #[test]
    fn setassoc_is_a_bounded_map(ops in proptest::collection::vec(sa_op(), 1..300)) {
        const SETS: usize = 4;
        const WAYS: usize = 3;
        let mut c: SetAssoc<u8, u16> = SetAssoc::new(SETS, WAYS);
        // key -> value for keys we believe resident.
        let mut resident: HashMap<u8, u16> = HashMap::new();
        let set_of = |k: u8| (k as usize) % SETS;

        for op in ops {
            match op {
                SaOp::Insert(k, v) => {
                    if resident.contains_key(&k) {
                        // Duplicate inserts panic by contract; update via
                        // probe instead.
                        *c.probe(set_of(k), k).expect("resident key probes") = v;
                        resident.insert(k, v);
                    } else {
                        match c.insert(set_of(k), k, v) {
                            Inserted::Placed => {}
                            Inserted::Evicted(old_k, _) => {
                                prop_assert_eq!(set_of(old_k), set_of(k), "evicts same set");
                                resident.remove(&old_k);
                            }
                            Inserted::SetFull => prop_assert!(false, "unfiltered insert"),
                        }
                        resident.insert(k, v);
                    }
                }
                SaOp::Probe(k) => {
                    match (c.probe(set_of(k), k), resident.get(&k)) {
                        (Some(got), Some(want)) => prop_assert_eq!(*got, *want),
                        (None, None) => {}
                        (got, want) => prop_assert!(
                            false, "probe mismatch for {k}: {got:?} vs {want:?}"),
                    }
                }
                SaOp::Remove(k) => {
                    let removed = c.remove(set_of(k), k);
                    prop_assert_eq!(removed.is_some(), resident.remove(&k).is_some());
                }
            }
            // Structural invariants after every step.
            prop_assert_eq!(c.len(), resident.len());
            for s in 0..SETS {
                prop_assert!(c.set_len(s) <= WAYS);
            }
        }
    }

    /// The flat [`SetAssoc`] is observably identical to the original
    /// `Vec<Vec<Entry>>` array: same return values and `Inserted`
    /// outcomes (so the same LRU victims), same callback visit order,
    /// same `iter()` order, `len` and `set_len` after every op.
    #[test]
    fn setassoc_matches_the_vec_of_vecs_reference(
        sets in 1usize..6,
        ways in 1usize..5,
        ops in proptest::collection::vec(exact_op(), 1..300),
    ) {
        let mut flat: SetAssoc<u8, u16> = SetAssoc::new(sets, ways);
        let mut reference: reference::VecSetAssoc<u8, u16> =
            reference::VecSetAssoc::new(sets, ways);
        let bump = |v: &mut u16| *v = v.wrapping_add(1);
        for op in ops {
            match op {
                ExactOp::Insert { set, key, value, filter } => {
                    let set = set as usize % sets;
                    // Duplicate inserts panic by contract in both.
                    if reference.peek(set, key).is_some() {
                        continue;
                    }
                    let may_evict = |k: &u8, v: &u16| {
                        filter == 0 || !(*k as u16).wrapping_add(*v).is_multiple_of(filter as u16)
                    };
                    prop_assert_eq!(
                        flat.insert_with(set, key, value, may_evict),
                        reference.insert_with(set, key, value, may_evict)
                    );
                }
                ExactOp::Probe { set, key, value } => {
                    let set = set as usize % sets;
                    let got = flat.probe(set, key).map(|v| std::mem::replace(v, value));
                    let want = reference.probe(set, key).map(|v| std::mem::replace(v, value));
                    prop_assert_eq!(got, want);
                }
                ExactOp::Peek { set, key } => {
                    let set = set as usize % sets;
                    prop_assert_eq!(flat.peek(set, key), reference.peek(set, key));
                }
                ExactOp::Touch { set, modulus, residue } => {
                    let set = set as usize % sets;
                    let pred = |k: &u8| k % modulus == residue;
                    prop_assert_eq!(flat.touch_where(set, pred), reference.touch_where(set, pred));
                }
                ExactOp::Remove { set, key } => {
                    let set = set as usize % sets;
                    prop_assert_eq!(flat.remove(set, key), reference.remove(set, key));
                }
                ExactOp::Retain { modulus } => {
                    let mut seen = (Vec::new(), Vec::new());
                    flat.retain(|k, v| {
                        seen.0.push((*k, *v));
                        bump(v);
                        !(*k as u16).wrapping_add(*v).is_multiple_of(modulus as u16)
                    });
                    reference.retain(|k, v| {
                        seen.1.push((*k, *v));
                        bump(v);
                        !(*k as u16).wrapping_add(*v).is_multiple_of(modulus as u16)
                    });
                    prop_assert_eq!(seen.0, seen.1);
                }
                ExactOp::SetIterMut { set } => {
                    let set = set as usize % sets;
                    let got: Vec<(u8, u16)> =
                        flat.set_iter_mut(set).map(|(k, v)| { bump(v); (*k, *v) }).collect();
                    let want: Vec<(u8, u16)> =
                        reference.set_iter_mut(set).map(|(k, v)| { bump(v); (*k, *v) }).collect();
                    prop_assert_eq!(got, want);
                }
                ExactOp::ForEachMut => {
                    let mut seen = (Vec::new(), Vec::new());
                    flat.for_each_mut(|k, v| {
                        seen.0.push((*k, *v));
                        bump(v);
                    });
                    reference.retain(|k, v| {
                        seen.1.push((*k, *v));
                        bump(v);
                        true
                    });
                    prop_assert_eq!(seen.0, seen.1);
                }
            }
            let got: Vec<(usize, u8, u16)> = flat.iter().map(|(s, k, v)| (s, *k, *v)).collect();
            let want: Vec<(usize, u8, u16)> =
                reference.iter().map(|(s, k, v)| (s, *k, *v)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(flat.len(), reference.len());
            prop_assert_eq!(flat.is_empty(), reference.len() == 0);
            for s in 0..sets {
                prop_assert_eq!(flat.set_len(s), reference.set_len(s));
            }
        }
    }

    /// The victim buffer never exceeds capacity, never duplicates keys,
    /// and `take` finds exactly the still-buffered entries.
    #[test]
    fn victim_buffer_is_a_bounded_set(
        keys in proptest::collection::vec(0u16..40, 1..200),
        cap in 1usize..8,
    ) {
        let mut v: VictimBuffer<u16, u16> = VictimBuffer::new(cap);
        let mut resident: HashSet<u16> = HashSet::new();
        for (i, k) in keys.iter().enumerate() {
            if resident.contains(k) {
                // Contract: no duplicate inserts; take first.
                prop_assert!(v.take(*k).is_some());
                resident.remove(k);
            }
            if let Some((lost, _)) = v.insert(*k, i as u16) {
                prop_assert!(resident.remove(&lost) || lost == *k,
                    "displaced key {lost} was not resident");
            }
            if cap > 0 {
                resident.insert(*k);
            }
            prop_assert!(v.len() <= cap);
            prop_assert_eq!(v.len(), resident.len());
        }
        for k in resident.clone() {
            prop_assert!(v.take(k).is_some(), "resident key {k} must be takeable");
        }
        prop_assert!(v.is_empty());
    }

    /// L1 sanity: a line read after a fill hits until invalidated; the
    /// speculative flash-invalidate drops exactly the modified lines.
    #[test]
    fn l1_read_after_fill_hits_until_invalidated(
        lines in proptest::collection::vec(0u64..64, 1..60),
        spec_writes in proptest::collection::vec(0u64..64, 0..20),
    ) {
        let mut c = L1Data::new(CacheParams::new(64 * 32, 2, 32)); // 32 sets... 64 lines
        let mut maybe_resident: HashSet<u64> = HashSet::new();
        for l in &lines {
            c.fill(Addr(l * 32), false);
            maybe_resident.insert(*l);
        }
        let mut dirty: HashSet<u64> = HashSet::new();
        for l in &spec_writes {
            if c.write(Addr(l * 32), true) == tls_cache::L1WriteOutcome::Hit {
                dirty.insert(*l);
            }
        }
        let dropped = c.invalidate_speculative();
        prop_assert_eq!(dropped, dirty.len() as u64);
        for l in dirty {
            prop_assert!(!c.read(Addr(l * 32), false).hit, "dirty line {l} must be gone");
        }
    }
}
