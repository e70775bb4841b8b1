//! The cold set-up path end to end: database load → recording →
//! snapshot encode → mapped open → simulation.
//!
//! The load runs with the recorder off, so `Env` builds no trace ops for
//! it, and `Env::copy` moves bytes in place. Snapshots are encoded into
//! one buffer and opened in a single validating pass. None of this may
//! change a byte of the memory image, of a recorded program, of a
//! snapshot file or of a simulation report; these tests hold each layer
//! to that.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use subthreads::core::experiment::BenchmarkPrograms;
use subthreads::core::{CmpConfig, CmpSimulator, RunOptions, SpacingPolicy};
use subthreads::minidb::{Env, Tpcc, TpccConfig, Transaction};
use subthreads::trace::{Addr, OpKind, Pc, TraceOp, TraceProgram};
use tls_harness::codec::{
    decode_pair_file, encode_container, encode_pair, encode_pair_file, fnv1a, program_bytes,
    CHECKSUM_LEN, KIND_TRACE_PAIR,
};
use tls_harness::mapped::{MapOutcome, TraceView};
use tls_harness::SnapshotError;

const PC: Pc = Pc::new(7, 1);

/// An environment with one 64-byte buffer holding `0, 1, 2, ...`.
fn env_with_buffer() -> (Env, Addr) {
    let mut env = Env::new();
    let a = env.alloc(64, 8);
    let bytes: Vec<u8> = (0..64).collect();
    env.mem.write_bytes(a, &bytes);
    (env, a)
}

/// Runs `f` with the recorder on and returns what it recorded.
fn recorded(env: &mut Env, f: impl FnOnce(&mut Env)) -> Vec<TraceOp> {
    env.rec.start("probe", false);
    f(env);
    env.rec.finish().iter_ops().copied().collect()
}

/// A script that touches every kind of `Env` accessor, including
/// overlapping copies in both directions.
fn script(env: &mut Env, a: Addr) {
    env.store_u64(PC, a, 0x0102_0304_0506_0708);
    env.store_u32(PC, a.offset(8), 0xA0B0_C0D0);
    env.store_u16(PC, a.offset(12), 0xBEEF);
    let v = env.load_u64(PC, a) ^ u64::from(env.load_u16(PC, a.offset(12)));
    env.store_u64(PC, a.offset(40), v);
    env.copy(PC, a.offset(3), a, 21);
    env.copy(PC, a.offset(16), a.offset(19), 13);
    env.write_from(PC, a.offset(50), b"snapshot");
    let mut buf = [0u8; 11];
    env.read_into(PC, a.offset(2), &mut buf);
    env.write_from(PC, a.offset(30), &buf);
    env.fill(PC, a.offset(56), 8);
    env.alu(PC, 3);
    env.cmp_branch(PC, true);
    env.overhead(PC, a, 4);
}

fn image(env: &Env, a: Addr) -> Vec<u8> {
    env.mem.bytes(a, 64).to_vec()
}

#[test]
fn unrecorded_accessors_leave_nothing_to_record() {
    let (mut env, a) = env_with_buffer();
    assert!(!env.rec.recording());
    script(&mut env, a);
    env.rec.start("after", false);
    let program = env.rec.finish();
    assert_eq!(program.total_ops(), 0);
}

#[test]
fn recording_does_not_change_the_memory_effect() {
    let (mut off, a) = env_with_buffer();
    script(&mut off, a);
    let (mut on, b) = env_with_buffer();
    assert_eq!(a, b);
    let ops = recorded(&mut on, |env| script(env, b));
    assert!(!ops.is_empty());
    assert_eq!(image(&off, a), image(&on, b));
}

#[test]
fn recorded_copy_emits_chunked_load_store_pairs_then_a_branch() {
    let (mut env, a) = env_with_buffer();
    let ops = recorded(&mut env, |env| env.copy(PC, a.offset(32), a, 19));
    let kinds: Vec<OpKind> = ops.iter().map(|o| o.kind()).collect();
    let pair = |off: u64, size: u8| {
        [
            OpKind::Load { addr: a.offset(off), size },
            OpKind::Store { addr: a.offset(32 + off), size },
        ]
    };
    let mut expected = Vec::new();
    expected.extend(pair(0, 8));
    expected.extend(pair(8, 8));
    expected.extend(pair(16, 3));
    expected.push(OpKind::Branch { taken: false });
    assert_eq!(kinds, expected);
    // Each store depends on the load just before it.
    for store in ops.iter().skip(1).step_by(2).take(3) {
        assert_eq!(store.dep(), 1);
    }
}

#[test]
fn copy_over_a_forward_overlap_behaves_like_memmove() {
    let (mut env, a) = env_with_buffer();
    env.copy(PC, a.offset(4), a, 16);
    let expected: Vec<u8> = (0..4).chain(0..16).chain(20..64).collect();
    assert_eq!(image(&env, a), expected);
}

#[test]
fn copy_over_a_backward_overlap_behaves_like_memmove() {
    let (mut env, a) = env_with_buffer();
    env.copy(PC, a, a.offset(4), 16);
    let expected: Vec<u8> = (4..20).chain(16..64).collect();
    assert_eq!(image(&env, a), expected);
}

#[test]
fn zero_length_copy_changes_nothing_and_records_only_its_branch() {
    let (mut env, a) = env_with_buffer();
    let before = image(&env, a);
    let ops = recorded(&mut env, |env| env.copy(PC, a.offset(8), a, 0));
    assert_eq!(image(&env, a), before);
    let kinds: Vec<OpKind> = ops.iter().map(|o| o.kind()).collect();
    assert_eq!(kinds, [OpKind::Branch { taken: false }]);
}

#[test]
fn fill_records_stores_but_writes_no_bytes() {
    let (mut env, a) = env_with_buffer();
    let before = image(&env, a);
    let ops = recorded(&mut env, |env| env.fill(PC, a.offset(10), 12));
    assert_eq!(image(&env, a), before);
    let kinds: Vec<OpKind> = ops.iter().map(|o| o.kind()).collect();
    assert_eq!(
        kinds,
        [
            OpKind::Store { addr: a.offset(10), size: 8 },
            OpKind::Store { addr: a.offset(18), size: 4 },
        ]
    );
}

#[test]
fn buffer_transfers_record_eight_byte_chunks() {
    let (mut env, a) = env_with_buffer();
    let mut buf = [0u8; 10];
    let ops = recorded(&mut env, |env| {
        env.read_into(PC, a.offset(1), &mut buf);
        env.write_from(PC, a.offset(40), &buf);
    });
    assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
    assert_eq!(env.mem.bytes(a.offset(40), 10), buf);
    let kinds: Vec<OpKind> = ops.iter().map(|o| o.kind()).collect();
    assert_eq!(
        kinds,
        [
            OpKind::Load { addr: a.offset(1), size: 8 },
            OpKind::Load { addr: a.offset(9), size: 2 },
            OpKind::Store { addr: a.offset(40), size: 8 },
            OpKind::Store { addr: a.offset(48), size: 2 },
        ]
    );
}

#[test]
#[should_panic(expected = "simulated memory read out of range")]
fn unrecorded_copy_from_past_the_end_names_the_read() {
    let (mut env, a) = env_with_buffer();
    env.copy(PC, a, a.offset(60), 8);
}

#[test]
#[should_panic(expected = "simulated memory write out of range")]
fn unrecorded_copy_to_past_the_end_names_the_write() {
    let (mut env, a) = env_with_buffer();
    env.copy(PC, a.offset(60), a, 8);
}

// ---------------------------------------------------------------------------
// TPC-C load and recording.
// ---------------------------------------------------------------------------

fn populated_image(t: &Tpcc) -> Vec<u8> {
    t.env.mem.bytes(Addr(64), t.env.mem.allocated() as usize).to_vec()
}

fn program_json(p: &TraceProgram) -> String {
    serde_json::to_string(p).expect("serialize program")
}

#[test]
fn two_loads_of_one_config_record_the_same_programs() {
    let mut first = Tpcc::new(TpccConfig::test());
    let mut second = Tpcc::new(TpccConfig::test());
    assert_eq!(populated_image(&first), populated_image(&second));
    for txn in [Transaction::NewOrder, Transaction::Payment] {
        let (p1, p2) = (first.record(txn, 1), second.record(txn, 1));
        assert!(p1.total_ops() > 0, "{}", txn.label());
        assert_eq!(program_json(&p1), program_json(&p2), "{}", txn.label());
    }
    assert_eq!(populated_image(&first), populated_image(&second));
}

#[test]
fn the_load_leaves_the_recorder_off() {
    let t = Tpcc::new(TpccConfig::test());
    assert!(!t.env.rec.recording());
    assert!(t.env.mem.allocated() > 0);
}

// ---------------------------------------------------------------------------
// Snapshot encode, mapped open and simulation.
// ---------------------------------------------------------------------------

const KEY: u64 = 0x5EED_0C01_D5E7_0000;

fn pair() -> BenchmarkPrograms {
    let (plain, tls) = Tpcc::record_pair(&TpccConfig::test(), Transaction::NewOrder, 1);
    BenchmarkPrograms { plain, tls }
}

/// A temp path no other call in this process shares.
fn temp_file(tag: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tls-cold-{tag}-{}-{n}.trace", std::process::id()))
}

/// Writes `bytes` to a fresh temp file and opens it as a mapped view.
fn open_bytes(tag: &str, bytes: &[u8], key: u64) -> MapOutcome {
    let path = temp_file(tag);
    std::fs::write(&path, bytes).expect("write snapshot");
    let outcome = TraceView::open(&path, key);
    std::fs::remove_file(&path).expect("remove snapshot");
    outcome
}

fn mapped(outcome: MapOutcome) -> Box<TraceView> {
    match outcome {
        MapOutcome::Mapped(view) => view,
        other => panic!("expected a mapped view, got {other:?}"),
    }
}

#[test]
fn single_buffer_file_equals_the_framed_payload() {
    let p = pair();
    assert_eq!(encode_pair_file(KEY, &p), encode_container(KIND_TRACE_PAIR, KEY, &encode_pair(&p)));
}

#[test]
fn snapshot_file_decodes_to_the_recorded_pair() {
    let p = pair();
    let back = decode_pair_file(&encode_pair_file(KEY, &p), KEY).expect("decode");
    assert_eq!(program_json(&back.plain), program_json(&p.plain));
    assert_eq!(program_json(&back.tls), program_json(&p.tls));
}

#[test]
fn mapped_open_fingerprints_the_canonical_program_streams() {
    let p = pair();
    let view = mapped(open_bytes("fingerprint", &encode_pair_file(KEY, &p), KEY));
    assert_eq!(view.plain_fingerprint, fnv1a(&program_bytes(&p.plain)));
    assert_eq!(view.tls_fingerprint, fnv1a(&program_bytes(&p.tls)));
    assert_eq!(view.total_ops(), p.plain.total_ops() + p.tls.total_ops());
    assert_eq!((view.plain_name(), view.tls_name()), (&*p.plain.name, &*p.tls.name));
}

#[test]
fn mapped_view_simulates_exactly_like_the_owned_program() {
    let p = pair();
    let view = mapped(open_bytes("simulate", &encode_pair_file(KEY, &p), KEY));
    let mut config = CmpConfig::paper_default();
    config.subthreads.spacing = SpacingPolicy::EvenDivision;
    config.max_cycles = 100_000_000;
    let sim = CmpSimulator::new(config);
    let json = |r| serde_json::to_string(&r).expect("serialize report");
    let owned = json(sim.run(&p.tls));
    let served = json(sim.run_view(&view.tls(), RunOptions::checked_default(), None));
    assert_eq!(owned, served);
}

#[test]
fn a_corrupt_bank_byte_is_a_checksum_error() {
    let mut bytes = encode_pair_file(KEY, &pair());
    let at = bytes.len() - CHECKSUM_LEN - 5;
    bytes[at] ^= 0x40;
    match open_bytes("corrupt", &bytes, KEY) {
        MapOutcome::Bad(e) => assert_eq!(e, SnapshotError::ChecksumMismatch),
        other => panic!("expected a checksum error, got {other:?}"),
    }
}

#[test]
fn a_snapshot_under_another_key_is_a_key_mismatch() {
    let bytes = encode_pair_file(KEY, &pair());
    match open_bytes("key", &bytes, KEY + 1) {
        MapOutcome::Bad(e) => {
            assert_eq!(e, SnapshotError::KeyMismatch { found: KEY, expected: KEY + 1 })
        }
        other => panic!("expected a key mismatch, got {other:?}"),
    }
}

#[test]
fn a_missing_snapshot_is_a_cold_cache() {
    let path = temp_file("missing");
    assert!(matches!(TraceView::open(&path, KEY), MapOutcome::Missing));
}
