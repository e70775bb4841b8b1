//! Zero-copy read-path properties: a memory-mapped [`TraceView`] must be
//! observationally identical to an owned decode of the same snapshot,
//! and every malformed container must be rejected with a *typed* error
//! before any op is served in place.

use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use tls_core::experiment::BenchmarkPrograms;
use tls_harness::codec::{
    self, encode_pair_file, fingerprint_view, fnv1a, program_bytes, CHECKSUM_LEN, HEADER_LEN,
};
use tls_harness::mapped::{MapOutcome, TraceView};
use tls_trace::{Addr, LatchId, OpSink, Pc, ProgramBuilder, TraceOp, TraceProgram};

/// A generated op: `(class, module, site, arg, addr, dep)`.
type OpDesc = (u8, u16, u16, u8, u64, u16);

fn op_desc() -> impl Strategy<Value = OpDesc> {
    (any::<u8>(), any::<u16>(), any::<u16>(), any::<u8>(), any::<u64>(), any::<u16>())
}

/// Op lists that are empty a quarter of the time: empty epochs, and
/// programs with no ops (no regions) at all.
fn ops_or_empty(max: usize) -> impl Strategy<Value = Vec<OpDesc>> {
    prop_oneof![1 => Just(Vec::new()), 3 => vec(op_desc(), 1..max)]
}

fn op(d: OpDesc) -> TraceOp {
    let (class, module, site, arg, addr, dep) = d;
    let pc = Pc::new(module, site);
    let op = match class % 7 {
        0 => TraceOp::int_alu(pc, arg),
        1 => TraceOp::fp_alu(pc, arg),
        2 => TraceOp::load(pc, Addr(addr), arg % 8 + 1),
        3 => TraceOp::store(pc, Addr(addr), arg % 8 + 1),
        4 => TraceOp::branch(pc, arg & 1 == 1),
        5 => TraceOp::latch_acquire(pc, LatchId((addr & 0xFFFF) as u16)),
        _ => TraceOp::latch_release(pc, LatchId((addr & 0xFFFF) as u16)),
    };
    op.with_dep(dep)
}

fn program(name: &str, prefix: &[OpDesc], epochs: &[Vec<OpDesc>]) -> TraceProgram {
    program_with_suffix(name, prefix, epochs, &[])
}

fn program_with_suffix(
    name: &str,
    prefix: &[OpDesc],
    epochs: &[Vec<OpDesc>],
    suffix: &[OpDesc],
) -> TraceProgram {
    let mut b = ProgramBuilder::new(name);
    for &d in prefix {
        b.emit(op(d));
    }
    if !epochs.is_empty() {
        b.begin_parallel();
        for epoch in epochs {
            b.begin_epoch();
            for &d in epoch {
                b.emit(op(d));
            }
            b.end_epoch();
        }
        b.end_parallel();
    }
    for &d in suffix {
        b.emit(op(d));
    }
    b.finish()
}

/// A temp path no other call in this process shares, even when tests
/// with the same tag run in parallel.
fn temp_file(tag: &str) -> PathBuf {
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let n = CALLS.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("tls-mapped-{tag}-{}-{n}.trace", std::process::id()))
}

/// Writes `bytes` under `tag` and opens the file as a mapped view.
fn open_bytes(tag: &str, bytes: &[u8], key: u64) -> MapOutcome {
    let path = temp_file(tag);
    std::fs::write(&path, bytes).expect("write snapshot");
    let outcome = TraceView::open(&path, key);
    let _ = std::fs::remove_file(&path);
    outcome
}

/// Recomputes the trailing container checksum after a deliberate tamper,
/// so the tampered field itself — not the checksum — is what the decoder
/// trips over.
fn reseal(bytes: &mut [u8]) {
    let n = bytes.len() - CHECKSUM_LEN;
    let sum = fnv1a(&bytes[..n]).to_le_bytes();
    bytes[n..].copy_from_slice(&sum);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The mapped view and the owned decode of the same snapshot agree
    /// on every observable: canonical bytes, fingerprints, op counts.
    /// Empty epochs and empty programs are generated on purpose: the
    /// open's single bank pass must frame them exactly as the canonical
    /// byte stream does.
    #[test]
    fn mapped_view_equals_owned_decode(
        plain in ops_or_empty(10),
        prefix in ops_or_empty(10),
        epochs in vec(ops_or_empty(12), 0..5),
        suffix in ops_or_empty(6),
        key in any::<u64>(),
    ) {
        let pair = BenchmarkPrograms {
            plain: program("plain-prog", &plain, &[]),
            tls: program_with_suffix("tls-prog", &prefix, &epochs, &suffix),
        };
        let bytes = encode_pair_file(key, &pair);
        let owned = codec::decode_pair_file(&bytes, key).expect("owned decode");
        let MapOutcome::Mapped(view) = open_bytes("eq", &bytes, key) else {
            panic!("fresh v2 snapshot must map");
        };
        prop_assert_eq!(
            program_bytes(&view.plain().to_program()),
            program_bytes(&owned.plain)
        );
        prop_assert_eq!(program_bytes(&view.tls().to_program()), program_bytes(&owned.tls));
        prop_assert_eq!(view.plain().total_ops(), owned.plain.view().total_ops());
        prop_assert_eq!(view.tls().total_ops(), owned.tls.view().total_ops());
        // The map-time fingerprints are the canonical content hashes.
        prop_assert_eq!(view.plain_fingerprint, fnv1a(&program_bytes(&owned.plain)));
        prop_assert_eq!(view.tls_fingerprint, fnv1a(&program_bytes(&owned.tls)));
        prop_assert_eq!(view.plain_fingerprint, fingerprint_view(&view.plain()));
        prop_assert_eq!(view.tls_fingerprint, fingerprint_view(&view.tls()));
    }

    /// Every byte-boundary truncation is rejected by the mapped opener —
    /// never served, never a panic. (Zero-length files read as missing:
    /// an empty mapping carries no container at all.)
    #[test]
    fn truncations_never_map(cut_seed in any::<u64>()) {
        let pair = BenchmarkPrograms {
            plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
            tls: program("t", &[], &[vec![(2, 1, 2, 1, 64, 0)]]),
        };
        let bytes = encode_pair_file(7, &pair);
        let cut = 1 + (cut_seed % (bytes.len() as u64 - 1)) as usize;
        match open_bytes("cut", &bytes[..cut], 7) {
            MapOutcome::Bad(_) => {}
            other => prop_assert!(false, "a {cut}-byte prefix produced {other:?}"),
        }
    }
}

#[test]
fn foreign_endian_snapshots_are_rejected_with_a_typed_error() {
    let pair = BenchmarkPrograms {
        plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
        tls: program("t", &[], &[vec![(2, 1, 2, 1, 64, 0)]]),
    };
    let mut bytes = encode_pair_file(9, &pair);
    // The endianness stamp is the first payload field; byte-swap it as a
    // big-endian writer would have, and reseal the checksum so the stamp
    // itself is what the opener rejects.
    bytes.swap(HEADER_LEN, HEADER_LEN + 1);
    reseal(&mut bytes);
    match open_bytes("endian", &bytes, 9) {
        MapOutcome::Bad(e) => assert_eq!(e.code(), "foreign-endian", "{e}"),
        other => panic!("foreign-endian snapshot produced {other:?}"),
    }
    // The owned decoder agrees (no path serves swapped records).
    let err = codec::decode_pair_file(&bytes, 9).expect_err("owned decode rejects too");
    assert_eq!(err.code(), "foreign-endian");
}

#[test]
fn wrong_record_size_is_rejected_with_a_typed_error() {
    let pair = BenchmarkPrograms {
        plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
        tls: program("t", &[], &[vec![(2, 1, 2, 1, 64, 0)]]),
    };
    let mut bytes = encode_pair_file(11, &pair);
    // The declared record size (payload offset 2) guards layout drift: a
    // snapshot written by a build with a different `TraceOp` must not be
    // reinterpreted.
    bytes[HEADER_LEN + 2] = 24;
    reseal(&mut bytes);
    match open_bytes("recsize", &bytes, 11) {
        MapOutcome::Bad(e) => assert_eq!(e.code(), "bad-record-size", "{e}"),
        other => panic!("wrong-record-size snapshot produced {other:?}"),
    }
}

#[test]
fn declared_op_count_must_match_the_structure() {
    let pair = BenchmarkPrograms {
        plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
        tls: program("t", &[], &[vec![(2, 1, 2, 1, 64, 0)]]),
    };
    let mut bytes = encode_pair_file(13, &pair);
    // total_ops lives at payload offset 8; inflating it desynchronizes
    // the bank from the structure section.
    let at = HEADER_LEN + 8;
    let declared = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    bytes[at..at + 8].copy_from_slice(&(declared + 1).to_le_bytes());
    reseal(&mut bytes);
    match open_bytes("opcount", &bytes, 13) {
        // Depending on where the mismatch is caught the code differs,
        // but it must be a structured rejection.
        MapOutcome::Bad(e) => assert!(
            matches!(e.code(), "op-count-mismatch" | "length-mismatch" | "truncated"),
            "unexpected code {} ({e})",
            e.code()
        ),
        other => panic!("op-count-tampered snapshot produced {other:?}"),
    }
}

#[test]
fn structure_and_bank_corruption_reports_the_checksum_first() {
    let pair = BenchmarkPrograms {
        plain: program("p", &[(0, 1, 1, 1, 0, 0)], &[]),
        tls: program("t", &[(4, 1, 3, 1, 0, 0)], &[vec![(2, 1, 2, 1, 64, 0)], vec![]]),
    };
    let good = encode_pair_file(17, &pair);
    let bank_offset = u32::from_le_bytes(good[HEADER_LEN + 4..HEADER_LEN + 8].try_into().unwrap());
    let bank_at = HEADER_LEN + bank_offset as usize;
    // The first record's class byte: 0xFF is no op class, so the bank
    // byte alone would fail record validation.
    let bank_byte = bank_at + 4;
    // Every structure byte: some flips still parse (a name byte) and
    // reach the bank pass, others break the layout parse (a region
    // tag, an epoch count). Either way the checksum error comes first.
    for structure_byte in HEADER_LEN + 16..bank_at {
        let mut bad = good.clone();
        bad[structure_byte] ^= 0x5A;
        bad[bank_byte] = 0xFF;
        match open_bytes("corrupt", &bad, 17) {
            MapOutcome::Bad(e) => {
                assert_eq!(e.code(), "checksum-mismatch", "structure byte {structure_byte}: {e}")
            }
            other => panic!("structure byte {structure_byte} produced {other:?}"),
        }
    }
    // Resealed, the same bank byte is reported as the bad record it is.
    let mut bad = good.clone();
    bad[bank_byte] = 0xFF;
    reseal(&mut bad);
    match open_bytes("badop", &bad, 17) {
        MapOutcome::Bad(e) => assert_eq!(e.code(), "bad-op", "{e}"),
        other => panic!("resealed bad record produced {other:?}"),
    }
}
