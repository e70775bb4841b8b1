//! Byte-identity guard for the database load and the recorded programs.
//!
//! The load runs with recording off, and `Env` skips building trace ops
//! while it does; `Env::copy` moves bytes in place. Neither may change a
//! byte of what the engine produces. These tests pin, at test scale, the
//! FNV-1a of the whole populated memory image and of every recorded
//! program (canonical version-1 byte stream, the same bytes the snapshot
//! codec fingerprints), for both ends of the engine-tuning axis.

use tls_minidb::{fnv1a64, OptLevel, Tpcc, TpccConfig, Transaction};
use tls_trace::{Addr, Epoch, Region, TraceProgram};

/// The populated image (identical at every opt level: engine options
/// change physical logging, not the loaded rows).
const LOAD_IMAGE: u64 = 0x41a9_2812_883f_6018;
/// Plain programs on an `OptLevel::none()` database, `Transaction::ALL` order.
const PLAIN_PROGRAMS: [u64; 7] = [
    0x53c9_5b69_99f9_8c19,
    0x039e_046b_d49a_c42b,
    0x0684_df53_6adb_45fa,
    0x7709_3256_f4dd_9fc8,
    0xc693_8db2_ead3_0b65,
    0x93ee_6409_b3f2_e552,
    0x095b_bed1_1ac5_a51e,
];
/// Image after the plain recordings.
const PLAIN_IMAGE: u64 = 0xc3b9_28b0_acfe_9b54;
/// TLS programs on a `fully_optimized()` database, `Transaction::ALL` order.
const TLS_PROGRAMS: [u64; 7] = [
    0x808d_7479_b117_adbb,
    0xe7f0_6589_9911_df98,
    0xa8ee_8146_117e_b886,
    0xf747_d10d_d4fc_e502,
    0x1579_d454_0b34_3558,
    0x4216_9418_3aab_a277,
    0x3d5e_7374_52b7_b286,
];
/// Image after the TLS recordings.
const TLS_IMAGE: u64 = 0x053e_45ec_c276_8c77;

fn populated(opts: OptLevel) -> Tpcc {
    let mut cfg = TpccConfig::test();
    cfg.opts = opts;
    Tpcc::new(cfg)
}

/// FNV-1a of every allocated byte of the memory image.
fn image_hash(t: &Tpcc) -> u64 {
    let mem = &t.env.mem;
    fnv1a64(mem.bytes(Addr(64), mem.allocated() as usize))
}

fn put_epoch(out: &mut Vec<u8>, e: &Epoch) {
    out.extend_from_slice(&(e.len() as u32).to_le_bytes());
    for op in &e.ops {
        out.extend_from_slice(&op.to_raw());
    }
}

/// The canonical (version-1) program byte stream: name, regions, and
/// every op record in order.
fn program_hash(p: &TraceProgram) -> u64 {
    let mut out = Vec::new();
    out.extend_from_slice(&(p.name.len() as u32).to_le_bytes());
    out.extend_from_slice(p.name.as_bytes());
    out.extend_from_slice(&(p.regions.len() as u32).to_le_bytes());
    for region in &p.regions {
        match region {
            Region::Sequential(e) => {
                out.push(0);
                put_epoch(&mut out, e);
            }
            Region::Parallel(es) => {
                out.push(1);
                out.extend_from_slice(&(es.len() as u32).to_le_bytes());
                for e in es {
                    put_epoch(&mut out, e);
                }
            }
        }
    }
    fnv1a64(&out)
}

/// Records one instance of every transaction, in `Transaction::ALL`
/// order, on one database, and returns each program's hash plus the
/// image hash after the last recording.
fn record_all(opts: OptLevel, tls: bool) -> (Vec<u64>, u64) {
    let mut t = populated(opts);
    let programs = Transaction::ALL
        .iter()
        .map(|&txn| {
            let p = if tls { t.record(txn, 1) } else { t.record_plain(txn, 1) };
            program_hash(&p)
        })
        .collect();
    (programs, image_hash(&t))
}

#[test]
fn load_image_is_pinned() {
    let none = image_hash(&populated(OptLevel::none()));
    let full = image_hash(&populated(OptLevel::fully_optimized()));
    assert_eq!([none, full], [LOAD_IMAGE; 2]);
}

#[test]
fn plain_programs_are_pinned() {
    assert_eq!(record_all(OptLevel::none(), false), (PLAIN_PROGRAMS.to_vec(), PLAIN_IMAGE));
}

#[test]
fn tls_programs_are_pinned() {
    assert_eq!(record_all(OptLevel::fully_optimized(), true), (TLS_PROGRAMS.to_vec(), TLS_IMAGE));
}
