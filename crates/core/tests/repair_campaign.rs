//! Seeded parity-repair campaign against the self-healing subsystem.
//!
//! `cuszp-faultsim`'s `parity_campaign` engineers shard-precise damage
//! on a known side of the per-stripe erasure budget and tags each case
//! with the outcome the recovery contract promises:
//!
//! * within budget (`Heals`) — resilient decompression is bit-exact,
//!   nothing is reported damaged, and `repair` restores the pre-damage
//!   archive byte-identically;
//! * beyond budget (`DataLoss`) — no panic, at least one stripe is
//!   reported unrepairable, unrecovered slabs are filled per policy,
//!   and `repair` refuses to rewrite the file;
//! * parity metadata destroyed (`MetadataOnly`) — the archive behaves
//!   as parity-less and decodes bit-exactly.
//!
//! Every case replays exactly from `(base, CAMPAIGN_SEED, case id)`.

use cuszp_core::{
    decompress_resilient, repair, scan, Compressor, Config, Dims, ErrorBound, FillPolicy,
    ParityConfig,
};
use cuszp_faultsim::{parity_campaign, parse_parity, ParityExpect};
use cuszp_parallel::WorkerPool;

const CAMPAIGN_SEED: u64 = 0xC52A_2021_FA17_0002;
const CAMPAIGN_CASES: usize = 256;

/// A noisy (deliberately hard-to-compress) field, so the chunk region
/// spans several parity stripes at the 4 KiB shard cap.
fn field(n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            (i as f32 * 0.013).sin() * 4.0 + (h & 0xFFFF) as f32 * 1e-4
        })
        .collect()
}

/// A multi-chunk, multi-stripe container plus its pristine
/// reconstruction.
fn campaign_base() -> (Vec<u8>, Vec<f32>) {
    let n = 48_000;
    let data = field(n);
    let bytes = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-4),
        ..Config::default()
    })
    .compress_chunked_with_parity(
        &data,
        Dims::D1(n),
        6_000,
        &WorkerPool::new(2),
        ParityConfig {
            data_shards: 4,
            parity_shards: 2,
        },
    )
    .unwrap()
    .to_bytes();
    let clean = decompress_resilient::<f32>(&bytes, FillPolicy::Nan).unwrap();
    assert!(clean.is_clean(), "pristine container must scan clean");
    let geo = parse_parity(&bytes).expect("container must carry parity");
    assert!(geo.n_stripes >= 2, "campaign needs several stripes");
    assert!(clean.reports.len() >= 4, "campaign needs several chunks");
    (bytes, clean.data)
}

fn bit_exact(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[test]
fn seeded_parity_campaign_holds_the_repair_contract() {
    let (base, reference) = campaign_base();
    let cases = parity_campaign(&base, CAMPAIGN_SEED, CAMPAIGN_CASES);
    assert_eq!(cases.len(), CAMPAIGN_CASES);

    let (mut heals, mut loss, mut meta) = (0usize, 0usize, 0usize);
    for case in &cases {
        let ctx = |what: &str| format!("case {} ({}): {what}", case.id, case.description);

        let rf = decompress_resilient::<f32>(&case.bytes, FillPolicy::Nan)
            .unwrap_or_else(|e| panic!("{}", ctx(&format!("resilient decode refused: {e}"))));
        assert_eq!(rf.data.len(), reference.len(), "{}", ctx("field length"));

        match case.expect {
            ParityExpect::Heals => {
                heals += 1;
                assert_eq!(rf.n_damaged(), 0, "{}", ctx("in-budget damage lost data"));
                assert!(
                    bit_exact(&rf.data, &reference),
                    "{}",
                    ctx("healed decode is not bit-exact")
                );
                let parity = rf.parity.as_ref().unwrap_or_else(|| {
                    panic!("{}", ctx("parity report missing on a parity archive"))
                });
                assert_eq!(
                    parity.n_unrepairable(),
                    0,
                    "{}",
                    ctx("stripe misclassified")
                );
                let report = scan(&case.bytes).unwrap();
                assert!(report.is_clean(), "{}", ctx("scan disagrees with decode"));
                // In-budget repair must reproduce the pre-damage archive
                // byte-for-byte: the healed region is the original region,
                // and parity regeneration is deterministic.
                let out = repair(&case.bytes).unwrap();
                assert!(out.modified, "{}", ctx("repair left damage in place"));
                assert_eq!(
                    out.bytes,
                    base,
                    "{}",
                    ctx("repair did not restore the original bytes")
                );
            }
            ParityExpect::DataLoss => {
                loss += 1;
                let parity = rf.parity.as_ref().unwrap_or_else(|| {
                    panic!("{}", ctx("parity report missing on a parity archive"))
                });
                assert!(
                    parity.n_unrepairable() >= 1,
                    "{}",
                    ctx("beyond-budget stripe not reported unrepairable")
                );
                for r in &rf.reports {
                    if !r.status.is_recovered() {
                        assert!(
                            rf.data[r.elem_range.clone()].iter().all(|x| x.is_nan()),
                            "{}",
                            ctx("lost slab not filled per policy")
                        );
                    }
                }
                // Repair must never rewrite an archive with data loss:
                // refreshing checksums over damaged bytes would freeze
                // the damage in as truth.
                let out = repair(&case.bytes).unwrap();
                assert!(!out.modified, "{}", ctx("repair rewrote a lossy archive"));
                assert_eq!(out.bytes, case.bytes, "{}", ctx("repair altered bytes"));
            }
            ParityExpect::MetadataOnly => {
                meta += 1;
                assert!(
                    rf.parity.is_none(),
                    "{}",
                    ctx("destroyed parity header still produced a report")
                );
                assert_eq!(rf.n_damaged(), 0, "{}", ctx("intact chunks reported lost"));
                assert!(
                    bit_exact(&rf.data, &reference),
                    "{}",
                    ctx("parity-less decode is not bit-exact")
                );
                let out = repair(&case.bytes).unwrap();
                assert!(
                    !out.modified,
                    "{}",
                    ctx("repair acted without usable parity")
                );
            }
        }
    }
    // The engineered mix must actually exercise all three outcomes.
    assert!(heals >= 80, "only {heals} healing cases");
    assert!(loss >= 60, "only {loss} data-loss cases");
    assert!(meta >= 30, "only {meta} metadata cases");
}

#[test]
fn parity_bytes_are_identical_at_1_2_8_workers() {
    let n = 48_000;
    let data = field(n);
    let c = Compressor::new(Config {
        error_bound: ErrorBound::Absolute(1e-4),
        ..Config::default()
    });
    let cfg = ParityConfig {
        data_shards: 4,
        parity_shards: 2,
    };
    let reference = c
        .compress_chunked_with_parity(&data, Dims::D1(n), 6_000, &WorkerPool::new(1), cfg)
        .unwrap()
        .to_bytes();
    for workers in [2usize, 8] {
        let bytes = c
            .compress_chunked_with_parity(&data, Dims::D1(n), 6_000, &WorkerPool::new(workers), cfg)
            .unwrap()
            .to_bytes();
        assert_eq!(
            bytes, reference,
            "parity bytes diverged at {workers} workers"
        );
    }
}
