//! Pinned attack fingerprints: the recovered key, the underlying query
//! count, and every normalized checkpoint frame of a set of seeded attacks
//! must stay byte-identical to the values recorded here.
//!
//! The equivalence suites (`parallel_equiv`, `backend_equivalence`) compare
//! one configuration against another *of the same build*; this suite
//! compares against constants, so a change to the white-box arithmetic
//! that moves every configuration alike — a cached partial result that is
//! not bit-equal to the value it replaces — still fails here.
//!
//! Victims: an untrained 48 → 32 → 16 → 10 MLP with 32 key bits and the
//! small LeNet of the equivalence suites, each attacked by the decryptor
//! at 1 and 2 threads; plus the monolithic learning attack on the MLP in
//! f64 and in f32. Three seeds each.
//!
//! To re-record after an *intended* numeric change, run with
//! `-- --nocapture` and copy the printed rows.

use relock_attack::testutil::{lenet_victim, run_threads};
use relock_attack::{AttackConfig, MonolithicAttack, MonolithicConfig};
use relock_graph::Precision;
use relock_locking::{CountingOracle, Key, LockSpec, LockedModel};
use relock_nn::{build_mlp, MlpSpec};
use relock_tensor::rng::Prng;

/// FNV-1a over a sequence of byte strings, each length-prefixed so that
/// frame boundaries are part of the fingerprint.
fn fnv(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    for c in chunks {
        for b in (c.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in *c {
            eat(b);
        }
    }
    h
}

fn key_string(key: &Key) -> String {
    (0..key.len())
        .map(|i| if key.bit(i) { '1' } else { '0' })
        .collect()
}

fn mlp48_victim() -> LockedModel {
    let mut rng = Prng::seed_from_u64(1200);
    build_mlp(
        &MlpSpec {
            input: 48,
            hidden: vec![32, 16],
            classes: 10,
        },
        LockSpec::evenly(32),
        &mut rng,
    )
    .expect("spec fits")
}

/// One pinned run: `(label, seed, threads, key bits, queries, hash)`. The
/// hash covers the normalized checkpoint frames of a decryption run, or the
/// multiplier bit patterns of a monolithic one.
type Pin = (&'static str, u64, usize, &'static str, u64, u64);

/// A run as observed, with an owned key string.
type Observed = (&'static str, u64, usize, String, u64, u64);

/// Runs the decryptor at every `(seed, threads)` and returns the observed
/// rows. Asserts that the learning attack ran, so the pins cover it.
fn observe_decrypt(label: &'static str, model: &LockedModel, seeds: &[u64]) -> Vec<Observed> {
    let mut rows = Vec::new();
    let mut learned = 0;
    for &seed in seeds {
        for threads in [1usize, 2] {
            let run = run_threads(model, AttackConfig::fast(), threads, seed);
            learned += run.report.layers.iter().map(|l| l.learned).sum::<usize>();
            let frames: Vec<&[u8]> = run.frames.iter().map(|f| f.as_slice()).collect();
            rows.push((
                label,
                seed,
                threads,
                key_string(&run.report.key),
                run.report.queries,
                fnv(&frames),
            ));
        }
    }
    assert!(learned > 0, "{label}: no run reached the learning attack");
    rows
}

/// Prints the observed rows in the table's own syntax, then compares.
fn assert_pins(observed: &[Observed], pinned: &[Pin]) {
    for row in observed {
        println!("{row:?},");
    }
    assert_eq!(observed.len(), pinned.len(), "pin table size");
    for (o, p) in observed.iter().zip(pinned) {
        let o_ref = (o.0, o.1, o.2, o.3.as_str(), o.4, o.5);
        assert_eq!(o_ref, *p, "attack fingerprint moved");
    }
}

#[test]
fn mlp48_decryption_is_pinned() {
    let observed = observe_decrypt("mlp48", &mlp48_victim(), &[1201, 1202, 1203]);
    assert_pins(&observed, MLP48_PINS);
}

#[test]
fn lenet_decryption_is_pinned() {
    let observed = observe_decrypt("lenet", &lenet_victim(), &[512, 516, 520]);
    assert_pins(&observed, LENET_PINS);
}

#[test]
fn monolithic_learning_is_pinned() {
    let model = mlp48_victim();
    let mut observed = Vec::new();
    for (label, precision) in [("mono-f64", Precision::F64), ("mono-f32", Precision::F32)] {
        for seed in [1221u64, 1222, 1223] {
            for threads in [1usize, 2] {
                relock_tensor::compute::set_thread_override(Some(threads));
                let oracle = CountingOracle::new(&model);
                let mut cfg = MonolithicConfig {
                    input_scale: 2.0,
                    ..MonolithicConfig::default()
                };
                cfg.learning.samples = 160;
                cfg.learning.epochs = 30;
                cfg.learning.precision = precision;
                let report = MonolithicAttack::new(cfg).run(
                    model.white_box(),
                    &oracle,
                    &mut Prng::seed_from_u64(seed),
                );
                relock_tensor::compute::set_thread_override(None);
                let bits: Vec<u8> = report
                    .multipliers
                    .iter()
                    .flat_map(|m| m.to_bits().to_le_bytes())
                    .collect();
                observed.push((
                    label,
                    seed,
                    threads,
                    key_string(&report.key),
                    report.queries,
                    fnv(&[&bits]),
                ));
            }
        }
    }
    assert_pins(&observed, MONO_PINS);
}

#[rustfmt::skip]
const MLP48_PINS: &[Pin] = &[
    ("mlp48", 1201, 1, "00100100100000001010111010000111", 391, 13736915221928341312),
    ("mlp48", 1201, 2, "00100100100000001010111010000111", 391, 13736915221928341312),
    ("mlp48", 1202, 1, "00100100100000001010111010000111", 1082, 2162027970662983818),
    ("mlp48", 1202, 2, "00100100100000001010111010000111", 1082, 2162027970662983818),
    ("mlp48", 1203, 1, "00100100100000001010111010000111", 485, 16458853491984636412),
    ("mlp48", 1203, 2, "00100100100000001010111010000111", 485, 16458853491984636412),
];

#[rustfmt::skip]
const LENET_PINS: &[Pin] = &[
    ("lenet", 512, 1, "11110110", 1185, 11347974193405300497),
    ("lenet", 512, 2, "11110110", 1185, 11347974193405300497),
    ("lenet", 516, 1, "11110110", 1291, 7817729806516587118),
    ("lenet", 516, 2, "11110110", 1291, 7817729806516587118),
    ("lenet", 520, 1, "11110110", 1253, 36531334482165949),
    ("lenet", 520, 2, "11110110", 1253, 36531334482165949),
];

#[rustfmt::skip]
const MONO_PINS: &[Pin] = &[
    ("mono-f64", 1221, 1, "00010100101001101010111000000111", 160, 9481704544310117519),
    ("mono-f64", 1221, 2, "00010100101001101010111000000111", 160, 9481704544310117519),
    ("mono-f64", 1222, 1, "00100100110010101110111000000100", 160, 18172031227883640976),
    ("mono-f64", 1222, 2, "00100100110010101110111000000100", 160, 18172031227883640976),
    ("mono-f64", 1223, 1, "00000100100000111110111000001111", 160, 11104899188652138292),
    ("mono-f64", 1223, 2, "00000100100000111110111000001111", 160, 11104899188652138292),
    ("mono-f32", 1221, 1, "00010100101001101010111000000111", 160, 7826897393886240259),
    ("mono-f32", 1221, 2, "00010100101001101010111000000111", 160, 7826897393886240259),
    ("mono-f32", 1222, 1, "00100100110010101110111000000100", 160, 6162561697472311790),
    ("mono-f32", 1222, 2, "00100100110010101110111000000100", 160, 6162561697472311790),
    ("mono-f32", 1223, 1, "00000100100000111110111000001111", 160, 3113595956044047318),
    ("mono-f32", 1223, 2, "00000100100000111110111000001111", 160, 3113595956044047318),
];
