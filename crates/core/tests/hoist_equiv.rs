//! Pinned attack fingerprints: the recovered key, the underlying query
//! count, and every normalized checkpoint frame of a set of seeded attacks
//! must stay byte-identical to the values recorded here.
//!
//! Decryption runs carry two frame hashes. The first covers the frames as
//! written. The second zeroes the broker's batch count and batch-size
//! histogram first: it pins the attack state and every row count while
//! leaving the attack free to group the same rows into fewer, larger
//! requests.
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

use relock_attack::testutil::{lenet_victim, mlp48_victim, run_threads};
use relock_attack::{AttackConfig, AttackState, MonolithicAttack, MonolithicConfig};
use relock_graph::Precision;
use relock_locking::{CountingOracle, Key, LockedModel};
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

/// FNV-1a over frames whose batch count and batch-size histogram are
/// zeroed: every other byte of the attack state and the broker's books.
fn fnv_batch_free(frames: &[Vec<u8>]) -> u64 {
    let masked: Vec<Vec<u8>> = frames
        .iter()
        .map(|f| {
            let mut st = AttackState::decode(f).expect("engine wrote an undecodable frame");
            st.stats.batches = 0;
            st.stats.histogram = Default::default();
            st.encode()
        })
        .collect();
    let chunks: Vec<&[u8]> = masked.iter().map(|f| f.as_slice()).collect();
    fnv(&chunks)
}

/// One pinned monolithic run: `(label, seed, threads, key bits, queries,
/// hash)`, the hash covering the learned multipliers' bit patterns.
type Pin = (&'static str, u64, usize, &'static str, u64, u64);

/// One pinned decryption run: `(label, seed, threads, key bits, queries,
/// frame hash, batch-free frame hash)`.
type DecryptPin = (&'static str, u64, usize, &'static str, u64, u64, u64);

/// A monolithic run as observed, with an owned key string.
type Observed = (&'static str, u64, usize, String, u64, u64);

/// A decryption run as observed, with an owned key string.
type DecryptObserved = (&'static str, u64, usize, String, u64, u64, u64);

/// Runs the decryptor at every `(seed, threads)` and returns the observed
/// rows. Asserts that the learning attack ran, so the pins cover it.
fn observe_decrypt(
    label: &'static str,
    model: &LockedModel,
    seeds: &[u64],
) -> Vec<DecryptObserved> {
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
                fnv_batch_free(&run.frames),
            ));
        }
    }
    assert!(learned > 0, "{label}: no run reached the learning attack");
    rows
}

/// Prints the observed decryption rows in the table's own syntax, then
/// compares.
fn assert_decrypt_pins(observed: &[DecryptObserved], pinned: &[DecryptPin]) {
    for row in observed {
        println!("{row:?},");
    }
    assert_eq!(observed.len(), pinned.len(), "pin table size");
    for (o, p) in observed.iter().zip(pinned) {
        let o_ref = (o.0, o.1, o.2, o.3.as_str(), o.4, o.5, o.6);
        assert_eq!(o_ref, *p, "attack fingerprint moved");
    }
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
    assert_decrypt_pins(&observed, MLP48_PINS);
}

#[test]
fn lenet_decryption_is_pinned() {
    let observed = observe_decrypt("lenet", &lenet_victim(), &[512, 516, 520]);
    assert_decrypt_pins(&observed, LENET_PINS);
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
const MLP48_PINS: &[DecryptPin] = &[
    ("mlp48", 1201, 1, "00100100100000001010111010000111", 391, 7457810270421195374, 5759264708411137517),
    ("mlp48", 1201, 2, "00100100100000001010111010000111", 391, 7457810270421195374, 5759264708411137517),
    ("mlp48", 1202, 1, "00100100100000001010111010000111", 602, 3200659171963801478, 1855296733395679562),
    ("mlp48", 1202, 2, "00100100100000001010111010000111", 602, 3200659171963801478, 1855296733395679562),
    ("mlp48", 1203, 1, "00100100100000001010111010000111", 385, 4385799230657281181, 17268377075128343563),
    ("mlp48", 1203, 2, "00100100100000001010111010000111", 385, 4385799230657281181, 17268377075128343563),
];

#[rustfmt::skip]
const LENET_PINS: &[DecryptPin] = &[
    ("lenet", 512, 1, "11110110", 1314, 6657007301477334976, 9257792078477060771),
    ("lenet", 512, 2, "11110110", 1314, 6657007301477334976, 9257792078477060771),
    ("lenet", 516, 1, "11110110", 1008, 9205767378800168462, 8432779448372813733),
    ("lenet", 516, 2, "11110110", 1008, 9205767378800168462, 8432779448372813733),
    ("lenet", 520, 1, "11110110", 1285, 16614873819986927205, 4338513745252913331),
    ("lenet", 520, 2, "11110110", 1285, 16614873819986927205, 4338513745252913331),
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
