//! Adaptive-engine equivalence suite (DESIGN.md §3i): the online
//! `AdaptiveController` tunes correction wave width and dispatch sharding
//! from *deterministic inputs only* (cumulative counters, never wall
//! clock), so an adaptive run must be bit-identical at any thread count,
//! must never query more than the static schedule, and must survive
//! checkpoint kill-and-resume exactly like the static path. With the
//! knob off, the engine must behave as if the controller did not exist —
//! no `adapt.*` trace counters, observables byte-identical to the static
//! reference.

use relock_attack::testutil::{
    assert_traces_match, mlp16_victim, run_threads, sequential_run, strip_clock, RecordingSink,
};
use relock_attack::{AttackConfig, CheckpointPolicy, Decryptor};
use relock_locking::CountingOracle;
use relock_serve::{Broker, BrokerConfig, ChaosConfig, ChaosCrash, ChaosOracle};
use relock_tensor::rng::Prng;
use relock_trace::FlightRecorder;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// The correction-heavy configuration: forcing the learning path drags
/// layers through §3.7 validation and §3.8 wave correction, where the
/// controller actually makes decisions. Seed 732 commits corrected bits.
fn correction_cfg(adaptive: bool) -> AttackConfig {
    AttackConfig {
        disable_algebraic: true,
        adaptive,
        ..AttackConfig::fast()
    }
}

/// With the knob off, the engine must not merely produce the same
/// answer — it must *be* the static path: zero `adapt.*` counters in the
/// trace and observables byte-identical to a run of the untouched
/// static configuration.
#[test]
fn disabled_controller_is_byte_identical_to_the_static_path_and_silent() {
    let victim = mlp16_victim();
    for seed in [700u64, 732] {
        let reference = sequential_run(&victim, &correction_cfg(false), seed);
        let flight = Arc::new(FlightRecorder::new());
        let off = relock_trace::with_recorder(flight.clone(), || {
            sequential_run(&victim, &correction_cfg(false), seed)
        });
        assert_traces_match(&off, &reference, &format!("adaptive-off seed {seed}"));
        for label in [
            "adapt.wave_width",
            "adapt.wave_commit",
            "adapt.wave_discard",
            "adapt.shard_rows",
        ] {
            assert_eq!(
                flight.counter_total(label),
                0,
                "seed {seed}: disabled controller must emit no {label} counters"
            );
        }
    }
}

/// The §3e contract extended to the adaptive path: wave widths and shard
/// hints derive only from checkpointed counters, so 1, 2, and 4 threads
/// replay identical decisions and identical bytes.
#[test]
fn adaptive_sweep_is_bit_identical_across_thread_counts() {
    let victim = mlp16_victim();
    for seed in [700u64, 732] {
        let cfg = correction_cfg(true);
        let reference = run_threads(&victim, cfg, 1, seed);
        assert_eq!(
            reference.report.fidelity(victim.true_key()),
            1.0,
            "seed {seed}: adaptive sequential reference must recover the key exactly"
        );
        for threads in [2usize, 4] {
            let t = run_threads(&victim, cfg, threads, seed);
            assert_traces_match(
                &t,
                &reference,
                &format!("adaptive seed {seed} threads {threads}"),
            );
        }
    }
}

/// The adaptive schedule's payoff: the ramped wave widths validate a
/// prefix of what the static wave would have validated, so the adaptive
/// run never queries the oracle *more* — while still recovering the
/// identical key. On runs that reach correction, the controller must
/// actually have decided something (`adapt.*` counters present).
#[test]
fn adaptive_runs_query_no_more_than_static_and_record_decisions() {
    let victim = mlp16_victim();
    for seed in [700u64, 732] {
        let stat = sequential_run(&victim, &correction_cfg(false), seed);
        let flight = Arc::new(FlightRecorder::new());
        let adap = relock_trace::with_recorder(flight.clone(), || {
            sequential_run(&victim, &correction_cfg(true), seed)
        });
        assert_eq!(
            adap.report.key, stat.report.key,
            "seed {seed}: adaptive run must recover the same key"
        );
        assert!(
            adap.report.queries <= stat.report.queries,
            "seed {seed}: adaptive queries {} exceed static {}",
            adap.report.queries,
            stat.report.queries
        );
        // Every layer retunes the dispatch shard size once.
        assert!(
            flight.counter_total("adapt.shard_rows") > 0,
            "seed {seed}: adaptive run must record shard retunes"
        );
        let corrected: usize = adap.report.layers.iter().map(|l| l.corrected).sum();
        if corrected > 0 {
            assert!(
                flight.counter_total("adapt.wave_width") > 0,
                "seed {seed}: corrected bits imply wave-width decisions"
            );
        }
    }
}

/// Kill-and-resume across RLCP cuts with the controller on: wave-width
/// decisions replay from the checkpointed candidate index, so two
/// independent crash-and-resume soaks land on the same key (identical to
/// the uninterrupted run) with the same cumulative query count as each
/// other.
#[test]
fn adaptive_decisions_replay_across_checkpoint_resume() {
    let victim = mlp16_victim();
    let cfg = correction_cfg(true);
    let reference = sequential_run(&victim, &cfg, 732);
    let q = reference.report.queries;
    let crash_at: Vec<u64> = (1..=3).map(|i| i * q / 4).collect();

    let soak = |schedule: &[u64]| {
        let chaos = ChaosOracle::new(
            CountingOracle::new(&victim),
            ChaosConfig::crash_only(11, schedule.to_vec()),
        );
        let dec = Decryptor::new(cfg);
        let sink = RecordingSink::default();
        let mut crashes = 0usize;
        let report = loop {
            assert!(
                crashes <= schedule.len(),
                "more unwinds than scheduled crash points"
            );
            let broker = Broker::with_config(&chaos, BrokerConfig::default());
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let mut rng = Prng::seed_from_u64(732);
                dec.resume(
                    victim.white_box(),
                    &broker,
                    &mut rng,
                    &sink,
                    CheckpointPolicy::EVERY_CUT,
                )
            }));
            match attempt {
                Ok(Ok((report, status))) => {
                    if crashes > 0 {
                        assert!(
                            status.resumed(),
                            "post-crash segments must resume from a checkpoint"
                        );
                    }
                    break report;
                }
                Ok(Err(e)) => panic!("attack error during adaptive soak: {e}"),
                Err(payload) => {
                    payload
                        .downcast::<ChaosCrash>()
                        .expect("only scheduled chaos crashes should unwind");
                    crashes += 1;
                }
            }
        };
        assert!(crashes > 0, "the soak must actually crash");
        report
    };

    let a = soak(&crash_at);
    let b = soak(&crash_at);
    assert_eq!(
        a.key, reference.report.key,
        "resumed adaptive run lost the key"
    );
    assert_eq!(a.fidelity(victim.true_key()), 1.0);
    assert_eq!(
        a.key, b.key,
        "two identical adaptive soaks must land on the same key"
    );
    assert_eq!(
        a.queries, b.queries,
        "two identical adaptive soaks must replay the same traffic"
    );
    assert_eq!(
        strip_clock(&a.stats),
        strip_clock(&b.stats),
        "two identical adaptive soaks must keep identical books"
    );
}
