//! End-to-end backend equivalence: the whole decryption attack — key,
//! query traffic, and every checkpoint frame — must be **byte-identical**
//! whichever gemm backend executes it.
//!
//! The kernels guarantee bit-identical f64 results across backends (each
//! SIMD lane replays the scalar accumulation order; see DESIGN.md), so
//! everything downstream of them — bisection trajectories, learned
//! multipliers, broker traffic, serialized checkpoints — must agree to
//! the last bit. This test closes the loop from the kernel contract to
//! the attack's observable artifacts.
//!
//! Everything lives in ONE `#[test]` because the backend override is
//! process-global: concurrent test threads flipping it would race.

use relock_attack::testutil::normalize_frame;
use relock_attack::{
    AttackConfig, CheckpointPolicy, Decryptor, MemoryCheckpointSink, MonolithicAttack,
    MonolithicConfig,
};
use relock_locking::{CountingOracle, Key, LockSpec, LockedModel};
use relock_nn::{build_mlp, MlpSpec};
use relock_serve::{Broker, BrokerConfig};
use relock_tensor::backend::{avx_available, set_backend_override};
use relock_tensor::rng::Prng;
use relock_tensor::BackendKind;

fn victim() -> LockedModel {
    let mut rng = Prng::seed_from_u64(7100);
    build_mlp(
        &MlpSpec {
            input: 12,
            hidden: vec![8, 6],
            classes: 4,
        },
        LockSpec::evenly(8),
        &mut rng,
    )
    .expect("spec fits")
}

/// Key + query count + final checkpoint bytes of a full checkpointed
/// decryption run under a forced backend.
fn decryption_under(kind: BackendKind, model: &LockedModel) -> (Key, u64, Vec<u8>) {
    set_backend_override(Some(kind));
    let oracle = CountingOracle::new(model);
    let broker = Broker::with_config(&oracle, BrokerConfig::default());
    let sink = MemoryCheckpointSink::new();
    let report = Decryptor::new(AttackConfig::fast())
        .run_with_checkpoints(
            model.white_box(),
            &broker,
            &mut Prng::seed_from_u64(7101),
            &sink,
            CheckpointPolicy::EVERY_CUT,
        )
        .expect("attack run");
    set_backend_override(None);
    let frame = sink.contents().expect("at least one checkpoint frame");
    (report.key, report.queries, normalize_frame(&frame))
}

/// Key + query count + multiplier bit patterns of the monolithic learning
/// attack under a forced backend and precision.
fn monolithic_under(
    kind: BackendKind,
    precision: relock_graph::Precision,
    model: &LockedModel,
) -> (Key, u64, Vec<u64>) {
    set_backend_override(Some(kind));
    let oracle = CountingOracle::new(model);
    let mut cfg = MonolithicConfig {
        input_scale: 2.0,
        ..MonolithicConfig::default()
    };
    cfg.learning.samples = 96;
    cfg.learning.epochs = 30;
    cfg.learning.precision = precision;
    let report =
        MonolithicAttack::new(cfg).run(model.white_box(), &oracle, &mut Prng::seed_from_u64(7102));
    set_backend_override(None);
    let bits = report.multipliers.iter().map(|m| m.to_bits()).collect();
    (report.key, report.queries, bits)
}

#[test]
fn attacks_are_byte_identical_across_backends() {
    let model = victim();
    let mut kinds = vec![BackendKind::Scalar, BackendKind::SimdPortable];
    if avx_available() {
        kinds.push(BackendKind::Simd);
    }

    // Full decryption attack: key, traffic, and checkpoint frames agree.
    let (ref_key, ref_queries, ref_frame) = decryption_under(kinds[0], &model);
    for &kind in &kinds[1..] {
        let (key, queries, frame) = decryption_under(kind, &model);
        assert_eq!(key, ref_key, "{kind:?}: extracted key diverged");
        assert_eq!(queries, ref_queries, "{kind:?}: query traffic diverged");
        assert_eq!(frame, ref_frame, "{kind:?}: checkpoint bytes diverged");
    }

    // Monolithic learning attack at f64: multipliers agree to the bit.
    let (ref_key, ref_queries, ref_bits) =
        monolithic_under(kinds[0], relock_graph::Precision::F64, &model);
    for &kind in &kinds[1..] {
        let (key, queries, bits) = monolithic_under(kind, relock_graph::Precision::F64, &model);
        assert_eq!(key, ref_key, "{kind:?}: monolithic f64 key diverged");
        assert_eq!(queries, ref_queries);
        assert_eq!(bits, ref_bits, "{kind:?}: f64 multiplier bits diverged");
    }

    // The f32 fast path holds the same cross-backend contract: its
    // kernels also accumulate in scalar order, so forced-SIMD f32 runs
    // are bit-identical to scalar f32 runs (though not to f64 ones).
    let (ref_key, ref_queries, ref_bits) =
        monolithic_under(kinds[0], relock_graph::Precision::F32, &model);
    for &kind in &kinds[1..] {
        let (key, queries, bits) = monolithic_under(kind, relock_graph::Precision::F32, &model);
        assert_eq!(key, ref_key, "{kind:?}: monolithic f32 key diverged");
        assert_eq!(queries, ref_queries);
        assert_eq!(bits, ref_bits, "{kind:?}: f32 multiplier bits diverged");
    }
}
