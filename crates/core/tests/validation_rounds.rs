//! Round-driven key-vector validation against the sequential reference.
//!
//! `validate_candidates` runs the probed units of every candidate in
//! lockstep rounds and sends each round's probe rows as one oracle
//! request. For every candidate it must return the verdict
//! `key_vector_validation_checked_with` reaches probing the units one
//! after another on the same PRNG stream, send the same multiset of rows,
//! and leave the stream in the same state — at every thread count, with
//! fewer requests overall.

use relock_attack::testutil::{lenet_victim, mlp48_victim, RecordingOracle};
use relock_attack::{
    key_vector_validation_checked_with, validate_candidates, AttackConfig, ValidationTarget,
    ValidationVerdict,
};
use relock_graph::{KeyAssignment, LockSite, Workspace, WorkspacePool};
use relock_locking::{LockedModel, OracleError};
use relock_tensor::rng::Prng;

type Verdict = Result<ValidationVerdict, OracleError>;

/// Lock sites grouped by keyed node, in processing order.
fn layers(model: &LockedModel) -> Vec<Vec<LockSite>> {
    let mut out: Vec<Vec<LockSite>> = Vec::new();
    for site in model.white_box().lock_sites() {
        match out.last_mut() {
            Some(layer) if layer[0].keyed_node == site.keyed_node => layer.push(site),
            _ => out.push(vec![site]),
        }
    }
    out
}

/// The target validating a layer: every unit of the next layer, unlocked
/// units first, each group shuffled, as the decryptor draws it. Both
/// victims are sequential, so the surface is the next keyed node itself.
fn target(next: &[LockSite], rng: &mut Prng) -> ValidationTarget {
    let layout = next[0].layout;
    let slot_of = |u: usize| next.iter().find(|s| s.unit == u).map(|s| s.slot);
    let mut unlocked: Vec<_> = (0..layout.n_units)
        .filter(|&u| slot_of(u).is_none())
        .map(|u| (u, None))
        .collect();
    let mut locked: Vec<_> = (0..layout.n_units)
        .filter_map(|u| slot_of(u).map(|s| (u, Some(s))))
        .collect();
    rng.shuffle(&mut unlocked);
    rng.shuffle(&mut locked);
    unlocked.extend(locked);
    ValidationTarget {
        surface_node: next[0].keyed_node,
        layout,
        units: unlocked,
    }
}

/// The true key with the given bits of `layer` flipped.
fn flipped(model: &LockedModel, layer: &[LockSite], flips: &[usize]) -> KeyAssignment {
    let mut key = model.true_key().clone();
    for &i in flips {
        key.flip_bit(layer[i % layer.len()].slot.index());
    }
    key.to_assignment()
}

/// Runs one set of candidates through both paths and compares them.
/// Returns the verdicts, the round requests and the sequential requests.
fn assert_rounds_match(
    model: &LockedModel,
    candidates: &[KeyAssignment],
    target: Option<&ValidationTarget>,
    cfg: &AttackConfig,
    pool: &WorkspacePool,
    seed: u64,
    ctx: &str,
) -> (Vec<Verdict>, u64, u64) {
    let g = model.white_box();
    let streams = |seed: u64| -> Vec<Prng> {
        (0..candidates.len())
            .map(|i| Prng::seed_from_u64(seed + i as u64))
            .collect()
    };

    let rounds = RecordingOracle::new(model, false);
    let mut round_rngs = streams(seed);
    let verdicts = validate_candidates(g, pool, candidates, target, &rounds, cfg, &mut round_rngs);

    let single = RecordingOracle::new(model, false);
    let mut single_rngs = streams(seed);
    let mut ws = Workspace::new();
    let reference: Vec<_> = candidates
        .iter()
        .zip(&mut single_rngs)
        .map(|(ka, rng)| {
            key_vector_validation_checked_with(g, &mut ws, ka, target, &single, cfg, rng)
        })
        .collect();

    assert_eq!(verdicts, reference, "{ctx}: verdicts differ");
    let (round_rows, single_rows) = (rounds.sorted_rows(), single.sorted_rows());
    assert!(
        round_rows == single_rows,
        "{ctx}: queried rows differ ({} rows in rounds, {} sequentially)",
        round_rows.len(),
        single_rows.len()
    );
    for (i, (a, b)) in round_rngs.iter().zip(&single_rngs).enumerate() {
        assert_eq!(
            a.state(),
            b.state(),
            "{ctx}: candidate {i} stream advanced differently"
        );
    }
    (verdicts, rounds.calls(), single.calls())
}

/// Every layer of `model`, at threads 1 and 2: the true key, a one-bit
/// wrong key, and a four-candidate correction wave. Returns the verdicts
/// seen, so callers can check the comparison was not vacuous.
fn assert_layers_match(model: &LockedModel, seed: u64) -> Vec<Verdict> {
    let layers = layers(model);
    let mut seen = Vec::new();
    let (mut round_calls, mut single_calls) = (0, 0);
    for threads in [1usize, 2] {
        let cfg = AttackConfig {
            threads,
            ..AttackConfig::fast()
        };
        let pool = WorkspacePool::new();
        for (li, layer) in layers.iter().enumerate() {
            let mut rng = Prng::seed_from_u64(seed + li as u64);
            let t = layers.get(li + 1).map(|next| target(next, &mut rng));
            let wave = [
                flipped(model, layer, &[0]),
                flipped(model, layer, &[]),
                flipped(model, layer, &[1]),
                flipped(model, layer, &[0, 1]),
            ];
            let cases: [(&str, &[KeyAssignment]); 3] = [
                ("true key", &wave[1..2]),
                ("one bit wrong", &wave[0..1]),
                ("wave", &wave[..]),
            ];
            for (name, candidates) in cases {
                let ctx = format!("layer {li}, {name}, threads {threads}");
                let (verdicts, r, s) =
                    assert_rounds_match(model, candidates, t.as_ref(), &cfg, &pool, seed, &ctx);
                round_calls += r;
                single_calls += s;
                seen.extend(verdicts);
            }
        }
    }
    assert!(
        round_calls < single_calls,
        "rounds saved no request: {round_calls} vs {single_calls}"
    );
    seen
}

#[test]
fn mlp48_validation_rounds_match_the_sequential_path() {
    let seen = assert_layers_match(&mlp48_victim(), 1600);
    assert!(seen.contains(&Ok(ValidationVerdict::Pass)), "{seen:?}");
    assert!(seen.contains(&Ok(ValidationVerdict::Fail)), "{seen:?}");
}

#[test]
fn lenet_validation_rounds_match_the_sequential_path() {
    let seen = assert_layers_match(&lenet_victim(), 1700);
    assert!(seen.contains(&Ok(ValidationVerdict::Pass)), "{seen:?}");
    assert!(seen.contains(&Ok(ValidationVerdict::Fail)), "{seen:?}");
}

#[test]
fn a_failed_round_ends_every_open_validation_after_one_request() {
    let model = mlp48_victim();
    let layers = layers(&model);
    let t = target(&layers[1], &mut Prng::seed_from_u64(1800));
    let candidates = vec![model.true_key().to_assignment(); 4];
    let mut rngs: Vec<Prng> = (0..4).map(|i| Prng::seed_from_u64(1801 + i)).collect();
    let oracle = RecordingOracle::new(&model, true);
    let verdicts = validate_candidates(
        model.white_box(),
        &WorkspacePool::new(),
        &candidates,
        Some(&t),
        &oracle,
        &AttackConfig::fast(),
        &mut rngs,
    );
    assert_eq!(verdicts.len(), 4);
    assert!(verdicts.iter().all(Result::is_err), "{verdicts:?}");
    assert_eq!(
        oracle.calls(),
        1,
        "the failed round must end every validation"
    );
}
