//! Layer-batched Algorithm 1 against the single-site reference.
//!
//! `infer_layer` runs the attempts of every site of a layer in rounds and
//! sends each round's probe rows as one oracle request. It must return the
//! same per-site bits as `key_bit_inference_with` run site by site on the
//! same PRNG streams, send the same multiset of rows, and make at most
//! `max_site_attempts` requests per layer — at every thread count.

use relock_attack::testutil::{lenet_victim, mlp48_victim, RecordingOracle};
use relock_attack::{infer_layer, key_bit_inference_with, AttackConfig, InferredBits};
use relock_graph::{LockSite, Workspace, WorkspacePool};
use relock_locking::LockedModel;
use relock_tensor::rng::Prng;

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

/// Runs every layer (with its true prefix key, as after decryption)
/// through both paths and compares them. Returns the number of bits
/// inferred, so callers can check the comparison was not vacuous.
fn assert_layers_match(model: &LockedModel, seed: u64) -> usize {
    let g = model.white_box();
    let keys = model.true_key().to_assignment();
    let mut inferred = 0;
    let (mut batched_calls, mut single_calls) = (0, 0);
    for threads in [1usize, 2] {
        let cfg = AttackConfig {
            threads,
            ..AttackConfig::fast()
        };
        let pool = WorkspacePool::new();
        for (li, sites) in layers(model).iter().enumerate() {
            let ctx = format!("layer {li}, threads {threads}");
            let batched = RecordingOracle::new(model, false);
            let mut batched_rng = Prng::seed_from_u64(seed + li as u64);
            let bits = infer_layer(g, &pool, &keys, sites, &batched, &cfg, &mut batched_rng);

            let single = RecordingOracle::new(model, false);
            let mut single_rng = Prng::seed_from_u64(seed + li as u64);
            let mut site_rngs: Vec<Prng> = sites.iter().map(|_| single_rng.fork()).collect();
            let mut ws = Workspace::new();
            let reference: InferredBits = sites
                .iter()
                .zip(&mut site_rngs)
                .map(|(site, rng)| {
                    let bit = key_bit_inference_with(g, &mut ws, &keys, site, &single, &cfg, rng);
                    (site.slot, bit)
                })
                .collect();

            assert_eq!(bits, reference, "{ctx}: inferred bits differ");
            assert_eq!(
                batched.sorted_rows(),
                single.sorted_rows(),
                "{ctx}: queried rows differ"
            );
            assert_eq!(
                batched_rng.state(),
                single_rng.state(),
                "{ctx}: parent stream advanced differently"
            );
            assert!(
                batched.calls() <= cfg.max_site_attempts as u64,
                "{ctx}: {} requests for one layer",
                batched.calls()
            );
            inferred += bits.iter().filter(|(_, b)| b.is_some()).count();
            batched_calls += batched.calls();
            single_calls += single.calls();
        }
    }
    assert!(
        batched_calls < single_calls,
        "batching saved no request: {batched_calls} vs {single_calls}"
    );
    inferred
}

#[test]
fn mlp48_layers_match_the_single_site_path() {
    let inferred = assert_layers_match(&mlp48_victim(), 1300);
    assert!(inferred > 0, "no bit was inferred algebraically");
}

#[test]
fn lenet_layers_match_the_single_site_path() {
    let inferred = assert_layers_match(&lenet_victim(), 1400);
    assert!(inferred > 0, "no bit was inferred algebraically");
}

#[test]
fn a_failed_round_leaves_every_site_bottom_after_one_request() {
    let model = mlp48_victim();
    let g = model.white_box();
    let keys = model.true_key().to_assignment();
    let sites = &layers(&model)[0];
    let oracle = RecordingOracle::new(&model, true);
    let bits = infer_layer(
        g,
        &WorkspacePool::new(),
        &keys,
        sites,
        &oracle,
        &AttackConfig::fast(),
        &mut Prng::seed_from_u64(1500),
    );
    assert_eq!(bits.len(), sites.len());
    assert!(bits.iter().all(|(_, b)| b.is_none()), "{bits:?}");
    assert_eq!(oracle.calls(), 1, "the failed round must end the layer");
}
