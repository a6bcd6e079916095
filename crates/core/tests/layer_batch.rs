//! Layer-batched Algorithm 1 against the single-site reference.
//!
//! `infer_layer` runs the attempts of every site of a layer in rounds and
//! sends each round's probe rows as one oracle request. It must return the
//! same per-site bits as `key_bit_inference_with` run site by site on the
//! same PRNG streams, send the same multiset of rows, and make at most
//! `max_site_attempts` requests per layer — at every thread count.

use relock_attack::testutil::lenet_victim;
use relock_attack::{infer_layer, key_bit_inference_with, AttackConfig, InferredBits};
use relock_graph::{LockSite, Workspace, WorkspacePool};
use relock_locking::{CountingOracle, LockSpec, LockedModel, Oracle, OracleError};
use relock_nn::{build_mlp, MlpSpec};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Counts requests and records every requested row (as bit patterns);
/// optionally fails every request, like a spent budget.
struct RecordingOracle {
    inner: CountingOracle,
    calls: AtomicU64,
    rows: Mutex<Vec<Vec<u64>>>,
    fail: bool,
}

impl RecordingOracle {
    fn new(model: &LockedModel, fail: bool) -> Self {
        RecordingOracle {
            inner: CountingOracle::new(model),
            calls: AtomicU64::new(0),
            rows: Mutex::new(Vec::new()),
            fail,
        }
    }

    fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The requested rows, sorted: the multiset, independent of order.
    fn sorted_rows(&self) -> Vec<Vec<u64>> {
        let mut rows = self.rows.lock().unwrap().clone();
        rows.sort_unstable();
        rows
    }
}

impl Oracle for RecordingOracle {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        self.try_query_batch(x).expect("recording oracle failed")
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if self.fail {
            return Err(OracleError::BudgetExhausted {
                spent: 0,
                budget: 0,
                requested: x.dims()[0] as u64,
            });
        }
        let mut rows = self.rows.lock().unwrap();
        for r in 0..x.dims()[0] {
            rows.push(x.row(r).iter().map(|v| v.to_bits()).collect());
        }
        drop(rows);
        self.inner.try_query_batch(x)
    }

    fn query_count(&self) -> u64 {
        self.inner.query_count()
    }

    fn input_dim(&self) -> usize {
        self.inner.input_dim()
    }

    fn output_dim(&self) -> usize {
        self.inner.output_dim()
    }
}

/// The 48 → 32 → 16 → 10 MLP with 32 key bits of the pinned suite.
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
