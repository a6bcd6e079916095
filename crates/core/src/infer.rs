//! Algebraic key-bit inference (paper §3.3, Algorithm 1).
//!
//! At a critical point `x°` of a protected neuron, the minimum-norm
//! pre-image `v` of the standard basis vector under the product weight
//! matrix `Â` moves **only** the target pre-activation: `z(x° ± ε·v) = ±ε`
//! while every other same-layer pre-activation stays fixed. The oracle then
//! betrays the key bit (Lemma 2): the side on which its output does *not*
//! move is the side where the (possibly flipped) ReLU is inactive.

use crate::config::AttackConfig;
use crate::critical::{search_critical_point_with, z_at};
use crate::decrypt::run_sharded;
use relock_graph::{
    Graph, KeyAssignment, KeySlot, LockSite, NodeId, Op, Saved, Workspace, WorkspacePool,
};
use relock_locking::Oracle;
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

/// Per-site outcomes of one layer's Algorithm-1 pass: `(slot, inferred
/// bit)`, with `None` for the paper's ⊥. Checkpoints serialize this so a
/// resumed attack can skip the pass instead of re-querying it.
pub type InferredBits = Vec<(KeySlot, Option<bool>)>;

/// The discrete "linear region signature" of a point: ReLU activity masks
/// and max-pool winners over the ancestors of `upto`. Two points share a
/// linear region of the sub-network below `upto` iff their signatures match.
fn region_signature(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    x: &Tensor,
    upto: NodeId,
) -> Vec<u8> {
    g.forward_partial_into(ws, x, keys, upto);
    let plan = g.plan();
    let mut sig = Vec::new();
    // Deterministic node order — signatures must be comparable across calls.
    for idx in 0..=upto.index() {
        let id = NodeId(idx);
        if !plan.is_ancestor(id, upto) {
            continue;
        }
        match g.node(id).op {
            Op::Relu | Op::MaxPool2d { .. } => {}
            _ => continue,
        }
        match ws.saved_of(id) {
            Saved::Mask(m) => sig.extend(m.as_slice().iter().map(|&v| v as u8)),
            Saved::ArgMax(a) => sig.extend(a.iter().map(|&i| (i % 251) as u8)),
            _ => {}
        }
    }
    sig
}

/// Algorithm 1: infers the key bit of `site`, or returns `None` (the
/// paper's ⊥) when the pre-image does not exist, the neuron is not
/// sensitizable, or the oracle responses stay indecisive.
///
/// `keys` must hold the already-decrypted bits of preceding layers; bits of
/// the current and subsequent layers are irrelevant (Lemma 1).
pub fn key_bit_inference(
    g: &Graph,
    keys: &KeyAssignment,
    site: &LockSite,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Option<bool> {
    let mut ws = Workspace::new();
    key_bit_inference_with(g, &mut ws, keys, site, oracle, cfg, rng)
}

/// [`key_bit_inference`] through a caller-owned workspace: the critical-point
/// search, the Jacobian, and every region/pre-activation probe of one site
/// share the same buffers, and the workspace's QR memo
/// ([`Workspace::qr_memo`]) lets a site whose `Â` is bit-equal to the last
/// one factored — every first-layer site sees `W₁` — skip the
/// factorization.
///
/// One site on its own: up to `max_site_attempts` rounds of
/// `prepare_attempt`, one 3-row oracle request and `judge`.
/// [`infer_layer`] runs the same attempts for a whole layer at once.
pub fn key_bit_inference_with(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    site: &LockSite,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Option<bool> {
    if !algebraic_applies(g, site, cfg) {
        return None;
    }
    for _ in 0..cfg.max_site_attempts {
        let Some(rows) = prepare_attempt(g, ws, keys, site, cfg, rng) else {
            continue;
        };
        // An oracle failure (budget, deadline, dead backend) maps to ⊥:
        // the decryptor's learning fallback owns those slots anyway.
        let out = oracle.try_query_batch(&rows).ok()?;
        if let Some(bit) = judge(out.as_slice(), cfg) {
            return Some(bit);
        }
    }
    None
}

/// Algorithm 1 over every site of one layer, with **one** oracle request
/// per round.
///
/// By Lemma 1 the sites of a layer do not depend on each other once the
/// earlier layers are decrypted, so the driver runs at most
/// `max_site_attempts` rounds. Each round, `run_sharded` runs
/// `prepare_attempt` for every still-open site on `cfg.threads`
/// workers, each site on its own PRNG stream (forked from `rng` in
/// canonical site order and persisting across rounds). The prepared rows
/// go out as one `try_query_batch` in canonical site order, and `judge`
/// closes every site that decided. A site therefore draws from its stream
/// and queries the same rows as [`key_bit_inference_with`] would, so the
/// result is the same at every thread count. If a round's request fails
/// (budget, deadline, dead backend), every site still open is ⊥ and the
/// unspent budget is left to the learning attack.
pub fn infer_layer(
    g: &Graph,
    pool: &WorkspacePool,
    keys: &KeyAssignment,
    sites: &[LockSite],
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> InferredBits {
    let mut rngs: Vec<Prng> = sites.iter().map(|_| rng.fork()).collect();
    let mut bits: InferredBits = sites.iter().map(|s| (s.slot, None)).collect();
    let mut open: Vec<usize> = (0..sites.len())
        .filter(|&i| algebraic_applies(g, &sites[i], cfg))
        .collect();
    let p = g.input_size();
    for _ in 0..cfg.max_site_attempts {
        if open.is_empty() {
            break;
        }
        let prepared = run_sharded(pool, cfg.threads, open.len(), |j, ws| {
            let i = open[j];
            let mut site_rng = rngs[i].clone();
            let rows = prepare_attempt(g, ws, keys, &sites[i], cfg, &mut site_rng);
            (site_rng, rows)
        });
        let mut asked = Vec::new();
        let mut batch = Vec::new();
        for (&i, (site_rng, rows)) in open.iter().zip(prepared) {
            rngs[i] = site_rng;
            if let Some(rows) = rows {
                asked.push(i);
                batch.extend_from_slice(rows.as_slice());
            }
        }
        if asked.is_empty() {
            continue;
        }
        let Ok(out) = oracle.try_query_batch(&Tensor::from_vec(batch, [3 * asked.len(), p])) else {
            // Every site still open stays ⊥; the budget this round did not
            // spend is left to the learning attack.
            return bits;
        };
        let per_site = 3 * out.dims()[1];
        for (k, &i) in asked.iter().enumerate() {
            bits[i].1 = judge(&out.as_slice()[k * per_site..(k + 1) * per_site], cfg);
        }
        open.retain(|&i| bits[i].1.is_none());
    }
    bits
}

/// Whether Algorithm 1 can apply to `site` at all. The algebraic step is
/// specific to sign locks (other operators route to the learning attack,
/// the §3.9 reduction), and an expansive layer's `Â` (`d_i × P`,
/// `d_i > P`) cannot be onto, so no basis pre-image exists (§3.4).
fn algebraic_applies(g: &Graph, site: &LockSite, cfg: &AttackConfig) -> bool {
    matches!(g.node(site.keyed_node).op, Op::KeyedSign { .. })
        && !(cfg.skip_expansive && g.node(site.pre_node).out_size > g.input_size())
}

/// The white-box half of one Algorithm-1 attempt: finds a witness `x°`,
/// the pre-image `v`, and an `ε` that keeps `x° ± ε·v` in the witness's
/// linear region. Returns the 3 × P oracle rows `[x°; x° + ε·v; x° − ε·v]`,
/// or `None` when this attempt found no usable witness (no critical point,
/// no pre-image in its region, or no admissible `ε`); the caller retries
/// with the next draw of `rng`.
fn prepare_attempt(
    g: &Graph,
    ws: &mut Workspace,
    keys: &KeyAssignment,
    site: &LockSite,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Option<Tensor> {
    let pre_node = site.pre_node;
    let d_i = g.node(pre_node).out_size;
    let p = g.input_size();
    let elem = site.scalar_index();
    let cp = search_critical_point_with(g, ws, keys, pre_node, elem, cfg, rng)?;
    g.forward_partial_into(ws, &cp.x, keys, pre_node);
    let jac = g.input_jacobian_into(ws, pre_node, keys);
    let e = Tensor::basis(d_i, elem);
    // No pre-image in this region; a different region might still work
    // (different masks), so the caller retries with a fresh witness.
    let pre = ws.qr_memo().preimage(&jac, &e, cfg.preimage_tol)?;
    let mut v = pre.v;
    if cfg.preimage_perturbation > 0.0 {
        // Ablation A2: add a null-space component. The perturbed v still
        // satisfies Âv = e but is no longer minimum-norm.
        let w = rng.normal_tensor([p]).scale(v.norm().max(1.0));
        if let Some(back) = ws
            .qr_memo()
            .preimage(&jac, &jac.matvec(&w), cfg.preimage_tol)
        {
            let mut null = w;
            null.axpy(-1.0, &back.v);
            v.axpy(cfg.preimage_perturbation, &null);
        }
    }

    // Pick an ε that keeps x° ± ε·v inside the current linear region and
    // actually moves the target pre-activation by ±ε.
    let sig0 = region_signature(g, ws, keys, &cp.x, pre_node);
    let mut eps = cfg.epsilon;
    while eps >= cfg.epsilon_min {
        let mut xp = cp.x.clone();
        xp.axpy(eps, &v);
        let mut xm = cp.x.clone();
        xm.axpy(-eps, &v);
        let zp = z_at(g, ws, keys, pre_node, elem, &xp);
        let zm = z_at(g, ws, keys, pre_node, elem, &xm);
        let moved_right =
            (zp - (cp.z + eps)).abs() <= 0.2 * eps && (zm - (cp.z - eps)).abs() <= 0.2 * eps;
        if moved_right
            && region_signature(g, ws, keys, &xp, pre_node) == sig0
            && region_signature(g, ws, keys, &xm, pre_node) == sig0
        {
            // The witness and both probes, as one 3-row request.
            let mut pts = Vec::with_capacity(3 * p);
            pts.extend_from_slice(cp.x.as_slice());
            pts.extend_from_slice(xp.as_slice());
            pts.extend_from_slice(xm.as_slice());
            return Some(Tensor::from_vec(pts, [3, p]));
        }
        eps *= 0.25;
    }
    None
}

/// The oracle half of one attempt: Lemma 2 on the answers to
/// [`prepare_attempt`]'s rows, given row-major (`3 × Q`: `O(x°)`,
/// `O(x° + ε·v)`, `O(x° − ε·v)`). Returns the key bit, or `None` when the
/// answers are indecisive (both sides moved: the probes crossed something
/// unexpected; neither moved: not sensitizable here).
fn judge(out: &[f64], cfg: &AttackConfig) -> Option<bool> {
    let q = out.len() / 3;
    let (o0, rest) = out.split_at(q);
    let (op, om) = rest.split_at(q);
    let mut scale = 1.0f64;
    let mut dp = 0.0f64;
    let mut dm = 0.0f64;
    for i in 0..q {
        scale = scale.max(o0[i].abs());
        dp = dp.max((op[i] - o0[i]).abs());
        dm = dm.max((om[i] - o0[i]).abs());
    }
    dp /= scale;
    dm /= scale;
    // Lemma 2 contrapositive (Algorithm 1 lines 9–10): a changed output on
    // the +ε side means the ReLU opened there, i.e. no flip (K=0); a
    // changed output on the −ε side means the flip is present (K=1).
    if dp >= cfg.diff_tol && dm <= cfg.eq_tol {
        Some(false)
    } else if dm >= cfg.diff_tol && dp <= cfg.eq_tol {
        Some(true)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use relock_locking::{CountingOracle, Key, LockSpec, LockedModel};
    use relock_nn::{build_mlp, MlpSpec};

    /// An untrained (random-weight) locked MLP is a perfectly valid attack
    /// target: the algorithm never uses the data distribution.
    fn locked_mlp(seed: u64, bits: usize) -> LockedModel {
        let mut rng = Prng::seed_from_u64(seed);
        build_mlp(
            &MlpSpec {
                input: 12,
                hidden: vec![8, 6],
                classes: 4,
            },
            LockSpec::evenly(bits),
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn recovers_first_layer_bits_of_contractive_mlp() {
        let model = locked_mlp(100, 6);
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let cfg = AttackConfig::fast();
        let mut rng = Prng::seed_from_u64(101);
        // Candidate assignment: nothing decrypted yet (all +1); first-layer
        // hyperplanes don't depend on any key bits.
        let ka = Key::zeros(model.true_key().len()).to_assignment();
        let first_layer_node = g.lock_sites()[0].keyed_node;
        let mut inferred = 0usize;
        for site in g
            .lock_sites()
            .iter()
            .filter(|s| s.keyed_node == first_layer_node)
        {
            if let Some(bit) = key_bit_inference(g, &ka, site, &oracle, &cfg, &mut rng) {
                assert_eq!(
                    bit,
                    model.true_key().bit(site.slot.index()),
                    "slot {} misinferred",
                    site.slot
                );
                inferred += 1;
            }
        }
        assert!(inferred >= 2, "only {inferred} bits inferred algebraically");
        assert!(oracle.query_count() > 0);
    }

    #[test]
    fn expansive_layer_returns_bottom_quickly() {
        // hidden wider than the input: d_1 > P, Â cannot be onto.
        let mut rng = Prng::seed_from_u64(102);
        let model = build_mlp(
            &MlpSpec {
                input: 4,
                hidden: vec![16],
                classes: 3,
            },
            LockSpec::evenly(4),
            &mut rng,
        )
        .unwrap();
        let oracle = CountingOracle::new(&model);
        let cfg = AttackConfig::fast();
        let ka = Key::zeros(4).to_assignment();
        let mut arng = Prng::seed_from_u64(103);
        for site in model.white_box().lock_sites() {
            assert_eq!(
                key_bit_inference(model.white_box(), &ka, &site, &oracle, &cfg, &mut arng),
                None
            );
        }
        // skip_expansive means zero oracle traffic was spent.
        assert_eq!(oracle.query_count(), 0);
    }

    #[test]
    fn second_layer_inference_needs_correct_first_layer_keys() {
        // With the first layer decrypted, second-layer bits are inferable
        // and correct.
        let model = locked_mlp(104, 6);
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let cfg = AttackConfig::fast();
        let mut rng = Prng::seed_from_u64(105);
        // Assignment with ALL true bits (simulating a decrypted prefix).
        let ka = model.true_key().to_assignment();
        let sites = g.lock_sites();
        let second_layer_node = sites.last().unwrap().keyed_node;
        let mut checked = 0usize;
        for site in sites.iter().filter(|s| s.keyed_node == second_layer_node) {
            if let Some(bit) = key_bit_inference(g, &ka, site, &oracle, &cfg, &mut rng) {
                assert_eq!(bit, model.true_key().bit(site.slot.index()));
                checked += 1;
            }
        }
        assert!(checked >= 1, "no second-layer bits inferred");
    }
}
