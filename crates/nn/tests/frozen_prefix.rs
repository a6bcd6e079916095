//! Property test of the cached frozen prefix on the real victim graphs: a
//! forward pass seeded from [`FrozenPrefix`] rows, followed by the
//! keys-only backward, must give logits and free-slot gradients that are
//! **bit-equal** (`f64::to_bits`) to the full pass over the same input
//! rows — across MLP (sign, scale and trigger locks), LeNet and
//! ViT graphs, random free-slot subsets, f64 and f32 execution, prefix
//! chunk sizes, and batch sizes 1, 7 and 16 (the gemm kernels' tail
//! paths).

use relock_graph::{Graph, KeyAssignment, KeySlot, Precision, Workspace};
use relock_locking::{LockSpec, LockVariant, LockedModel};
use relock_nn::{build_lenet, build_mlp, build_vit, LenetSpec, MlpSpec, VitSpec};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

fn mlp(variant: LockVariant, rng: &mut Prng) -> LockedModel {
    let spec = MlpSpec {
        input: 12,
        hidden: vec![10, 6],
        classes: 3,
    };
    build_mlp(&spec, LockSpec::with_variant(8, variant), rng).unwrap()
}

fn lenet(rng: &mut Prng) -> LockedModel {
    let spec = LenetSpec {
        in_channels: 1,
        h: 12,
        w: 12,
        c1: 3,
        c2: 4,
        fc1: 10,
        fc2: 8,
        classes: 4,
    };
    build_lenet(&spec, LockSpec::evenly(8), rng).unwrap()
}

fn vit(rng: &mut Prng) -> LockedModel {
    let spec = VitSpec {
        in_channels: 1,
        h: 8,
        w: 8,
        patch: 4,
        embed: 6,
        heads: 2,
        blocks: 2,
        mlp_hidden: 8,
        classes: 3,
    };
    build_vit(&spec, LockSpec::evenly(8), rng).unwrap()
}

fn assert_bits(a: &[f64], b: &[f64], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: element {i}: {x} vs {y}");
    }
}

/// A random non-empty subset of the graph's key slots.
fn random_free(n_slots: usize, rng: &mut Prng) -> Vec<KeySlot> {
    loop {
        let free: Vec<KeySlot> = (0..n_slots)
            .filter(|_| rng.uniform() < 0.4)
            .map(KeySlot)
            .collect();
        if !free.is_empty() {
            return free;
        }
    }
}

fn check_graph(g: &Graph, label: &str, rng: &mut Prng) {
    let n_rows = 23;
    let p = g.input_size();
    let x = rng.normal_tensor([n_rows, p]);
    for precision in [Precision::F64, Precision::F32] {
        for trial in 0..3 {
            let free = random_free(g.key_slot_count(), rng);
            let bits: Vec<bool> = (0..g.key_slot_count())
                .map(|_| rng.uniform() < 0.5)
                .collect();
            let mut keys = KeyAssignment::from_bits(&bits);
            let chunk = [1, 5, 16][trial];
            let mut ws_prefix = Workspace::new();
            ws_prefix.set_precision(precision);
            let prefix = g.frozen_prefix(&mut ws_prefix, x.clone(), &keys, &free, chunk);
            assert_eq!(prefix.len(), n_rows);
            let mut ws_full = Workspace::new();
            ws_full.set_precision(precision);
            for batch in [1usize, 7, 16] {
                // Free multipliers move between passes, as in training;
                // the prefix stays valid because it holds none of them.
                for &s in &free {
                    keys.set(s, 2.0 * rng.uniform() - 1.0);
                }
                let rows: Vec<usize> = (0..batch).map(|_| rng.below(n_rows)).collect();
                let mut xb = Vec::with_capacity(batch * p);
                for &r in &rows {
                    xb.extend_from_slice(x.row(r));
                }
                let xb = Tensor::from_vec(xb, [batch, p]);
                let ctx = format!(
                    "{label} {precision:?} trial {trial} batch {batch} free {free:?} frontier {:?}",
                    prefix.frontier().collect::<Vec<_>>()
                );

                g.forward_into(&mut ws_full, &xb, &keys);
                let full_logits = ws_full.value(g.output_id()).clone();
                g.forward_prefixed_into(&mut ws_prefix, &prefix, &rows, &keys);
                let logits = ws_prefix.value(g.output_id()).clone();
                assert_bits(logits.as_slice(), full_logits.as_slice(), &ctx);

                let grad_out = rng.normal_tensor([batch, full_logits.dims()[1]]);
                let full = g.backward_into(&mut ws_full, &grad_out, &keys, false);
                let seeded = g.backward_into(&mut ws_prefix, &grad_out, &keys, false);
                let pick = |k: &[f64]| free.iter().map(|s| k[s.index()]).collect::<Vec<_>>();
                assert_bits(&pick(&seeded.keys), &pick(&full.keys), &ctx);
            }
        }
    }
}

#[test]
fn prefixed_passes_are_bit_identical_to_full_passes() {
    let mut rng = Prng::seed_from_u64(4200);
    let victims = [
        ("mlp-sign", mlp(LockVariant::Sign, &mut rng)),
        ("mlp-scale", mlp(LockVariant::Scale(0.5), &mut rng)),
        ("mlp-sar", mlp(LockVariant::SarTrigger, &mut rng)),
        ("lenet", lenet(&mut rng)),
        ("vit", vit(&mut rng)),
    ];
    for (label, model) in &victims {
        check_graph(model.white_box(), label, &mut rng);
    }
}

#[test]
fn first_layer_free_slots_cache_the_first_linear() {
    // Free slots on the first keyed layer leave only the first Linear
    // frozen; the cached rows are that layer's outputs, one per input row.
    let mut rng = Prng::seed_from_u64(4201);
    let model = mlp(LockVariant::Sign, &mut rng);
    let g = model.white_box();
    let first = g.lock_sites()[0];
    let keys = KeyAssignment::all_zero_bits(g.key_slot_count());
    let x = rng.normal_tensor([5, g.input_size()]);
    let prefix = g.frozen_prefix(&mut Workspace::new(), x, &keys, &[first.slot], 2);
    assert_eq!(prefix.frontier().collect::<Vec<_>>(), vec![first.pre_node]);
    assert_eq!(prefix.len(), 5);
}
