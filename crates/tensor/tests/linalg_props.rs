//! Property-style tests of the tensor crate's numerical kernels
//! (randomized with the in-tree `Prng`; no external test dependencies).

use relock_tensor::im2col::{col2im, im2col, ConvGeometry};
use relock_tensor::linalg::{preimage, Preimage, QrFactors, QrMemo};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;

const CASES: u64 = 48;

fn rand_matrix(seed: u64, m: usize, n: usize) -> Tensor {
    Prng::seed_from_u64(seed).normal_tensor([m, n])
}

/// Matrix multiplication is associative (within floating tolerance).
#[test]
fn matmul_associative() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let (m, k, l, n) = (
            1 + (seed as usize) % 5,
            1 + (seed as usize / 5) % 5,
            1 + (seed as usize / 25) % 5,
            1 + (seed as usize / 125) % 5,
        );
        let a = rng.normal_tensor([m, k]);
        let b = rng.normal_tensor([k, l]);
        let c = rng.normal_tensor([l, n]);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        assert!(left.max_abs_diff(&right) < 1e-10, "seed {seed}");
    }
}

/// matmul_nt/matmul_tn agree with the explicit transpose forms.
#[test]
fn transposed_products_agree() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let (m, k, n) = (
            1 + (seed as usize) % 6,
            1 + (seed as usize / 7) % 6,
            1 + (seed as usize / 49) % 6,
        );
        let a = rng.normal_tensor([m, k]);
        let b = rng.normal_tensor([n, k]);
        assert!(
            a.matmul_nt(&b).max_abs_diff(&a.matmul(&b.transpose())) < 1e-12,
            "seed {seed}"
        );
        let c = rng.normal_tensor([k, m]);
        let d = rng.normal_tensor([k, n]);
        assert!(
            c.matmul_tn(&d).max_abs_diff(&c.transpose().matmul(&d)) < 1e-12,
            "seed {seed}"
        );
    }
}

/// QR least squares reproduces planted solutions of tall systems.
#[test]
fn qr_solves_planted_tall_systems() {
    for seed in 0..CASES {
        let n = 2 + (seed as usize) % 6;
        let m = n + (seed as usize / 7) % 6;
        let a = rand_matrix(seed.wrapping_add(1), m, n);
        let x_true = Prng::seed_from_u64(seed.wrapping_add(2)).normal_tensor([n]);
        let b = a.matvec(&x_true);
        let x = QrFactors::compute(&a).solve_least_squares(&b);
        assert!(x.max_abs_diff(&x_true) < 1e-7, "seed {seed} m={m} n={n}");
    }
}

/// The min-norm pre-image of a wide system is orthogonal to the null
/// space (that is what "minimum-norm" means).
#[test]
fn preimage_is_minimum_norm() {
    for seed in 0..CASES {
        let m = 2 + (seed as usize) % 4;
        let n = m + 2 + (seed as usize / 11) % 6;
        let a = rand_matrix(seed.wrapping_add(3), m, n);
        let b = Prng::seed_from_u64(seed.wrapping_add(4)).normal_tensor([m]);
        let p = preimage(&a, &b, 1e-8).expect("random wide systems are onto");
        // Build a null vector: w − A⁺(Aw).
        let w = Prng::seed_from_u64(seed.wrapping_add(5)).normal_tensor([n]);
        let back = preimage(&a, &a.matvec(&w), 1e-8).expect("consistent");
        let null = &w - &back.v;
        assert!(a.matvec(&null).norm_inf() < 1e-6, "seed {seed}");
        assert!(p.v.dot(&null).abs() < 1e-6, "seed {seed}");
    }
}

/// im2col/col2im are adjoint for arbitrary geometries.
#[test]
fn im2col_adjoint() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let g = ConvGeometry {
            in_channels: 1 + (seed as usize) % 3,
            in_h: 4 + (seed as usize / 3) % 4,
            in_w: 4 + (seed as usize / 12) % 4,
            k_h: 1 + (seed as usize / 48) % 3,
            k_w: 1 + (seed as usize / 144) % 3,
            stride: 1 + (seed as usize / 432) % 2,
            pad: (seed as usize / 864) % 2,
        };
        let x = rng.normal_tensor([g.in_channels * g.in_h * g.in_w]);
        let y = rng.normal_tensor([g.out_positions(), g.patch_len()]);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.dot(&col2im(&y, &g));
        assert!((lhs - rhs).abs() < 1e-9, "seed {seed} geometry {g:?}");
    }
}

/// The PRNG's uniform integers are bounded and its unit vectors are
/// normalized, for any seed.
#[test]
fn prng_contracts() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let n = 1 + rng.below(49);
        assert!(rng.below(n) < n);
        let v = rng.unit_vector(n);
        assert!((v.norm() - 1.0).abs() < 1e-12, "seed {seed} n={n}");
        let idx = rng.choose_indices(n, n.min(5));
        let set: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), idx.len(), "seed {seed}");
    }
}

/// Softmax output is a probability vector for any finite input.
#[test]
fn softmax_is_probability() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let len = 1 + rng.below(19);
        let v: Vec<f64> = (0..len).map(|_| (rng.uniform() - 0.5) * 2e3).collect();
        let s = Tensor::from_slice(&v).softmax();
        assert!((s.sum() - 1.0).abs() < 1e-9, "seed {seed}");
        assert!(s.as_slice().iter().all(|&p| (0.0..=1.0).contains(&p)));
    }
}

fn same_bits(a: &Option<Preimage>, b: &Option<Preimage>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => {
            a.residual.to_bits() == b.residual.to_bits()
                && a.v.dims() == b.v.dims()
                && a.v
                    .as_slice()
                    .iter()
                    .zip(b.v.as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        _ => false,
    }
}

/// A memo hit returns exactly the bits of a fresh `preimage`, for wide,
/// square, tall and rank-deficient matrices and any right-hand side.
#[test]
fn qr_memo_hits_are_bit_identical_to_fresh_preimages() {
    for seed in 0..CASES {
        let mut rng = Prng::seed_from_u64(seed);
        let m = 1 + (seed as usize) % 6;
        let n = 1 + (seed as usize / 6) % 8;
        let mut a = rng.normal_tensor([m, n]);
        if seed % 5 == 0 {
            // Zero a row: the mask of an inactive neuron.
            a.row_mut(0).fill(0.0);
        }
        let mut memo = QrMemo::new();
        for j in 0..m + 2 {
            let b = if j < m {
                Tensor::basis(m, j)
            } else {
                rng.normal_tensor([m])
            };
            let memoized = memo.preimage(&a, &b, 1e-8);
            assert!(memo.holds(&a), "seed {seed}");
            assert!(
                same_bits(&memoized, &preimage(&a, &b, 1e-8)),
                "seed {seed} rhs {j}"
            );
        }
    }
}

/// A one-ulp change to any single entry is a different matrix: the memo
/// factors it afresh, and then holds it alone.
#[test]
fn qr_memo_misses_on_a_one_ulp_change_and_holds_one_entry() {
    let mut rng = Prng::seed_from_u64(77);
    let a = rng.normal_tensor([4, 7]);
    let e = Tensor::basis(4, 1);
    for i in 0..a.numel() {
        let mut memo = QrMemo::new();
        memo.preimage(&a, &e, 1e-8);
        let mut moved = a.clone();
        let x = &mut moved.as_mut_slice()[i];
        *x = f64::from_bits(x.to_bits() + 1);
        assert!(!memo.holds(&moved), "entry {i}: one ulp apart, still a hit");
        let got = memo.preimage(&moved, &e, 1e-8);
        assert!(same_bits(&got, &preimage(&moved, &e, 1e-8)), "entry {i}");
        assert!(
            memo.holds(&moved) && !memo.holds(&a),
            "entry {i}: two entries"
        );
    }
    // Alternating matrices evict each other; a cleared memo holds nothing.
    let b = rng.normal_tensor([4, 7]);
    let mut memo = QrMemo::new();
    for m in [&a, &b, &a] {
        memo.preimage(m, &e, 1e-8);
        assert!(memo.holds(m));
        assert_eq!(memo.holds(&a), std::ptr::eq(m, &a));
    }
    memo.clear();
    assert!(!memo.holds(&a) && !memo.holds(&b));
}
