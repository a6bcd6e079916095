//! The benchmark's workloads and the derivation of every victim and attack
//! seed from the one workload seed passed on the command line.

use relock_attack::AttackConfig;
use relock_bench::{attack_config, Arch, Scale};
use std::time::Duration;

/// The workload seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// One benchmark workload: a Table 1 victim family, the oracle in front of
/// it, and the attack's thread count.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Victim architecture (Table 1 row family, `Scale::Fast`).
    pub arch: Arch,
    /// Key size in bits (a Table 1 row).
    pub key_bits: usize,
    /// `AttackConfig::threads`; also pins the gemm kernels' worker count,
    /// so the process never runs more compute threads than this.
    pub threads: usize,
    /// Constant latency added to every underlying oracle call (`None` is
    /// the zero-latency `CountingOracle`).
    pub oracle_latency: Option<Duration>,
    /// Victims trained in set-up.
    pub victims: usize,
    /// Attack seeds per victim. `victims × seeds_per_victim` pairs make the
    /// run's first pass, which every run completes, so it is sized to take
    /// well under the window.
    pub seeds_per_victim: usize,
}

/// Every workload, in the order `BENCHMARK.json` lists them. Both attack
/// the Table 1 MLP 32-bit victims; they differ only in the oracle's
/// latency and the attack's thread count, so a change to the white-box
/// kernels should move the first and not the second, and a change to the
/// broker or oracle path the other way round.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "mlp32-whitebox",
        why: "zero-latency oracle, 1 thread: white-box critical-point search, learning and gemm kernels set the wall clock",
        arch: Arch::Mlp,
        key_bits: 32,
        threads: 1,
        oracle_latency: None,
        victims: 64,
        seeds_per_victim: 24,
    },
    Workload {
        name: "mlp32-oracle3ms",
        why: "3 ms per oracle call, 2 threads: oracle waits and broker batching set the wall clock, kernels do almost nothing",
        arch: Arch::Mlp,
        key_bits: 32,
        threads: 2,
        oracle_latency: Some(Duration::from_millis(3)),
        victims: 64,
        seeds_per_victim: 3,
    },
];

/// One (victim, attack seed) pair of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pair {
    /// Index of the victim in the run's victim list.
    pub victim: usize,
    /// Index of the attack seed for that victim.
    pub attack: usize,
    /// The attack's PRNG seed.
    pub attack_seed: u64,
}

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The Table 1 attack configuration for this victim family, at the
    /// workload's thread count.
    pub fn attack_config(&self) -> AttackConfig {
        AttackConfig {
            threads: self.threads,
            ..attack_config(self.arch, Scale::Fast)
        }
    }

    /// Training seeds of the run's victims.
    pub fn victim_seeds(&self, seed: u64) -> Vec<u64> {
        (0..self.victims)
            .map(|v| derive(seed, &[self.tag(), 0, v as u64]))
            .collect()
    }

    /// Distinct pairs of a run: its first pass.
    pub fn pass_len(&self) -> usize {
        self.victims * self.seeds_per_victim
    }

    /// The `k`-th pair of a run. Pairs cycle through the victims first so
    /// that any prefix of the run spreads over all of them; after the first
    /// pass the list repeats from the start.
    pub fn pair(&self, seed: u64, k: usize) -> Pair {
        let k = k % self.pass_len();
        let (victim, attack) = (k % self.victims, k / self.victims);
        Pair {
            victim,
            attack,
            attack_seed: derive(seed, &[self.tag(), 1, victim as u64, attack as u64]),
        }
    }

    /// FNV-1a of the name, so two workloads never share seeds.
    fn tag(&self) -> u64 {
        self.name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }
}

/// Derives a seed from the workload seed and a path of indices
/// (SplitMix64 finaliser over each step).
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    path.iter().fold(mix(seed), |h, &p| mix(h ^ mix(p)))
}

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
