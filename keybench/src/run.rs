//! One benchmark run: set-up, the measured attacks, their checks, and the
//! metrics reported from them.

use crate::attack::{run_attack, Outcome};
use crate::ledger::Ledger;
use crate::workload::{Pair, Workload};
use relock_attack::Procedure;
use relock_bench::{prepare, Scale};
use relock_locking::{Key, LockedModel};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// A metric as reported: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The end-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("attacks_per_min", "1/min"),
    ("attack_s_p50", "s"),
    ("oracle_queries_per_key", "count"),
    ("success_rate", "ratio"),
    ("key_fidelity", "ratio"),
    ("setup_s", "s"),
    ("attack_heap_mb", "MB"),
];

/// The per-layer metrics, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("attack.key_bit_inference_s", "s"),
    ("attack.learning_attack_s", "s"),
    ("attack.key_vector_validation_s", "s"),
    ("attack.error_correction_s", "s"),
    ("attack.ledger_gap_s", "s"),
    ("attack.algebraic_share", "ratio"),
    ("attack.validation_rounds", "count"),
    ("attack.corrected_bits", "count"),
    ("attack.waves", "count"),
    ("attack.wave_s", "s"),
    ("attack.worker_busy_share", "ratio"),
    ("serve.requested_rows", "count"),
    ("serve.underlying_rows", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.batches", "count"),
    ("serve.rows_per_batch", "count"),
    ("serve.retries", "count"),
    ("serve.batch_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.queries.key_bit_inference", "count"),
    ("serve.queries.learning_attack", "count"),
    ("serve.queries.key_vector_validation", "count"),
    ("serve.queries.error_correction", "count"),
    ("locking.oracle_calls", "count"),
    ("locking.oracle_rows", "count"),
    ("locking.oracle_busy_s", "s"),
    ("locking.oracle_share", "ratio"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.write_s", "s"),
    ("graph.workspace_checkouts", "count"),
    ("graph.plan_compiles", "count"),
    ("tensor.gemm_nn_calls", "count"),
    ("tensor.gemm_nt_calls", "count"),
    ("tensor.gemm_tn_calls", "count"),
    ("trace.events", "count"),
    ("trace.overhead_ratio", "ratio"),
];

/// Pairs per throughput round (at most the number of victims, so a round
/// never holds one victim twice).
const ROUND: usize = 8;

/// Everything one run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Whether every output check passed.
    pub correct: bool,
    /// Distinct (victim, seed) pairs attacked: the run's first pass.
    pub attempted: usize,
    /// Pairs of the first pass whose attack did not recover and validate
    /// the whole key.
    pub failed: usize,
    /// The reported metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes: sample counts, spreads, failed checks.
    pub notes: String,
}

/// Rounds of set-up: every victim is built, trained and locked this many
/// times, the rounds one after another, and its fastest build is its set-up
/// time. Load from elsewhere on the host comes in bursts of milliseconds to
/// seconds, about as long as one build or one round, so the fastest of
/// several keeps most of it out of `setup_s`.
const SETUP_ROUNDS: usize = 5;

/// A trained victim and the fastest of its builds (train and lock
/// included).
struct Victim {
    model: LockedModel,
    setup: Duration,
}

/// Bytes in one MB of `attack_heap_mb` (a MiB).
const MIB: f64 = 1024.0 * 1024.0;

/// What an untraced attack leaves behind: enough for the end-to-end
/// metrics and small, so a run's memory hardly grows with its length.
#[derive(Debug, Clone, Copy)]
struct Sample {
    wall: f64,
    heap_mb: f64,
    queries: u64,
    fidelity: f64,
    succeeded: bool,
}

/// Failed output checks, and the first result of every pair, against
/// which each repeat of the pair is compared.
#[derive(Debug, Default)]
struct Checks {
    faults: Vec<String>,
    first: HashMap<Pair, (Option<Key>, u64)>,
}

impl Checks {
    fn note(&mut self, pair: &Pair, o: &Outcome) {
        let at = format!("victim {} seed {}", pair.victim, pair.attack);
        for f in &o.faults {
            self.faults.push(format!("{at}: {f}"));
        }
        let result = (o.key.clone(), o.queries);
        match self.first.get(pair) {
            Some(first) if *first != result => self.faults.push(format!(
                "{at}: key or query count differs between repeats ({} vs {} queries)",
                first.1, result.1
            )),
            Some(_) => {}
            None => {
                self.first.insert(*pair, result);
            }
        }
    }
}

/// Runs `workload` for `seconds`. The run's operations are its first
/// pass: every (victim, seed) pair of the workload attacked once, in the
/// order of [`Workload::pair`]. The pass always completes, so `attempted`,
/// `failed` and the counted metrics are the same on every run of a seed.
///
/// Untraced, attacks go on after the pass until the window ends; the list
/// repeats, each repeat is checked against the pair's first result, and
/// the time metrics take each pair's fastest attack. Traced, the untraced
/// attacks stop once the pass is done and half the window has passed; the
/// pass is then attacked again under a trace recorder, which gives the
/// per-layer metrics and the tracing overhead.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> RunReport {
    relock_tensor::compute::set_thread_override(Some(w.threads));
    let seeds = w.victim_seeds(seed);
    let mut victims: Vec<Victim> = Vec::with_capacity(seeds.len());
    for round in 0..SETUP_ROUNDS {
        for (v, &s) in seeds.iter().enumerate() {
            let started = Instant::now();
            let model = prepare(w.arch, w.key_bits, Scale::Fast, s).model;
            let setup = started.elapsed();
            if round == 0 {
                victims.push(Victim { model, setup });
            } else {
                victims[v].setup = victims[v].setup.min(setup);
            }
        }
    }
    let cfg = w.attack_config();
    let attack = |pair: &Pair, traced: bool| {
        let victim = &victims[pair.victim].model;
        run_attack(&cfg, w.oracle_latency, victim, pair.attack_seed, traced)
    };

    let mut checks = Checks::default();
    let window = Duration::from_secs_f64(if traced { seconds / 2.0 } else { seconds });
    let started = Instant::now();
    let mut pairs = Vec::new();
    let mut samples = Vec::new();
    let pass = w.pass_len();
    while pairs.len() < pass || started.elapsed() < window {
        let pair = w.pair(seed, pairs.len());
        let o = attack(&pair, false);
        checks.note(&pair, &o);
        samples.push(Sample {
            wall: o.wall.as_secs_f64(),
            heap_mb: o.heap_peak as f64 / MIB,
            queries: o.queries,
            fidelity: o.fidelity,
            succeeded: o.succeeded(),
        });
        pairs.push(pair);
    }

    let mut notes = String::new();
    let (metrics, failed) = if traced {
        let outcomes: Vec<Outcome> = pairs[..pass].iter().map(|p| attack(p, true)).collect();
        for (pair, o) in pairs.iter().zip(&outcomes) {
            checks.note(pair, o);
        }
        let failed = outcomes.iter().filter(|o| !o.succeeded()).count();
        let untraced_wall = samples[..pass].iter().map(|s| s.wall).sum();
        let metrics = per_layer(w, untraced_wall, &outcomes, &mut notes);
        (metrics, failed)
    } else {
        let failed = samples[..pass].iter().filter(|s| !s.succeeded).count();
        let metrics = end_to_end(&victims, &samples, pass, &mut notes);
        (metrics, failed)
    };
    let mut faults = checks.faults;
    for m in metrics.iter().filter(|m| !m.value.is_finite()) {
        faults.push(format!("metric {} is not a finite number", m.name));
    }
    for f in faults.iter().take(20) {
        let _ = writeln!(notes, "CHECK FAILED: {f}");
    }
    if faults.len() > 20 {
        let _ = writeln!(notes, "… and {} more failed checks", faults.len() - 20);
    }
    RunReport {
        correct: faults.is_empty(),
        attempted: pass,
        failed,
        metrics,
        notes,
    }
}

/// The end-to-end metrics. The counted ones are taken over the first `pass`
/// attacks, one per pair. The time metrics are taken over each pair's
/// fastest attack in the run: the pass and its repeats do the same work, so
/// the minimum keeps bursts of load from elsewhere on the host out of them.
fn end_to_end(
    victims: &[Victim],
    samples: &[Sample],
    pass: usize,
    notes: &mut String,
) -> Vec<Metric> {
    let first = &samples[..pass];
    let n = pass as f64;
    let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    let mut best = walls[..pass].to_vec();
    for (i, &wall) in walls.iter().enumerate().skip(pass) {
        best[i % pass] = best[i % pass].min(wall);
    }
    let setups: Vec<f64> = victims.iter().map(|v| v.setup.as_secs_f64()).collect();
    let heaps: Vec<f64> = first.iter().map(|s| s.heap_mb).collect();
    let successes = first.iter().filter(|s| s.succeeded).count() as f64;
    let _ = writeln!(
        notes,
        "attack wall over {} attacks ({:.2} passes of {} pairs): p50 {:.4} s, p90 {:.4} s, min {:.4} s, max {:.4} s",
        walls.len(),
        walls.len() as f64 / n,
        pass,
        quantile(&walls, 0.5),
        quantile(&walls, 0.9),
        quantile(&walls, 0.0),
        quantile(&walls, 1.0),
    );
    let _ = writeln!(
        notes,
        "fastest attack per pair: p50 {:.4} s, p90 {:.4} s",
        quantile(&best, 0.5),
        quantile(&best, 0.9),
    );
    let _ = writeln!(
        notes,
        "attack peak heap: p50 {:.3} MB, max {:.3} MB",
        quantile(&heaps, 0.5),
        quantile(&heaps, 1.0),
    );
    let _ = writeln!(
        notes,
        "set-up over {} victims, fastest of {} builds each: p50 {:.4} s, max {:.4} s",
        setups.len(),
        SETUP_ROUNDS,
        quantile(&setups, 0.5),
        quantile(&setups, 1.0),
    );
    // Throughput is taken per round of consecutive pairs, each on another
    // victim, and the median round is reported, so that the few pairs that
    // need many validation rounds do not swing it from seed to seed.
    let rounds: Vec<f64> = best
        .chunks_exact(ROUND)
        .map(|round| 60.0 * round.len() as f64 / round.iter().sum::<f64>())
        .collect();
    let attacks_per_min = if rounds.is_empty() {
        60.0 * n / best.iter().sum::<f64>()
    } else {
        quantile(&rounds, 0.5)
    };
    let _ = writeln!(
        notes,
        "attacks per minute over {} rounds of {} pairs: p10 {:.1}, p50 {:.1}, p90 {:.1}",
        rounds.len(),
        ROUND,
        quantile(&rounds, 0.1),
        quantile(&rounds, 0.5),
        quantile(&rounds, 0.9),
    );
    let values: [f64; END_TO_END.len()] = [
        attacks_per_min,
        quantile(&best, 0.5),
        first.iter().map(|s| s.queries as f64).sum::<f64>() / n,
        successes / n,
        first.iter().map(|s| s.fidelity).sum::<f64>() / n,
        quantile(&setups, 0.5),
        quantile(&heaps, 0.5),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

fn per_layer(
    w: &Workload,
    untraced_wall: f64,
    traced: &[Outcome],
    notes: &mut String,
) -> Vec<Metric> {
    let n = traced.len() as f64;
    let mean = |f: &dyn Fn(&Outcome) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let total = |f: &dyn Fn(&Outcome) -> f64| traced.iter().map(f).sum::<f64>();
    let mut ledger = Ledger::default();
    for o in traced {
        ledger.merge(o.ledger.as_ref().expect("traced attacks carry a ledger"));
    }
    let span_s = |label: &str| ledger.get(label).span_nanos as f64 * 1e-9 / n;
    let counted = |label: &str| ledger.get(label).counter_sum as f64 / n;
    let proc_s = |p: Procedure| mean(&|o| o.timing.of(p).as_secs_f64());
    let scope_rows = |p: Procedure| {
        mean(&|o| {
            o.snapshot
                .per_scope
                .iter()
                .find(|(label, _)| label == p.label())
                .map_or(0.0, |(_, c)| c.underlying as f64)
        })
    };
    let wall = total(&|o| o.wall.as_secs_f64());
    let oracle_busy = total(&|o| o.oracle.busy.as_secs_f64());
    let key_bits = total(&|o| o.layers.iter().map(|l| l.bits as f64).sum());
    let requested = total(&|o| o.snapshot.requested as f64);

    let _ = writeln!(
        notes,
        "per-layer means over {} traced attacks",
        traced.len()
    );
    let _ = writeln!(notes, "trace ledger (all traced attacks):");
    for (label, t) in &ledger.labels {
        let _ = writeln!(
            notes,
            "  {label:<32} counters {:>10} sum {:>12} spans {:>8} span {:>10.4} s",
            t.counter_events,
            t.counter_sum,
            t.spans,
            t.span_nanos as f64 * 1e-9
        );
    }

    let values: [f64; PER_LAYER.len()] = [
        proc_s(Procedure::KeyBitInference),
        proc_s(Procedure::LearningAttack),
        proc_s(Procedure::KeyVectorValidation),
        proc_s(Procedure::ErrorCorrection),
        mean(&|o| o.ledger_gap()),
        ratio(
            total(&|o| o.layers.iter().map(|l| l.algebraic as f64).sum()),
            key_bits,
        ),
        mean(&|o| o.layers.iter().map(|l| l.validation_rounds as f64).sum()),
        mean(&|o| o.layers.iter().map(|l| l.corrected as f64).sum()),
        ledger.get("attack.wave").spans as f64 / n,
        span_s("attack.wave"),
        ledger.get("attack.worker").span_nanos as f64 * 1e-9 / (w.threads as f64 * wall),
        requested / n,
        mean(&|o| o.snapshot.underlying as f64),
        ratio(total(&|o| o.snapshot.cache_hits as f64), requested),
        mean(&|o| o.snapshot.batches as f64),
        ratio(requested, total(&|o| o.snapshot.batches as f64)),
        mean(&|o| o.snapshot.retries as f64),
        span_s("broker.batch"),
        span_s("broker.batch") - oracle_busy / n,
        scope_rows(Procedure::KeyBitInference),
        scope_rows(Procedure::LearningAttack),
        scope_rows(Procedure::KeyVectorValidation),
        scope_rows(Procedure::ErrorCorrection),
        mean(&|o| o.oracle.calls as f64),
        mean(&|o| o.oracle.units as f64),
        oracle_busy / n,
        oracle_busy / wall,
        mean(&|o| o.sink.calls as f64),
        mean(&|o| o.sink.units as f64),
        mean(&|o| o.sink.busy.as_secs_f64()),
        counted("workspace.checkout"),
        counted("plan.compile"),
        counted("gemm.nn"),
        counted("gemm.nt"),
        counted("gemm.tn"),
        ledger.events as f64 / n,
        wall / untraced_wall,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// `a / b`, or 0 when `b` is 0 (every traced attack returned an error).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The `q`-quantile of `values` with linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(r: &RunReport) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        r.correct, r.attempted, r.failed
    );
    for (i, m) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::consistent_outcome;

    #[test]
    fn a_pair_that_repeats_with_another_result_is_a_fault() {
        let w = &crate::workload::WORKLOADS[0];
        let (pair, other) = (w.pair(1, 0), w.pair(1, 1));
        let mut checks = Checks::default();
        let o = consistent_outcome();
        checks.note(&pair, &o);
        checks.note(&pair, &o);
        checks.note(
            &other,
            &Outcome {
                queries: 11,
                ..o.clone()
            },
        );
        assert!(checks.faults.is_empty(), "{:?}", checks.faults);
        checks.note(
            &pair,
            &Outcome {
                queries: 11,
                ..o.clone()
            },
        );
        checks.note(&pair, &Outcome { key: None, ..o });
        assert_eq!(checks.faults.len(), 2, "{:?}", checks.faults);
    }

    #[test]
    fn times_take_each_pairs_fastest_attack_and_counts_the_first_pass() {
        let sample = |wall, queries| Sample {
            wall,
            heap_mb: 1.0,
            queries,
            fidelity: 1.0,
            succeeded: true,
        };
        // Two pairs, each attacked twice; the repeats are the last two.
        let samples = [
            sample(1.0, 10),
            sample(3.0, 20),
            sample(2.0, 10),
            sample(1.0, 20),
        ];
        let metrics = end_to_end(&[], &samples, 2, &mut String::new());
        let value = |name| metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(value("attack_s_p50"), 1.0);
        assert_eq!(value("attacks_per_min"), 60.0);
        assert_eq!(value("oracle_queries_per_key"), 15.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
