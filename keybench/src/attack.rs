//! One full key-recovery attack on one victim, with its output checks.

use crate::heap;
use crate::ledger::{Ledger, LedgerRecorder};
use crate::probe::{Tally, TimedOracle, TimedSink};
use relock_attack::{
    AttackConfig, CheckpointPolicy, Decryptor, LayerReport, QueryStatsSnapshot, TimingBreakdown,
};
use relock_locking::{CountingOracle, Key, LockedModel, Oracle};
use relock_serve::{Broker, BrokerConfig, ChaosConfig, ChaosOracle};
use relock_tensor::rng::Prng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The result of one attack and of every check made on it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Recovered key (`None` when the attack returned an error).
    pub key: Option<Key>,
    /// The attack's error, if it returned one.
    pub error: Option<String>,
    /// Underlying oracle rows spent (Table 1's #Q).
    pub queries: u64,
    /// Wall clock of the `Decryptor` call.
    pub wall: Duration,
    /// Peak heap the `Decryptor` call held above what was live before it.
    pub heap_peak: usize,
    /// Fraction of key bits equal to the victim's true key (0 on error).
    pub fidelity: f64,
    /// Whether every layer's key vector passed validation.
    pub validated: bool,
    /// Figure 3 per-procedure time.
    pub timing: TimingBreakdown,
    /// Per-layer attack statistics.
    pub layers: Vec<LayerReport>,
    /// The broker's books after the attack.
    pub snapshot: QueryStatsSnapshot,
    /// What the timing oracle wrapper saw.
    pub oracle: Tally,
    /// What the timing checkpoint sink saw.
    pub sink: Tally,
    /// The trace ledger, for traced attacks.
    pub ledger: Option<Ledger>,
    /// Output checks that failed: any entry means the program's outputs
    /// are inconsistent, which is worse than a failed attack.
    pub faults: Vec<String>,
}

impl Outcome {
    /// The attack recovered the whole key and validated every layer.
    /// Anything else is a failed operation.
    pub fn succeeded(&self) -> bool {
        self.error.is_none() && self.fidelity == 1.0 && self.validated
    }

    /// Attack wall clock not covered by the four procedures.
    pub fn ledger_gap(&self) -> f64 {
        self.wall.as_secs_f64() - self.timing.total().as_secs_f64()
    }
}

/// Runs the full `Decryptor` attack on `victim` with checkpoints into an
/// in-memory sink, behind a zero-latency `CountingOracle` or, with
/// `latency`, a `ChaosOracle` that sleeps that long on every call. With
/// `traced`, a fresh [`LedgerRecorder`] is installed for the attack alone.
pub fn run_attack(
    cfg: &AttackConfig,
    latency: Option<Duration>,
    victim: &LockedModel,
    attack_seed: u64,
    traced: bool,
) -> Outcome {
    let counting = CountingOracle::new(victim);
    match latency {
        None => attack_through(cfg, &counting, victim, attack_seed, traced),
        Some(spike) => {
            let chaos = ChaosOracle::new(
                &counting,
                ChaosConfig {
                    latency_spike_rate: 1.0,
                    latency_spike: spike,
                    ..ChaosConfig::default()
                },
            );
            attack_through(cfg, chaos, victim, attack_seed, traced)
        }
    }
}

fn attack_through<O: Oracle>(
    cfg: &AttackConfig,
    oracle: O,
    victim: &LockedModel,
    attack_seed: u64,
    traced: bool,
) -> Outcome {
    let timed = TimedOracle::new(oracle);
    let broker = Broker::with_config(
        &timed,
        BrokerConfig {
            max_queries: cfg.query_budget,
            ..BrokerConfig::default()
        },
    );
    let sink = TimedSink::new();
    let recorder = Arc::new(LedgerRecorder::new());
    let mut rng = Prng::seed_from_u64(attack_seed);
    let decryptor = Decryptor::new(*cfg);
    let mut attack = || {
        let heap_before = heap::restart_peak();
        let started = Instant::now();
        let result = decryptor.run_with_checkpoints(
            victim.white_box(),
            &broker,
            &mut rng,
            &sink,
            CheckpointPolicy::EVERY_CUT,
        );
        (result, started.elapsed(), heap::peak() - heap_before)
    };
    let (result, wall, heap_peak) = if traced {
        relock_trace::with_recorder(recorder.clone(), attack)
    } else {
        attack()
    };
    let snapshot = broker.snapshot();
    let mut outcome = Outcome {
        key: None,
        error: None,
        queries: snapshot.underlying,
        wall,
        heap_peak,
        fidelity: 0.0,
        validated: false,
        timing: TimingBreakdown::new(),
        layers: Vec::new(),
        snapshot,
        oracle: timed.tally(),
        sink: sink.tally(),
        ledger: traced.then(|| recorder.ledger()),
        faults: Vec::new(),
    };
    match result {
        Ok(report) => {
            if report.queries != outcome.snapshot.underlying {
                outcome.faults.push(format!(
                    "report.queries {} != broker underlying {}",
                    report.queries, outcome.snapshot.underlying
                ));
            }
            outcome.fidelity = report.fidelity(victim.true_key());
            outcome.validated = report.fully_validated();
            outcome.key = Some(report.key);
            outcome.timing = report.timing;
            outcome.layers = report.layers;
        }
        Err(e) => outcome.error = Some(e.to_string()),
    }
    check(&mut outcome);
    outcome
}

/// The checks every attack passes whether or not it recovered the key.
fn check(o: &mut Outcome) {
    let s = &o.snapshot;
    let mut faults = Vec::new();
    if !s.is_balanced() {
        faults.push("broker books do not balance".to_string());
    }
    if s.underlying != o.oracle.units {
        faults.push(format!(
            "broker underlying {} != oracle wrapper rows {}",
            s.underlying, o.oracle.units
        ));
    }
    // The broker times whole batches (cache lookup included) around the
    // wrapper's calls, so the wrapper's busy time can never exceed it.
    if o.oracle.busy > s.oracle_time {
        faults.push(format!(
            "oracle wrapper busy {:?} > broker oracle time {:?}",
            o.oracle.busy, s.oracle_time
        ));
    }
    if o.ledger_gap() < 0.0 {
        faults.push(format!(
            "procedures sum {:?} > attack wall {:?}",
            o.timing.total(),
            o.wall
        ));
    }
    if let Some(l) = &o.ledger {
        let traced_rows = l.get("broker.underlying").counter_sum;
        if traced_rows != s.underlying {
            faults.push(format!(
                "trace broker.underlying {traced_rows} != broker underlying {}",
                s.underlying
            ));
        }
        let writes = l.get("checkpoint.write");
        if writes.counter_events != o.sink.calls || writes.counter_sum != o.sink.units {
            faults.push(format!(
                "trace checkpoint.write {}x/{} B != sink {}x/{} B",
                writes.counter_events, writes.counter_sum, o.sink.calls, o.sink.units
            ));
        }
        if l.open_spans != 0 || l.unmatched_ends != 0 {
            faults.push(format!(
                "trace left {} spans open and {} ends unmatched",
                l.open_spans, l.unmatched_ends
            ));
        }
    }
    o.faults.extend(faults);
}

/// An outcome whose books all agree, for tests that break one at a time.
#[cfg(test)]
pub(crate) fn consistent_outcome() -> Outcome {
    use crate::ledger::LabelTotals;
    let snapshot = QueryStatsSnapshot {
        requested: 10,
        underlying: 10,
        oracle_time: Duration::from_millis(5),
        ..QueryStatsSnapshot::default()
    };
    let mut ledger = Ledger::default();
    for (label, events, sum) in [("broker.underlying", 1, 10), ("checkpoint.write", 2, 300)] {
        let totals = LabelTotals {
            counter_events: events,
            counter_sum: sum,
            ..LabelTotals::default()
        };
        ledger.labels.insert(label.to_string(), totals);
    }
    Outcome {
        key: Some(Key::zeros(4)),
        error: None,
        queries: 10,
        wall: Duration::from_millis(20),
        heap_peak: 0,
        fidelity: 1.0,
        validated: true,
        timing: TimingBreakdown::new(),
        layers: Vec::new(),
        snapshot,
        oracle: Tally {
            calls: 1,
            units: 10,
            busy: Duration::from_millis(4),
        },
        sink: Tally {
            calls: 2,
            units: 300,
            busy: Duration::ZERO,
        },
        ledger: Some(ledger),
        faults: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relock_attack::Procedure;

    #[test]
    fn every_broken_book_is_a_fault() {
        let mut o = consistent_outcome();
        check(&mut o);
        assert!(o.faults.is_empty(), "{:?}", o.faults);
        let breaks: [fn(&mut Outcome); 7] = [
            |o| o.snapshot.requested += 1,
            |o| o.oracle.units += 1,
            |o| o.oracle.busy = Duration::from_millis(6),
            |o| {
                o.timing
                    .add(Procedure::LearningAttack, Duration::from_millis(21))
            },
            |o| {
                o.ledger
                    .as_mut()
                    .unwrap()
                    .labels
                    .get_mut("broker.underlying")
                    .unwrap()
                    .counter_sum += 1
            },
            |o| {
                o.ledger
                    .as_mut()
                    .unwrap()
                    .labels
                    .get_mut("checkpoint.write")
                    .unwrap()
                    .counter_events += 1
            },
            |o| o.ledger.as_mut().unwrap().open_spans = 1,
        ];
        for (i, broken) in breaks.iter().enumerate() {
            let mut o = consistent_outcome();
            broken(&mut o);
            check(&mut o);
            assert_eq!(o.faults.len(), 1, "break {i}: {:?}", o.faults);
        }
    }
}
