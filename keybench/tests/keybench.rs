use relock_bench::{prepare, Arch, Scale};
use relock_keybench::attack::run_attack;
use relock_keybench::ledger::{LabelTotals, LedgerRecorder};
use relock_keybench::run::{run, RunReport, END_TO_END, PER_LAYER};
use relock_keybench::workload::{Workload, WORKLOADS};
use relock_locking::LockedModel;
use relock_trace::json::Value;
use relock_trace::{Event, Label, Recorder};
use std::collections::HashSet;
use std::sync::{Barrier, Mutex};

/// The trace recorder is process-global: tests that run attacks take this
/// lock so a traced attack never records another test's events.
static ATTACKS: Mutex<()> = Mutex::new(());

fn victim() -> LockedModel {
    prepare(Arch::Mlp, 32, Scale::Fast, 7).model
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn names_are_well_formed_unique_and_match_benchmark_json() {
    let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let metrics: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
    for name in workloads.iter().chain(&metrics) {
        assert!(is_name(name), "{name:?} is not [A-Za-z0-9_.-]+");
    }
    let all: HashSet<&str> = workloads.iter().chain(&metrics).copied().collect();
    assert_eq!(all.len(), workloads.len() + metrics.len(), "names repeat");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Value::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    let entries = |key: &str, fields: [&str; 2]| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .expect("a list")
            .iter()
            .map(|e| {
                let field = |f: &str| e.get(f).and_then(Value::as_str).expect(f).to_string();
                (field(fields[0]), field(fields[1]))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let declared: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(entries("workloads", ["name", "why"]), declared);
    assert_eq!(entries("end_to_end", ["name", "unit"]), own(&END_TO_END));
    assert_eq!(entries("per_layer", ["name", "unit"]), own(&PER_LAYER));
}

#[test]
fn seeds_derive_deterministically_from_the_workload_seed() {
    for w in &WORKLOADS {
        let n = w.pass_len();
        let pairs = |seed| (0..n).map(|k| w.pair(seed, k)).collect::<Vec<_>>();
        assert_eq!(w.victim_seeds(5), w.victim_seeds(5));
        assert_eq!(pairs(5), pairs(5));
        assert_ne!(w.victim_seeds(5), w.victim_seeds(6));
        assert_ne!(pairs(5), pairs(6));
        let distinct: HashSet<u64> = pairs(5).iter().map(|p| p.attack_seed).collect();
        assert_eq!(distinct.len(), n, "attack seeds collide");
        assert_eq!(w.pair(5, n + 3), w.pair(5, 3), "the pair list repeats");
        // A run's first round touches every victim once.
        let first: HashSet<usize> = (0..w.victims).map(|k| w.pair(5, k).victim).collect();
        assert_eq!(first.len(), w.victims);
    }
    assert_ne!(
        WORKLOADS[0].victim_seeds(5),
        WORKLOADS[1].victim_seeds(5),
        "workloads share seeds"
    );
    assert!(Workload::by_name("lenet8-whitebox").is_none());
}

#[test]
fn a_query_budget_too_small_to_validate_is_a_failed_operation() {
    let _serial = ATTACKS.lock().unwrap_or_else(|p| p.into_inner());
    let model = victim();
    let w = Workload::by_name("mlp32-whitebox").expect("workload");
    let mut cfg = w.attack_config();
    cfg.query_budget = Some(40);
    let starved = run_attack(&cfg, w.oracle_latency, &model, 11, true);
    assert!(!starved.succeeded(), "40 queries cannot validate a key");
    assert!(starved.queries <= 40);
    // The attack failed; the program's books still agree.
    assert!(starved.faults.is_empty(), "{:?}", starved.faults);

    let full = run_attack(&w.attack_config(), w.oracle_latency, &model, 11, false);
    assert!(full.succeeded(), "{full:?}");
}

#[test]
fn a_run_counts_its_first_pass_whatever_the_window() {
    let _serial = ATTACKS.lock().unwrap_or_else(|p| p.into_inner());
    let w = Workload {
        victims: 2,
        seeds_per_victim: 2,
        ..WORKLOADS[0]
    };
    // A window far shorter than the pass: the pass still completes.
    let short = run(&w, 9, 1e-3, false);
    // A window long enough for repeats of the first pairs.
    let long = run(&w, 9, 0.4, false);
    let traced = run(&w, 9, 0.4, true);
    for r in [&short, &long, &traced] {
        assert!(r.correct, "{}", r.notes);
        assert_eq!((r.attempted, r.failed), (4, 0), "{}", r.notes);
    }
    let value =
        |r: &RunReport, name: &str| r.metrics.iter().find(|m| m.name == name).expect(name).value;
    for name in ["oracle_queries_per_key", "success_rate", "key_fidelity"] {
        assert_eq!(value(&short, name), value(&long, name), "{name}");
    }
}

#[test]
fn traced_and_untraced_attacks_agree_and_the_ledger_reconciles() {
    let _serial = ATTACKS.lock().unwrap_or_else(|p| p.into_inner());
    let model = victim();
    for w in &WORKLOADS {
        let cfg = w.attack_config();
        let plain = run_attack(&cfg, w.oracle_latency, &model, 3, false);
        let traced = run_attack(&cfg, w.oracle_latency, &model, 3, true);
        assert!(plain.faults.is_empty(), "{:?}", plain.faults);
        assert!(traced.faults.is_empty(), "{:?}", traced.faults);
        assert_eq!(plain.key, traced.key);
        assert_eq!(plain.queries, traced.queries);
        let ledger = traced.ledger.expect("a traced attack has a ledger");
        assert_eq!(ledger.get("broker.underlying").counter_sum, traced.queries);
        assert_eq!(
            ledger.get("checkpoint.write").counter_events,
            traced.sink.calls
        );
        assert!(ledger.get("proc.key_bit_inference").spans > 0);
        assert!(plain.ledger.is_none());
    }
}

fn begin(id: u64, label: &'static str, t: u64) -> Event {
    Event::SpanBegin {
        id,
        label: Label::Borrowed(label),
        arg: 0,
        t,
    }
}

fn end(id: u64, label: &'static str, t: u64) -> Event {
    Event::SpanEnd {
        id,
        label: Label::Borrowed(label),
        t,
    }
}

#[test]
fn the_recorder_sums_nested_and_interleaved_spans() {
    let r = LedgerRecorder::new();
    // outer [0, 100) holds inner [10, 30) and a second inner [40, 45).
    for e in [
        begin(1, "outer", 0),
        begin(2, "inner", 10),
        end(2, "inner", 30),
        begin(3, "inner", 40),
        Event::Counter {
            label: Label::Borrowed("work"),
            scope: None,
            value: 5,
            t: 41,
        },
        end(3, "inner", 45),
        // A span of another thread overlaps: [50, 150).
        begin(4, "outer", 50),
        end(1, "outer", 100),
        end(4, "outer", 150),
        end(99, "outer", 160),
    ] {
        r.record(e);
    }
    let l = r.ledger();
    let spans = |spans, span_nanos| LabelTotals {
        spans,
        span_nanos,
        ..LabelTotals::default()
    };
    assert_eq!(l.get("outer"), spans(2, 200));
    assert_eq!(l.get("inner"), spans(2, 25));
    assert_eq!(l.get("work").counter_sum, 5);
    assert_eq!(l.events, 10);
    assert_eq!(l.open_spans, 0);
    assert_eq!(l.unmatched_ends, 1);
    // Labels with equal text at different addresses share one entry.
    r.record(Event::Counter {
        label: Label::Owned("work".to_string()),
        scope: None,
        value: 2,
        t: 170,
    });
    assert_eq!(r.ledger().get("work").counter_sum, 7);
}

#[test]
fn the_recorder_sums_spans_from_concurrent_threads() {
    const PER_THREAD: u64 = 5_000;
    let r = LedgerRecorder::new();
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for thread in 0..2u64 {
            let (r, start) = (&r, &start);
            s.spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    let id = 1 + thread * PER_THREAD + i;
                    r.record(begin(id, "worker", 10 * i));
                    r.record(Event::Counter {
                        label: Label::Borrowed("gemm"),
                        scope: None,
                        value: 1,
                        t: 10 * i + 1,
                    });
                    r.record(end(id, "worker", 10 * i + 3 + thread));
                }
            });
        }
    });
    let l = r.ledger();
    assert_eq!(l.get("worker").spans, 2 * PER_THREAD);
    assert_eq!(l.get("worker").span_nanos, PER_THREAD * 3 + PER_THREAD * 4);
    assert_eq!(l.get("gemm").counter_sum, 2 * PER_THREAD);
    assert_eq!(l.events, 6 * PER_THREAD);
    assert_eq!(l.open_spans, 0);
}
