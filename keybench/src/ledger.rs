//! An aggregating `relock_trace::Recorder`: it keeps, per label, the number
//! of counter events and their summed value, and the number of closed spans
//! and their summed duration. It never stores one entry per event, so its
//! memory is bounded by the label catalogue and the spans open at once.

use relock_trace::{Event, Label, Recorder};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// Totals of one label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LabelTotals {
    /// Counter events seen.
    pub counter_events: u64,
    /// Sum of their values.
    pub counter_sum: u64,
    /// Spans closed.
    pub spans: u64,
    /// Summed duration of the closed spans, in nanoseconds. Each span
    /// counts in full, so nested spans of one label and spans open on
    /// several threads at once add up to more than wall clock.
    pub span_nanos: u64,
}

/// What a [`LedgerRecorder`] has seen.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Totals per label.
    pub labels: BTreeMap<String, LabelTotals>,
    /// Events received.
    pub events: u64,
    /// Spans begun but not yet ended.
    pub open_spans: usize,
    /// Span ends whose begin was never seen.
    pub unmatched_ends: u64,
}

impl Ledger {
    /// The totals of `label` (all zero when it never occurred).
    pub fn get(&self, label: &str) -> LabelTotals {
        self.labels.get(label).copied().unwrap_or_default()
    }

    /// Adds another ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for (label, t) in &other.labels {
            let e = self.labels.entry(label.clone()).or_default();
            e.counter_events += t.counter_events;
            e.counter_sum += t.counter_sum;
            e.spans += t.spans;
            e.span_nanos += t.span_nanos;
        }
        self.events += other.events;
        self.open_spans += other.open_spans;
        self.unmatched_ends += other.unmatched_ends;
    }
}

#[derive(Debug, Default)]
struct Book {
    /// A short list, scanned linearly: the catalogue has a few dozen labels.
    slots: Vec<(Label, LabelTotals)>,
    open: HashMap<u64, (usize, u64)>,
    events: u64,
    unmatched_ends: u64,
}

impl Book {
    fn slot(&mut self, label: Label) -> usize {
        // Recording sites pass `&'static str` literals, so the address
        // usually decides; the string comparison covers equal labels
        // stored at different addresses.
        let found = self.slots.iter().position(|(l, _)| {
            (l.as_ptr() == label.as_ptr() && l.len() == label.len()) || *l == label
        });
        found.unwrap_or_else(|| {
            self.slots.push((label, LabelTotals::default()));
            self.slots.len() - 1
        })
    }
}

/// The aggregating recorder (see the module docs).
#[derive(Debug, Default)]
pub struct LedgerRecorder {
    book: Mutex<Book>,
}

impl LedgerRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LedgerRecorder::default()
    }

    /// The totals so far.
    pub fn ledger(&self) -> Ledger {
        let book = self.book.lock().unwrap_or_else(|p| p.into_inner());
        let mut labels = BTreeMap::new();
        for (label, t) in &book.slots {
            labels.insert(label.to_string(), *t);
        }
        Ledger {
            labels,
            events: book.events,
            open_spans: book.open.len(),
            unmatched_ends: book.unmatched_ends,
        }
    }
}

impl Recorder for LedgerRecorder {
    fn record(&self, event: Event) {
        // Every update leaves the book consistent, so a poisoned lock is
        // safe to keep using; a recorder must never panic into the attack.
        let mut book = self.book.lock().unwrap_or_else(|p| p.into_inner());
        book.events += 1;
        match event {
            Event::Counter { label, value, .. } => {
                let i = book.slot(label);
                let t = &mut book.slots[i].1;
                t.counter_events += 1;
                t.counter_sum = t.counter_sum.saturating_add(value);
            }
            Event::SpanBegin { id, label, t, .. } => {
                let i = book.slot(label);
                book.open.insert(id, (i, t));
            }
            Event::SpanEnd { id, t, .. } => match book.open.remove(&id) {
                Some((i, began)) => {
                    let totals = &mut book.slots[i].1;
                    totals.spans += 1;
                    totals.span_nanos = totals.span_nanos.saturating_add(t.saturating_sub(began));
                }
                None => book.unmatched_ends += 1,
            },
        }
    }
}
