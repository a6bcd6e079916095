//! Timing wrappers around two public surfaces the attack calls: the oracle
//! (`relock_locking::Oracle`) and the checkpoint sink
//! (`relock_attack::CheckpointSink`). They count and time every call from
//! outside the program, so the numbers need no instrumentation inside it.

use relock_attack::{CheckpointSink, MemoryCheckpointSink};
use relock_locking::{Oracle, OracleError};
use relock_tensor::Tensor;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Calls, rows and busy time counted by a wrapper. Busy time is summed
/// over calls, so it exceeds wall clock when calls overlap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls made.
    pub calls: u64,
    /// Oracle rows answered, or checkpoint bytes written.
    pub units: u64,
    /// Time spent inside the wrapped calls.
    pub busy: Duration,
}

#[derive(Debug, Default)]
struct Counters {
    calls: AtomicU64,
    units: AtomicU64,
    nanos: AtomicU64,
}

impl Counters {
    fn note(&self, units: u64, started: Instant) {
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.units.fetch_add(units, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    fn tally(&self) -> Tally {
        Tally {
            calls: self.calls.load(Ordering::Relaxed),
            units: self.units.load(Ordering::Relaxed),
            busy: Duration::from_nanos(self.nanos.load(Ordering::Relaxed)),
        }
    }
}

/// An oracle that times and counts every batch it forwards. Rows count
/// only for answered batches, matching the broker's `#Q` semantics.
#[derive(Debug)]
pub struct TimedOracle<O> {
    inner: O,
    counters: Counters,
}

impl<O: Oracle> TimedOracle<O> {
    /// Wraps `inner`.
    pub fn new(inner: O) -> Self {
        TimedOracle {
            inner,
            counters: Counters::default(),
        }
    }

    /// Calls, answered rows and busy time so far.
    pub fn tally(&self) -> Tally {
        self.counters.tally()
    }
}

impl<O: Oracle> Oracle for TimedOracle<O> {
    fn query_batch(&self, x: &Tensor) -> Tensor {
        let started = Instant::now();
        let y = self.inner.query_batch(x);
        self.counters.note(x.dims()[0] as u64, started);
        y
    }

    fn try_query_batch(&self, x: &Tensor) -> Result<Tensor, OracleError> {
        let started = Instant::now();
        let y = self.inner.try_query_batch(x);
        let rows = if y.is_ok() { x.dims()[0] as u64 } else { 0 };
        self.counters.note(rows, started);
        y
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

    fn remaining_budget(&self) -> Option<u64> {
        self.inner.remaining_budget()
    }
}

/// An in-memory checkpoint sink that times and counts every save.
#[derive(Debug, Default)]
pub struct TimedSink {
    inner: MemoryCheckpointSink,
    counters: Counters,
}

impl TimedSink {
    /// An empty sink.
    pub fn new() -> Self {
        TimedSink::default()
    }

    /// Saves, bytes written and time spent saving so far.
    pub fn tally(&self) -> Tally {
        self.counters.tally()
    }
}

impl CheckpointSink for TimedSink {
    fn save(&self, bytes: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let out = self.inner.save(bytes);
        if out.is_ok() {
            self.counters.note(bytes.len() as u64, started);
        }
        out
    }

    fn load(&self) -> io::Result<Option<Vec<u8>>> {
        self.inner.load()
    }
}
