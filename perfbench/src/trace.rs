//! Host-time tracing of the benchmark's calls into each layer.
//!
//! Every span is taken here, around a public call, never inside the
//! program. Calls that happen thousands of times per job (iteration
//! emission, observer hooks) are not spans: their time and counts add up
//! in [`Counters`], so memory stays bounded by the number of jobs.

use dynfb_core::journal::{DecisionRecord, JournalSink};
use dynfb_core::metrics::MetricsSink;
use dynfb_core::trace::{TraceEvent, TraceSink};
use dynfb_sim::{Machine, OpSink, PlanEntry, SimApp, Step};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `compiler.syncopt`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span within the same job, if any.
    pub parent: Option<usize>,
}

/// Per-job aggregates of the hooks that are too frequent to be spans, plus
/// the counts each layer reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Tokens the front end lexed.
    pub tokens: u64,
    /// Distinct section versions the compiler produced.
    pub versions: u64,
    /// Bytes of generated IR over all distinct versions.
    pub ir_bytes: u64,
    /// Host time inside `emit_serial`, `begin_parallel` and
    /// `emit_iteration`.
    pub exec_ns: u64,
    /// Parallel iterations emitted.
    pub iterations: u64,
    /// Simulation steps the executor emitted.
    pub steps: u64,
    /// Successful lock acquires in the simulated run.
    pub acquires: u64,
    /// Failed lock attempts in the simulated run.
    pub failed_attempts: u64,
    /// Timer reads in the simulated run.
    pub timer_reads: u64,
    /// Sampling intervals the controller measured.
    pub sampling_intervals: u64,
    /// Host time inside the trace sink.
    pub trace_ns: u64,
    /// Host time inside the journal sink.
    pub journal_ns: u64,
    /// Host time inside the metrics sink.
    pub metrics_ns: u64,
    /// Trace events recorded.
    pub trace_events: u64,
    /// Journal records recorded.
    pub journal_records: u64,
    /// Metrics hook calls.
    pub metrics_calls: u64,
    /// Events or records the observers dropped.
    pub dropped: u64,
}

impl Counters {
    /// Add `other` into `self`.
    pub fn add(&mut self, other: &Counters) {
        self.tokens += other.tokens;
        self.versions += other.versions;
        self.ir_bytes += other.ir_bytes;
        self.exec_ns += other.exec_ns;
        self.iterations += other.iterations;
        self.steps += other.steps;
        self.acquires += other.acquires;
        self.failed_attempts += other.failed_attempts;
        self.timer_reads += other.timer_reads;
        self.sampling_intervals += other.sampling_intervals;
        self.trace_ns += other.trace_ns;
        self.journal_ns += other.journal_ns;
        self.metrics_ns += other.metrics_ns;
        self.trace_events += other.trace_events;
        self.journal_records += other.journal_records;
        self.metrics_calls += other.metrics_calls;
        self.dropped += other.dropped;
    }

    /// Host time of the three observers together.
    #[must_use]
    pub fn observe_ns(&self) -> u64 {
        self.trace_ns + self.journal_ns + self.metrics_ns
    }
}

/// The spans and counters of one job.
#[derive(Debug)]
pub struct JobTrace {
    epoch: Instant,
    /// Spans in start order; index 0 is the job itself once closed.
    pub spans: Vec<Span>,
    /// Aggregated hooks and counts.
    pub counters: Counters,
    open: Vec<usize>,
}

fn since(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

impl JobTrace {
    /// A trace whose timestamps count from `epoch`, with the job's root
    /// span already open.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        let mut trace =
            JobTrace { epoch, spans: Vec::new(), counters: Counters::default(), open: Vec::new() };
        trace.open("job");
        trace
    }

    fn open(&mut self, name: &'static str) {
        let start_ns = since(self.epoch, Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close(&mut self) {
        let i = self.open.pop().expect("a span is open");
        self.spans[i].end_ns = since(self.epoch, Instant::now());
    }

    /// Time `f` as a child span of whatever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Close the job's root span.
    pub fn finish(&mut self) {
        while !self.open.is_empty() {
            self.close();
        }
    }
}

/// Write every job's spans and counters as JSON lines, one per span
/// followed by one counters line per job.
#[must_use]
pub fn spans_jsonl(jobs: &[(String, &JobTrace)]) -> String {
    let mut out = String::new();
    for (id, trace) in jobs {
        for (i, s) in trace.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"job\": \"{id}\", \"span\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        let c = &trace.counters;
        let _ = writeln!(
            out,
            "{{\"job\": \"{id}\", \"counters\": {{\"exec_ns\": {}, \"iterations\": {}, \"steps\": {}, \"trace_ns\": {}, \"journal_ns\": {}, \"metrics_ns\": {}, \"trace_events\": {}, \"journal_records\": {}, \"metrics_calls\": {}, \"dropped\": {}}}}}",
            c.exec_ns,
            c.iterations,
            c.steps,
            c.trace_ns,
            c.journal_ns,
            c.metrics_ns,
            c.trace_events,
            c.journal_records,
            c.metrics_calls,
            c.dropped
        );
    }
    out
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A [`SimApp`] that times the executor's three emission calls and counts
/// the steps they emit. Each call emits into a fresh [`OpSink`], whose
/// steps are then replayed into the runtime's sink; replay reproduces the
/// same step sequence because a finished sink never holds two adjacent
/// compute steps or a zero-length one.
pub struct TimedApp<A> {
    inner: A,
    /// Executor time and counts so far.
    pub counters: Counters,
}

impl<A: SimApp> TimedApp<A> {
    /// Wrap `inner`.
    pub fn new(inner: A) -> Self {
        TimedApp { inner, counters: Counters::default() }
    }

    fn replay(&mut self, emitted: OpSink, ops: &mut OpSink) {
        let steps = emitted.into_steps();
        self.counters.steps += steps.len() as u64;
        for step in steps {
            match step {
                Step::Compute(d) => ops.compute(d),
                Step::Acquire(lock) => ops.acquire(lock),
                Step::Release(lock) => ops.release(lock),
                other => unreachable!("an OpSink only holds compute and lock steps, got {other:?}"),
            }
        }
    }
}

impl<A: SimApp> SimApp for TimedApp<A> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn setup(&mut self, machine: &mut Machine) {
        self.inner.setup(machine);
    }
    fn plan(&self) -> Vec<PlanEntry> {
        self.inner.plan()
    }
    fn versions(&self, section: &str) -> Vec<String> {
        self.inner.versions(section)
    }
    fn version_for_policy(&self, section: &str, policy: &str) -> Option<usize> {
        self.inner.version_for_policy(section, policy)
    }
    fn emit_serial(&mut self, section: &str, ops: &mut OpSink) {
        let mut emitted = OpSink::default();
        let t0 = Instant::now();
        self.inner.emit_serial(section, &mut emitted);
        self.counters.exec_ns += elapsed_ns(t0);
        self.replay(emitted, ops);
    }
    fn begin_parallel(&mut self, section: &str) -> usize {
        let t0 = Instant::now();
        let n = self.inner.begin_parallel(section);
        self.counters.exec_ns += elapsed_ns(t0);
        n
    }
    fn emit_iteration(&mut self, section: &str, version: usize, iter: usize, ops: &mut OpSink) {
        let mut emitted = OpSink::default();
        let t0 = Instant::now();
        self.inner.emit_iteration(section, version, iter, &mut emitted);
        self.counters.exec_ns += elapsed_ns(t0);
        self.counters.iterations += 1;
        self.replay(emitted, ops);
    }
}

/// An observer sink that times every call into the sink it wraps.
pub struct TimedSink<S> {
    /// The wrapped sink.
    pub inner: S,
    /// Host time inside the wrapped sink.
    pub ns: u64,
    /// Calls made.
    pub calls: u64,
}

impl<S> TimedSink<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedSink { inner, ns: 0, calls: 0 }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut S) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.ns += elapsed_ns(t0);
        self.calls += 1;
        out
    }
}

impl<S: TraceSink> TraceSink for TimedSink<S> {
    const ENABLED: bool = S::ENABLED;
    fn record(&mut self, at: Duration, event: TraceEvent) {
        self.timed(|s| s.record(at, event));
    }
    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }
}

impl<S: JournalSink> JournalSink for TimedSink<S> {
    const ENABLED: bool = S::ENABLED;
    fn record(&mut self, record: DecisionRecord) {
        self.timed(|s| s.record(record));
    }
    fn dropped(&self) -> u64 {
        self.inner.dropped()
    }
}

impl<S: MetricsSink> MetricsSink for TimedSink<S> {
    const ENABLED: bool = S::ENABLED;
    fn lock_acquired(&mut self, lock: usize, cost: Duration, waited: Duration, failed: u64) {
        self.timed(|s| s.lock_acquired(lock, cost, waited, failed));
    }
    fn lock_released(&mut self, lock: usize, cost: Duration, held: Duration) {
        self.timed(|s| s.lock_released(lock, cost, held));
    }
    fn counter(&mut self, name: &'static str, delta: u64) {
        self.timed(|s| s.counter(name, delta));
    }
}
