//! Benchmark-owned tracing: spans around the public calls into each
//! layer, and [`Metered`], a [`GradedSource`] wrapper that gathers busy
//! time and call counts per source instead of one span per access.
//!
//! Spans carry a name, start, end, parent and query id; they are kept
//! in memory and written out as JSON lines when the run ends. A span's
//! self time is its duration minus the part its children cover, where
//! source busy time recorded under a span counts as a child.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::stats::GradeHistogram;
use fmdb_middleware::source::{GradedSource, Oid, ShardedSource, SourceInfo, SourcePartitioner};
use fmdb_middleware::stats::PageIoStats;

/// Busy time and access counts of one source. Shared between the
/// wrapper, which may run on an engine prefetch thread, and the
/// benchmark, which only reads it between queries.
#[derive(Debug, Default)]
pub struct Meter {
    sorted_ns: AtomicU64,
    sorted_items: AtomicU64,
    random_ns: AtomicU64,
    random_items: AtomicU64,
    other_ns: AtomicU64,
}

/// A snapshot of a [`Meter`]; diff two to meter one call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeterReading {
    /// Nanoseconds inside sorted access (scalar, batched and bounded).
    pub sorted_ns: u64,
    /// Entries returned by sorted access.
    pub sorted_items: u64,
    /// Nanoseconds inside random access (scalar, batched and bounded).
    pub random_ns: u64,
    /// Grades returned by random access.
    pub random_items: u64,
    /// Nanoseconds inside every other method (rewind, metadata, hints).
    pub other_ns: u64,
}

impl MeterReading {
    /// Total busy time.
    pub fn busy_ns(&self) -> u64 {
        self.sorted_ns + self.random_ns + self.other_ns
    }
}

impl std::ops::Sub for MeterReading {
    type Output = MeterReading;
    fn sub(self, rhs: MeterReading) -> MeterReading {
        MeterReading {
            sorted_ns: self.sorted_ns - rhs.sorted_ns,
            sorted_items: self.sorted_items - rhs.sorted_items,
            random_ns: self.random_ns - rhs.random_ns,
            random_items: self.random_items - rhs.random_items,
            other_ns: self.other_ns - rhs.other_ns,
        }
    }
}

impl std::ops::Add for MeterReading {
    type Output = MeterReading;
    fn add(self, rhs: MeterReading) -> MeterReading {
        MeterReading {
            sorted_ns: self.sorted_ns + rhs.sorted_ns,
            sorted_items: self.sorted_items + rhs.sorted_items,
            random_ns: self.random_ns + rhs.random_ns,
            random_items: self.random_items + rhs.random_items,
            other_ns: self.other_ns + rhs.other_ns,
        }
    }
}

impl Meter {
    // ordering(Relaxed): independent monotone statistics; the reader
    // snapshots them after the query's threads have been joined.
    fn add(counter: &AtomicU64, start: Instant) {
        counter.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
    }

    /// The counters so far.
    pub fn read(&self) -> MeterReading {
        MeterReading {
            sorted_ns: self.sorted_ns.load(Relaxed),
            sorted_items: self.sorted_items.load(Relaxed),
            random_ns: self.random_ns.load(Relaxed),
            random_items: self.random_items.load(Relaxed),
            other_ns: self.other_ns.load(Relaxed),
        }
    }

    fn sorted(&self, start: Instant, items: usize) {
        Meter::add(&self.sorted_ns, start);
        self.sorted_items.fetch_add(items as u64, Relaxed);
    }

    fn random(&self, start: Instant, items: usize) {
        Meter::add(&self.random_ns, start);
        self.random_items.fetch_add(items as u64, Relaxed);
    }

    fn other(&self, start: Instant) {
        Meter::add(&self.other_ns, start);
    }
}

/// A transparent timing wrapper: forwards every [`GradedSource`]
/// method to `inner` and adds its busy time to a shared [`Meter`].
#[derive(Debug)]
pub struct Metered<S> {
    inner: S,
    meter: Arc<Meter>,
}

impl<S> Metered<S> {
    /// Wraps `inner`; the returned meter reads its busy time.
    pub fn new(inner: S) -> (Metered<S>, Arc<Meter>) {
        let meter = Arc::new(Meter::default());
        (
            Metered {
                inner,
                meter: Arc::clone(&meter),
            },
            meter,
        )
    }
}

impl<S: GradedSource> GradedSource for Metered<S> {
    fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
        let start = Instant::now();
        let item = self.inner.sorted_next();
        self.meter.sorted(start, usize::from(item.is_some()));
        item
    }

    fn random_access(&mut self, oid: Oid) -> Score {
        let start = Instant::now();
        let grade = self.inner.random_access(oid);
        self.meter.random(start, 1);
        grade
    }

    fn rewind(&mut self) {
        let start = Instant::now();
        self.inner.rewind();
        self.meter.other(start);
    }

    fn info(&self) -> SourceInfo {
        self.inner.info()
    }

    fn sorted_batch(&mut self, n: usize) -> Vec<ScoredObject<Oid>> {
        let start = Instant::now();
        let batch = self.inner.sorted_batch(n);
        self.meter.sorted(start, batch.len());
        batch
    }

    fn random_batch(&mut self, oids: &[Oid]) -> Vec<Score> {
        let start = Instant::now();
        let grades = self.inner.random_batch(oids);
        self.meter.random(start, grades.len());
        grades
    }

    fn partition(
        &self,
        partitioner: SourcePartitioner,
        shards: usize,
    ) -> Option<Vec<ShardedSource>> {
        let start = Instant::now();
        let parts = self.inner.partition(partitioner, shards);
        self.meter.other(start);
        parts
    }

    fn grade_histogram(&self, bins: usize) -> Option<GradeHistogram> {
        let start = Instant::now();
        let histogram = self.inner.grade_histogram(bins);
        self.meter.other(start);
        histogram
    }

    fn page_io(&self) -> Option<PageIoStats> {
        self.inner.page_io()
    }

    fn note_threshold(&mut self, bound: Score) {
        let start = Instant::now();
        self.inner.note_threshold(bound);
        self.meter.other(start);
    }

    fn sorted_drain_bounded(&mut self, bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
        let start = Instant::now();
        let drained = self.inner.sorted_drain_bounded(bound);
        self.meter
            .sorted(start, drained.as_ref().map_or(0, Vec::len));
        drained
    }

    fn random_access_bounded(&mut self, oid: Oid, bound: Score) -> Score {
        let start = Instant::now();
        let grade = self.inner.random_access_bounded(oid, bound);
        self.meter.random(start, 1);
        grade
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary the span covers (`"garlic.top_k"`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation the span belongs to.
    pub query: u64,
    /// Source busy time recorded under this span (by [`Metered`]), which
    /// counts as covered by children.
    pub busy_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder for one run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span named `name` for operation `query`, nested
    /// under the innermost open span. Returns `f`'s value and the span's
    /// index.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        query: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, usize) {
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            query,
            busy_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        (out, idx)
    }

    /// Records source busy time measured inside span `idx`.
    pub fn add_busy(&mut self, idx: usize, busy_ns: u64) {
        self.spans[idx].busy_ns += busy_ns;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx`: its duration minus what its child spans
    /// and its recorded source busy time cover.
    pub fn self_ns(&self, idx: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::duration_ns)
            .sum();
        self.spans[idx]
            .duration_ns()
            .saturating_sub(children + self.spans[idx].busy_ns)
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"query\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.query,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                self.self_ns(i)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Records which trait methods reached it.
    #[derive(Default)]
    struct Spy {
        calls: Arc<Mutex<Vec<&'static str>>>,
    }

    impl Spy {
        fn hit(&self, name: &'static str) {
            self.calls.lock().expect("spy lock").push(name);
        }
    }

    impl GradedSource for Spy {
        fn sorted_next(&mut self) -> Option<ScoredObject<Oid>> {
            self.hit("sorted_next");
            None
        }
        fn random_access(&mut self, _oid: Oid) -> Score {
            self.hit("random_access");
            Score::ZERO
        }
        fn rewind(&mut self) {
            self.hit("rewind");
        }
        fn info(&self) -> SourceInfo {
            self.hit("info");
            SourceInfo::new("spy", 0)
        }
        fn sorted_batch(&mut self, _n: usize) -> Vec<ScoredObject<Oid>> {
            self.hit("sorted_batch");
            Vec::new()
        }
        fn random_batch(&mut self, _oids: &[Oid]) -> Vec<Score> {
            self.hit("random_batch");
            Vec::new()
        }
        fn partition(&self, _p: SourcePartitioner, _shards: usize) -> Option<Vec<ShardedSource>> {
            self.hit("partition");
            None
        }
        fn grade_histogram(&self, _bins: usize) -> Option<GradeHistogram> {
            self.hit("grade_histogram");
            None
        }
        fn page_io(&self) -> Option<PageIoStats> {
            self.hit("page_io");
            None
        }
        fn note_threshold(&mut self, _bound: Score) {
            self.hit("note_threshold");
        }
        fn sorted_drain_bounded(&mut self, _bound: Score) -> Option<Vec<ScoredObject<Oid>>> {
            self.hit("sorted_drain_bounded");
            None
        }
        fn random_access_bounded(&mut self, _oid: Oid, _bound: Score) -> Score {
            self.hit("random_access_bounded");
            Score::ZERO
        }
    }

    #[test]
    fn metered_forwards_every_method_to_its_inner_source() {
        let spy = Spy::default();
        let calls = Arc::clone(&spy.calls);
        let (mut m, meter) = Metered::new(spy);
        m.sorted_next();
        m.random_access(1);
        m.rewind();
        m.info();
        m.sorted_batch(4);
        m.random_batch(&[1, 2]);
        m.partition(SourcePartitioner::Modulo, 2);
        m.grade_histogram(8);
        m.page_io();
        m.note_threshold(Score::HALF);
        m.sorted_drain_bounded(Score::HALF);
        m.random_access_bounded(3, Score::HALF);
        let calls = calls.lock().expect("spy lock").clone();
        assert_eq!(
            calls,
            [
                "sorted_next",
                "random_access",
                "rewind",
                "info",
                "sorted_batch",
                "random_batch",
                "partition",
                "grade_histogram",
                "page_io",
                "note_threshold",
                "sorted_drain_bounded",
                "random_access_bounded",
            ]
        );
        let r = meter.read();
        // Only the scalar random probes return a grade from the spy.
        assert_eq!((r.sorted_items, r.random_items), (0, 2));
    }

    #[test]
    fn self_time_excludes_children_and_busy_time() {
        let mut t = Tracer::default();
        let (_, root) = t.span("root", 7, |t| {
            t.span("child", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        t.add_busy(root, 1);
        let child_ns = t.spans()[1].duration_ns();
        assert_eq!(t.spans()[1].parent, Some(root));
        assert_eq!(
            t.self_ns(root),
            t.spans()[root].duration_ns() - child_ns - 1
        );
    }
}
