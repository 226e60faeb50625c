//! Queries through `Engine::run`, shared by `engine_auto` (in-memory
//! lists) and `paged_mixed` (persisted stores): request assembly, the
//! answers kept for the reference check, and the traced per-layer
//! probes of the planner, engine, algorithm and source layers.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fmdb_core::score::ScoredObject;
use fmdb_core::scoring::means::ArithmeticMean;
use fmdb_core::scoring::tnorms::{Min, Product};
use fmdb_middleware::algorithms::TopKResult;
use fmdb_middleware::engine::Engine;
use fmdb_middleware::planner::{plan_algorithm, PhysicalPlan};
use fmdb_middleware::policy::{Algo, ExecPolicy};
use fmdb_middleware::request::{
    shared_source, SharedScoring, SharedSource, TopKQuery, TopKRequest,
};
use fmdb_middleware::source::{GradedSource, Oid, VecSource};
use fmdb_middleware::stats::{AccessStats, PageIoStats};
use fmdb_middleware::store::PagedStore;

use crate::check;
use crate::report::{median, quantile, ratio, Metrics};
use crate::trace::{Meter, MeterReading, Metered, Tracer};

/// The scoring functions the middleware workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scoring {
    /// The standard fuzzy conjunction.
    Min,
    /// The product t-norm.
    Product,
    /// The arithmetic mean.
    Mean,
}

impl Scoring {
    fn shared(self) -> SharedScoring {
        match self {
            Scoring::Min => Arc::new(Min),
            Scoring::Product => Arc::new(Product),
            Scoring::Mean => Arc::new(ArithmeticMean),
        }
    }
}

/// One generated top-k query over the workload's sources.
#[derive(Debug, Clone, PartialEq)]
pub struct MwQuery {
    /// Indices of the (distinct) sources, one per conjunct.
    pub sources: Vec<usize>,
    /// Answers requested.
    pub k: usize,
    /// How grades combine.
    pub scoring: Scoring,
    /// The execution policy's algorithm.
    pub algo: Algo,
}

/// One source as the workload serves it: the handle untraced queries
/// use, and, in traced runs, a metered handle over the same data.
#[derive(Debug)]
pub struct Handle {
    /// Shared handle reused across queries, so the grade cache can hit.
    pub plain: SharedSource,
    /// The same data behind [`Metered`], with its meter.
    pub metered: Option<(SharedSource, Arc<Meter>)>,
    /// The store a paged source reads, for its pool counters.
    pub store: Option<Arc<PagedStore>>,
}

impl Handle {
    /// A handle over an in-memory list.
    pub fn memory(list: VecSource, traced: bool) -> Handle {
        Handle {
            metered: traced.then(|| {
                let (m, meter) = Metered::new(list.clone());
                (shared_source(m), meter)
            }),
            plain: shared_source(list),
            store: None,
        }
    }

    /// A handle over an open store.
    pub fn paged(store: Arc<PagedStore>, traced: bool) -> Handle {
        Handle {
            plain: shared_source(store.source()),
            metered: traced.then(|| {
                let (m, meter) = Metered::new(store.source());
                (shared_source(m), meter)
            }),
            store: Some(store),
        }
    }
}

/// Builds the request for `q` over the plain (or metered) handles.
pub fn request(handles: &[Handle], q: &MwQuery, metered: bool) -> Result<TopKRequest, String> {
    let mut builder = TopKQuery::compose();
    for &i in &q.sources {
        let h = &handles[i];
        let source = match (&h.metered, metered) {
            (Some((m, _)), true) => m,
            _ => &h.plain,
        };
        builder = builder.shared_source(Arc::clone(source));
    }
    builder
        .shared_scoring(q.scoring.shared())
        .k(q.k)
        .policy(ExecPolicy::new().algo(q.algo))
        .request()
        .map_err(|e| e.to_string())
}

/// Runs `f` and returns its value with the elapsed milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

/// Mutable references to `items[idx[0]], items[idx[1]], …` (distinct
/// indices), in `idx` order.
pub fn pick<'a, T>(items: &'a mut [T], idx: &[usize]) -> Vec<&'a mut T> {
    let mut slots: Vec<Option<&'a mut T>> = idx.iter().map(|_| None).collect();
    for (i, item) in items.iter_mut().enumerate() {
        if let Some(pos) = idx.iter().position(|&j| j == i) {
            slots[pos] = Some(item);
        }
    }
    slots.into_iter().flatten().collect()
}

/// One answered query, kept for its reference check after the loop.
#[derive(Debug, Clone)]
pub struct Answered {
    /// Operation number within the run.
    pub op: u64,
    /// The query.
    pub q: MwQuery,
    /// The chosen plan reports certified lower bounds (NRA family)
    /// rather than exact grades.
    pub lower_bounds: bool,
    /// The answer.
    pub answers: Vec<ScoredObject<Oid>>,
}

impl Answered {
    /// Keeps `result` with the plan `engine` chose for `req` (asked
    /// again, untimed; the choice does not depend on cache state).
    pub fn new(
        engine: &Engine,
        req: &TopKRequest,
        op: u64,
        q: &MwQuery,
        result: TopKResult,
    ) -> Result<Answered, String> {
        let plan = engine.explain(req).map_err(|e| e.to_string())?.chosen;
        Ok(Answered {
            op,
            q: q.clone(),
            lower_bounds: matches!(plan, PhysicalPlan::Nra | PhysicalPlan::ApproxNra),
            // A copy at its length: the answer vector an algorithm
            // returns can keep the capacity of every object it saw, and
            // holding that for each query would grow the peak resident
            // set with the length of the run.
            answers: result.answers.to_vec(),
        })
    }

    /// Checks the answer against `reference`, the in-memory lists of
    /// the query's sources in query order: exact grades with
    /// `oracle::verify_top_k`, or certified lower bounds.
    pub fn check(&self, reference: &mut [&mut dyn GradedSource]) -> Result<(), String> {
        let scoring = self.q.scoring.shared();
        let outcome = if self.lower_bounds {
            check::lower_bounds(reference, &*scoring, &self.answers, self.q.k)
        } else {
            check::exact(reference, &*scoring, &self.answers, self.q.k)
        };
        outcome.map_err(|e| format!("operation {}: {e}", self.op))
    }
}

/// Wall time of each candidate algorithm on `req`, run through
/// `engine.run_algorithm` with a cleared grade cache so that no
/// candidate profits from the one before it.
pub fn candidate_times(
    engine: &Engine,
    req: &TopKRequest,
    candidates: &[PhysicalPlan],
) -> Result<Vec<f64>, String> {
    candidates
        .iter()
        .map(|&plan| {
            let algorithm =
                plan_algorithm(plan, 0.0).ok_or_else(|| format!("{plan} runs above the engine"))?;
            engine.clear_cache();
            let (result, ms) = timed(|| engine.run_algorithm(algorithm.as_ref(), req));
            result.map(|_| ms).map_err(|e| e.to_string())
        })
        .collect()
}

/// The chosen plan's wall time divided by the best candidate's.
pub fn regret(
    engine: &Engine,
    req: &TopKRequest,
    chosen: PhysicalPlan,
    candidates: &[PhysicalPlan],
) -> Result<f64, String> {
    let times = candidate_times(engine, req, candidates)?;
    let best = times.iter().copied().fold(f64::INFINITY, f64::min);
    let chosen_ms = match candidates.iter().position(|&p| p == chosen) {
        Some(i) => times[i],
        None => candidate_times(engine, req, &[chosen])?[0],
    };
    Ok(chosen_ms / best)
}

/// What the traced probes measured for one query.
#[derive(Debug, Clone)]
struct Row {
    m: usize,
    plan: PhysicalPlan,
    planner_us: f64,
    qerror: Option<f64>,
    regret: f64,
    engine_overhead_us: f64,
    run: AccessStats,
    direct: AccessStats,
    direct_ns: u64,
    busy: MeterReading,
    direct_page_reads: u64,
    readahead_loads: u64,
    plain_ms: f64,
    traced_ms: f64,
}

/// Per-layer probes of the middleware workloads, one [`Row`] per traced
/// query.
#[derive(Debug, Default)]
pub struct Probe {
    rows: Vec<Row>,
}

fn meters(handles: &[Handle], q: &MwQuery) -> MeterReading {
    q.sources
        .iter()
        .filter_map(|&i| handles[i].metered.as_ref())
        .fold(MeterReading::default(), |acc, (_, m)| acc + m.read())
}

fn store_io(handles: &[Handle], q: &MwQuery) -> (PageIoStats, u64) {
    q.sources
        .iter()
        .filter_map(|&i| handles[i].store.as_ref())
        .fold((PageIoStats::ZERO, 0), |(io, ra), s| {
            (io + s.page_io(), ra + s.readahead_loads())
        })
}

impl Probe {
    /// Runs one traced query: the untraced and the traced `Engine::run`
    /// (in alternating order, for the tracing overhead), then the
    /// planner, a direct `TopKAlgorithm::top_k` over the metered sources,
    /// `Engine::run_algorithm` on `probe_engine` and the candidate
    /// algorithms for the wall-time regret. Returns the traced run's
    /// result for the reference check.
    #[allow(clippy::too_many_arguments)]
    pub fn query(
        &mut self,
        engine: &Engine,
        probe_engine: &Engine,
        handles: &[Handle],
        q: &MwQuery,
        op: u64,
        tracer: &mut Tracer,
        candidates: &[PhysicalPlan],
    ) -> Result<(TopKResult, TopKRequest), String> {
        let plain = request(handles, q, false)?;
        let metered = request(handles, q, true)?;
        let (_, ra_before) = store_io(handles, q);
        let traced_run = |tracer: &mut Tracer| {
            let before = meters(handles, q);
            let ((result, ms), span) =
                tracer.span("engine.run", op, |_| timed(|| engine.run(&metered)));
            tracer.add_busy(span, (meters(handles, q) - before).busy_ns());
            (result, ms)
        };
        let ((result, traced_ms), plain_ms) = if op.is_multiple_of(2) {
            let (r, plain_ms) = timed(|| engine.run(&plain));
            r.map_err(|e| e.to_string())?;
            (traced_run(tracer), plain_ms)
        } else {
            let traced = traced_run(tracer);
            let (r, plain_ms) = timed(|| engine.run(&plain));
            r.map_err(|e| e.to_string())?;
            (traced, plain_ms)
        };
        let result = result.map_err(|e| e.to_string())?;
        let (_, ra_after) = store_io(handles, q);

        let ((explain, planner_ms), _) = tracer.span("planner.explain", op, |_| {
            timed(|| engine.explain(&metered))
        });
        let explain = explain.map_err(|e| e.to_string())?;
        let actual = result.stats.charged(&metered.policy().cost);
        let qerror = explain
            .chosen_cost()
            .filter(|&est| est > 0.0 && actual > 0.0)
            .map(|est| (est / actual).max(actual / est));

        let algorithm = plan_algorithm(explain.chosen, 0.0)
            .ok_or_else(|| format!("{} runs above the engine", explain.chosen))?;
        let scoring = metered.scoring();
        let before = meters(handles, q);
        let (io_before, _) = store_io(handles, q);
        let ((direct, direct_ms), span) = tracer.span("algo.top_k", op, |_| {
            timed(|| metered.with_sources(|refs| algorithm.top_k(refs, &*scoring, q.k)))
        });
        let busy = meters(handles, q) - before;
        let (io_after, _) = store_io(handles, q);
        tracer.add_busy(span, busy.busy_ns());
        let direct = direct.map_err(|e| e.to_string())?;

        probe_engine.clear_cache();
        let ((via_engine, engine_ms), _) = tracer.span("engine.run_algorithm", op, |_| {
            timed(|| probe_engine.run_algorithm(algorithm.as_ref(), &metered))
        });
        via_engine.map_err(|e| e.to_string())?;
        let regret = regret(probe_engine, &plain, explain.chosen, candidates)?;

        self.rows.push(Row {
            m: q.sources.len(),
            plan: explain.chosen,
            planner_us: planner_ms * 1e3,
            qerror,
            regret,
            engine_overhead_us: (engine_ms - direct_ms) * 1e3,
            run: result.stats,
            direct: direct.stats,
            direct_ns: (direct_ms * 1e6) as u64,
            busy,
            direct_page_reads: (io_after - io_before).reads,
            readahead_loads: ra_after - ra_before,
            plain_ms,
            traced_ms,
        });
        Ok((result, metered))
    }

    /// Queries probed so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Share of probed queries whose chosen plan was slower than the
    /// best candidate.
    pub fn not_fastest_share(&self) -> f64 {
        let slower = self.rows.iter().filter(|r| r.regret > 1.0).count();
        ratio(slower as f64, self.rows.len() as f64)
    }

    /// The spread, p10 and p90 over the traced queries, of the store
    /// counts that depend on read-ahead thread timing. They are
    /// reported with this spread and never asserted.
    pub fn store_spread_line(&self) -> String {
        let spread = |f: &dyn Fn(&Row) -> f64| {
            let v: Vec<f64> = self.rows.iter().map(f).collect();
            format!("{:.3}..{:.3}", quantile(&v, 0.1), quantile(&v, 0.9))
        };
        format!(
            "spread store (p10..p90 per query over {} queries): pool_hit_rate={} evictions={} readahead_loads={}",
            self.rows.len(),
            spread(&|r| ratio(
                r.run.page_hits as f64,
                (r.run.page_hits + r.run.page_reads) as f64
            )),
            spread(&|r| r.run.page_evictions as f64),
            spread(&|r| r.readahead_loads as f64)
        )
    }

    /// Sets the planner, engine, algorithm and source (or, with
    /// `paged`, store) metrics. Exact counts use only the first
    /// `window` queries, so two runs of one seed report the same counts
    /// however many queries each completed.
    pub fn finish(&self, metrics: &mut Metrics, window: usize, paged: bool) {
        let rows = &self.rows;
        let counted = &rows[..window.min(rows.len())];
        let n = rows.len() as f64;
        let nc = counted.len() as f64;

        let mut plans: BTreeMap<&str, u64> = BTreeMap::new();
        for r in counted {
            *plans.entry(r.plan.name()).or_default() += 1;
        }
        let share = |name: &str| ratio(plans.get(name).copied().unwrap_or(0) as f64, nc);
        metrics.set("planner.share.fa", share("fagin-a0"));
        metrics.set("planner.share.ta", share("threshold-ta"));
        metrics.set("planner.share.nra", share("nra-lower-bound"));
        metrics.set("planner.share.ca", share("combined-ca"));
        let planner_us: Vec<f64> = rows.iter().map(|r| r.planner_us).collect();
        metrics.set("planner.us_p50", median(&planner_us));
        let qerrors: Vec<f64> = rows.iter().filter_map(|r| r.qerror).collect();
        metrics.set("planner.cost_qerror_p50", median(&qerrors));
        metrics.set("planner.cost_qerror_max", quantile(&qerrors, 1.0));
        let regrets: Vec<f64> = rows.iter().map(|r| r.regret).collect();
        metrics.set("planner.wall_regret_p50", median(&regrets));
        metrics.set("planner.wall_regret_max", quantile(&regrets, 1.0));

        let overhead: Vec<f64> = rows.iter().map(|r| r.engine_overhead_us).collect();
        metrics.set("engine.overhead_us_p50", median(&overhead));
        let run = rows.iter().fold(AccessStats::ZERO, |acc, r| acc + r.run);
        metrics.set(
            "engine.grade_cache_hit_rate",
            ratio(
                run.cache_hits as f64,
                (run.cache_hits + run.cache_misses) as f64,
            ),
        );
        metrics.set(
            "engine.worker_spawns_per_query",
            ratio(run.worker_spawns as f64, n),
        );

        let self_ns = |r: &Row| r.direct_ns.saturating_sub(r.busy.busy_ns()) as f64;
        let algo_ms: Vec<f64> = rows.iter().map(|r| self_ns(r) / 1e6).collect();
        metrics.set("algo.self_ms_p50", median(&algo_ms));
        let accesses: u64 = rows.iter().map(|r| r.direct.sorted + r.direct.random).sum();
        metrics.set(
            "algo.ns_per_access",
            ratio(rows.iter().map(self_ns).sum(), accesses as f64),
        );
        let depths: Vec<f64> = counted
            .iter()
            .map(|r| r.direct.sorted as f64 / r.m as f64)
            .collect();
        metrics.set("algo.depth_p50", median(&depths));
        let sorted: u64 = counted.iter().map(|r| r.direct.sorted).sum();
        let random: u64 = counted.iter().map(|r| r.direct.random).sum();
        metrics.set("algo.sorted_per_query", ratio(sorted as f64, nc));
        metrics.set("algo.random_per_query", ratio(random as f64, nc));

        let busy = rows
            .iter()
            .fold(MeterReading::default(), |acc, r| acc + r.busy);
        let sorted_ns = ratio(busy.sorted_ns as f64, busy.sorted_items as f64);
        let random_ns = ratio(busy.random_ns as f64, busy.random_items as f64);
        if paged {
            metrics.set("store.sorted_ns", sorted_ns);
            metrics.set("store.random_ns", random_ns);
            metrics.set(
                "store.page_reads_per_query",
                ratio(run.page_reads as f64, n),
            );
            metrics.set(
                "store.pool_hit_rate",
                ratio(
                    run.page_hits as f64,
                    (run.page_hits + run.page_reads) as f64,
                ),
            );
            metrics.set(
                "store.evictions_per_query",
                ratio(run.page_evictions as f64, n),
            );
            metrics.set(
                "store.pages_skipped_per_query",
                ratio(run.pages_skipped as f64, n),
            );
            let readahead: u64 = rows.iter().map(|r| r.readahead_loads).sum();
            metrics.set(
                "store.readahead_loads_per_query",
                ratio(readahead as f64, n),
            );
            let page_reads: u64 = rows.iter().map(|r| r.direct_page_reads).sum();
            metrics.set(
                "store.us_per_page_read",
                ratio(busy.busy_ns() as f64 / 1e3, page_reads as f64),
            );
        } else {
            metrics.set("source.sorted_ns", sorted_ns);
            metrics.set("source.random_ns", random_ns);
        }

        let plain: f64 = rows.iter().map(|r| r.plain_ms).sum();
        let traced: f64 = rows.iter().map(|r| r.traced_ms).sum();
        metrics.set("trace.overhead_share", ratio(traced, plain) - 1.0);
    }
}
