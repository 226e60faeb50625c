//! `paged_mixed`: forced FA/TA requests through one `Engine` over
//! persisted stores opened with default `StoreOptions`, with a store
//! rebuild every [`REBUILD_EVERY`]th operation.
//!
//! Why: on-disk stores are about three times the buffer pools, so page
//! read, checksum and decode dominate, while the OS cache holds every
//! file. One shared source handle per store is reused across queries,
//! so the grade cache can hit. Rebuilds put writes beside reads on the
//! same layer (through the store's own tmp + fsync + rename protocol)
//! and leave the new store's pool cold.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use fmdb_core::score::Score;
use fmdb_middleware::algorithms::TopKResult;
use fmdb_middleware::engine::Engine;
use fmdb_middleware::planner::PhysicalPlan;
use fmdb_middleware::policy::Algo;
use fmdb_middleware::request::TopKRequest;
use fmdb_middleware::source::{GradedSource, VecSource};
use fmdb_middleware::store::format::ENTRY_BYTES;
use fmdb_middleware::store::{build_store_from_source, BuildConfig, PagedStore, StoreOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Tally;
use crate::mw::{self, timed, Answered, Handle, MwQuery, Probe, Scoring};
use crate::report::{self, median, ratio, Metrics};
use crate::trace::Tracer;
use crate::{sample_distinct, Clock, Deck, Run, RunArgs, Samples};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Entries per store.
    pub n: usize,
    /// Stores.
    pub stores: usize,
}

/// The size the benchmark runs at.
pub const FULL: Scale = Scale {
    n: 100_000,
    stores: 8,
};

/// Seed of the stores' first contents. The stores are the workload's
/// fixed database; the run's seed draws the query sequence over them
/// and the grades each rebuild writes.
const DATA_SEED: u64 = 1998;

/// The key of a store's contents: the seed its grades are drawn from.
/// First contents are keyed by (`DATA_SEED`, store), a rebuild's by
/// (run seed, rebuild number), so that any contents can be drawn again
/// for the reference check.
fn contents_key(base: u64, index: u64) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ index
}

/// Every this-many-th operation is a rebuild.
const REBUILD_EVERY: u64 = 10;

/// Queries per deck: every (algorithm, scoring, k) at m = 2 and the
/// [`TRIPLES`] at m = 3, so a quarter have m = 3. The seed picks the
/// stores and the order, never the mix.
const DECK: usize = 16;

/// The m = 3 queries of each deck: every (algorithm, scoring) once,
/// each with a fixed k.
const TRIPLES: [(Algo, Scoring, usize); 4] = [
    (Algo::Fa, Scoring::Min, 10),
    (Algo::Fa, Scoring::Mean, 50),
    (Algo::Ta, Scoring::Min, 1),
    (Algo::Ta, Scoring::Mean, 10),
];

/// Exact counts cover the first this-many queries of a traced run.
const WINDOW: usize = 36;

/// The candidate algorithms of the wall-time regret. NRA is left out:
/// at this size one NRA query runs for seconds.
const CANDIDATES: [PhysicalPlan; 2] = [PhysicalPlan::Fa, PhysicalPlan::Ta];

/// The seeded query sequence over `stores` stores, dealt in shuffled
/// decks of [`DECK`].
pub fn queries(seed: u64, stores: usize) -> Deck<MwQuery> {
    Deck::new(seed ^ 0x9A6ED, move |rng| {
        let mut deck = Vec::with_capacity(DECK);
        for algo in [Algo::Fa, Algo::Ta] {
            for scoring in [Scoring::Min, Scoring::Mean] {
                for k in [1, 10, 50] {
                    deck.push((algo, scoring, k, 2));
                }
            }
        }
        for (algo, scoring, k) in TRIPLES {
            deck.push((algo, scoring, k, 3));
        }
        deck.into_iter()
            .map(|(algo, scoring, k, m)| MwQuery {
                sources: sample_distinct(rng, stores, m),
                k,
                scoring,
                algo,
            })
            .collect()
    })
}

/// The stores, the keys of their contents and the engine.
struct World {
    dir: PathBuf,
    paths: Vec<PathBuf>,
    handles: Vec<Handle>,
    contents: Vec<u64>,
    engine: Engine,
    rebuild_base: u64,
    generation: u64,
    traced: bool,
}

/// What one rebuild measured.
#[derive(Debug, Clone, Copy)]
struct Rebuild {
    build_ms: f64,
    open_ms: f64,
    bytes: u64,
}

/// The `n` uniform grades of the contents keyed `key`, as an in-memory
/// list: what a store is built from, and the reference it is checked
/// against.
fn contents(key: u64, n: usize) -> VecSource {
    let mut rng = StdRng::seed_from_u64(key);
    let grades: Vec<Score> = (0..n).map(|_| Score::clamped(rng.gen::<f64>())).collect();
    VecSource::from_dense(format!("contents-{key:x}"), &grades)
}

/// Builds `list` into a new store file and opens it, timing each step.
fn write_store(path: &Path, list: &mut VecSource) -> Result<(PagedStore, Rebuild), String> {
    let (built, build_ms) = timed(|| build_store_from_source(path, list, &BuildConfig::DEFAULT));
    built.map_err(|e| format!("building {}: {e}", path.display()))?;
    let (store, open_ms) = timed(|| PagedStore::open(path, StoreOptions::DEFAULT));
    let store = store.map_err(|e| format!("opening {}: {e}", path.display()))?;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    Ok((
        store,
        Rebuild {
            build_ms,
            open_ms,
            bytes,
        },
    ))
}

impl World {
    fn build(dir: &Path, seed: u64, scale: Scale, traced: bool) -> Result<World, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut world = World {
            dir: dir.to_owned(),
            paths: Vec::new(),
            handles: Vec::new(),
            contents: Vec::new(),
            engine: Engine::default(),
            rebuild_base: seed ^ 0x4EB0D,
            generation: 0,
            traced,
        };
        for j in 0..scale.stores {
            let key = contents_key(DATA_SEED, j as u64);
            let path = dir.join(format!("store-{j}-0.fmdb"));
            let (store, _) = write_store(&path, &mut contents(key, scale.n))?;
            world.paths.push(path);
            world.handles.push(Handle::paged(Arc::new(store), traced));
            world.contents.push(key);
        }
        Ok(world)
    }

    /// Replaces store `j` with a store of freshly generated grades: the
    /// new file is built and opened (the timed part), swapped in, and
    /// the old file deleted.
    fn rebuild(&mut self, j: usize, n: usize) -> Result<Rebuild, String> {
        self.generation += 1;
        let key = contents_key(self.rebuild_base, self.generation);
        let path = self.dir.join(format!("store-{j}-{}.fmdb", self.generation));
        let (store, rebuild) = write_store(&path, &mut contents(key, n))?;
        if store.len() != n as u64 {
            return Err(format!(
                "rebuilt store holds {} entries, not {n}",
                store.len()
            ));
        }
        self.handles[j] = Handle::paged(Arc::new(store), self.traced);
        self.contents[j] = key;
        let old = std::mem::replace(&mut self.paths[j], path);
        std::fs::remove_file(&old).map_err(|e| format!("removing {}: {e}", old.display()))?;
        Ok(rebuild)
    }

    /// Keeps `result` with the keys of the contents it was computed
    /// over.
    fn answered(
        &self,
        req: &TopKRequest,
        op: u64,
        q: &MwQuery,
        result: TopKResult,
    ) -> Result<(Answered, Vec<u64>), String> {
        Ok((
            Answered::new(&self.engine, req, op, q, result)?,
            self.contents.clone(),
        ))
    }

    /// Bytes on disk over all stores.
    fn disk_bytes(&self) -> u64 {
        self.paths
            .iter()
            .filter_map(|p| std::fs::metadata(p).ok())
            .map(|m| m.len())
            .sum()
    }
}

/// Checks every kept answer against its stores' contents, drawn again
/// from their keys. Contents are drawn once and dropped when no store
/// holds them any more.
fn check_all(answered: &[(Answered, Vec<u64>)], n: usize, tally: &mut Tally) {
    let mut lists: Vec<(u64, VecSource)> = Vec::new();
    for (a, live) in answered {
        lists.retain(|(key, _)| live.contains(key));
        let idx: Vec<usize> =
            a.q.sources
                .iter()
                .map(
                    |&j| match lists.iter().position(|(key, _)| *key == live[j]) {
                        Some(i) => i,
                        None => {
                            lists.push((live[j], contents(live[j], n)));
                            lists.len() - 1
                        }
                    },
                )
                .collect();
        let mut refs: Vec<&mut dyn GradedSource> = mw::pick(&mut lists, &idx)
            .into_iter()
            .map(|(_, list)| list as &mut dyn GradedSource)
            .collect();
        tally.record(a.check(&mut refs));
    }
}

/// Runs the workload in a fresh directory under `args.data_dir`, which
/// is removed afterwards.
pub fn run(args: &RunArgs, scale: Scale) -> Result<Run, String> {
    let dir = args
        .data_dir
        .join(format!("paged-{}-{}", std::process::id(), args.seed));
    let outcome = run_in(&dir, args, scale);
    let removed = std::fs::remove_dir_all(&dir);
    let run = outcome?;
    removed.map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(run)
}

fn run_in(dir: &Path, args: &RunArgs, scale: Scale) -> Result<Run, String> {
    let (world, setup) = crate::repeat_setup(|| World::build(dir, args.seed, scale, args.trace));
    let mut world = world?;
    let mut queries = queries(args.seed, scale.stores);
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut clock = Clock::new(args);
    let mut tracer = Tracer::default();
    let mut latency = Samples::default();
    let mut probe = Probe::default();
    let probe_engine = Engine::default();
    let mut rebuilds: Vec<Rebuild> = Vec::new();
    let mut query_count = 0usize;
    let mut answered: Vec<(Answered, Vec<u64>)> = Vec::new();

    let min_queries = if args.trace {
        WINDOW
    } else {
        crate::MIN_QUERIES
    };
    while clock.more(query_count, min_queries, DECK) {
        let op = tally.attempted + answered.len() as u64 + 1;
        if op.is_multiple_of(REBUILD_EVERY) {
            let outcome = world.rebuild(rebuilds.len() % scale.stores, scale.n);
            tally.record(outcome.map(|r| {
                clock.spent(r.build_ms + r.open_ms);
                rebuilds.push(r);
            }));
            continue;
        }
        let q = queries.next().expect("the query sequence is endless");
        query_count += 1;
        let outcome = if args.trace {
            let (outcome, ms) = timed(|| {
                probe.query(
                    &world.engine,
                    &probe_engine,
                    &world.handles,
                    &q,
                    op,
                    &mut tracer,
                    &CANDIDATES,
                )
            });
            clock.spent(ms);
            outcome
        } else {
            mw::request(&world.handles, &q, false).and_then(|req| {
                let (result, ms) = timed(|| world.engine.run(&req));
                latency.push(ms);
                clock.spent(ms);
                Ok((result.map_err(|e| e.to_string())?, req))
            })
        };
        match outcome.and_then(|(result, req)| world.answered(&req, op, &q, result)) {
            Ok(a) => answered.push(a),
            Err(e) => tally.record(Err(e)),
        }
    }
    metrics.set("peak_rss_mb", report::peak_rss_mb());

    check_all(&answered, scale.n, &mut tally);
    if args.trace {
        probe.finish(&mut metrics, WINDOW, true);
    } else {
        latency.finish(&mut metrics, clock.spent_s());
    }
    let build: Vec<f64> = rebuilds.iter().map(|r| r.build_ms).collect();
    let open: Vec<f64> = rebuilds.iter().map(|r| r.open_ms).collect();
    let total: Vec<f64> = rebuilds.iter().map(|r| r.build_ms + r.open_ms).collect();
    let written: u64 = rebuilds.iter().map(|r| r.bytes).sum();
    metrics.set("store.build_ms_p50", median(&build));
    metrics.set("store.open_ms_p50", median(&open));
    metrics.set("rebuild_p50_ms", median(&total));
    metrics.set(
        "store.bytes_written_per_rebuild",
        ratio(written as f64, rebuilds.len() as f64),
    );
    let disk = world.disk_bytes();
    let user = (scale.n * scale.stores * ENTRY_BYTES) as f64;
    metrics.set("space_amp", ratio(disk as f64, user));
    metrics.set("setup_s", setup);
    metrics.set("error_rate", tally.error_rate());

    let pool_bytes = StoreOptions::DEFAULT.pool_pages.unwrap_or(0)
        * BuildConfig::DEFAULT.page_size
        * scale.stores;
    let mut lines = vec![
        format!(
            "property paged_mixed: disk_bytes/pool_bytes={:.3} ({disk} / {pool_bytes}) write_share={:.3}",
            ratio(disk as f64, pool_bytes as f64),
            ratio(rebuilds.len() as f64, tally.attempted as f64)
        ),
        format!(
            "metric rebuild_p50_ms = {} ms over {} rebuilds; space_amp = {} ratio",
            metrics.get("rebuild_p50_ms"),
            rebuilds.len(),
            metrics.get("space_amp")
        ),
    ];
    if args.trace {
        lines.push(probe.store_spread_line());
    }
    Ok(Run {
        metrics,
        lines,
        tracer,
        queries: query_count as u64,
        rebuilds: rebuilds.len() as u64,
        tally,
    })
}

/// A size small enough for unit tests.
#[cfg(test)]
pub const SMALL: Scale = Scale { n: 3000, stores: 3 };

#[cfg(test)]
mod tests {
    use super::*;
    use fmdb_middleware::engine::EngineConfig;
    use fmdb_middleware::request::shared_source;

    fn test_dir(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench/test")
            .join(name)
    }

    #[test]
    fn decks_keep_the_mix_and_seeds_change_the_sequence() {
        let a: Vec<MwQuery> = queries(1, 8).take(3 * DECK).collect();
        let b: Vec<MwQuery> = queries(1, 8).take(3 * DECK).collect();
        let c: Vec<MwQuery> = queries(2, 8).take(3 * DECK).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for deck in a.chunks(DECK) {
            assert_eq!(
                deck.iter().filter(|q| q.sources.len() == 3).count() * 4,
                DECK
            );
        }
    }

    #[test]
    fn a_corrupted_answer_fails_the_reference_check() {
        let dir = test_dir("corrupted");
        let mut world = World::build(&dir, 4, SMALL, false).unwrap();
        let mut answered = Vec::new();
        for (op, q) in queries(4, SMALL.stores).take(DECK).enumerate() {
            if op == DECK / 2 {
                // Answers from before and after a rebuild are each
                // checked against the contents they were computed over.
                world.rebuild(0, SMALL.n).unwrap();
            }
            let req = mw::request(&world.handles, &q, false).unwrap();
            let result = world.engine.run(&req).unwrap();
            answered.push(world.answered(&req, op as u64, &q, result).unwrap());
        }
        let mut tally = Tally::default();
        check_all(&answered, SMALL.n, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (DECK as u64, 0));
        for (a, _) in &mut answered {
            a.answers.pop();
        }
        let mut tally = Tally::default();
        check_all(&answered, SMALL.n, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (DECK as u64, DECK as u64));
        drop(world);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Answers, every `AccessStats` field (page and skip counters too)
    /// and the plan are the same through the wrapper. Each side opens
    /// its own copy of every store without read-ahead and runs on a
    /// serial engine, so the page counters do not depend on thread
    /// timing.
    #[test]
    fn the_timing_wrapper_changes_no_answer_count_or_plan() {
        let dir = test_dir("transparency");
        let world = World::build(&dir, 9, SMALL, false).unwrap();
        let options = StoreOptions {
            readahead: None,
            ..StoreOptions::DEFAULT
        };
        let open = |metered: bool| -> Vec<Handle> {
            world
                .paths
                .iter()
                .map(|p| {
                    let store = Arc::new(PagedStore::open(p, options).unwrap());
                    let plain = if metered {
                        shared_source(crate::trace::Metered::new(store.source()).0)
                    } else {
                        shared_source(store.source())
                    };
                    Handle {
                        plain,
                        metered: None,
                        store: Some(store),
                    }
                })
                .collect()
        };
        let (plain_handles, metered_handles) = (open(false), open(true));
        let plain_engine = Engine::new(EngineConfig::serial());
        let metered_engine = Engine::new(EngineConfig::serial());
        for q in queries(9, SMALL.stores).take(2 * DECK) {
            let plain = mw::request(&plain_handles, &q, false).unwrap();
            let metered = mw::request(&metered_handles, &q, false).unwrap();
            assert_eq!(
                format!("{:?}", plain_engine.explain(&plain).unwrap()),
                format!("{:?}", metered_engine.explain(&metered).unwrap())
            );
            let (a, b) = (
                plain_engine.run(&plain).unwrap(),
                metered_engine.run(&metered).unwrap(),
            );
            assert!(a.stats.page_reads + a.stats.page_hits > 0);
            assert_eq!(a, b);
        }
        drop((plain_handles, metered_handles, world));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
