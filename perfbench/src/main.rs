//! The fuzzymm benchmark: three seeded workloads driven by one
//! closed-loop client (the next query is sent when the previous one
//! returns) from a single process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <garlic_mixed|engine_auto|paged_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! * `garlic_mixed` — SQL `SELECT TOP k` through `Garlic::top_k` over a
//!   4,096-image CD-store catalog; atom and media work dominate.
//! * `engine_auto` — `Algo::Auto` requests through one `Engine` over
//!   10,000-object in-memory lists; planner and algorithm bookkeeping
//!   dominate.
//! * `paged_mixed` — forced FA/TA requests over 8 persisted stores of
//!   100,000 entries, with a store rebuild every 10th operation; page
//!   read, checksum and decode dominate.
//!
//! Each workload's data (catalog, lists, stores) is fixed; the seed
//! draws the query sequence, and the grades each rebuild writes.
//! Queries are dealt in shuffled decks of a fixed mix, and runs stop at
//! deck boundaries, so every seed runs the same mix.
//!
//! With `--trace 0` the run times whole queries and reports the
//! end-to-end metrics. With `--trace 1` it wraps the calls into each
//! layer in benchmark-owned spans and metered sources and reports the
//! per-layer metrics; the spans are written to
//! `.perfbench/trace-<workload>-<seed>.jsonl`. Every answer is kept and
//! checked against a reference after the loop, once the peak resident
//! set has been read, so neither the checks' time nor their memory
//! shows in the measured figures; failures count in `error_rate`. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod check;
mod engine_auto;
mod garlic_mixed;
mod mw;
mod paged_mixed;
mod report;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Tally;
use crate::report::{median, quantile, ratio, Metrics, END_TO_END, PER_LAYER};
use crate::trace::Tracer;

/// Untraced runs time at least this many queries, so that the 90th
/// percentile has at least ten samples beyond it.
pub const MIN_QUERIES: usize = 100;

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Cheap set-ups repeat until they have taken this many seconds…
const SETUP_MIN_S: f64 = 2.0;

/// …or have run this many times.
const SETUP_MAX_REPS: usize = 80;

/// A run stops after its measured time even when the minimum counts
/// have not been reached, once this much wall time has passed.
const WALL_CAP_S: f64 = 150.0;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of measured work.
    pub seconds: f64,
    /// Traced (per-layer) rather than untraced (end-to-end) run.
    pub trace: bool,
    /// Directory for files the run writes.
    pub data_dir: PathBuf,
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Run {
    /// Metric values by name.
    pub metrics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Workload-property and other report lines.
    pub lines: Vec<String>,
    /// The spans of a traced run (empty when untraced).
    pub tracer: Tracer,
    /// Queries run.
    pub queries: u64,
    /// Store rebuilds run.
    pub rebuilds: u64,
}

/// The closed loop's budget: measured (timed) work, with a minimum
/// operation count and a wall-time cap.
#[derive(Debug)]
pub struct Clock {
    budget_ms: f64,
    spent_ms: f64,
    wall: Instant,
}

impl Clock {
    /// A budget of `args.seconds` of measured work.
    pub fn new(args: &RunArgs) -> Clock {
        Clock {
            budget_ms: args.seconds * 1e3,
            spent_ms: 0.0,
            wall: Instant::now(),
        }
    }

    /// True while the loop should issue another query: the current
    /// deck of `deck` queries is unfinished, fewer than `min_queries`
    /// are done, or measured time is left. Stopping only at deck
    /// boundaries keeps the query mix the same on every run.
    pub fn more(&self, done: usize, min_queries: usize, deck: usize) -> bool {
        if self.wall.elapsed().as_secs_f64() > WALL_CAP_S {
            return false;
        }
        !done.is_multiple_of(deck) || done < min_queries || self.spent_ms < self.budget_ms
    }

    /// Charges one operation's measured milliseconds.
    pub fn spent(&mut self, ms: f64) {
        self.spent_ms += ms;
    }

    /// Measured seconds so far.
    pub fn spent_s(&self) -> f64 {
        self.spent_ms / 1e3
    }
}

/// Per-query latencies of an untraced run.
#[derive(Debug, Default)]
pub struct Samples {
    ms: Vec<f64>,
}

impl Samples {
    /// Records one query's latency.
    pub fn push(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Queries recorded.
    pub fn count(&self) -> usize {
        self.ms.len()
    }

    /// Sets `query_p50_ms`, `query_p90_ms` and `queries_per_s` (queries
    /// per second of the loop's `measured_s`).
    pub fn finish(&self, metrics: &mut Metrics, measured_s: f64) {
        metrics.set("query_p50_ms", median(&self.ms));
        metrics.set("query_p90_ms", quantile(&self.ms, 0.9));
        metrics.set("queries_per_s", ratio(self.ms.len() as f64, measured_s));
    }
}

/// Builds the workload's world at least [`SETUP_REPS`] times, and until
/// [`SETUP_MIN_S`] have passed (at most [`SETUP_MAX_REPS`] times),
/// dropping each before the next. Returns the last with the median
/// set-up seconds.
pub fn repeat_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut world = None;
    while times.len() < SETUP_REPS
        || (times.iter().sum::<f64>() < SETUP_MIN_S && times.len() < SETUP_MAX_REPS)
    {
        drop(world.take());
        let start = Instant::now();
        world = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (world.expect("SETUP_REPS is positive"), median(&times))
}

/// An endless sequence dealt in shuffled decks: `deal` builds one
/// unshuffled deck from the sequence's generator, which then shuffles
/// it. Every deck holds the same mix, so a run that stops at a deck
/// boundary runs the same mix whatever the seed.
pub struct Deck<T> {
    rng: StdRng,
    pending: Vec<T>,
    deal: Dealer<T>,
}

/// Builds one unshuffled deck.
type Dealer<T> = Box<dyn FnMut(&mut StdRng) -> Vec<T>>;

impl<T> Deck<T> {
    /// The sequence whose generator is seeded with `seed`.
    pub fn new(seed: u64, deal: impl FnMut(&mut StdRng) -> Vec<T> + 'static) -> Deck<T> {
        Deck {
            rng: StdRng::seed_from_u64(seed),
            pending: Vec::new(),
            deal: Box::new(deal),
        }
    }
}

impl<T> Iterator for Deck<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.pending.is_empty() {
            self.pending = (self.deal)(&mut self.rng);
            shuffle(&mut self.rng, &mut self.pending);
        }
        self.pending.pop()
    }
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// `count` distinct indices from `0..n`, in random order.
pub fn sample_distinct(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut all);
    all.truncate(count);
    all
}

fn parse_args() -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds: bad value {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            data_dir: PathBuf::from(".perfbench"),
        },
    ))
}

fn main() {
    let (workload, args) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match workload.as_str() {
        "garlic_mixed" => garlic_mixed::run(&args, garlic_mixed::FULL),
        "engine_auto" => engine_auto::run(&args, engine_auto::FULL),
        "paged_mixed" => match paged_mixed::run(&args, paged_mixed::FULL) {
            Ok(run) => run,
            Err(e) => {
                eprintln!("perfbench: paged_mixed: {e}");
                std::process::exit(1);
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "perfbench host: nproc={nproc} rustc=\"{}\" profile={profile}",
        env!("PERFBENCH_RUSTC")
    );
    println!(
        "perfbench run: workload={workload} seed={} seconds={} trace={} queries={} rebuilds={} attempted={} failed={} error_rate={}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        run.queries,
        run.rebuilds,
        run.tally.attempted,
        run.tally.failed,
        run.tally.error_rate()
    );
    for line in &run.lines {
        println!("perfbench {line}");
    }
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in table {
        println!("perfbench metric {name} = {} {unit}", run.metrics.get(name));
    }
    if !args.trace {
        println!(
            "perfbench metric error_rate = {} share ({} of {} operations failed)",
            run.tally.error_rate(),
            run.tally.failed,
            run.tally.attempted
        );
    }
    if args.trace {
        println!(
            "perfbench trace: overhead_share={} spans={}",
            run.metrics.get("trace.overhead_share"),
            run.tracer.spans().len()
        );
        let path = args
            .data_dir
            .join(format!("trace-{workload}-{}.jsonl", args.seed));
        if let Err(e) = run.tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!(
        "{}",
        report::result_line(run.tally.attempted, run.tally.failed, &run.metrics, table)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact counts a traced run reports: they depend only on the
    /// seed, never on timing.
    const EXACT: [&str; 17] = [
        "algo.depth_p50",
        "algo.sorted_per_query",
        "algo.random_per_query",
        "planner.share.fa",
        "planner.share.ta",
        "planner.share.nra",
        "planner.share.ca",
        "garlic.plan.share.ta",
        "garlic.plan.share.fa",
        "garlic.plan.share.ca",
        "garlic.plan.share.crisp_filter",
        "garlic.plan.share.max_merge",
        "garlic.plan.share.full_scan",
        "garlic.atom.per_query",
        "garlic.atom.repeat_share",
        "store.bytes_written_per_rebuild",
        "space_amp",
    ];

    fn exact_counts(run: &Run) -> Vec<f64> {
        EXACT.iter().map(|name| run.metrics.get(name)).collect()
    }

    fn traced(seed: u64, name: &str) -> RunArgs {
        RunArgs {
            seed,
            seconds: 0.0,
            trace: true,
            data_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../.perfbench/test")
                .join(name),
        }
    }

    #[test]
    fn traced_runs_of_one_seed_report_identical_exact_counts() {
        let runs = |seed| {
            [
                engine_auto::run(&traced(seed, "det-engine"), engine_auto::SMALL),
                garlic_mixed::run(&traced(seed, "det-garlic"), garlic_mixed::SMALL),
                paged_mixed::run(&traced(seed, "det-paged"), paged_mixed::SMALL).unwrap(),
            ]
        };
        let (first, second) = (runs(3), runs(3));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.tally.failed, 0);
            assert_eq!(exact_counts(a), exact_counts(b));
        }
        assert!(first[0].metrics.get("algo.sorted_per_query") > 0.0);
        assert!(first[1].metrics.get("garlic.atom.per_query") > 0.0);
        assert!(first[2].metrics.get("store.bytes_written_per_rebuild") > 0.0);
    }
}
