//! `garlic_mixed`: SQL `SELECT TOP k` queries through `Garlic::top_k`
//! over a CD-store catalog with crisp Artist/Year columns and QBIC
//! Color/Shape/Texture atoms.
//!
//! Why: every atom is materialised eagerly (a Shape atom costs about
//! 80× a Color atom) while the algorithms stop at small depths, so atom
//! and media work dominate and bookkeeping and store work barely
//! appear. Named targets repeat across queries; `#id` example targets
//! do not.

use std::collections::{BTreeMap, HashSet};

use fmdb_core::query::AtomicQuery;
use fmdb_core::score::ScoredObject;
use fmdb_garlic::cost::CostEstimator;
use fmdb_garlic::demo::{cd_store, ARTISTS};
use fmdb_garlic::executor::{Garlic, QueryResult};
use fmdb_garlic::planner::plan_costed;
use fmdb_garlic::sql::{parse, Statement};
use fmdb_middleware::source::Oid;
use rand::rngs::StdRng;
use rand::Rng;

use crate::check::{GarlicReference, Tally};
use crate::mw::timed;
use crate::report::{self, median, ratio, Metrics};
use crate::trace::Tracer;
use crate::{Clock, Deck, Run, RunArgs, Samples};

/// Workload size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Images (and albums) in the catalog.
    pub images: usize,
}

/// The size the benchmark runs at.
pub const FULL: Scale = Scale { images: 4096 };

const COLORS: [&str; 11] = [
    "red", "green", "blue", "yellow", "cyan", "magenta", "pink", "orange", "white", "black", "gray",
];
const TEXTURES: [&str; 5] = ["coarse", "fine", "smooth", "rough", "directional"];
const SHAPES: [&str; 3] = ["round", "boxy", "spiky"];
const KS: [usize; 4] = [1, 5, 10, 25];

/// One deck of query templates: single atoms, crisp∧fuzzy,
/// fuzzy∧fuzzy (some weighted or under another scoring rule), OR and
/// NOT. Exactly a quarter carry a Shape atom. `{C}`/`{D}` are colours,
/// `{T}` a texture, `{S}` a shape, `{A}` an artist, `{Y}` a year.
const TEMPLATES: [&str; 20] = [
    "Color~'{C}'",
    "Texture~'{T}'",
    "Artist='{A}' AND Color~'{C}'",
    "Year={Y} AND Texture~'{T}'",
    "Artist='{A}' AND Texture~'{T}'",
    "Color~'{C}' AND Texture~'{T}'",
    "Color~'{C}' AND Texture~'{T}' WEIGHTS 2, 1",
    "Color~'{C}' AND Texture~'{T}' USING mean",
    "Color~'{C}' AND Color~'{D}' USING product",
    "Texture~'{T}' AND Color~'{C}' AND Color~'{D}'",
    "Color~'{C}' OR Color~'{D}'",
    "Color~'{C}' OR Texture~'{T}'",
    "NOT Color~'{C}'",
    "Artist='{A}' AND NOT Texture~'{T}'",
    "(Color~'{C}' OR Texture~'{T}') AND Year={Y}",
    "Shape~'{S}'",
    "Color~'{C}' AND Shape~'{S}'",
    "Color~'{C}' AND Shape~'{S}' WEIGHTS 2, 1",
    "Artist='{A}' AND Shape~'{S}'",
    "Shape~'{S}' OR Texture~'{T}'",
];

/// Seed of the catalog. The catalog is the workload's fixed database;
/// the run's seed draws the query sequence over it.
const DATA_SEED: u64 = 1998;

/// Exact counts (plan shares, atoms per query, repeated atoms) cover
/// the first two decks of a traced run.
const WINDOW: usize = 2 * TEMPLATES.len();

/// A named target (which repeats across queries) or, half the time,
/// an `#id` example object (which does not).
fn target(rng: &mut StdRng, names: &[&str], images: usize) -> String {
    if rng.gen_bool(0.5) {
        names[rng.gen_range(0..names.len())].to_owned()
    } else {
        format!("#{}", rng.gen_range(0..images))
    }
}

/// The seeded query sequence over a catalog of `images` images, dealt
/// in shuffled decks of [`TEMPLATES`].
pub fn queries(seed: u64, images: usize) -> Deck<String> {
    Deck::new(seed ^ 0x6A271C, move |rng| {
        TEMPLATES
            .iter()
            .map(|template| {
                let artist = ARTISTS[rng.gen_range(0..ARTISTS.len())];
                let year = 1960 + rng.gen_range(0..10_i64);
                let k = KS[rng.gen_range(0..KS.len())];
                let body = template
                    .replace("{C}", &target(rng, &COLORS, images))
                    .replace("{D}", &target(rng, &COLORS, images))
                    .replace("{T}", &target(rng, &TEXTURES, images))
                    .replace("{S}", &target(rng, &SHAPES, images))
                    .replace("{A}", artist)
                    .replace("{Y}", &year.to_string());
                format!("SELECT TOP {k} WHERE {body}")
            })
            .collect()
    })
}

/// Parses and runs one SQL query: the timed unit of this workload.
fn query(garlic: &Garlic, sql: &str) -> Result<(Statement, QueryResult), String> {
    let stmt = parse(sql).map_err(|e| e.to_string())?;
    let result = garlic
        .top_k(&stmt.query, stmt.k)
        .map_err(|e| e.to_string())?;
    Ok((stmt, result))
}

/// The same query with a span around each layer call.
fn traced_query(
    garlic: &Garlic,
    sql: &str,
    op: u64,
    tracer: &mut Tracer,
) -> (Result<(Statement, QueryResult), String>, f64, f64) {
    let mut parse_ms = 0.0;
    let mut top_k_ms = 0.0;
    let (outcome, _) = tracer.span("garlic.query", op, |t| {
        let ((stmt, ms), _) = t.span("garlic.sql.parse", op, |_| timed(|| parse(sql)));
        parse_ms = ms;
        let stmt = stmt.map_err(|e| e.to_string())?;
        let ((result, ms), _) = t.span("garlic.top_k", op, |_| {
            timed(|| garlic.top_k(&stmt.query, stmt.k))
        });
        top_k_ms = ms;
        Ok((stmt, result.map_err(|e| e.to_string())?))
    });
    (outcome, parse_ms, top_k_ms)
}

/// Atom statistics of the run: which atoms were seen, for the
/// repeated-atom share.
#[derive(Debug, Default)]
struct Atoms {
    seen: HashSet<String>,
    occurrences: usize,
    repeats: usize,
    shape_queries: usize,
    queries: usize,
}

impl Atoms {
    fn note(&mut self, atoms: &[&AtomicQuery]) {
        self.queries += 1;
        self.shape_queries += usize::from(atoms.iter().any(|a| a.attribute == "Shape"));
        for a in atoms {
            self.occurrences += 1;
            self.repeats += usize::from(!self.seen.insert(a.to_string()));
        }
    }

    fn line(&self) -> String {
        format!(
            "property garlic_mixed: shape_query_share={:.3} repeated_atom_share={:.3} over {} queries",
            ratio(self.shape_queries as f64, self.queries as f64),
            ratio(self.repeats as f64, self.occurrences as f64),
            self.queries
        )
    }
}

/// Per-layer probes of a traced run.
#[derive(Debug, Default)]
struct Probe {
    parse_us: Vec<f64>,
    plan_us: Vec<f64>,
    plans: BTreeMap<String, u64>,
    atom_ms: Vec<f64>,
    idmap_ms: Vec<f64>,
    media_ns: BTreeMap<String, Vec<f64>>,
    atom_ms_total: f64,
    top_k_ms_total: f64,
    plain_ms: f64,
    traced_ms: f64,
    window_atoms: Atoms,
}

impl Probe {
    /// Times the planner and each atom's catalog and repository calls,
    /// outside `top_k`.
    fn layers(
        &mut self,
        garlic: &Garlic,
        stmt: &Statement,
        op: u64,
        counted: bool,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let catalog = garlic.catalog();
        let ((plan, ms), _) = tracer.span("garlic.plan", op, |_| {
            timed(|| plan_costed(&stmt.query, catalog, stmt.k, &CostEstimator::default()))
        });
        self.plan_us.push(ms * 1e3);
        let atoms = stmt.query.atoms();
        if counted {
            *self.plans.entry(plan.kind.to_string()).or_default() += 1;
            self.window_atoms.note(&atoms);
        }
        for atom in atoms {
            let ((source, catalog_ms), _) = tracer.span("garlic.catalog.source_for", op, |_| {
                timed(|| catalog.source_for(atom))
            });
            source.map_err(|e| e.to_string())?;
            let repository = catalog
                .repository_for(&atom.attribute)
                .map_err(|e| e.to_string())?;
            let ((source, repo_ms), _) = tracer.span("garlic.repository.source_for", op, |_| {
                timed(|| repository.source_for(atom))
            });
            source.map_err(|e| e.to_string())?;
            self.atom_ms.push(catalog_ms);
            self.atom_ms_total += catalog_ms;
            self.idmap_ms.push(catalog_ms - repo_ms);
            if matches!(atom.attribute.as_str(), "Color" | "Texture" | "Shape") {
                self.media_ns
                    .entry(atom.attribute.to_ascii_lowercase())
                    .or_default()
                    .push(repo_ms * 1e6 / catalog.universe_size() as f64);
            }
        }
        Ok(())
    }

    fn finish(&self, metrics: &mut Metrics) {
        metrics.set("garlic.sql.parse_us_p50", median(&self.parse_us));
        metrics.set("garlic.plan.us_p50", median(&self.plan_us));
        let counted = self.window_atoms.queries as f64;
        for (name, kind) in [
            ("garlic.plan.share.ta", "threshold-ta"),
            ("garlic.plan.share.fa", "fagin-a0"),
            ("garlic.plan.share.ca", "combined-ca"),
            ("garlic.plan.share.crisp_filter", "crisp-filter"),
            ("garlic.plan.share.max_merge", "max-merge"),
            ("garlic.plan.share.full_scan", "full-scan"),
        ] {
            let count = self.plans.get(kind).copied().unwrap_or(0);
            metrics.set(name, ratio(count as f64, counted));
        }
        metrics.set("garlic.atom.ms_p50", median(&self.atom_ms));
        metrics.set(
            "garlic.atom.per_query",
            ratio(self.window_atoms.occurrences as f64, counted),
        );
        metrics.set(
            "garlic.atom.repeat_share",
            ratio(
                self.window_atoms.repeats as f64,
                self.window_atoms.occurrences as f64,
            ),
        );
        metrics.set(
            "garlic.atom.share",
            ratio(self.atom_ms_total, self.top_k_ms_total),
        );
        metrics.set("garlic.idmap.ms_p50", median(&self.idmap_ms));
        for (name, attribute) in [
            ("media.color.ns_per_object", "color"),
            ("media.texture.ns_per_object", "texture"),
            ("media.shape.ns_per_object", "shape"),
        ] {
            metrics.set(
                name,
                self.media_ns.get(attribute).map_or(0.0, |v| median(v)),
            );
        }
        metrics.set(
            "trace.overhead_share",
            ratio(self.traced_ms, self.plain_ms) - 1.0,
        );
    }
}

/// One answered query, kept for its reference check after the loop.
#[derive(Debug)]
struct Answered {
    stmt: Statement,
    answers: Vec<ScoredObject<Oid>>,
}

/// Checks every kept answer against Garlic's reference semantics.
fn check_all(garlic: &Garlic, answered: &[Answered], tally: &mut Tally) {
    let mut reference = GarlicReference::default();
    for a in answered {
        tally.record(reference.check(garlic.catalog(), &a.stmt.query, &a.answers, a.stmt.k));
    }
}

/// Runs the workload.
pub fn run(args: &RunArgs, scale: Scale) -> Run {
    let (garlic, setup) = crate::repeat_setup(|| cd_store(scale.images, DATA_SEED));
    let mut queries = queries(args.seed, scale.images);
    let mut answered: Vec<Answered> = Vec::new();
    let mut atoms = Atoms::default();
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut clock = Clock::new(args);
    let mut tracer = Tracer::default();
    let mut latency = Samples::default();
    let mut probe = Probe::default();

    let min_ops = if args.trace {
        WINDOW
    } else {
        crate::MIN_QUERIES
    };
    let mut done = 0usize;
    while clock.more(done, min_ops, TEMPLATES.len()) {
        let sql = queries.next().expect("the query sequence is endless");
        let op = done as u64;
        done += 1;
        let outcome = if args.trace {
            let ((untraced, plain_ms), ((traced, parse_ms, top_k_ms), traced_ms)) =
                if op.is_multiple_of(2) {
                    let u = timed(|| query(&garlic, &sql));
                    (u, timed(|| traced_query(&garlic, &sql, op, &mut tracer)))
                } else {
                    let t = timed(|| traced_query(&garlic, &sql, op, &mut tracer));
                    (timed(|| query(&garlic, &sql)), t)
                };
            probe.plain_ms += plain_ms;
            probe.traced_ms += traced_ms;
            probe.parse_us.push(parse_ms * 1e3);
            probe.top_k_ms_total += top_k_ms;
            let (outcome, layers_ms) = timed(|| {
                untraced.and(traced).and_then(|(stmt, result)| {
                    probe.layers(&garlic, &stmt, op, (op as usize) < WINDOW, &mut tracer)?;
                    Ok((stmt, result))
                })
            });
            clock.spent(plain_ms + traced_ms + layers_ms);
            outcome
        } else {
            let (outcome, ms) = timed(|| query(&garlic, &sql));
            latency.push(ms);
            clock.spent(ms);
            outcome
        };
        match outcome {
            Ok((stmt, result)) => {
                atoms.note(&stmt.query.atoms());
                // A copy at its length (see `mw::Answered::new`).
                answered.push(Answered {
                    stmt,
                    answers: result.answers.to_vec(),
                });
            }
            Err(e) => tally.record(Err(e)),
        }
    }
    metrics.set("peak_rss_mb", report::peak_rss_mb());
    check_all(&garlic, &answered, &mut tally);

    if args.trace {
        probe.finish(&mut metrics);
    } else {
        latency.finish(&mut metrics, clock.spent_s());
    }
    metrics.set("setup_s", setup);
    metrics.set("error_rate", tally.error_rate());
    Run {
        metrics,
        lines: vec![atoms.line()],
        queries: tally.attempted,
        tally,
        tracer,
        rebuilds: 0,
    }
}

/// A size small enough for unit tests.
#[cfg(test)]
pub const SMALL: Scale = Scale { images: 48 };

#[cfg(test)]
mod tests {
    use super::*;
    use fmdb_core::score::Score;

    #[test]
    fn decks_keep_the_mix_and_seeds_change_the_sequence() {
        let a: Vec<String> = queries(1, 64).take(3 * TEMPLATES.len()).collect();
        let b: Vec<String> = queries(1, 64).take(3 * TEMPLATES.len()).collect();
        let c: Vec<String> = queries(2, 64).take(3 * TEMPLATES.len()).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        for deck in a.chunks(TEMPLATES.len()) {
            let shape = deck.iter().filter(|q| q.contains("Shape~")).count();
            assert_eq!(shape * 4, TEMPLATES.len(), "a quarter carry a Shape atom");
        }
        for sql in &a {
            parse(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
    }

    #[test]
    fn a_corrupted_answer_fails_the_reference_check() {
        let garlic = cd_store(48, 3);
        let mut answered: Vec<Answered> = queries(3, 48)
            .take(TEMPLATES.len())
            .map(|sql| {
                let (stmt, result) = query(&garlic, &sql).unwrap();
                Answered {
                    stmt,
                    answers: result.answers,
                }
            })
            .collect();
        let mut tally = Tally::default();
        check_all(&garlic, &answered, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (TEMPLATES.len() as u64, 0));
        let mut corrupted = 0;
        for a in &mut answered {
            let grade = a.answers[0].grade;
            a.answers[0].grade = Score::clamped(1.0 - grade.value());
            corrupted += u64::from(a.answers[0].grade != grade);
        }
        assert!(corrupted > 0);
        let mut tally = Tally::default();
        check_all(&garlic, &answered, &mut tally);
        assert_eq!(
            (tally.attempted, tally.failed),
            (TEMPLATES.len() as u64, corrupted)
        );
    }
}
