//! Reference checks of every answer, run outside the timed region, and
//! the tally that turns failed checks into `error_rate`.

use std::collections::HashMap;

use fmdb_core::query::{AtomicQuery, Query, Target};
use fmdb_core::score::{Score, ScoredObject};
use fmdb_core::scoring::tnorms::Min;
use fmdb_core::scoring::ScoringFunction;
use fmdb_garlic::catalog::Catalog;
use fmdb_middleware::oracle::{all_grades, verify_top_k};
use fmdb_middleware::source::{GradedSource, Oid, VecSource};

/// Operations attempted and failed. A failed operation is an error
/// return, an answer that fails its reference check, or a failed
/// rebuild.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; an `Err` counts as failed and is reported
    /// on standard error.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            eprintln!("perfbench: operation {} failed: {e}", self.attempted);
        }
    }

    /// Failed operations divided by operations attempted.
    pub fn error_rate(&self) -> f64 {
        crate::report::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// Checks an exact top-k answer with `oracle::verify_top_k`.
pub fn exact(
    sources: &mut [&mut dyn GradedSource],
    scoring: &dyn ScoringFunction,
    answers: &[ScoredObject<Oid>],
    k: usize,
) -> Result<(), String> {
    verify_top_k(sources, scoring, answers, k).map_err(|v| v.to_string())
}

/// Checks an answer whose grades are certified lower bounds (the NRA
/// family): each reported grade may not exceed the object's true grade,
/// and the answer set, regraded with true grades, must be a valid top k.
pub fn lower_bounds(
    sources: &mut [&mut dyn GradedSource],
    scoring: &dyn ScoringFunction,
    answers: &[ScoredObject<Oid>],
    k: usize,
) -> Result<(), String> {
    let truth = all_grades(sources, scoring);
    let mut regraded = Vec::with_capacity(answers.len());
    for a in answers {
        let actual = truth.get(&a.id).copied().unwrap_or(Score::ZERO);
        if a.grade.value() > actual.value() + 1e-9 {
            return Err(format!(
                "object {}: reported lower bound {} exceeds its grade {actual}",
                a.id, a.grade
            ));
        }
        regraded.push(ScoredObject::new(a.id, actual));
    }
    exact(sources, scoring, &regraded, k)
}

/// Drains one atom from the catalog into a dense grade vector.
fn atom_grades(catalog: &Catalog, atom: &AtomicQuery) -> Result<Vec<Score>, String> {
    let mut source = catalog.source_for(atom).map_err(|e| e.to_string())?;
    let mut grades = vec![Score::ZERO; catalog.universe_size()];
    source.rewind();
    while let Some(so) = source.sorted_next() {
        let slot = grades
            .get_mut(so.id as usize)
            .ok_or_else(|| format!("atom {atom} graded object {} outside the universe", so.id))?;
        *slot = so.grade;
    }
    Ok(grades)
}

/// Garlic's reference semantics: every atom drained from the catalog,
/// the query graded object by object with `Query::grade`. Atoms with
/// named targets are memoised; `#id` example targets do not repeat, and
/// keeping them would grow memory with the length of the run.
#[derive(Debug, Default)]
pub struct GarlicReference {
    atoms: HashMap<String, Vec<Score>>,
}

impl GarlicReference {
    /// Checks `answers` as a top-`k` answer to `query`, tie-aware.
    pub fn check(
        &mut self,
        catalog: &Catalog,
        query: &Query,
        answers: &[ScoredObject<Oid>],
        k: usize,
    ) -> Result<(), String> {
        let mut examples: HashMap<String, Vec<Score>> = HashMap::new();
        for atom in query.atoms() {
            let key = atom.to_string();
            if self.atoms.contains_key(&key) || examples.contains_key(&key) {
                continue;
            }
            let grades = atom_grades(catalog, atom)?;
            if matches!(&atom.target, Target::Similar(name) if name.starts_with('#')) {
                examples.insert(key, grades);
            } else {
                self.atoms.insert(key, grades);
            }
        }
        let grades_of = |a: &AtomicQuery| {
            let key = a.to_string();
            self.atoms.get(&key).or_else(|| examples.get(&key))
        };
        let truth = (0..catalog.universe_size())
            .map(|oid| query.grade(&|a: &AtomicQuery| grades_of(a).map(|g| g[oid])))
            .collect::<Result<Vec<Score>, _>>()
            .map_err(|e| e.to_string())?;
        // One source holding the reference grades; min over one
        // argument is the identity, so the oracle checks them as given.
        let mut reference = VecSource::from_dense("reference", &truth);
        exact(&mut [&mut reference], &Min, answers, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmdb_middleware::workload::independent_uniform;

    #[test]
    fn tally_counts_failed_checks() {
        let mut tally = Tally::default();
        tally.record(Ok(()));
        tally.record(Err("corrupted".to_owned()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.error_rate(), 0.5);
    }

    #[test]
    fn lower_bound_check_rejects_overstated_grades() {
        let mut sources = independent_uniform(50, 2, 3);
        let mut refs: Vec<&mut dyn GradedSource> = sources
            .iter_mut()
            .map(|s| s as &mut dyn GradedSource)
            .collect();
        let truth = all_grades(&mut refs, &Min);
        let mut best: Vec<ScoredObject<Oid>> = truth
            .iter()
            .map(|(&id, &g)| ScoredObject::new(id, g))
            .collect();
        best.sort_by(|a, b| b.grade.cmp(&a.grade).then(a.id.cmp(&b.id)));
        best.truncate(3);
        assert_eq!(exact(&mut refs, &Min, &best, 3), Ok(()));
        let mut understated = best.clone();
        understated[0].grade = Score::ZERO;
        assert!(exact(&mut refs, &Min, &understated, 3).is_err());
        assert_eq!(lower_bounds(&mut refs, &Min, &understated, 3), Ok(()));
        let mut overstated = best;
        overstated[2].grade = Score::ONE;
        assert!(lower_bounds(&mut refs, &Min, &overstated, 3).is_err());
    }
}
