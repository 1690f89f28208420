//! The atom cost model.
//!
//! ISIS evaluates predicates per candidate entity with short-circuiting
//! (AND stops at the first false atom, OR at the first true one), so atom
//! order inside a clause matters: cheap, selective atoms should run first.
//! [`estimate_atom`] prices one atom — a per-candidate cost from map length
//! and fan-out, and a truth probability from attribute indexes or grouping
//! set sizes when the [`IndexService`] has them, falling back to
//! operator-shaped defaults. [`crate::PredicateProgram`] orders each
//! clause's infallible atoms by these estimates at compile time, and
//! EXPLAIN reports them per atom.

use isis_core::{Atom, ClassId, CompareOp, Database, Map, Rhs};

use crate::service::IndexService;

/// Cost/selectivity estimate for one atom.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomEstimate {
    /// Estimated per-candidate evaluation cost (arbitrary units; map steps
    /// weighted by expected fan-out).
    pub cost: f64,
    /// Estimated probability the atom is true for a random candidate.
    pub selectivity: f64,
}

/// Static fan-out assumed for a multivalued map step with no index stats.
const DEFAULT_FANOUT: f64 = 4.0;

fn map_cost(db: &Database, start: ClassId, map: &Map) -> f64 {
    let mut cost = 1.0;
    let mut width = 1.0;
    if let Ok(trace) = db.trace_map(start, map) {
        let multi = trace.multivalued;
        for _ in map.steps() {
            width *= if multi { DEFAULT_FANOUT } else { 1.0 };
            cost += width;
        }
    } else {
        cost += map.len() as f64;
    }
    cost
}

/// Estimates one atom for candidates drawn from `parent`.
pub fn estimate_atom(
    db: &Database,
    parent: ClassId,
    atom: &Atom,
    indexes: Option<&IndexService>,
) -> AtomEstimate {
    let mut cost = map_cost(db, parent, &atom.lhs);
    cost += match &atom.rhs {
        Rhs::SelfMap(m) => map_cost(db, parent, m),
        Rhs::Constant { class, map, .. } => map_cost(db, *class, map),
        Rhs::SourceMap(m) => 1.0 + m.len() as f64,
    };
    // Selectivity: prefer real index statistics for single-step constant
    // atoms; otherwise fall back to operator-shaped defaults.
    let mut selectivity = match atom.op.op {
        CompareOp::SetEq => 0.1,
        CompareOp::Match => 0.3,
        CompareOp::Subset | CompareOp::Superset => 0.25,
        CompareOp::ProperSubset | CompareOp::ProperSuperset => 0.15,
        CompareOp::Lt | CompareOp::Le | CompareOp::Gt | CompareOp::Ge => 0.5,
    };
    if let (Some(sv), 1, Rhs::Constant { anchors, map, .. }) = (indexes, atom.lhs.len(), &atom.rhs)
    {
        if map.is_identity() {
            if let Some(idx) = sv.index(atom.lhs.steps()[0]) {
                let s: f64 = match atom.op.op {
                    // P(some anchor present) ≈ capped sum.
                    CompareOp::Match => anchors
                        .iter()
                        .map(|a| idx.selectivity(a))
                        .sum::<f64>()
                        .min(1.0),
                    // P(all anchors present) ≈ product.
                    CompareOp::Superset | CompareOp::SetEq => {
                        anchors.iter().map(|a| idx.selectivity(a)).product()
                    }
                    _ => selectivity,
                };
                selectivity = s;
            } else if let Some(s) = sv.grouping_selectivity(db, atom) {
                // No index, but a grouping on the attribute still yields
                // real set-size statistics.
                selectivity = s;
            }
        }
    }
    if atom.op.negated {
        selectivity = 1.0 - selectivity;
    }
    AtomEstimate { cost, selectivity }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::Operator;
    use isis_sample::instrumental_music;

    #[test]
    fn index_statistics_sharpen_selectivity() {
        let im = instrumental_music().unwrap();
        let mut sv = IndexService::new(&im.db);
        sv.ensure_index(&im.db, im.plays).unwrap();
        let atom = Atom::new(
            Map::single(im.plays),
            CompareOp::Match,
            Rhs::constant(im.instruments, [im.piano]),
        );
        let with_idx = estimate_atom(&im.db, im.musicians, &atom, Some(&sv));
        let without = estimate_atom(&im.db, im.musicians, &atom, None);
        // 3 of 12 musicians play piano → 0.25, not the 0.3 default.
        assert!((with_idx.selectivity - 0.25).abs() < 1e-9);
        assert!((without.selectivity - 0.3).abs() < 1e-9);
    }

    #[test]
    fn grouping_statistics_sharpen_selectivity_without_an_index() {
        let im = instrumental_music().unwrap();
        let sv = IndexService::new(&im.db);
        // No index anywhere, but by_instrument groups musicians on plays.
        let atom = Atom::new(
            Map::single(im.plays),
            CompareOp::Match,
            Rhs::constant(im.instruments, [im.piano]),
        );
        let est = estimate_atom(&im.db, im.musicians, &atom, Some(&sv));
        assert!((est.selectivity - 0.25).abs() < 1e-9);
    }

    #[test]
    fn negation_flips_selectivity() {
        let im = instrumental_music().unwrap();
        let atom = Atom::new(
            Map::single(im.plays),
            Operator::negated(CompareOp::Match),
            Rhs::constant(im.instruments, [im.piano]),
        );
        let est = estimate_atom(&im.db, im.musicians, &atom, None);
        assert!((est.selectivity - 0.7).abs() < 1e-9);
    }
}
