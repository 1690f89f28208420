//! Inverted attribute indexes.
//!
//! The groupings of §2 are, operationally, inverted indexes on an attribute
//! ("grouping G of C on A … Sₑ = { x | e ∈ A(x) }"). This module makes that
//! explicit: an [`AttrIndex`] maps each value entity to the set of owners
//! carrying it, and [`crate::IndexService`] uses such indexes to answer
//! constant atoms without scanning the class extent — the speed-up the
//! grouping/index benches measure. A multi-step map is answered by
//! `walk_back`, which inverts one step's postings at a time.

use std::collections::HashMap;

use isis_core::{AttrId, Database, EntityId, OrderedSet, Result, ValueClass, ValueRef};

use crate::service::IndexService;

/// An inverted index over one attribute: value → owners.
#[derive(Debug, Clone)]
pub struct AttrIndex {
    attr: AttrId,
    postings: HashMap<EntityId, OrderedSet>,
    indexed_owner_count: usize,
}

impl AttrIndex {
    /// Builds the index for `attr` over the current members of its owner
    /// class (expanded values, like map evaluation).
    pub fn build(db: &Database, attr: AttrId) -> Result<AttrIndex> {
        let rec = db.attr(attr)?;
        let members = db.members(rec.owner)?;
        // A class-ranged value reads back as stored: borrow it from the
        // column. Names and grouping ranges are synthesised per owner.
        let stored = !rec.naming && matches!(rec.value_class, ValueClass::Class(_));
        let mut postings: HashMap<EntityId, OrderedSet> = HashMap::new();
        for x in members.iter() {
            if !stored {
                for v in db.attr_value_set(x, attr)?.iter() {
                    postings.entry(v).or_default().insert(x);
                }
                continue;
            }
            match rec.values.get(x) {
                Some(ValueRef::Single(v)) if !v.is_null() => {
                    postings.entry(v).or_default().insert(x);
                }
                Some(ValueRef::Multi(s)) => {
                    for v in s.iter() {
                        postings.entry(v).or_default().insert(x);
                    }
                }
                _ => {}
            }
        }
        Ok(AttrIndex {
            attr,
            postings,
            indexed_owner_count: members.len(),
        })
    }

    /// The attribute this index covers.
    pub fn attr(&self) -> AttrId {
        self.attr
    }

    /// Owners whose value set contains `value`.
    pub fn owners_of(&self, value: EntityId) -> Option<&OrderedSet> {
        self.postings.get(&value)
    }

    /// Number of distinct values in the index.
    pub fn distinct_values(&self) -> usize {
        self.postings.len()
    }

    /// Iterates the distinct values currently present in the index.
    pub fn values(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.postings.keys().copied()
    }

    /// How many owner entities were indexed when the index was built.
    pub fn indexed_owner_count(&self) -> usize {
        self.indexed_owner_count
    }

    /// Estimated selectivity of `value`: fraction of owners carrying it.
    pub fn selectivity(&self, value: EntityId) -> f64 {
        if self.indexed_owner_count == 0 {
            return 0.0;
        }
        self.owners_of(value).map_or(0.0, |s| s.len() as f64) / self.indexed_owner_count as f64
    }

    /// The values `owner` currently carries according to the index, by
    /// reverse scan of the posting lists. O(distinct values); used when the
    /// true old value set is unavailable (e.g. owner-extent changes).
    pub fn owned_values(&self, owner: EntityId) -> OrderedSet {
        let mut out = OrderedSet::new();
        for (v, owners) in &self.postings {
            if owners.contains(owner) {
                out.insert(*v);
            }
        }
        out
    }

    /// Every owner currently present in some posting list (owners with an
    /// empty value set do not appear). Used by maintenance to bound the
    /// blast radius of a change that can move *any* stored value, e.g. a
    /// grouping re-keyed by its base attribute.
    pub fn all_owners(&self) -> OrderedSet {
        let mut out = OrderedSet::new();
        for owners in self.postings.values() {
            out.extend_from(owners);
        }
        out
    }

    /// Incrementally reflects a change of `owner`'s value set from `old` to
    /// `new` (used by the incremental maintenance machinery).
    pub fn update(&mut self, owner: EntityId, old: &OrderedSet, new: &OrderedSet) {
        for v in old.iter() {
            if !new.contains(v) {
                if let Some(s) = self.postings.get_mut(&v) {
                    s.remove(owner);
                    if s.is_empty() {
                        self.postings.remove(&v);
                    }
                }
            }
        }
        for v in new.iter() {
            if !old.contains(v) {
                self.postings.entry(v).or_default().insert(owner);
            }
        }
    }
}

/// Walks `from` back through the postings of the map `steps`, last step
/// first: the owners of `steps[0]` whose image under the map reaches some
/// entity of `from`. Postings hold expanded values, exactly what map
/// evaluation reads, so the walk is exact. `None` when a step the walk
/// reaches has no index.
///
/// The planner walks an atom's map from each constant anchor
/// ([`crate::IndexService::candidate_pool`]); a maintainer walks a map
/// prefix from the owners a change touched.
pub(crate) fn walk_back(
    indexes: &IndexService,
    steps: &[AttrId],
    from: OrderedSet,
) -> Option<OrderedSet> {
    let mut frontier = from;
    for &attr in steps.iter().rev() {
        if frontier.is_empty() {
            break;
        }
        let idx = indexes.index(attr)?;
        frontier = match frontier.as_singleton() {
            Some(v) => idx.owners_of(v).cloned().unwrap_or_default(),
            None => {
                let mut prev = OrderedSet::new();
                for v in frontier.iter() {
                    if let Some(owners) = idx.owners_of(v) {
                        prev.extend_from(owners);
                    }
                }
                prev
            }
        };
    }
    Some(frontier)
}

#[cfg(test)]
mod tests {
    use super::*;
    use isis_core::{Atom, Clause, CompareOp, Map, Operator, Predicate, Rhs};
    use isis_sample::{instrumental_music, quartets_predicate};

    #[test]
    fn index_matches_grouping_sets() {
        let im = instrumental_music().unwrap();
        let idx = AttrIndex::build(&im.db, im.family).unwrap();
        for set in im.db.grouping_sets(im.by_family).unwrap() {
            match idx.owners_of(set.index) {
                Some(owners) => assert!(owners.set_eq(&set.members)),
                None => assert!(set.members.is_empty()),
            }
        }
        assert_eq!(idx.attr(), im.family);
        assert!(idx.selectivity(im.stringed) > 0.0);
        assert_eq!(idx.selectivity(im.woodwind), 0.0);
    }

    #[test]
    fn postings_equal_the_value_sets_of_every_owner() {
        let mut im = instrumental_music().unwrap();
        // A grouping-ranged attribute next to the stored and naming ones.
        let likes = im
            .db
            .create_attribute(
                im.musicians,
                "likes",
                im.by_family,
                isis_core::Multiplicity::Multi,
            )
            .unwrap();
        im.db.assign_multi(im.edith, likes, [im.brass]).unwrap();
        let attrs: Vec<AttrId> = im.db.attrs().map(|(a, _)| a).collect();
        for attr in attrs {
            let idx = AttrIndex::build(&im.db, attr).unwrap();
            let owner = im.db.attr(attr).unwrap().owner;
            let mut want: HashMap<EntityId, OrderedSet> = HashMap::new();
            for x in im.db.members(owner).unwrap().iter() {
                for v in im.db.attr_value_set(x, attr).unwrap().iter() {
                    want.entry(v).or_default().insert(x);
                }
            }
            assert_eq!(idx.distinct_values(), want.len(), "attr {attr:?}");
            for (v, owners) in &want {
                let got = idx.owners_of(*v).expect("value indexed");
                assert_eq!(got.as_slice(), owners.as_slice(), "attr {attr:?}");
            }
        }
    }

    #[test]
    fn incremental_update_tracks_rebuild() {
        let mut im = instrumental_music().unwrap();
        let mut idx = AttrIndex::build(&im.db, im.family).unwrap();
        let old = im.db.attr_value_set(im.flute, im.family).unwrap();
        im.db
            .assign_single(im.flute, im.family, im.woodwind)
            .unwrap();
        let new = im.db.attr_value_set(im.flute, im.family).unwrap();
        idx.update(im.flute, &old, &new);
        let rebuilt = AttrIndex::build(&im.db, im.family).unwrap();
        assert_eq!(
            idx.owners_of(im.woodwind).map(|s| s.len()),
            rebuilt.owners_of(im.woodwind).map(|s| s.len())
        );
        assert!(idx.owners_of(im.woodwind).unwrap().contains(im.flute));
        assert!(!idx.owners_of(im.brass).unwrap().contains(im.flute));
    }

    #[test]
    fn indexed_evaluation_agrees_with_scan() {
        let mut im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.size).unwrap();
        svc.ensure_index(&im.db, im.plays).unwrap();
        let pred = quartets_predicate(&mut im);
        // Note: the quartets predicate's first clause uses a 2-step map, so
        // only the size clause is indexable — still prunes the pool.
        let via_index = svc.evaluate(&im.db, im.music_groups, &pred).unwrap();
        let via_scan = im
            .db
            .evaluate_derived_members(im.music_groups, &pred)
            .unwrap();
        assert!(via_index.set_eq(&via_scan));
    }

    #[test]
    fn dnf_union_pruning_agrees() {
        let im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let mk = |inst| {
            Clause::new(vec![Atom::new(
                Map::single(im.plays),
                CompareOp::Match,
                Rhs::constant(im.instruments, [inst]),
            )])
        };
        let pred = Predicate::dnf(vec![mk(im.piano), mk(im.viola)]);
        let a = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        let b = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
        assert!(a.set_eq(&b));
        assert!(!a.is_empty());
    }

    #[test]
    fn non_indexable_atoms_fall_back() {
        let im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        // Negated atom: not indexable, still correct.
        let atom = Atom::new(
            Map::single(im.plays),
            Operator::negated(CompareOp::Match),
            Rhs::constant(im.instruments, [im.piano]),
        );
        assert!(!svc.indexable(&atom));
        let pred = Predicate::dnf(vec![Clause::new(vec![atom])]);
        let a = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        let b = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
        assert!(a.set_eq(&b));
    }

    #[test]
    fn superset_intersects_posting_lists() {
        let im = instrumental_music().unwrap();
        let mut svc = IndexService::new(&im.db);
        svc.ensure_index(&im.db, im.plays).unwrap();
        let atom = Atom::new(
            Map::single(im.plays),
            CompareOp::Superset,
            Rhs::constant(im.instruments, [im.viola, im.violin]),
        );
        let pred = Predicate::cnf(vec![Clause::new(vec![atom])]);
        let a = svc.evaluate(&im.db, im.musicians, &pred).unwrap();
        let b = im.db.evaluate_derived_members(im.musicians, &pred).unwrap();
        assert!(a.set_eq(&b));
        // Edith and Gil play both.
        assert_eq!(a.len(), 2);
    }
}
