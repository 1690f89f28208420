//! An insertion-ordered set of [`EntityId`]s.
//!
//! Class extents and multivalued attribute values are sets, but the data
//! level of the interface shows them as *pannable lists*, so insertion order
//! must be preserved deterministically. `OrderedSet` pairs a vector (order)
//! with a hash set (membership).
//!
//! Membership is answered by that hash index or, for a set built by
//! [`OrderedSet::from_distinct`] from ids that strictly ascend, by a
//! binary search of the order: such a set keeps no index until its first
//! [`OrderedSet::insert`], [`OrderedSet::remove`] or
//! [`OrderedSet::extend_from`] builds one. That is how a query answer
//! over a base class arrives — entity ids are never recycled, so every
//! base-class extent ascends — and its caller reads it in order instead of
//! probing it.

use std::collections::HashSet;
use std::fmt;

use crate::ids::EntityId;

/// An insertion-ordered set of entity ids.
#[derive(Clone, Default)]
pub struct OrderedSet {
    order: Vec<EntityId>,
    /// The membership index: every id of `order`, or empty while `order`
    /// strictly ascends and no index has been built (see the module docs).
    members: HashSet<EntityId>,
}

impl OrderedSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set with capacity for `n` members.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            order: Vec::with_capacity(n),
            members: HashSet::with_capacity(n),
        }
    }

    /// The set of `order`, whose ids must be distinct (asserted in debug
    /// builds). Ids that strictly ascend are kept without a hash index and
    /// their membership is a binary search; any other order is indexed as
    /// [`OrderedSet::insert`] would index it.
    pub fn from_distinct(order: Vec<EntityId>) -> Self {
        if order.windows(2).all(|w| w[0] < w[1]) {
            return Self {
                order,
                members: HashSet::new(),
            };
        }
        let len = order.len();
        let mut set = Self::with_capacity(len);
        for e in order {
            set.insert(e);
        }
        debug_assert_eq!(set.len(), len, "from_distinct given repeated ids");
        set
    }

    /// `true` while `members` holds every id of `order`.
    fn indexed(&self) -> bool {
        self.members.len() == self.order.len()
    }

    /// Builds the hash index of an ascending set that has none.
    fn ensure_index(&mut self) {
        if !self.indexed() {
            self.members = self.order.iter().copied().collect();
        }
    }

    /// Inserts `e`, returning `true` if it was not already present.
    pub fn insert(&mut self, e: EntityId) -> bool {
        self.ensure_index();
        if self.members.insert(e) {
            self.order.push(e);
            true
        } else {
            false
        }
    }

    /// Removes `e`, returning `true` if it was present. O(n) in the order
    /// list; extents are interactive-scale so this is acceptable, and order
    /// of the remaining members is preserved (the UI requirement).
    pub fn remove(&mut self, e: EntityId) -> bool {
        self.ensure_index();
        if self.members.remove(&e) {
            if let Some(pos) = self.order.iter().position(|&x| x == e) {
                self.order.remove(pos);
            }
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, e: EntityId) -> bool {
        if self.indexed() {
            self.members.contains(&e)
        } else {
            self.order.binary_search(&e).is_ok()
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates members in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = EntityId> + '_ {
        self.order.iter().copied()
    }

    /// The members as an ordered slice.
    pub fn as_slice(&self) -> &[EntityId] {
        &self.order
    }

    /// `true` if every member of `self` is in `other`.
    pub fn is_subset(&self, other: &OrderedSet) -> bool {
        self.order.iter().all(|e| other.contains(*e))
    }

    /// `true` if the two sets share at least one member (the paper's weak
    /// match operator `~`).
    pub fn intersects(&self, other: &OrderedSet) -> bool {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        small.order.iter().any(|e| large.contains(*e))
    }

    /// Set equality (order-insensitive).
    pub fn set_eq(&self, other: &OrderedSet) -> bool {
        self.len() == other.len() && self.is_subset(other)
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.order.clear();
        self.members.clear();
    }

    /// If the set is a singleton, returns its sole member.
    pub fn as_singleton(&self) -> Option<EntityId> {
        if self.order.len() == 1 {
            Some(self.order[0])
        } else {
            None
        }
    }

    /// Inserts every member of `other`.
    pub fn extend_from(&mut self, other: &OrderedSet) {
        for e in other.iter() {
            self.insert(e);
        }
    }
}

impl FromIterator<EntityId> for OrderedSet {
    fn from_iter<I: IntoIterator<Item = EntityId>>(iter: I) -> Self {
        let mut s = OrderedSet::new();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

impl<'a> IntoIterator for &'a OrderedSet {
    type Item = EntityId;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, EntityId>>;

    fn into_iter(self) -> Self::IntoIter {
        self.order.iter().copied()
    }
}

/// Two sets are equal when they hold the same ids in the same order;
/// whether either keeps a hash index does not matter.
impl PartialEq for OrderedSet {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}

impl Eq for OrderedSet {}

impl fmt::Debug for OrderedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(&self.order).finish()
    }
}

impl fmt::Display for OrderedSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.order.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn e(i: u32) -> EntityId {
        EntityId::from_raw(i)
    }

    #[test]
    fn insert_preserves_order_and_dedups() {
        let mut s = OrderedSet::new();
        assert!(s.insert(e(3)));
        assert!(s.insert(e(1)));
        assert!(!s.insert(e(3)));
        assert_eq!(s.as_slice(), &[e(3), e(1)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn remove_keeps_relative_order() {
        let mut s: OrderedSet = [e(1), e(2), e(3)].into_iter().collect();
        assert!(s.remove(e(2)));
        assert!(!s.remove(e(2)));
        assert_eq!(s.as_slice(), &[e(1), e(3)]);
        assert!(!s.contains(e(2)));
    }

    #[test]
    fn subset_and_equality() {
        let a: OrderedSet = [e(1), e(2)].into_iter().collect();
        let b: OrderedSet = [e(2), e(1), e(3)].into_iter().collect();
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        let c: OrderedSet = [e(2), e(1)].into_iter().collect();
        assert!(a.set_eq(&c));
        assert!(!a.set_eq(&b));
        // set_eq ignores insertion order, Eq (derived) does not.
        assert_ne!(a, c);
    }

    #[test]
    fn weak_match() {
        let a: OrderedSet = [e(1), e(2)].into_iter().collect();
        let b: OrderedSet = [e(2), e(9)].into_iter().collect();
        let c: OrderedSet = [e(7)].into_iter().collect();
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!OrderedSet::new().intersects(&a));
    }

    #[test]
    fn singleton_projection() {
        let one: OrderedSet = [e(5)].into_iter().collect();
        let two: OrderedSet = [e(5), e(6)].into_iter().collect();
        assert_eq!(one.as_singleton(), Some(e(5)));
        assert_eq!(two.as_singleton(), None);
        assert_eq!(OrderedSet::new().as_singleton(), None);
    }

    #[test]
    fn display_format() {
        let s: OrderedSet = [e(1), e(2)].into_iter().collect();
        assert_eq!(s.to_string(), "{e1, e2}");
        assert_eq!(OrderedSet::new().to_string(), "{}");
    }

    #[test]
    fn extend_from_unions() {
        let mut a: OrderedSet = [e(1)].into_iter().collect();
        let b: OrderedSet = [e(1), e(2)].into_iter().collect();
        a.extend_from(&b);
        assert_eq!(a.as_slice(), &[e(1), e(2)]);
    }

    #[test]
    fn ascending_sets_keep_no_index_until_written() {
        let mut up = OrderedSet::from_distinct(vec![e(2), e(5), e(9)]);
        assert!(!up.indexed() && up.members.is_empty());
        assert!(up.contains(e(5)) && !up.contains(e(4)));
        assert_eq!(up, [e(2), e(5), e(9)].into_iter().collect::<OrderedSet>());
        let ids = std::collections::BTreeSet::from([e(2), e(5), e(9)]);
        assert_eq!(format!("{up:?}"), format!("{ids:?}"));
        assert!(up.insert(e(1)));
        assert!(up.indexed() && up.contains(e(1)));
        let down = OrderedSet::from_distinct(vec![e(9), e(5)]);
        assert!(down.indexed());
        // The unindexed form costs no field.
        assert_eq!(
            std::mem::size_of::<OrderedSet>(),
            std::mem::size_of::<Vec<EntityId>>() + std::mem::size_of::<HashSet<EntityId>>()
        );
    }

    /// One step of the model test, over ids below 40.
    #[derive(Debug, Clone)]
    enum Step {
        Contains(u32),
        Insert(u32),
        Remove(u32),
        Clear,
        Extend(Vec<u32>),
        Subset(Vec<u32>),
        Intersects(Vec<u32>),
        SetEq(Vec<u32>),
        Equal(Vec<u32>),
        Clone,
    }

    fn distinct(ids: &[u32]) -> Vec<EntityId> {
        let mut out: Vec<EntityId> = Vec::new();
        for &x in ids {
            if !out.contains(&e(x)) {
                out.push(e(x));
            }
        }
        out
    }

    fn step() -> impl Strategy<Value = Step> {
        (0u8..10, 0u32..40, prop::collection::vec(0u32..40, 0..6)).prop_map(|(k, x, xs)| match k {
            0 => Step::Contains(x),
            1 => Step::Insert(x),
            2 => Step::Remove(x),
            3 => Step::Clear,
            4 => Step::Extend(xs),
            5 => Step::Subset(xs),
            6 => Step::Intersects(xs),
            7 => Step::SetEq(xs),
            8 => Step::Equal(xs),
            _ => Step::Clone,
        })
    }

    proptest! {
        /// Every operation agrees with a `Vec` model, whether the set
        /// started ascending (unindexed) or not, and across the index
        /// being built by a write part-way through.
        #[test]
        fn operations_match_a_vec_model(
            start in prop::collection::vec(0u32..40, 0..20),
            ascending in any::<bool>(),
            steps in prop::collection::vec(step(), 0..40)
        ) {
            let mut model = distinct(&start);
            if ascending {
                model.sort();
            }
            let mut set = OrderedSet::from_distinct(model.clone());
            prop_assert_eq!(
                set.indexed(),
                model.is_empty() || model.windows(2).any(|w| w[0] > w[1])
            );
            for st in steps {
                match st {
                    Step::Contains(x) => prop_assert_eq!(set.contains(e(x)), model.contains(&e(x))),
                    Step::Insert(x) => {
                        let fresh = !model.contains(&e(x));
                        if fresh {
                            model.push(e(x));
                        }
                        prop_assert_eq!(set.insert(e(x)), fresh);
                    }
                    Step::Remove(x) => {
                        let pos = model.iter().position(|&y| y == e(x));
                        if let Some(p) = pos {
                            model.remove(p);
                        }
                        prop_assert_eq!(set.remove(e(x)), pos.is_some());
                    }
                    Step::Clear => {
                        model.clear();
                        set.clear();
                    }
                    Step::Extend(xs) => {
                        let other = OrderedSet::from_distinct(distinct(&xs));
                        for y in distinct(&xs) {
                            if !model.contains(&y) {
                                model.push(y);
                            }
                        }
                        set.extend_from(&other);
                    }
                    Step::Subset(xs) => {
                        let other = OrderedSet::from_distinct(distinct(&xs));
                        let sub = model.iter().all(|y| other.as_slice().contains(y));
                        let sup = other.iter().all(|y| model.contains(&y));
                        prop_assert_eq!(set.is_subset(&other), sub);
                        prop_assert_eq!(other.is_subset(&set), sup);
                    }
                    Step::Intersects(xs) => {
                        let other = OrderedSet::from_distinct(distinct(&xs));
                        let meet = model.iter().any(|y| other.as_slice().contains(y));
                        prop_assert_eq!(set.intersects(&other), meet);
                        prop_assert_eq!(other.intersects(&set), meet);
                    }
                    Step::SetEq(xs) => {
                        let other = OrderedSet::from_distinct(distinct(&xs));
                        let same = other.len() == model.len()
                            && model.iter().all(|y| other.as_slice().contains(y));
                        prop_assert_eq!(set.set_eq(&other), same);
                    }
                    Step::Equal(xs) => {
                        let other = OrderedSet::from_distinct(distinct(&xs));
                        prop_assert_eq!(set == other, model == other.as_slice());
                        let copy: OrderedSet = model.iter().copied().collect();
                        prop_assert!(set == copy);
                    }
                    Step::Clone => {
                        let copy = set.clone();
                        prop_assert_eq!(&copy, &set);
                        prop_assert!(model.iter().all(|&y| copy.contains(y)));
                        set = copy;
                    }
                }
                prop_assert_eq!(set.as_slice(), model.as_slice());
                prop_assert_eq!(set.len(), model.len());
            }
        }
    }
}
