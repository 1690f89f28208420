//! Copy-on-write chunked storage: the structural sharing that makes a
//! [`Database`](crate::Database) clone cost O(#chunks) instead of
//! O(database) (DESIGN.md §6).
//!
//! Each structure keeps its contents in fixed-size `Arc` chunks. A clone
//! clones the `Arc`s. The first write to a chunk that another clone still
//! holds copies that one chunk (`Arc::make_mut`), so a mutation pays for
//! the chunks it touches and every clone keeps its own view.
//!
//! * [`ChunkedVec`] is a growable vector in [`CHUNK`]-element chunks (the
//!   entity arena).
//! * [`ShardedMap`] is a hash map split by a fixed hash into [`SHARDS`]
//!   shards (the entity-name and literal-interning indexes).
//!
//! Attribute columns chunk their dense slots and overflow entries by raw
//! entity id on the same [`CHUNK`] boundary (see `column.rs`).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// log2 of [`CHUNK`].
pub(crate) const CHUNK_BITS: u32 = 10;
/// Elements (or raw entity ids) per chunk: 1024, the same run length as
/// the batched evaluator's `BATCH_ROWS`.
pub(crate) const CHUNK: usize = 1 << CHUNK_BITS;
/// Shards per [`ShardedMap`].
pub(crate) const SHARDS: usize = 64;

/// A growable vector stored as [`CHUNK`]-element `Arc` chunks. Every chunk
/// but the last is full, so element `i` lives at
/// `chunks[i / CHUNK][i % CHUNK]`.
#[derive(Debug, Clone)]
pub(crate) struct ChunkedVec<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T> Default for ChunkedVec<T> {
    fn default() -> Self {
        ChunkedVec { chunks: Vec::new() }
    }
}

impl<T: Clone> ChunkedVec<T> {
    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// The element at `i`, if any.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunks.get(i >> CHUNK_BITS)?.get(i & (CHUNK - 1))
    }

    /// The element at `i` for writing; copies its chunk first if another
    /// clone shares it.
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut T> {
        let chunk = self.chunks.get_mut(i >> CHUNK_BITS)?;
        Arc::make_mut(chunk).get_mut(i & (CHUNK - 1))
    }

    /// Appends `value`, copying the last chunk first if it is shared.
    pub(crate) fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(value),
            _ => self.chunks.push(Arc::new(vec![value])),
        }
    }

    /// The elements in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }
}

impl<T: Clone> FromIterator<T> for ChunkedVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut out = ChunkedVec::default();
        for value in iter {
            out.push(value);
        }
        out
    }
}

/// A hash map split into [`SHARDS`] `Arc` shards by a fixed hash of the
/// key, so a write copies one shard rather than the whole map.
#[derive(Debug, Clone)]
pub(crate) struct ShardedMap<K, V> {
    shards: Vec<Arc<HashMap<K, V>>>,
}

impl<K, V> Default for ShardedMap<K, V> {
    fn default() -> Self {
        // One empty map shared by every shard until its first write.
        let empty = Arc::new(HashMap::new());
        ShardedMap {
            shards: vec![empty; SHARDS],
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// The shard `key` lives in. `DefaultHasher::new` is unkeyed, so the
    /// choice is the same for every map in the process.
    fn shard_of(key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish() as usize % SHARDS
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.shards[Self::shard_of(key)].get(key)
    }

    /// `true` if `key` is present.
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.shards[Self::shard_of(key)].contains_key(key)
    }

    /// Stores `value` under `key`, returning the value it replaced.
    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        Arc::make_mut(&mut self.shards[Self::shard_of(&key)]).insert(key, value)
    }

    /// Removes `key`, returning its value. A shard without the key stays
    /// shared.
    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let shard = &mut self.shards[Self::shard_of(key)];
        if !shard.contains_key(key) {
            return None;
        }
        Arc::make_mut(shard).remove(key)
    }

    /// Every entry, in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.shards.iter().flat_map(|shard| shard.iter())
    }
}

#[cfg(test)]
impl<T> ChunkedVec<T> {
    pub(crate) fn chunks(&self) -> &[Arc<Vec<T>>] {
        &self.chunks
    }
}

#[cfg(test)]
impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    pub(crate) fn shards(&self) -> &[Arc<HashMap<K, V>>] {
        &self.shards
    }

    pub(crate) fn shard_index(key: &K) -> usize {
        Self::shard_of(key)
    }
}

/// How many of `after`'s chunks are not the very chunk `before` holds at
/// the same position (appended chunks count as unshared).
#[cfg(test)]
pub(crate) fn unshared<T: ?Sized>(before: &[Arc<T>], after: &[Arc<T>]) -> usize {
    let differing = before
        .iter()
        .zip(after)
        .filter(|(a, b)| !Arc::ptr_eq(a, b))
        .count();
    differing + after.len().saturating_sub(before.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_vec_indexes_across_chunk_boundaries() {
        let v: ChunkedVec<usize> = (0..3 * CHUNK + 5).collect();
        assert_eq!(v.len(), 3 * CHUNK + 5);
        assert_eq!(v.chunks().len(), 4);
        for i in [0, CHUNK - 1, CHUNK, 2 * CHUNK + 7, 3 * CHUNK + 4] {
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(3 * CHUNK + 5), None);
        assert!(v.iter().copied().eq(0..3 * CHUNK + 5));
    }

    #[test]
    fn chunked_vec_writes_copy_only_the_touched_chunk() {
        let original: ChunkedVec<usize> = (0..3 * CHUNK).collect();
        let mut copy = original.clone();
        assert_eq!(unshared(original.chunks(), copy.chunks()), 0);
        *copy.get_mut(CHUNK + 1).unwrap() = 0;
        assert_eq!(unshared(original.chunks(), copy.chunks()), 1);
        assert_eq!(original.get(CHUNK + 1), Some(&(CHUNK + 1)));
        copy.push(7);
        assert_eq!(unshared(original.chunks(), copy.chunks()), 2);
        assert_eq!(original.len(), 3 * CHUNK);
    }

    #[test]
    fn sharded_map_writes_copy_only_the_touched_shard() {
        let mut original = ShardedMap::default();
        for i in 0..1000u32 {
            original.insert(i, i);
        }
        let mut copy = original.clone();
        copy.insert(5000, 1);
        assert_eq!(unshared(original.shards(), copy.shards()), 1);
        assert_eq!(copy.remove(&123_456), None);
        assert_eq!(unshared(original.shards(), copy.shards()), 1);
        assert_eq!(copy.remove(&3), Some(3));
        let touched = if ShardedMap::<u32, u32>::shard_index(&3)
            == ShardedMap::<u32, u32>::shard_index(&5000)
        {
            1
        } else {
            2
        };
        assert_eq!(unshared(original.shards(), copy.shards()), touched);
        assert_eq!(original.get(&3), Some(&3));
        assert!(!original.contains_key(&5000));
        assert_eq!(copy.iter().count(), 1000);
    }
}
