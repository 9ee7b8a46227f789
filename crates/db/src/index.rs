//! Secondary indexes: ordered field-value → doc-id maps consulted by the
//! collection's query planner for equality and range predicates. The
//! paper's ranking queries ("checking the student ranking within the
//! competition") sort and filter on `runtime`; the index ablation bench
//! measures what this buys.

use crate::value::Value;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

/// Wrapper giving [`Value`] the `Ord` required by `BTreeMap`, using the
/// database's total order.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexKey(pub Value);

impl Eq for IndexKey {}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_order(&other.0)
    }
}

/// A single-field secondary index.
#[derive(Clone, Debug, Default)]
pub struct Index {
    map: BTreeMap<IndexKey, BTreeSet<u64>>,
    entries: usize,
    array_keys: usize,
}

impl Index {
    /// Empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `doc_id` under `value` (the document's field value).
    pub fn insert(&mut self, value: &Value, doc_id: u64) {
        if self
            .map
            .entry(IndexKey(value.clone()))
            .or_default()
            .insert(doc_id)
        {
            self.entries += 1;
            if matches!(value, Value::Array(_)) {
                self.array_keys += 1;
            }
        }
    }

    /// Remove `doc_id` from under `value`.
    pub fn remove(&mut self, value: &Value, doc_id: u64) {
        if let Some(set) = self.map.get_mut(&IndexKey(value.clone())) {
            if set.remove(&doc_id) {
                self.entries -= 1;
                if matches!(value, Value::Array(_)) {
                    self.array_keys -= 1;
                }
            }
            if set.is_empty() {
                self.map.remove(&IndexKey(value.clone()));
            }
        }
    }

    /// Total `(value, doc)` entries. Because each document contributes
    /// at most one entry, `len() == collection.len()` means every
    /// document carries the indexed field — the planner's condition for
    /// serving a sort straight off the index.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the index holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Whether any indexed value is an array. Bare-literal equality has
    /// array-containment semantics (`{"f": x}` matches a doc whose `f`
    /// is an array containing `x`) that a whole-value key lookup cannot
    /// serve, so the planner falls back to a scan while any are present.
    pub fn has_array_keys(&self) -> bool {
        self.array_keys > 0
    }

    /// Doc ids in index-key order (ascending or descending). Ties
    /// within one key come out in ascending id order either way,
    /// matching what a stable sort over `_id`-ordered rows produces.
    pub fn ids_in_key_order(&self, desc: bool) -> impl Iterator<Item = u64> + '_ {
        let fwd = (!desc).then(|| self.map.values().flat_map(|s| s.iter().copied()));
        let rev = desc.then(|| self.map.values().rev().flat_map(|s| s.iter().copied()));
        fwd.into_iter().flatten().chain(rev.into_iter().flatten())
    }

    /// Doc ids with field exactly `value`.
    pub fn lookup_eq(&self, value: &Value) -> Vec<u64> {
        self.map
            .get(&IndexKey(value.clone()))
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Doc ids with field in the given range.
    pub fn lookup_range(&self, lo: Bound<&Value>, hi: Bound<&Value>) -> Vec<u64> {
        let conv = |b: Bound<&Value>| match b {
            Bound::Included(v) => Bound::Included(IndexKey(v.clone())),
            Bound::Excluded(v) => Bound::Excluded(IndexKey(v.clone())),
            Bound::Unbounded => Bound::Unbounded,
        };
        let mut out = Vec::new();
        for (_, ids) in self.map.range((conv(lo), conv(hi))) {
            out.extend(ids.iter().copied());
        }
        out
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut idx = Index::new();
        idx.insert(&Value::from(0.5), 1);
        idx.insert(&Value::from(0.5), 2);
        idx.insert(&Value::from(1.5), 3);
        assert_eq!(idx.lookup_eq(&Value::from(0.5)), vec![1, 2]);
        idx.remove(&Value::from(0.5), 1);
        assert_eq!(idx.lookup_eq(&Value::from(0.5)), vec![2]);
        idx.remove(&Value::from(0.5), 2);
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn range_scan() {
        let mut idx = Index::new();
        for (i, v) in [0.1, 0.4, 0.45, 0.9, 2.0].iter().enumerate() {
            idx.insert(&Value::from(*v), i as u64);
        }
        let ids = idx.lookup_range(
            Bound::Included(&Value::from(0.4)),
            Bound::Excluded(&Value::from(1.0)),
        );
        assert_eq!(ids, vec![1, 2, 3]);
        let all = idx.lookup_range(Bound::Unbounded, Bound::Unbounded);
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn key_order_iteration_and_entry_count() {
        let mut idx = Index::new();
        idx.insert(&Value::from(2.0), 5);
        idx.insert(&Value::from(0.5), 9);
        idx.insert(&Value::from(0.5), 3);
        idx.insert(&Value::from(1.0), 7);
        assert_eq!(idx.len(), 4);
        let asc: Vec<u64> = idx.ids_in_key_order(false).collect();
        assert_eq!(asc, vec![3, 9, 7, 5]);
        let desc: Vec<u64> = idx.ids_in_key_order(true).collect();
        // Keys reverse; ids within a key stay ascending (stable-sort ties).
        assert_eq!(desc, vec![5, 7, 3, 9]);
        // Double-insert is not double-counted; removal decrements.
        idx.insert(&Value::from(0.5), 3);
        assert_eq!(idx.len(), 4);
        idx.remove(&Value::from(0.5), 3);
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
    }

    #[test]
    fn cross_numeric_type_keys_unify() {
        let mut idx = Index::new();
        idx.insert(&Value::Int(1), 1);
        idx.insert(&Value::Float(1.0), 2);
        // Int(1) and Float(1.0) are the same key in the index order.
        assert_eq!(idx.lookup_eq(&Value::Int(1)).len(), 2);
        assert_eq!(idx.distinct_keys(), 1);
    }
}
