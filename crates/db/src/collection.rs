//! Collections: document storage, CRUD, cursors, and the (small) query
//! planner that routes eligible predicates through secondary indexes.

use crate::index::Index;
use crate::journal::{DbRecord, JournalSink};
use crate::query::matches;
use crate::update::apply_update;
use crate::value::{Document, Value};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Document identifier (stored in the document as `_id`).
pub type DocId = u64;

/// Sort direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    /// Ascending (smallest first) — ranking by runtime.
    Asc,
    /// Descending.
    Desc,
}

/// Cursor options for [`Collection::find_with`].
#[derive(Clone, Debug, Default)]
pub struct FindOptions {
    /// Sort by this dotted path.
    pub sort_by: Option<(String, SortOrder)>,
    /// Skip this many results (after sort).
    pub skip: usize,
    /// Return at most this many results.
    pub limit: Option<usize>,
}

impl FindOptions {
    /// Sort ascending by `field`.
    pub fn sort_asc(field: &str) -> Self {
        FindOptions {
            sort_by: Some((field.to_string(), SortOrder::Asc)),
            ..Default::default()
        }
    }

    /// Sort descending by `field`.
    pub fn sort_desc(field: &str) -> Self {
        FindOptions {
            sort_by: Some((field.to_string(), SortOrder::Desc)),
            ..Default::default()
        }
    }

    /// Set a limit.
    pub fn limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Set a skip.
    pub fn skip(mut self, n: usize) -> Self {
        self.skip = n;
        self
    }
}

/// Result of an update call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateResult {
    /// Documents matching the query.
    pub matched: usize,
    /// Documents actually changed.
    pub modified: usize,
    /// Id of a document inserted by upsert, if any.
    pub upserted: Option<DocId>,
}

/// Cumulative operation counters for one collection.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectionStats {
    /// Documents inserted (including upsert inserts).
    pub inserts: u64,
    /// Read operations (find/find_one/find_with/count/distinct).
    pub queries: u64,
    /// Write operations other than inserts (updates and deletes).
    pub updates: u64,
}

impl CollectionStats {
    /// Element-wise sum, for whole-database aggregation.
    pub fn merge(&mut self, other: CollectionStats) {
        self.inserts += other.inserts;
        self.queries += other.queries;
        self.updates += other.updates;
    }
}

/// An in-memory document collection.
#[derive(Default)]
pub struct Collection {
    docs: BTreeMap<DocId, Document>,
    next_id: DocId,
    indexes: HashMap<String, Index>,
    // Atomics so read-path methods (&self) can count themselves.
    inserts: AtomicU64,
    queries: AtomicU64,
    updates: AtomicU64,
    /// Durability hook: when attached, every committed mutation appends
    /// a logical [`DbRecord`] before applying. `None` (the default) is
    /// the preserved zero-overhead in-memory configuration.
    journal: Option<Arc<JournalSink>>,
}

impl Collection {
    /// An empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Cumulative operation counters.
    pub fn stats(&self) -> CollectionStats {
        CollectionStats {
            inserts: self.inserts.load(Ordering::Relaxed),
            queries: self.queries.load(Ordering::Relaxed),
            updates: self.updates.load(Ordering::Relaxed),
        }
    }

    /// Attach (or detach) the durability sink. Set by
    /// [`Database`](crate::Database) when a WAL is configured; replay
    /// runs with the sink detached so recovery never re-journals.
    pub(crate) fn set_journal(&mut self, journal: Option<Arc<JournalSink>>) {
        self.journal = journal;
    }

    /// Insert a document, assigning and returning its `_id`.
    pub fn insert_one(&mut self, doc: Document) -> DocId {
        if let Some(j) = &self.journal {
            j.append(&DbRecord::InsertOne { coll: j.coll().to_string(), doc: doc.clone() });
        }
        self.insert_one_inner(doc)
    }

    /// The journal-free insert path: shared by [`Collection::insert_one`],
    /// upsert (whose enclosing update is journaled as one record), and
    /// replay.
    pub(crate) fn insert_one_inner(&mut self, mut doc: Document) -> DocId {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        self.next_id += 1;
        let id = self.next_id;
        doc.insert("_id", id);
        for (field, idx) in self.indexes.iter_mut() {
            if let Some(v) = doc.get_path(field) {
                idx.insert(v, id);
            }
        }
        self.docs.insert(id, doc);
        id
    }

    /// Insert many documents. Index maintenance is batched: documents
    /// land first, then each index is updated in one pass over the new
    /// rows (one cache-warm walk per index instead of an index round
    /// per document).
    pub fn insert_many(&mut self, docs: impl IntoIterator<Item = Document>) -> Vec<DocId> {
        let docs: Vec<Document> = docs.into_iter().collect();
        if let Some(j) = &self.journal {
            j.append(&DbRecord::InsertMany { coll: j.coll().to_string(), docs: docs.clone() });
        }
        self.insert_many_inner(docs)
    }

    pub(crate) fn insert_many_inner(&mut self, docs: Vec<Document>) -> Vec<DocId> {
        let mut ids = Vec::new();
        for mut doc in docs {
            self.inserts.fetch_add(1, Ordering::Relaxed);
            self.next_id += 1;
            let id = self.next_id;
            doc.insert("_id", id);
            self.docs.insert(id, doc);
            ids.push(id);
        }
        for (field, idx) in self.indexes.iter_mut() {
            for id in &ids {
                let doc = self.docs.get(id).expect("inserted above");
                if let Some(v) = doc.get_path(field) {
                    idx.insert(v, *id);
                }
            }
        }
        ids
    }

    /// Build a secondary index on a dotted path (also indexes existing
    /// documents). Re-creating an existing index is a no-op.
    pub fn create_index(&mut self, field: &str) {
        if !self.indexes.contains_key(field) {
            if let Some(j) = &self.journal {
                j.append(&DbRecord::CreateIndex {
                    coll: j.coll().to_string(),
                    field: field.to_string(),
                });
            }
        }
        self.create_index_inner(field);
    }

    pub(crate) fn create_index_inner(&mut self, field: &str) {
        if self.indexes.contains_key(field) {
            return;
        }
        let mut idx = Index::new();
        for (id, doc) in &self.docs {
            if let Some(v) = doc.get_path(field) {
                idx.insert(v, *id);
            }
        }
        self.indexes.insert(field.to_string(), idx);
    }

    /// Compaction snapshot: `_id` allocator, indexed paths (sorted),
    /// and every document with its `_id`, in id order.
    pub(crate) fn snapshot(&self) -> (u64, Vec<String>, Vec<Document>) {
        let mut indexes: Vec<String> = self.indexes.keys().cloned().collect();
        indexes.sort();
        (self.next_id, indexes, self.docs.values().cloned().collect())
    }

    /// Restore from a compaction snapshot: documents land under their
    /// recorded `_id`s and every index is rebuilt. Journaling stays
    /// whatever it was (recovery runs detached).
    pub(crate) fn restore(&mut self, next_id: u64, indexes: Vec<String>, docs: Vec<Document>) {
        self.docs.clear();
        self.indexes.clear();
        self.next_id = next_id;
        for doc in docs {
            let id = match doc.get("_id") {
                Some(Value::Int(id)) => *id as DocId,
                // A snapshot doc without a valid _id cannot be placed;
                // skip it rather than corrupt the keyspace.
                _ => continue,
            };
            self.docs.insert(id, doc);
        }
        for field in indexes {
            self.create_index_inner(&field);
        }
    }

    /// Whether `field` has an index.
    pub fn has_index(&self, field: &str) -> bool {
        self.indexes.contains_key(field)
    }

    /// Candidate doc ids one indexed predicate admits, sorted
    /// ascending, or `None` when the predicate can't use the index.
    /// Every returned set is a superset of the documents the predicate
    /// matches — callers always re-verify with [`matches`].
    fn index_candidates(idx: &Index, cond: &Value) -> Option<Vec<DocId>> {
        match cond {
            Value::Doc(ops) if ops.iter().all(|(k, _)| k.starts_with('$')) && !ops.is_empty() => {
                // $eq dominates: any other operator can only shrink the
                // set further, and matches() applies it anyway.
                if let Some(eq) = ops.get("$eq") {
                    return Some(idx.lookup_eq(eq));
                }
                // $in: the union of one point lookup per element
                // (eq_loose and the index key order agree exactly).
                if let Some(Value::Array(elems)) = ops.get("$in") {
                    let mut ids: Vec<DocId> = elems
                        .iter()
                        .flat_map(|e| idx.lookup_eq(e))
                        .collect();
                    ids.sort_unstable();
                    ids.dedup();
                    return Some(ids);
                }
                let mut lo: Bound<&Value> = Bound::Unbounded;
                let mut hi: Bound<&Value> = Bound::Unbounded;
                let mut usable = false;
                for (op, operand) in ops.iter() {
                    match op.as_str() {
                        "$gt" => {
                            lo = Bound::Excluded(operand);
                            usable = true;
                        }
                        "$gte" => {
                            lo = Bound::Included(operand);
                            usable = true;
                        }
                        "$lt" => {
                            hi = Bound::Excluded(operand);
                            usable = true;
                        }
                        "$lte" => {
                            hi = Bound::Included(operand);
                            usable = true;
                        }
                        _ => {}
                    }
                }
                if usable {
                    // Range ids come out in key order, not id order.
                    let mut ids = idx.lookup_range(lo, hi);
                    ids.sort_unstable();
                    return Some(ids);
                }
                None
            }
            // Implicit equality on a literal. Unusable for Null (a
            // missing field also matches, and missing fields are not
            // indexed) and while any indexed value is an array (bare
            // literals have containment semantics a whole-value key
            // lookup cannot serve). `$eq`/`$in`/ranges need neither
            // guard: they only match documents carrying the field.
            Value::Null => None,
            _ if idx.has_array_keys() => None,
            literal => Some(idx.lookup_eq(literal)),
        }
    }

    /// Ids of candidate documents for `query`, via indexes when any
    /// apply; `None` means "no usable index — scan everything". When
    /// several top-level predicates are indexed, their candidate sets
    /// are intersected in ascending-selectivity order (smallest set
    /// first), so the result is never larger than the most selective
    /// index's set. The returned ids are sorted ascending.
    fn candidates(&self, query: &Document) -> Option<Vec<DocId>> {
        let mut sets: Vec<Vec<DocId>> = Vec::new();
        for (field, cond) in query.iter() {
            if field.starts_with('$') {
                continue;
            }
            let Some(idx) = self.indexes.get(field) else {
                continue;
            };
            if let Some(ids) = Self::index_candidates(idx, cond) {
                sets.push(ids);
            }
        }
        if sets.is_empty() {
            return None;
        }
        sets.sort_by_key(Vec::len);
        let mut iter = sets.into_iter();
        let mut acc = iter.next().expect("non-empty checked");
        for other in iter {
            if acc.is_empty() {
                break;
            }
            acc.retain(|id| other.binary_search(id).is_ok());
        }
        Some(acc)
    }

    /// Planner introspection: how many candidate ids the planner would
    /// examine for `query` (`None` = full scan). Exposed for tests and
    /// benches; the number is an upper bound on documents touched.
    pub fn candidate_count(&self, query: &Document) -> Option<usize> {
        self.candidates(query).map(|ids| ids.len())
    }

    /// Ids of documents matching `query`, ascending — the shared scan
    /// core of the read path. No document is cloned here.
    fn matching_ids(&self, query: &Document) -> Vec<DocId> {
        match self.candidates(query) {
            Some(ids) => ids
                .into_iter()
                .filter(|id| self.docs.get(id).is_some_and(|d| matches(query, d)))
                .collect(),
            None => self
                .docs
                .iter()
                .filter(|(_, d)| matches(query, d))
                .map(|(id, _)| *id)
                .collect(),
        }
    }

    /// All documents matching `query`, in `_id` order.
    pub fn find(&self, query: &Document) -> Vec<Document> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.matching_ids(query)
            .iter()
            .filter_map(|id| self.docs.get(id))
            .cloned()
            .collect()
    }

    /// First matching document.
    pub fn find_one(&self, query: &Document) -> Option<Document> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        match self.candidates(query) {
            Some(ids) => ids
                .iter()
                .filter_map(|id| self.docs.get(id))
                .find(|d| matches(query, d))
                .cloned(),
            None => self.docs.values().find(|d| matches(query, d)).cloned(),
        }
    }

    /// Find with sort/skip/limit. Missing sort fields order first
    /// (as `Null`).
    ///
    /// Runs as a cursor: matching ids are collected and ordered first,
    /// and only the documents that survive skip/limit are cloned. When
    /// the sort field has an index covering every document, the rows
    /// stream straight out of the index in key order and the scan stops
    /// as soon as `skip + limit` rows matched — `sort+limit` over a big
    /// collection never materialises it.
    pub fn find_with(&self, query: &Document, opts: &FindOptions) -> Vec<Document> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let limit = opts.limit.unwrap_or(usize::MAX);
        if let Some((field, order)) = &opts.sort_by {
            // Index-order fast path. The covering condition (every doc
            // carries the field) guarantees no row would sort as a
            // missing-field Null outside the index.
            if let Some(idx) = self.indexes.get(field) {
                if idx.len() == self.docs.len() {
                    let mut out = Vec::new();
                    let mut to_skip = opts.skip;
                    for id in idx.ids_in_key_order(*order == SortOrder::Desc) {
                        if out.len() >= limit {
                            break;
                        }
                        let doc = self.docs.get(&id).expect("index entry has a doc");
                        if !matches(query, doc) {
                            continue;
                        }
                        if to_skip > 0 {
                            to_skip -= 1;
                            continue;
                        }
                        out.push(doc.clone());
                    }
                    return out;
                }
            }
            // General path: order ids by the sort key (stable, so ties
            // keep `_id` order), then clone only the surviving window.
            let mut ids = self.matching_ids(query);
            let null = Value::Null;
            let key = |id: &DocId| {
                self.docs
                    .get(id)
                    .and_then(|d| d.get_path(field))
                    .unwrap_or(&null)
            };
            ids.sort_by(|a, b| {
                let ord = key(a).cmp_order(key(b));
                match order {
                    SortOrder::Asc => ord,
                    SortOrder::Desc => ord.reverse(),
                }
            });
            return ids
                .into_iter()
                .skip(opts.skip)
                .take(limit)
                .filter_map(|id| self.docs.get(&id))
                .cloned()
                .collect();
        }
        self.matching_ids(query)
            .into_iter()
            .skip(opts.skip)
            .take(limit)
            .filter_map(|id| self.docs.get(&id))
            .cloned()
            .collect()
    }

    /// Count matching documents.
    pub fn count(&self, query: &Document) -> usize {
        self.queries.fetch_add(1, Ordering::Relaxed);
        match self.candidates(query) {
            Some(ids) => ids
                .iter()
                .filter_map(|id| self.docs.get(id))
                .filter(|d| matches(query, d))
                .count(),
            None => self.docs.values().filter(|d| matches(query, d)).count(),
        }
    }

    /// Distinct values of `field` among matching documents.
    ///
    /// Uses the same index-driven candidate planning as `find`/`count`
    /// (both paths visit ids in `_id` order, so the surviving
    /// loose-equality representative is identical either way), and
    /// clones only the distinct values — never a document.
    pub fn distinct(&self, field: &str, query: &Document) -> Vec<Value> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let mut out: Vec<Value> = Vec::new();
        for id in self.matching_ids(query) {
            let d = self.docs.get(&id).expect("matching id has a doc");
            if let Some(v) = d.get_path(field) {
                if !out.iter().any(|x| x.eq_loose(v)) {
                    out.push(v.clone());
                }
            }
        }
        out.sort_by(|a, b| a.cmp_order(b));
        out
    }

    fn reindex(&mut self, id: DocId, before: &Document, after: &Document) {
        for (field, idx) in self.indexes.iter_mut() {
            let old = before.get_path(field);
            let new = after.get_path(field);
            if old != new {
                if let Some(v) = old {
                    idx.remove(v, id);
                }
                if let Some(v) = new {
                    idx.insert(v, id);
                }
            }
        }
    }

    /// Update every matching document.
    pub fn update_many(&mut self, query: &Document, update: &Document) -> UpdateResult {
        if let Some(j) = &self.journal {
            j.append(&DbRecord::UpdateMany {
                coll: j.coll().to_string(),
                query: query.clone(),
                update: update.clone(),
            });
        }
        self.updates.fetch_add(1, Ordering::Relaxed);
        let ids: Vec<DocId> = match self.candidates(query) {
            Some(ids) => ids
                .into_iter()
                .filter(|id| self.docs.get(id).is_some_and(|d| matches(query, d)))
                .collect(),
            None => self
                .docs
                .iter()
                .filter(|(_, d)| matches(query, d))
                .map(|(id, _)| *id)
                .collect(),
        };
        let mut res = UpdateResult {
            matched: ids.len(),
            ..Default::default()
        };
        for id in ids {
            let doc = self.docs.get_mut(&id).expect("id listed above");
            let before = doc.clone();
            if apply_update(update, doc) {
                res.modified += 1;
                let after = doc.clone();
                self.reindex(id, &before, &after);
            }
        }
        res
    }

    /// Update the first matching document; optionally insert when
    /// nothing matches (upsert). On upsert the query's literal equality
    /// fields seed the new document — this is how RAI's ranking table
    /// does "overwrite existing timing records" per team.
    pub fn update_one(&mut self, query: &Document, update: &Document, upsert: bool) -> UpdateResult {
        if let Some(j) = &self.journal {
            j.append(&DbRecord::UpdateOne {
                coll: j.coll().to_string(),
                query: query.clone(),
                update: update.clone(),
                upsert,
            });
        }
        self.updates.fetch_add(1, Ordering::Relaxed);
        let id = match self.candidates(query) {
            Some(ids) => ids
                .into_iter()
                .find(|id| self.docs.get(id).is_some_and(|d| matches(query, d))),
            None => self
                .docs
                .iter()
                .find(|(_, d)| matches(query, d))
                .map(|(id, _)| *id),
        };
        match id {
            Some(id) => {
                let doc = self.docs.get_mut(&id).expect("id found above");
                let before = doc.clone();
                let modified = apply_update(update, doc);
                if modified {
                    let after = doc.clone();
                    self.reindex(id, &before, &after);
                }
                UpdateResult {
                    matched: 1,
                    modified: usize::from(modified),
                    upserted: None,
                }
            }
            None if upsert => {
                let mut seed = Document::new();
                for (k, v) in query.iter() {
                    if !k.starts_with('$') && !matches!(v, Value::Doc(_)) {
                        seed.insert(k.clone(), v.clone());
                    }
                }
                apply_update(update, &mut seed);
                // The enclosing update_one was already journaled as one
                // record; the upsert insert must not journal again.
                let id = self.insert_one_inner(seed);
                UpdateResult {
                    matched: 0,
                    modified: 0,
                    upserted: Some(id),
                }
            }
            None => UpdateResult::default(),
        }
    }

    /// Delete every matching document; returns how many were removed.
    pub fn delete_many(&mut self, query: &Document) -> usize {
        if let Some(j) = &self.journal {
            j.append(&DbRecord::DeleteMany { coll: j.coll().to_string(), query: query.clone() });
        }
        self.updates.fetch_add(1, Ordering::Relaxed);
        let ids = self.matching_ids(query);
        for id in &ids {
            if let Some(doc) = self.docs.remove(id) {
                for (field, idx) in self.indexes.iter_mut() {
                    if let Some(v) = doc.get_path(field) {
                        idx.remove(v, *id);
                    }
                }
            }
        }
        ids.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    fn rankings() -> Collection {
        let mut c = Collection::new();
        c.insert_many([
            doc! { "team" => "a", "runtime" => 0.45, "final" => true },
            doc! { "team" => "b", "runtime" => 0.91, "final" => true },
            doc! { "team" => "c", "runtime" => 0.48, "final" => false },
            doc! { "team" => "d", "runtime" => 120.0, "final" => true },
        ]);
        c
    }

    #[test]
    fn insert_assigns_ids() {
        let mut c = Collection::new();
        let id1 = c.insert_one(doc! { "x" => 1 });
        let id2 = c.insert_one(doc! { "x" => 2 });
        assert_ne!(id1, id2);
        assert_eq!(c.len(), 2);
        let d = c.find_one(&doc! { "x" => 1 }).unwrap();
        assert_eq!(d.get("_id"), Some(&Value::Int(id1 as i64)));
    }

    #[test]
    fn find_and_count() {
        let c = rankings();
        assert_eq!(c.find(&doc! { "final" => true }).len(), 3);
        assert_eq!(c.count(&doc! { "runtime" => doc!{ "$lt" => 1.0 } }), 3);
        assert_eq!(c.count(&Document::new()), 4);
    }

    #[test]
    fn sorted_ranking_query() {
        let c = rankings();
        let top: Vec<String> = c
            .find_with(
                &doc! { "final" => true },
                &FindOptions::sort_asc("runtime").limit(2),
            )
            .into_iter()
            .map(|d| d.get("team").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(top, vec!["a", "b"]);
    }

    #[test]
    fn skip_and_desc() {
        let c = rankings();
        let second_slowest = c.find_with(&Document::new(), &FindOptions::sort_desc("runtime").skip(1).limit(1));
        assert_eq!(second_slowest[0].get("team").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn update_many_and_modified_counts() {
        let mut c = rankings();
        let res = c.update_many(
            &doc! { "final" => true },
            &doc! { "$set" => doc!{ "graded" => false } },
        );
        assert_eq!(res.matched, 3);
        assert_eq!(res.modified, 3);
        // Second time: matched but nothing changes.
        let res2 = c.update_many(
            &doc! { "final" => true },
            &doc! { "$set" => doc!{ "graded" => false } },
        );
        assert_eq!(res2.matched, 3);
        assert_eq!(res2.modified, 0);
    }

    #[test]
    fn upsert_ranking_overwrite() {
        let mut c = Collection::new();
        // First final submission creates the row…
        let r1 = c.update_one(
            &doc! { "team" => "x" },
            &doc! { "$set" => doc!{ "runtime" => 1.9 } },
            true,
        );
        assert!(r1.upserted.is_some());
        // …later submissions overwrite it (paper: "overwrites existing
        // timing records").
        let r2 = c.update_one(
            &doc! { "team" => "x" },
            &doc! { "$set" => doc!{ "runtime" => 0.7 } },
            true,
        );
        assert_eq!(r2.matched, 1);
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.find_one(&doc! { "team" => "x" }).unwrap().get("runtime"),
            Some(&Value::Float(0.7))
        );
    }

    #[test]
    fn delete_many() {
        let mut c = rankings();
        assert_eq!(c.delete_many(&doc! { "final" => false }), 1);
        assert_eq!(c.len(), 3);
        assert_eq!(c.delete_many(&Document::new()), 3);
        assert!(c.is_empty());
    }

    #[test]
    fn distinct_values() {
        let c = rankings();
        let finals = c.distinct("final", &Document::new());
        assert_eq!(finals, vec![Value::Bool(false), Value::Bool(true)]);
    }

    #[test]
    fn distinct_uses_the_planner_and_matches_the_scan() {
        let mut with_idx = rankings();
        with_idx.create_index("final");
        let without_idx = rankings();
        for q in [
            doc! { "final" => true },
            doc! { "final" => false },
            doc! { "final" => doc!{ "$gt" => 200.0 } },
        ] {
            assert_eq!(
                with_idx.distinct("team", &q),
                without_idx.distinct("team", &q),
                "indexed vs scan distinct mismatch for {q}"
            );
        }
    }

    #[test]
    fn index_results_equal_scan_results() {
        let mut with_idx = rankings();
        with_idx.create_index("runtime");
        let without_idx = rankings();
        for q in [
            doc! { "runtime" => doc!{ "$lt" => 1.0 } },
            doc! { "runtime" => doc!{ "$gte" => 0.48, "$lte" => 130.0 } },
            doc! { "runtime" => 0.45 },
            doc! { "runtime" => doc!{ "$gt" => 200.0 } },
        ] {
            let a = with_idx.find(&q);
            let b = without_idx.find(&q);
            assert_eq!(a, b, "index vs scan mismatch for {q}");
        }
    }

    #[test]
    fn multi_index_intersection_starts_from_smallest_set() {
        // 200 docs: "kind" is half-and-half (100-doc candidate sets),
        // "job" is unique (1-doc sets). The planner must intersect in
        // ascending-selectivity order so the query touches 1 candidate,
        // not 100 — regression test for the old first-index-wins walk,
        // whose HashMap iteration order could pick either.
        let mut c = Collection::new();
        for i in 0..200i64 {
            c.insert_one(doc! { "kind" => if i % 2 == 0 { "run" } else { "submit" }, "job" => i });
        }
        c.create_index("kind");
        c.create_index("job");
        let q = doc! { "kind" => "run", "job" => 42 };
        assert_eq!(c.candidate_count(&q), Some(1));
        let hit = c.find(&q);
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].get("job"), Some(&Value::Int(42)));
        // Contradictory predicates intersect to nothing.
        assert_eq!(c.candidate_count(&doc! { "kind" => "submit", "job" => 42 }), Some(0));
        assert!(c.find(&doc! { "kind" => "submit", "job" => 42 }).is_empty());
        // A range plus an equality still intersects smallest-first.
        let q = doc! { "job" => doc!{ "$gte" => 40, "$lt" => 60 }, "kind" => "run" };
        assert!(c.candidate_count(&q).unwrap() <= 20);
        assert_eq!(c.find(&q).len(), 10);
    }

    #[test]
    fn in_predicate_uses_point_lookups() {
        let mut c = rankings();
        c.create_index("team");
        let q = doc! { "team" => doc!{ "$in" => vec!["a", "d", "zz"] } };
        assert_eq!(c.candidate_count(&q), Some(2));
        let teams: Vec<_> = c
            .find(&q)
            .into_iter()
            .map(|d| d.get("team").unwrap().as_str().unwrap().to_string())
            .collect();
        assert_eq!(teams, vec!["a", "d"]);
        // Empty $in list: zero candidates, zero results.
        assert_eq!(c.candidate_count(&doc! { "team" => doc!{ "$in" => Vec::<&str>::new() } }), Some(0));
    }

    #[test]
    fn null_literal_query_falls_back_to_scan() {
        let mut c = Collection::new();
        c.create_index("b");
        c.insert_one(doc! { "a" => 1 }); // no "b": matches the bare Null literal
        c.insert_one(doc! { "b" => Value::Null });
        c.insert_one(doc! { "b" => 5 });
        // A bare Null literal also matches docs missing the field, which
        // are not in the index — the planner must not use it.
        assert_eq!(c.candidate_count(&doc! { "b" => Value::Null }), None);
        assert_eq!(c.find(&doc! { "b" => Value::Null }).len(), 2);
        // $eq Null requires the field present, so the index is usable.
        assert_eq!(c.candidate_count(&doc! { "b" => doc!{ "$eq" => Value::Null } }), Some(1));
        assert_eq!(c.find(&doc! { "b" => doc!{ "$eq" => Value::Null } }).len(), 1);
        // Once an array value is indexed, bare-literal containment
        // semantics force non-Null literals back to a scan too.
        c.insert_one(doc! { "b" => vec![5, 6] });
        assert_eq!(c.candidate_count(&doc! { "b" => 5 }), None);
        assert_eq!(c.find(&doc! { "b" => 5 }).len(), 2, "scalar and containing array");
        // Operator equality keeps whole-value semantics and the index.
        assert_eq!(c.candidate_count(&doc! { "b" => doc!{ "$eq" => 5 } }), Some(1));
    }

    #[test]
    fn indexed_sort_matches_materialised_sort() {
        let mut indexed = Collection::new();
        let mut plain = Collection::new();
        for i in 0..50i64 {
            // Duplicate runtimes exercise tie-breaking by `_id`.
            let d = doc! { "team" => format!("t{i:02}"), "runtime" => (i % 7) as f64, "final" => i % 3 == 0 };
            indexed.insert_one(d.clone());
            plain.insert_one(d);
        }
        indexed.create_index("runtime");
        for opts in [
            FindOptions::sort_asc("runtime"),
            FindOptions::sort_desc("runtime"),
            FindOptions::sort_asc("runtime").skip(3).limit(5),
            FindOptions::sort_desc("runtime").skip(10).limit(40),
        ] {
            let a = indexed.find_with(&doc! { "final" => true }, &opts);
            let b = plain.find_with(&doc! { "final" => true }, &opts);
            assert_eq!(a, b, "index-order sort diverged for {opts:?}");
        }
        // A doc missing the sort field disables the fast path but keeps
        // results identical (missing sorts first, as Null).
        indexed.insert_one(doc! { "team" => "no-runtime", "final" => true });
        plain.insert_one(doc! { "team" => "no-runtime", "final" => true });
        let a = indexed.find_with(&doc! { "final" => true }, &FindOptions::sort_asc("runtime"));
        let b = plain.find_with(&doc! { "final" => true }, &FindOptions::sort_asc("runtime"));
        assert_eq!(a, b);
        assert_eq!(a[0].get("team").unwrap().as_str(), Some("no-runtime"));
    }

    #[test]
    fn index_maintained_through_updates_and_deletes() {
        let mut c = rankings();
        c.create_index("runtime");
        c.update_one(
            &doc! { "team" => "a" },
            &doc! { "$set" => doc!{ "runtime" => 5.0 } },
            false,
        );
        assert_eq!(c.count(&doc! { "runtime" => doc!{ "$lt" => 1.0 } }), 2);
        assert_eq!(c.count(&doc! { "runtime" => 5.0 }), 1);
        c.delete_many(&doc! { "team" => "a" });
        assert_eq!(c.count(&doc! { "runtime" => 5.0 }), 0);
    }

    #[test]
    fn create_index_on_existing_data() {
        let mut c = rankings();
        c.create_index("team");
        assert!(c.has_index("team"));
        assert_eq!(c.find(&doc! { "team" => "b" }).len(), 1);
        // Recreating is a no-op.
        c.create_index("team");
    }

    #[test]
    fn update_one_without_upsert_misses() {
        let mut c = Collection::new();
        let r = c.update_one(&doc! { "team" => "ghost" }, &doc! { "$set" => doc!{ "x" => 1 } }, false);
        assert_eq!(r, UpdateResult::default());
        assert!(c.is_empty());
    }
}
