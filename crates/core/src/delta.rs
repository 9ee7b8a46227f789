//! Uploader side of the store's delta protocol (DESIGN.md §10).
//!
//! Both the client (project uploads) and the worker (`/build` output
//! uploads) ship payloads as chunk manifests: the payload is split
//! with the same content-defined chunker the store uses, a local
//! digest cache plus one [`rai_store::ObjectStore::has_chunks`] round
//! trip decide which chunks the store is missing, and only those cross
//! the wire via [`rai_store::ObjectStore::put_delta`]. Re-submissions
//! of a near-identical project tree therefore upload a few hundred
//! bytes instead of the whole archive — the paper's dominant workload
//! (30 782 submissions in the final two weeks, most of them retries).

use rai_archive::chunk::{chunk_bytes, Chunk, ChunkManifest, ChunkerParams};
use rai_store::{ObjectStore, StoreError};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// A payload already split into its chunk manifest, ready to commit.
///
/// Preparation (content-defined chunking + digesting) is the pure,
/// CPU-bound half of a delta upload; committing it (`has_chunks` +
/// `put_delta`) is the half that talks to the store. A scheduling
/// round (DESIGN.md §12) prepares uploads during the execute phase and
/// commits them afterwards, so store traffic — and with it the
/// fault-draw stream — stays in deterministic claim order.
#[derive(Clone, Debug)]
pub struct PreparedUpload {
    manifest: ChunkManifest,
    chunks: Vec<Chunk>,
}

impl PreparedUpload {
    /// Chunk `payload` with the store's default parameters. Chunk
    /// boundaries and digests are a pure function of the bytes.
    pub fn prepare(payload: &[u8]) -> Self {
        let (manifest, chunks) = chunk_bytes(payload, ChunkerParams::DEFAULT);
        PreparedUpload { manifest, chunks }
    }

    /// Chunks the payload splits into.
    pub fn chunks_total(&self) -> usize {
        self.manifest.chunks.len()
    }

    /// Logical payload size in bytes.
    pub fn bytes_logical(&self) -> u64 {
        self.manifest.total_len
    }

}

/// What a delta upload actually cost.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaReceipt {
    /// Etag of the uploaded object.
    pub etag: String,
    /// Chunks the payload splits into.
    pub chunks_total: usize,
    /// Chunks that had to cross the wire.
    pub chunks_sent: usize,
    /// Chunk bytes that crossed the wire (manifest overhead excluded).
    pub bytes_sent: u64,
    /// Logical payload size.
    pub bytes_logical: u64,
}

impl DeltaReceipt {
    /// Total bytes on the wire: sent chunks plus the manifest
    /// encoding (16-byte header + 12 bytes per chunk reference,
    /// mirroring [`rai_archive::chunk::ChunkManifest::encoded_len`]).
    pub fn wire_bytes(&self) -> u64 {
        self.bytes_sent + 16 + 12 * self.chunks_total as u64
    }
}

/// The uploader's generation-stamped digest memo. The only writers
/// are the post-commit insert and the `MissingChunks` self-heal
/// eviction.
///
/// The generation counter closes the lost-eviction race: an insert
/// records the generation it *observed* before its store round trip,
/// and is skipped if an eviction advanced the counter in between.
/// Without the stamp, this interleaving re-poisons the cache —
/// upload A observes digest `d` resident, the store garbage-collects
/// `d`, upload B's failure evicts `d`, then A's late insert puts the
/// now-stale `d` back. Skipping a racing insert merely costs one
/// future `has_chunks` query; the cache is a hint either way.
struct DigestCache {
    digests: Mutex<HashSet<u64>>,
    /// Advanced only under the `digests` lock, so an insert's check
    /// and its writes are atomic against any eviction.
    generation: AtomicU64,
}

impl DigestCache {
    fn new() -> Self {
        DigestCache {
            digests: Mutex::new(HashSet::new()),
            generation: AtomicU64::new(0),
        }
    }

    /// Current eviction generation; pass the observed value back to
    /// [`DigestCache::insert_if_current`].
    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    #[cfg(test)]
    fn contains(&self, digest: u64) -> bool {
        self.digests.lock().contains(&digest)
    }

    /// Insert `digests` only if no eviction intervened since
    /// `observed_generation` was read (ABA guard; see type docs).
    fn insert_if_current(&self, digests: impl Iterator<Item = u64>, observed_generation: u64) {
        let mut cache = self.digests.lock();
        if self.generation.load(Ordering::Acquire) == observed_generation {
            cache.extend(digests);
        }
    }

    /// Drop stale digests and advance the generation, invalidating any
    /// insert still in flight against the old one.
    fn evict(&self, digests: &[u64]) {
        let mut cache = self.digests.lock();
        for d in digests {
            cache.remove(d);
        }
        self.generation.fetch_add(1, Ordering::Release);
    }

    fn len(&self) -> usize {
        self.digests.lock().len()
    }
}

/// A delta-capable uploader with a digest cache.
///
/// The cache remembers digests the store has confirmed resident, so
/// steady-state re-uploads skip even the `has_chunks` query for
/// unchanged chunks. It is only a hint: if the store garbage-collected
/// a cached chunk in the meantime, `put_delta` fails atomically with
/// [`StoreError::MissingChunks`], the stale entries are dropped, and
/// the upload retries with a fresh query. The cache is
/// generation-stamped (`DigestCache`) so a late insert never undoes a
/// concurrent eviction.
pub struct DeltaUploader {
    params: ChunkerParams,
    cache: DigestCache,
}

impl Default for DeltaUploader {
    fn default() -> Self {
        Self::new()
    }
}

impl DeltaUploader {
    /// An uploader with the store's default chunker parameters.
    pub fn new() -> Self {
        DeltaUploader {
            params: ChunkerParams::DEFAULT,
            cache: DigestCache::new(),
        }
    }

    /// Digests currently cached as store-resident.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Chunk `payload` with this uploader's parameters, ready for
    /// [`DeltaUploader::upload_prepared`].
    pub fn prepare(&self, payload: &[u8]) -> PreparedUpload {
        let (manifest, chunks) = chunk_bytes(payload, self.params);
        PreparedUpload { manifest, chunks }
    }

    /// Upload `payload` to `bucket/key` sending only missing chunks.
    ///
    /// Transient [`StoreError::Unavailable`] from either protocol step
    /// is returned to the caller, whose existing retry policy applies
    /// (a retry is cheap: the cache already holds everything the first
    /// attempt got confirmed or stored).
    pub fn upload(
        &self,
        store: &ObjectStore,
        bucket: &str,
        key: &str,
        payload: &[u8],
        user_meta: impl IntoIterator<Item = (String, String)>,
    ) -> Result<DeltaReceipt, StoreError> {
        self.upload_prepared(store, bucket, key, &self.prepare(payload), user_meta)
    }

    /// Commit an already-prepared upload, sending only the chunks the
    /// store is missing. Retrying a transient failure with the same
    /// [`PreparedUpload`] skips the chunking pass entirely.
    pub fn upload_prepared(
        &self,
        store: &ObjectStore,
        bucket: &str,
        key: &str,
        prepared: &PreparedUpload,
        user_meta: impl IntoIterator<Item = (String, String)>,
    ) -> Result<DeltaReceipt, StoreError> {
        let PreparedUpload { manifest, chunks } = prepared;
        let by_digest: BTreeMap<u64, &Chunk> = chunks.iter().map(|c| (c.digest, c)).collect();
        let user_meta: Vec<(String, String)> = user_meta.into_iter().collect();

        // First pass trusts the cache; a second pass (after a
        // MissingChunks rejection) bypasses it. The post-commit insert
        // carries the generation observed *before* the store round
        // trip so a racing eviction wins (see [`DigestCache`]).
        for trust_cache in [true, false] {
            let observed_generation = self.cache.generation();
            let unknown: Vec<u64> = {
                let cache = self.cache.digests.lock();
                by_digest
                    .keys()
                    .filter(|d| !(trust_cache && cache.contains(d)))
                    .copied()
                    .collect()
            };
            let resident = store.has_chunks(&unknown)?;
            let to_send: Vec<Chunk> = unknown
                .iter()
                .zip(&resident)
                .filter(|(_, &r)| !r)
                .map(|(d, _)| (*by_digest.get(d).expect("digest from payload")).clone())
                .collect();
            match store.put_delta(bucket, key, manifest, &to_send, user_meta.clone()) {
                Ok(etag) => {
                    self.cache
                        .insert_if_current(by_digest.keys().copied(), observed_generation);
                    return Ok(DeltaReceipt {
                        etag,
                        chunks_total: manifest.chunks.len(),
                        chunks_sent: to_send.len(),
                        bytes_sent: to_send.iter().map(|c| c.data.len() as u64).sum(),
                        bytes_logical: manifest.total_len,
                    });
                }
                Err(StoreError::MissingChunks { missing }) if trust_cache => {
                    self.cache.evict(&missing);
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second pass never yields MissingChunks: it queried every digest");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_sim::VirtualClock;
    use rai_store::LifecycleRule;

    fn store() -> ObjectStore {
        let s = ObjectStore::new(VirtualClock::new());
        s.create_bucket("b", LifecycleRule::Keep).unwrap();
        s
    }

    fn payload(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn first_upload_ships_everything_second_nothing() {
        let s = store();
        let up = DeltaUploader::new();
        let data = payload(8000, 1);
        let r1 = up.upload(&s, "b", "k1", &data, []).unwrap();
        assert_eq!(r1.chunks_sent, r1.chunks_total);
        assert_eq!(r1.bytes_sent, 8000);
        let r2 = up.upload(&s, "b", "k2", &data, []).unwrap();
        assert_eq!(r2.chunks_sent, 0, "identical content re-uses every chunk");
        assert_eq!(r2.bytes_sent, 0);
        assert_eq!(s.get("b", "k2").unwrap().data.as_ref(), &data[..]);
        assert_eq!(r1.etag, r2.etag);
    }

    #[test]
    fn small_edit_ships_only_changed_chunks() {
        let s = store();
        let up = DeltaUploader::new();
        let base = payload(16_000, 2);
        up.upload(&s, "b", "v1", &base, []).unwrap();
        let mut edited = base.clone();
        edited[8_000] ^= 0xFF;
        let r = up.upload(&s, "b", "v2", &edited, []).unwrap();
        assert!(
            r.bytes_sent < 4_000,
            "one-byte edit resent {} of {} bytes",
            r.bytes_sent,
            r.bytes_logical
        );
        assert_eq!(s.get("b", "v2").unwrap().data.as_ref(), &edited[..]);
    }

    #[test]
    fn fresh_uploader_still_dedups_via_has_chunks() {
        let s = store();
        let data = payload(8000, 3);
        DeltaUploader::new().upload(&s, "b", "k1", &data, []).unwrap();
        // New uploader, empty cache — the has_chunks query discovers
        // the resident chunks (this is the per-client-process case).
        let r = DeltaUploader::new().upload(&s, "b", "k2", &data, []).unwrap();
        assert_eq!(r.chunks_sent, 0);
    }

    #[test]
    fn stale_cache_recovers_after_store_gc() {
        let s = store();
        let up = DeltaUploader::new();
        let data = payload(8000, 4);
        up.upload(&s, "b", "k", &data, []).unwrap();
        assert!(up.cached() > 0);
        // The store drops the object (and with it every chunk), but
        // the uploader's cache still claims residency.
        s.delete("b", "k").unwrap();
        let r = up.upload(&s, "b", "k", &data, []).unwrap();
        assert_eq!(r.chunks_sent, r.chunks_total, "retry resent everything");
        assert_eq!(s.get("b", "k").unwrap().data.as_ref(), &data[..]);
    }

    #[test]
    fn unavailable_surfaces_to_caller() {
        let s = store();
        let up = DeltaUploader::new();
        s.inject_faults(1);
        let err = up.upload(&s, "b", "k", &payload(1000, 5), []).unwrap_err();
        assert_eq!(err, StoreError::Unavailable);
        // Next attempt succeeds (budget exhausted).
        assert!(up.upload(&s, "b", "k", &payload(1000, 5), []).is_ok());
    }

    #[test]
    fn digest_cache_generation_guard_drops_racing_insert() {
        let c = DigestCache::new();
        let g = c.generation();
        c.insert_if_current([1u64, 2, 3].into_iter(), g);
        assert!(c.contains(1) && c.contains(2) && c.contains(3));
        assert_eq!(c.len(), 3);
        // An eviction invalidates any insert stamped with an older
        // generation — the lost-eviction interleaving from the type
        // docs must not re-poison the cache.
        let stale = c.generation();
        c.evict(&[2]);
        c.insert_if_current([2u64, 9].into_iter(), stale);
        assert!(!c.contains(2), "stale insert must not land after eviction");
        assert!(!c.contains(9), "whole stale batch is dropped");
        // A fresh observation inserts normally.
        c.insert_if_current([9u64].into_iter(), c.generation());
        assert!(c.contains(9));
    }

    #[test]
    fn concurrent_cache_probes_all_hit() {
        // Many threads probing one warmed uploader cache concurrently:
        // all succeed with zero chunks sent.
        let s = store();
        let up = std::sync::Arc::new(DeltaUploader::new());
        let data = payload(32_000, 11);
        up.upload(&s, "b", "base", &data, []).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let s = s.clone();
                let up = std::sync::Arc::clone(&up);
                let data = data.clone();
                std::thread::spawn(move || {
                    up.upload(&s, "b", &format!("copy-{i}"), &data, []).unwrap()
                })
            })
            .collect();
        for h in handles {
            let r = h.join().unwrap();
            assert_eq!(r.chunks_sent, 0, "warm cache answers every probe");
        }
    }

    #[test]
    fn user_metadata_travels_with_delta_puts() {
        let s = store();
        let up = DeltaUploader::new();
        up.upload(
            &s,
            "b",
            "k",
            &payload(500, 6),
            [("team".to_string(), "rust".to_string())],
        )
        .unwrap();
        let meta = s.head("b", "k").unwrap();
        assert_eq!(meta.user.get("team").map(String::as_str), Some("rust"));
    }
}
