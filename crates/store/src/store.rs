//! The object store: buckets, CRUD, delta uploads, lifecycle sweeps
//! and usage accounting. Thread-safe and cheaply cloneable (clones
//! share state), like every live RAI data-plane component.
//!
//! Since the storage-model change (DESIGN.md §10) the store is
//! content-addressed: `put`/`put_delta` split payloads into
//! content-defined chunks ([`rai_archive::chunk`]) and objects are
//! manifests referencing a shared refcounted chunk arena
//! ([`crate::dedup`]). Identical content across objects, buckets and
//! re-uploads is stored once; `has_chunks` lets clients discover
//! which chunks the store already holds and upload only the rest.

use crate::dedup::{ChunkArena, ChunkStore};
use crate::journal::{SnapBucket, SnapCounters, SnapObject, StoreRecord};
use crate::lifecycle::LifecycleRule;
use crate::object::{ObjectMeta, StoredObject};
use bytes::Bytes;
use parking_lot::RwLock;
use rai_archive::chunk::{assemble, chunk_bytes, Chunk, ChunkManifest, ChunkerParams};
use rai_archive::fnv;
use rai_sim::{SimTime, VirtualClock};
use rai_wal::Wal;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Store errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Bucket does not exist.
    NoSuchBucket(String),
    /// Key does not exist in the bucket.
    NoSuchKey { bucket: String, key: String },
    /// Bucket already exists (create).
    BucketExists(String),
    /// A presigned URL failed validation (expired or tampered).
    BadPresignedUrl,
    /// Transient service failure (injected by tests/chaos runs; S3
    /// returns 503s under load and RAI must degrade gracefully).
    Unavailable,
    /// A delta upload referenced chunks that neither the request
    /// carried nor the store holds — the uploader's digest cache was
    /// stale (e.g. the chunks were garbage-collected since it was
    /// filled). The fix is to re-query [`ObjectStore::has_chunks`]
    /// and resend.
    MissingChunks {
        /// Digests that could not be resolved.
        missing: Vec<u64>,
    },
    /// A delta upload was internally inconsistent: a supplied chunk's
    /// bytes did not hash to its claimed digest, or lengths disagreed
    /// with the manifest.
    DeltaMismatch {
        /// What disagreed.
        reason: &'static str,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::NoSuchBucket(b) => write!(f, "no such bucket: {b}"),
            StoreError::NoSuchKey { bucket, key } => write!(f, "no such key: {bucket}/{key}"),
            StoreError::BucketExists(b) => write!(f, "bucket exists: {b}"),
            StoreError::Unavailable => write!(f, "file server temporarily unavailable"),
            StoreError::BadPresignedUrl => write!(f, "presigned URL is expired or invalid"),
            StoreError::MissingChunks { missing } => {
                write!(f, "delta upload references {} unknown chunk(s)", missing.len())
            }
            StoreError::DeltaMismatch { reason } => write!(f, "delta upload mismatch: {reason}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One stored object: metadata plus the manifest of chunks its
/// payload reassembles from.
struct ObjRecord {
    meta: ObjectMeta,
    manifest: ChunkManifest,
}

struct BucketState {
    rule: LifecycleRule,
    objects: BTreeMap<String, ObjRecord>,
}

/// Bucket and object metadata. The chunk arena has its own lock
/// ([`crate::dedup::ChunkArena`]); this lock covers manifests only.
///
/// Lock-order invariant: `state` before the arena, never the reverse.
/// Every mutation — admission, overwrite, delete, sweep — runs under
/// the state write lock, so a reader holding it can assemble a
/// resident manifest from the arena without its chunks being freed
/// mid-read, and the log order matches the application order.
struct StoreState {
    buckets: BTreeMap<String, BucketState>,
}

#[derive(Default)]
struct Counters {
    bytes_uploaded: u64,
    bytes_downloaded: u64,
    bytes_wire: u64,
    puts: u64,
    delta_puts: u64,
    gets: u64,
    deletes: u64,
    expired: u64,
}

struct StoreInner {
    clock: VirtualClock,
    /// Secret for presigned-URL signatures (per store instance).
    presign_secret: u64,
    /// Chunker parameters used by whole-payload `put`s.
    chunker: ChunkerParams,
    state: RwLock<StoreState>,
    /// The refcounted chunk arena.
    arena: ChunkArena,
    counters: RwLock<Counters>,
    /// Remaining operations that should fail (fault injection).
    faults: std::sync::atomic::AtomicU64,
    /// Probability-driven fault injection (chaos runs).
    injector: RwLock<Option<rai_faults::FaultInjector>>,
    /// Optional write-ahead log for object mutations. Chunk bytes ride
    /// `Put` records.
    wal: RwLock<Option<Wal>>,
}

/// Cumulative usage snapshot — backs the paper's §VII resource-usage
/// numbers ("the file server held 100GB of data for 176 students"),
/// extended with the dedup split between logical and physical bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreUsage {
    /// Logical bytes currently resident (sum of object sizes; what a
    /// non-deduplicating store would hold).
    pub bytes_stored: u64,
    /// Physical bytes currently resident (each distinct chunk once).
    pub bytes_physical: u64,
    /// Distinct chunks currently resident.
    pub chunks: u64,
    /// Cumulative chunk references resolved against already-resident
    /// chunks (uploads avoided by dedup).
    pub chunks_dedup_total: u64,
    /// Objects currently resident.
    pub objects: u64,
    /// Total logical bytes ever uploaded.
    pub bytes_uploaded: u64,
    /// Total bytes that actually crossed the wire on uploads (full
    /// payloads for plain puts; manifest + missing chunks for deltas).
    pub bytes_wire: u64,
    /// Total bytes ever served.
    pub bytes_downloaded: u64,
    /// Put operations (plain and delta).
    pub puts: u64,
    /// Delta-put operations (subset of `puts`).
    pub delta_puts: u64,
    /// Get operations.
    pub gets: u64,
    /// Explicit deletes.
    pub deletes: u64,
    /// Objects removed by lifecycle sweeps.
    pub expired: u64,
}

/// The S3-like object store.
#[derive(Clone)]
pub struct ObjectStore {
    inner: Arc<StoreInner>,
}

/// Per-instance presign secret: a process-unique counter diffused
/// through the splitmix64 finalizer.
fn next_presign_secret() -> u64 {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0x5241_4953);
    let mut z = COUNTER.fetch_add(0x9E37_79B9_7F4A_7C15, std::sync::atomic::Ordering::Relaxed);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ObjectStore {
    /// A store reading time from `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        ObjectStore {
            inner: Arc::new(StoreInner {
                presign_secret: next_presign_secret(),
                chunker: ChunkerParams::DEFAULT,
                clock,
                state: RwLock::new(StoreState {
                    buckets: BTreeMap::new(),
                }),
                arena: ChunkArena::default(),
                counters: RwLock::new(Counters::default()),
                faults: std::sync::atomic::AtomicU64::new(0),
                injector: RwLock::new(None),
                wal: RwLock::new(None),
            }),
        }
    }

    /// Cumulative microseconds spent waiting on the contended arena
    /// lock — a host fact (never fingerprinted).
    pub fn lock_wait_micros(&self) -> u64 {
        self.inner.arena.lock_wait_micros()
    }

    /// Exclusive (write) acquisitions of the arena lock — a host fact
    /// used to audit that pure presence reads stay off the write path.
    pub fn arena_write_acquisitions(&self) -> u64 {
        self.inner.arena.write_acquisitions()
    }

    /// Shared (read) acquisitions of the arena lock — the
    /// counterpart audit counter to
    /// [`ObjectStore::arena_write_acquisitions`].
    pub fn arena_read_acquisitions(&self) -> u64 {
        self.inner.arena.read_acquisitions()
    }

    /// Create a bucket with a lifecycle rule.
    pub fn create_bucket(&self, name: &str, rule: LifecycleRule) -> Result<(), StoreError> {
        let wal = self.inner.wal.read().clone();
        let mut state = self.inner.state.write();
        if state.buckets.contains_key(name) {
            return Err(StoreError::BucketExists(name.to_string()));
        }
        if let Some(w) = &wal {
            w.append(&StoreRecord::CreateBucket { name: name.to_string(), rule }.encode());
        }
        state.buckets.insert(
            name.to_string(),
            BucketState {
                rule,
                objects: BTreeMap::new(),
            },
        );
        Ok(())
    }

    /// Whether a bucket exists.
    pub fn has_bucket(&self, name: &str) -> bool {
        self.inner.state.read().buckets.contains_key(name)
    }

    /// Make the next `n` data operations (put/get) fail with
    /// [`StoreError::Unavailable`] — chaos testing for the paper's
    /// "robust to failures" requirement.
    pub fn inject_faults(&self, n: u64) {
        self.inner
            .faults
            .store(n, std::sync::atomic::Ordering::SeqCst);
    }

    /// Attach a seeded fault injector: each put/get additionally fails
    /// with [`StoreError::Unavailable`] per the injector's plan
    /// (`store_put` / `store_get` probabilities). Coexists with the
    /// [`ObjectStore::inject_faults`] budget, which always fires first.
    pub fn set_fault_injector(&self, injector: rai_faults::FaultInjector) {
        *self.inner.injector.write() = Some(injector);
    }

    fn take_fault(&self) -> bool {
        self.inner
            .faults
            .fetch_update(
                std::sync::atomic::Ordering::SeqCst,
                std::sync::atomic::Ordering::SeqCst,
                |n| n.checked_sub(1),
            )
            .is_ok()
    }

    fn injected_fault(&self, kind: rai_faults::FaultKind) -> bool {
        match self.inner.injector.read().as_ref() {
            Some(inj) => inj.should_fail(kind),
            None => false,
        }
    }

    /// Take one arena reference per manifest chunk, atomically: the
    /// arena is locked for the whole verify-then-retain sequence, so an
    /// admission either fully happens or (on
    /// [`StoreError::MissingChunks`] / [`StoreError::DeltaMismatch`])
    /// changes nothing.
    ///
    /// `verify` runs the delta-protocol checks (hash of non-resident
    /// provided bytes, lengths vs the manifest, residency of every
    /// reference); chunker-produced puts skip them. When `collect_new`,
    /// the newly admitted bytes are returned, in manifest order, for
    /// the caller's `Put` record.
    fn admit(
        &self,
        manifest: &ChunkManifest,
        by_digest: &BTreeMap<u64, &Bytes>,
        provided: &[Chunk],
        verify: bool,
        collect_new: bool,
    ) -> Result<Vec<(u64, Bytes)>, StoreError> {
        let mut arena = self.inner.arena.lock();
        if verify {
            for c in provided {
                // Only hash-verify bytes that would actually be
                // admitted; resident chunks dedup against the stored
                // copy and their provided bytes are never written.
                if !arena.contains(c.digest) && fnv::hash(&c.data) != c.digest {
                    return Err(StoreError::DeltaMismatch {
                        reason: "chunk bytes do not match claimed digest",
                    });
                }
            }
            for r in &manifest.chunks {
                if let Some(data) = by_digest.get(&r.digest) {
                    if data.len() as u32 != r.len {
                        return Err(StoreError::DeltaMismatch {
                            reason: "chunk length disagrees with manifest",
                        });
                    }
                }
            }
            // Atomicity: resolve every reference before mutating
            // anything.
            let missing: Vec<u64> = manifest
                .chunks
                .iter()
                .map(|r| r.digest)
                .filter(|d| !by_digest.contains_key(d) && !arena.contains(*d))
                .collect();
            if !missing.is_empty() {
                return Err(StoreError::MissingChunks { missing });
            }
        }

        let mut new_chunks: Vec<(u64, Bytes)> = Vec::new();
        for r in &manifest.chunks {
            let hit = arena
                .retain(r.digest, by_digest.get(&r.digest).copied())
                .expect("availability verified by caller or protocol");
            if !hit && collect_new {
                let data =
                    (*by_digest.get(&r.digest).expect("new chunk was provided")).clone();
                new_chunks.push((r.digest, data));
            }
        }
        Ok(new_chunks)
    }

    /// Drop one arena reference per manifest chunk. Must be called
    /// with the state write lock held — releases are serialized under
    /// it so concurrent readers can assemble resident manifests safely
    /// (see [`StoreState`]).
    fn release_manifest(&self, manifest: &ChunkManifest) {
        let mut arena = self.inner.arena.lock();
        for r in &manifest.chunks {
            arena.release(r.digest);
        }
    }

    /// Upload (or overwrite) an object from a whole payload; returns
    /// its etag. The payload is chunked server-side, so even plain
    /// puts dedup against resident content — but the full payload
    /// still crosses the wire. Delta-aware clients use
    /// [`ObjectStore::has_chunks`] + [`ObjectStore::put_delta`] to
    /// avoid that.
    pub fn put(
        &self,
        bucket: &str,
        key: &str,
        data: impl Into<Bytes>,
        user_meta: impl IntoIterator<Item = (String, String)>,
    ) -> Result<String, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StorePut) {
            return Err(StoreError::Unavailable);
        }
        let data = data.into();
        let (manifest, chunks) = chunk_bytes(&data, self.inner.chunker);
        let size = manifest.total_len;
        let etag = manifest.etag.clone();
        let user: BTreeMap<String, String> = user_meta.into_iter().collect();
        // The chunker emits refs and chunk bodies in lockstep, so the
        // pairing is positional.
        debug_assert_eq!(manifest.chunks.len(), chunks.len());
        debug_assert!(manifest.chunks.iter().zip(&chunks).all(|(r, c)| r.digest == c.digest));
        let by_digest: BTreeMap<u64, &Bytes> =
            chunks.iter().map(|c| (c.digest, &c.data)).collect();

        self.commit_put(bucket, key, &manifest, &by_digest, &[], false, user, size)?;

        let mut c = self.inner.counters.write();
        c.puts += 1;
        c.bytes_uploaded += size;
        c.bytes_wire += size;
        Ok(etag)
    }

    /// The shared admit → journal → install tail of `put`/`put_delta`,
    /// all under the state write lock so admission order matches log
    /// order.
    #[allow(clippy::too_many_arguments)]
    fn commit_put(
        &self,
        bucket: &str,
        key: &str,
        manifest: &ChunkManifest,
        by_digest: &BTreeMap<u64, &Bytes>,
        provided: &[Chunk],
        delta: bool,
        user: BTreeMap<String, String>,
        wire_bytes: u64,
    ) -> Result<(), StoreError> {
        let wal = self.inner.wal.read().clone();
        let mut state = self.inner.state.write();
        if !state.buckets.contains_key(bucket) {
            return Err(StoreError::NoSuchBucket(bucket.to_string()));
        }
        let new_chunks =
            self.admit(manifest, by_digest, provided, delta, wal.is_some())?;
        let now = self.inner.clock.now();
        if let Some(w) = &wal {
            w.append(
                &StoreRecord::Put {
                    bucket: bucket.to_string(),
                    key: key.to_string(),
                    time_millis: now.as_millis(),
                    manifest: manifest.clone(),
                    new_chunks,
                    user: user.clone(),
                    wire_bytes,
                    delta,
                }
                .encode(),
            );
        }
        self.install_record(&mut state, bucket, key, manifest.clone(), user, now);
        Ok(())
    }

    /// Which of `digests` are already resident? Returns one flag per
    /// input digest, in order. This is the discovery step of the
    /// delta-upload protocol; it is a metadata round trip and subject
    /// to the same transient faults as data reads.
    ///
    /// Pure presence checks answer from the arena's *read* lock: many
    /// concurrent `has_chunks` probes share it without excluding one
    /// another.
    pub fn has_chunks(&self, digests: &[u64]) -> Result<Vec<bool>, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StoreGet) {
            return Err(StoreError::Unavailable);
        }
        let arena = self.inner.arena.read();
        Ok(digests.iter().map(|&d| arena.contains(d)).collect())
    }

    /// Upload (or overwrite) an object as a manifest plus only the
    /// chunks the store does not already hold; returns the etag.
    ///
    /// `provided` may carry any subset of the manifest's chunks; every
    /// referenced chunk must either be provided or already resident,
    /// otherwise the upload fails atomically with
    /// [`StoreError::MissingChunks`] and no state changes. Supplied
    /// bytes are verified against the manifest's lengths, and against
    /// their claimed digest when not already resident (resident chunks
    /// dedup against the stored copy, so their provided bytes are
    /// never admitted and need no re-hash).
    pub fn put_delta(
        &self,
        bucket: &str,
        key: &str,
        manifest: &ChunkManifest,
        provided: &[Chunk],
        user_meta: impl IntoIterator<Item = (String, String)>,
    ) -> Result<String, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StorePut) {
            return Err(StoreError::Unavailable);
        }
        let declared: u64 = manifest.chunks.iter().map(|r| r.len as u64).sum();
        if declared != manifest.total_len {
            return Err(StoreError::DeltaMismatch {
                reason: "manifest total_len disagrees with chunk lengths",
            });
        }
        let user: BTreeMap<String, String> = user_meta.into_iter().collect();

        let provided_bytes: u64 = provided.iter().map(|c| c.data.len() as u64).sum();
        // A chunk that is already resident dedups against the stored
        // copy and its provided bytes are never admitted, so `admit`
        // only hash-verifies the bytes that would actually be written
        // (the client already digested every chunk when it built the
        // manifest; this avoids re-hashing the dedup-hit majority).
        let by_digest: BTreeMap<u64, &Bytes> =
            provided.iter().map(|c| (c.digest, &c.data)).collect();
        let etag = manifest.etag.clone();
        let wire: u64 = provided_bytes + manifest.encoded_len();

        self.commit_put(
            bucket,
            key,
            manifest,
            &by_digest,
            provided,
            true,
            user,
            wire,
        )?;

        let mut c = self.inner.counters.write();
        c.puts += 1;
        c.delta_puts += 1;
        c.bytes_uploaded += manifest.total_len;
        c.bytes_wire += wire;
        Ok(etag)
    }

    /// Insert the new record (references already taken), releasing the
    /// previous object under this key if any. New references are taken
    /// before old ones are released so an overwrite never frees chunks
    /// the new manifest shares with the old.
    fn install_record(
        &self,
        state: &mut StoreState,
        bucket: &str,
        key: &str,
        manifest: ChunkManifest,
        user: BTreeMap<String, String>,
        now: SimTime,
    ) {
        let record = ObjRecord {
            meta: ObjectMeta {
                key: key.to_string(),
                size: manifest.total_len,
                etag: manifest.etag.clone(),
                uploaded_at: now,
                last_used: now,
                user,
            },
            manifest,
        };
        let b = state.buckets.get_mut(bucket).expect("bucket checked by caller");
        let prev = b.objects.insert(key.to_string(), record);
        if let Some(prev) = prev {
            // New references were taken by `admit` before this release,
            // so an overwrite never frees chunks the new manifest
            // shares with the old.
            self.release_manifest(&prev.manifest);
        }
    }

    /// Download an object, reassembled from its chunks. Refreshes its
    /// `last_used` stamp (which is what makes the paper's "one month
    /// after the last use" policy work).
    pub fn get(&self, bucket: &str, key: &str) -> Result<StoredObject, StoreError> {
        if self.take_fault() || self.injected_fault(rai_faults::FaultKind::StoreGet) {
            return Err(StoreError::Unavailable);
        }
        let now = self.inner.clock.now();
        let wal = self.inner.wal.read().clone();
        let mut state = self.inner.state.write();
        let b = state
            .buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        let rec = b.objects.get_mut(key).ok_or_else(|| StoreError::NoSuchKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
        })?;
        rec.meta.last_used = now;
        // Assembling while holding the state write lock is what makes
        // this safe: all chunk releases serialize under it, so every
        // chunk this resident manifest references stays resident.
        let arena = self.inner.arena.read();
        let data = assemble(&rec.manifest, |d| arena.data(d))
            .expect("resident manifests always resolve");
        drop(arena);
        let out = StoredObject {
            meta: rec.meta.clone(),
            data: Bytes::from(data),
        };
        if let Some(w) = &wal {
            // `last_used` drives lifecycle expiry, so reads are
            // journaled too (as a metadata touch, not the payload).
            w.append(
                &StoreRecord::Touch {
                    bucket: bucket.to_string(),
                    key: key.to_string(),
                    time_millis: now.as_millis(),
                    size: out.meta.size,
                }
                .encode(),
            );
        }
        drop(state);
        let mut c = self.inner.counters.write();
        c.gets += 1;
        c.bytes_downloaded += out.meta.size;
        Ok(out)
    }

    /// Metadata only, without touching `last_used`.
    pub fn head(&self, bucket: &str, key: &str) -> Result<ObjectMeta, StoreError> {
        let state = self.inner.state.read();
        let b = state
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        b.objects
            .get(key)
            .map(|o| o.meta.clone())
            .ok_or_else(|| StoreError::NoSuchKey {
                bucket: bucket.to_string(),
                key: key.to_string(),
            })
    }

    /// Delete an object, releasing its chunk references.
    pub fn delete(&self, bucket: &str, key: &str) -> Result<(), StoreError> {
        let wal = self.inner.wal.read().clone();
        let mut state = self.inner.state.write();
        let b = state
            .buckets
            .get_mut(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        let rec = b.objects.remove(key).ok_or_else(|| StoreError::NoSuchKey {
            bucket: bucket.to_string(),
            key: key.to_string(),
        })?;
        self.release_manifest(&rec.manifest);
        if let Some(w) = &wal {
            w.append(
                &StoreRecord::Delete { bucket: bucket.to_string(), key: key.to_string() }
                    .encode(),
            );
        }
        drop(state);
        self.inner.counters.write().deletes += 1;
        Ok(())
    }

    /// List object metadata under a key prefix, in key order. The
    /// instructor's "download all final submissions" tool drives this.
    pub fn list(&self, bucket: &str, prefix: &str) -> Result<Vec<ObjectMeta>, StoreError> {
        let state = self.inner.state.read();
        let b = state
            .buckets
            .get(bucket)
            .ok_or_else(|| StoreError::NoSuchBucket(bucket.to_string()))?;
        Ok(b.objects
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, o)| o.meta.clone())
            .collect())
    }

    /// Create a presigned URL for `bucket/key`, valid until
    /// `expires_at` (virtual time). This is what the worker actually
    /// hands the client for the `/build` archive — downloadable without
    /// credentials, like an S3 presigned GET.
    pub fn presign(&self, bucket: &str, key: &str, expires_at: rai_sim::SimTime) -> String {
        let sig = self.presign_signature(bucket, key, expires_at);
        format!("rai-s3://{bucket}/{key}?expires={}&sig={sig:016x}", expires_at.as_millis())
    }

    fn presign_signature(&self, bucket: &str, key: &str, expires_at: rai_sim::SimTime) -> u64 {
        // Keyed FNV-1a over (secret, bucket, key, expiry). Not
        // cryptographic — matches the store's integrity-not-secrecy
        // threat model; real deployments use SigV4.
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ self.inner.presign_secret;
        for b in bucket
            .as_bytes()
            .iter()
            .chain(&[0u8])
            .chain(key.as_bytes())
            .chain(&[0u8])
            .chain(&expires_at.as_millis().to_le_bytes())
        {
            h ^= *b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Fetch through a presigned URL, enforcing expiry and signature.
    pub fn get_presigned(&self, url: &str) -> Result<StoredObject, StoreError> {
        let rest = url.strip_prefix("rai-s3://").ok_or(StoreError::BadPresignedUrl)?;
        let (path, query) = rest.split_once('?').ok_or(StoreError::BadPresignedUrl)?;
        let (bucket, key) = path.split_once('/').ok_or(StoreError::BadPresignedUrl)?;
        let mut expires = None;
        let mut sig = None;
        for pair in query.split('&') {
            match pair.split_once('=') {
                Some(("expires", v)) => expires = v.parse::<u64>().ok(),
                Some(("sig", v)) => sig = u64::from_str_radix(v, 16).ok(),
                _ => {}
            }
        }
        let (Some(expires), Some(sig)) = (expires, sig) else {
            return Err(StoreError::BadPresignedUrl);
        };
        let expires_at = rai_sim::SimTime::from_millis(expires);
        if self.presign_signature(bucket, key, expires_at) != sig {
            return Err(StoreError::BadPresignedUrl);
        }
        if self.inner.clock.now() > expires_at {
            return Err(StoreError::BadPresignedUrl);
        }
        self.get(bucket, key)
    }

    /// Run a lifecycle sweep at the clock's current time; returns how
    /// many objects were expired. A real deployment runs this daily.
    ///
    /// Expiry is manifest-aware: it releases the doomed object's chunk
    /// references rather than deleting bytes, so chunks shared with
    /// live objects survive and only unreferenced ones are freed.
    pub fn sweep_lifecycle(&self) -> u64 {
        let now = self.inner.clock.now();
        let wal = self.inner.wal.read().clone();
        let mut expired = 0u64;
        let mut state = self.inner.state.write();
        let mut released: Vec<ChunkManifest> = Vec::new();
        for b in state.buckets.values_mut() {
            let rule = b.rule;
            let doomed: Vec<String> = b
                .objects
                .iter()
                .filter(|(_, o)| rule.is_expired(o.meta.uploaded_at, o.meta.last_used, now))
                .map(|(k, _)| k.clone())
                .collect();
            for k in doomed {
                let rec = b.objects.remove(&k).expect("doomed key just listed");
                released.push(rec.manifest);
                expired += 1;
            }
        }
        for manifest in &released {
            self.release_manifest(manifest);
        }
        // A sweep that expired nothing is a no-op at any replay time
        // and is not journaled; one that did is replayed at its
        // recorded time (expiry depends on the journaled timestamps).
        if expired > 0 {
            if let Some(w) = &wal {
                w.append(&StoreRecord::Sweep { time_millis: now.as_millis() }.encode());
            }
        }
        drop(state);
        self.inner.counters.write().expired += expired;
        expired
    }

    /// Usage snapshot.
    pub fn usage(&self) -> StoreUsage {
        let state = self.inner.state.read();
        let mut bytes_stored = 0;
        let mut objects = 0;
        for b in state.buckets.values() {
            for o in b.objects.values() {
                bytes_stored += o.meta.size;
                objects += 1;
            }
        }
        let (chunks, bytes_physical, chunks_dedup_total) = self.inner.arena.totals();
        drop(state);
        let c = self.inner.counters.read();
        StoreUsage {
            bytes_stored,
            bytes_physical,
            chunks,
            chunks_dedup_total,
            objects,
            bytes_uploaded: c.bytes_uploaded,
            bytes_wire: c.bytes_wire,
            bytes_downloaded: c.bytes_downloaded,
            puts: c.puts,
            delta_puts: c.delta_puts,
            gets: c.gets,
            deletes: c.deletes,
            expired: c.expired,
        }
    }

    /// The clock this store reads.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    // ---- durability --------------------------------------------------

    /// Attach a write-ahead log (chunk bytes ride `Put` records):
    /// every committed mutation from here on is journaled. Attach
    /// before the first mutation — the log must cover the store's
    /// whole history (or start from a snapshot).
    pub fn attach_wal(&self, wal: Wal) {
        *self.inner.wal.write() = Some(wal);
    }

    /// The attached WAL, if any.
    pub fn wal(&self) -> Option<Wal> {
        self.inner.wal.read().clone()
    }

    /// Per-shard chunk logs: always empty. The store journals into one
    /// log ([`ObjectStore::wal`]); this accessor stays so callers that
    /// sum WAL statistics over `wal().into_iter().chain(chunk_wals())`
    /// keep building unchanged.
    pub fn chunk_wals(&self) -> Vec<Wal> {
        Vec::new()
    }

    /// Force the attached log's buffered appends to stable storage
    /// (durability point). No-op without a WAL.
    pub fn sync_wal(&self) {
        if let Some(w) = self.inner.wal.read().as_ref() {
            w.sync();
        }
    }

    /// Rebuild a store from `wal`, then attach the log to the rebuilt
    /// store so it keeps journaling. Corrupt WAL records were already
    /// dropped by the framing layer; logically-malformed payloads
    /// (unknown record tags included) and objects whose chunk bytes
    /// were lost with a dropped record are counted in the returned
    /// [`StoreRecovery`] — replay never panics and never installs an
    /// unreadable object.
    pub fn recover(clock: VirtualClock, wal: Wal) -> (ObjectStore, StoreRecovery) {
        let store = ObjectStore::new(clock);
        let mut recovery = StoreRecovery::default();
        let replay = wal.replay();
        recovery.stats = replay.stats;
        {
            let mut state = store.inner.state.write();
            let mut counters = store.inner.counters.write();
            for payload in &replay.records {
                match StoreRecord::decode(payload) {
                    Some(rec) => {
                        recovery.objects_dropped += store.apply(&mut state, &mut counters, rec);
                        recovery.applied += 1;
                    }
                    None => recovery.malformed_dropped += 1,
                }
            }
        }
        // Chunks no surviving manifest references (dropped objects in a
        // snapshot) would otherwise linger with a zero refcount.
        store.inner.arena.lock().prune_unreferenced();
        store.attach_wal(wal);
        (store, recovery)
    }

    /// Apply one journaled mutation during replay. Returns how many
    /// objects were dropped (chunk bytes unavailable).
    fn apply(
        &self,
        state: &mut StoreState,
        counters: &mut Counters,
        rec: StoreRecord,
    ) -> u64 {
        match rec {
            StoreRecord::CreateBucket { name, rule } => {
                state
                    .buckets
                    .entry(name)
                    .or_insert_with(|| BucketState { rule, objects: BTreeMap::new() });
                0
            }
            StoreRecord::Put {
                bucket,
                key,
                time_millis,
                manifest,
                new_chunks,
                user,
                wire_bytes,
                delta,
            } => {
                // The operation happened historically: reconstruct the
                // cumulative counters whether or not the object itself
                // survives.
                counters.puts += 1;
                counters.bytes_uploaded += manifest.total_len;
                counters.bytes_wire += wire_bytes;
                if delta {
                    counters.delta_puts += 1;
                }
                let by_digest: BTreeMap<u64, Bytes> = new_chunks.into_iter().collect();
                // Atomicity, as in put_delta: resolve every reference
                // (and the bucket) before mutating anything. A miss
                // means the bytes rode a WAL record that was dropped
                // as corrupt — the object is unreadable and must not
                // be installed.
                let mut arena = self.inner.arena.lock();
                let resolvable = state.buckets.contains_key(&bucket)
                    && manifest
                        .chunks
                        .iter()
                        .all(|r| by_digest.contains_key(&r.digest) || arena.contains(r.digest));
                if !resolvable {
                    return 1;
                }
                for r in &manifest.chunks {
                    arena
                        .retain(r.digest, by_digest.get(&r.digest))
                        .expect("availability verified above");
                }
                drop(arena);
                let now = SimTime::from_millis(time_millis);
                let record = ObjRecord {
                    meta: ObjectMeta {
                        key: key.clone(),
                        size: manifest.total_len,
                        etag: manifest.etag.clone(),
                        uploaded_at: now,
                        last_used: now,
                        user,
                    },
                    manifest,
                };
                let b = state.buckets.get_mut(&bucket).expect("existence checked above");
                let prev = b.objects.insert(key, record);
                if let Some(prev) = prev {
                    self.release_manifest(&prev.manifest);
                }
                0
            }
            StoreRecord::Touch { bucket, key, time_millis, size } => {
                counters.gets += 1;
                counters.bytes_downloaded += size;
                if let Some(rec) = state
                    .buckets
                    .get_mut(&bucket)
                    .and_then(|b| b.objects.get_mut(&key))
                {
                    rec.meta.last_used = SimTime::from_millis(time_millis);
                }
                0
            }
            StoreRecord::Delete { bucket, key } => {
                counters.deletes += 1;
                if let Some(rec) =
                    state.buckets.get_mut(&bucket).and_then(|b| b.objects.remove(&key))
                {
                    self.release_manifest(&rec.manifest);
                }
                0
            }
            StoreRecord::Sweep { time_millis } => {
                let now = SimTime::from_millis(time_millis);
                let mut released: Vec<ChunkManifest> = Vec::new();
                for b in state.buckets.values_mut() {
                    let rule = b.rule;
                    let doomed: Vec<String> = b
                        .objects
                        .iter()
                        .filter(|(_, o)| {
                            rule.is_expired(o.meta.uploaded_at, o.meta.last_used, now)
                        })
                        .map(|(k, _)| k.clone())
                        .collect();
                    for k in doomed {
                        let rec = b.objects.remove(&k).expect("doomed key just listed");
                        released.push(rec.manifest);
                        counters.expired += 1;
                    }
                }
                for m in &released {
                    self.release_manifest(m);
                }
                0
            }
            StoreRecord::SnapshotStore { buckets, chunks, counters: snap } => {
                let mut dropped = 0u64;
                state.buckets.clear();
                let mut arena = self.inner.arena.lock();
                *arena = ChunkStore::new();
                for (digest, data) in chunks {
                    arena.restore_chunk(digest, data);
                }
                for b in buckets {
                    let mut objects = BTreeMap::new();
                    for o in b.objects {
                        let resolvable =
                            o.manifest.chunks.iter().all(|r| arena.contains(r.digest));
                        if !resolvable {
                            dropped += 1;
                            continue;
                        }
                        for r in &o.manifest.chunks {
                            arena.ref_existing(r.digest);
                        }
                        objects.insert(
                            o.meta.key.clone(),
                            ObjRecord { meta: o.meta, manifest: o.manifest },
                        );
                    }
                    state
                        .buckets
                        .insert(b.name, BucketState { rule: b.rule, objects });
                }
                arena.set_dedup_hits(snap.dedup_hits);
                *counters = Counters {
                    bytes_uploaded: snap.bytes_uploaded,
                    bytes_downloaded: snap.bytes_downloaded,
                    bytes_wire: snap.bytes_wire,
                    puts: snap.puts,
                    delta_puts: snap.delta_puts,
                    gets: snap.gets,
                    deletes: snap.deletes,
                    expired: snap.expired,
                };
                dropped
            }
        }
    }

    /// Compact the attached log into one snapshot record if its size
    /// warrants it (per [`rai_wal::DurabilityConfig`]). The snapshot
    /// carries the physical payload, digest-sorted. Call only at
    /// quiesced points — the snapshot must not interleave with
    /// concurrent mutations. Returns whether a compaction ran.
    pub fn maybe_compact(&self) -> bool {
        let Some(wal) = self.inner.wal.read().clone() else {
            return false;
        };
        if !wal.should_compact() {
            return false;
        }
        let state = self.inner.state.read();
        let counters = self.inner.counters.read();
        let arena = self.inner.arena.read();
        let snap_chunks = arena.snapshot_chunks();
        let dedup_hits = arena.dedup_hits();
        drop(arena);
        let snapshot = StoreRecord::SnapshotStore {
            buckets: state
                .buckets
                .iter()
                .map(|(name, b)| SnapBucket {
                    name: name.clone(),
                    rule: b.rule,
                    objects: b
                        .objects
                        .values()
                        .map(|o| SnapObject {
                            meta: o.meta.clone(),
                            manifest: o.manifest.clone(),
                        })
                        .collect(),
                })
                .collect(),
            chunks: snap_chunks,
            counters: SnapCounters {
                bytes_uploaded: counters.bytes_uploaded,
                bytes_downloaded: counters.bytes_downloaded,
                bytes_wire: counters.bytes_wire,
                puts: counters.puts,
                delta_puts: counters.delta_puts,
                gets: counters.gets,
                deletes: counters.deletes,
                expired: counters.expired,
                dedup_hits,
            },
        };
        wal.compact(std::iter::once(snapshot.encode()));
        true
    }
}

/// What [`ObjectStore::recover`] reconstructed and what it had to
/// drop.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreRecovery {
    /// Framing-layer replay statistics (records, corruption, torn
    /// bytes).
    pub stats: rai_wal::ReplayStats,
    /// Logical records applied.
    pub applied: u64,
    /// Records whose payload failed to decode (dropped, counted).
    pub malformed_dropped: u64,
    /// Objects discarded because their chunk bytes were lost with a
    /// corrupt record.
    pub objects_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_archive::chunk::chunk_bytes;
    use rai_sim::SimDuration;

    fn store() -> ObjectStore {
        let s = ObjectStore::new(VirtualClock::new());
        s.create_bucket("uploads", LifecycleRule::one_month_after_last_use())
            .unwrap();
        s.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90)))
            .unwrap();
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        s
    }

    /// Non-repeating payload so every chunk of it gets a distinct
    /// digest (uniform payloads dedup against themselves).
    fn varied(len: usize, seed: u64) -> Vec<u8> {
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
    fn put_get_round_trip() {
        let s = store();
        let etag = s.put("uploads", "team1/proj.tar", &b"bytes"[..], []).unwrap();
        let obj = s.get("uploads", "team1/proj.tar").unwrap();
        assert_eq!(obj.data.as_ref(), b"bytes");
        assert_eq!(obj.meta.etag, etag);
        assert_eq!(obj.meta.size, 5);
    }

    #[test]
    fn missing_bucket_and_key() {
        let s = store();
        assert!(matches!(
            s.put("nope", "k", &b""[..], []),
            Err(StoreError::NoSuchBucket(_))
        ));
        assert!(matches!(
            s.get("uploads", "missing"),
            Err(StoreError::NoSuchKey { .. })
        ));
        assert!(matches!(
            s.delete("uploads", "missing"),
            Err(StoreError::NoSuchKey { .. })
        ));
        assert!(matches!(
            s.create_bucket("keep", LifecycleRule::Keep),
            Err(StoreError::BucketExists(_))
        ));
    }

    #[test]
    fn overwrite_replaces_content() {
        let s = store();
        s.put("uploads", "k", &b"v1"[..], []).unwrap();
        s.put("uploads", "k", &b"v2!"[..], []).unwrap();
        assert_eq!(s.get("uploads", "k").unwrap().data.as_ref(), b"v2!");
        assert_eq!(s.usage().objects, 1);
        assert_eq!(s.usage().bytes_uploaded, 5, "uploads accumulate");
        assert_eq!(s.usage().bytes_stored, 3, "stored reflects current");
        assert_eq!(s.usage().bytes_physical, 3, "old chunks released");
    }

    #[test]
    fn list_by_prefix_is_ordered() {
        let s = store();
        s.put("uploads", "team2/a", &b""[..], []).unwrap();
        s.put("uploads", "team1/b", &b""[..], []).unwrap();
        s.put("uploads", "team1/a", &b""[..], []).unwrap();
        let keys: Vec<String> = s
            .list("uploads", "team1/")
            .unwrap()
            .into_iter()
            .map(|m| m.key)
            .collect();
        assert_eq!(keys, vec!["team1/a", "team1/b"]);
        assert_eq!(s.list("uploads", "").unwrap().len(), 3);
    }

    #[test]
    fn user_metadata_preserved() {
        let s = store();
        s.put(
            "uploads",
            "k",
            &b""[..],
            [("team".to_string(), "rust".to_string())],
        )
        .unwrap();
        let meta = s.head("uploads", "k").unwrap();
        assert_eq!(meta.user.get("team").map(String::as_str), Some("rust"));
    }

    #[test]
    fn lifecycle_after_upload() {
        let s = store();
        s.put("builds", "old", &b"x"[..], []).unwrap();
        s.clock().advance(SimDuration::from_days(91));
        s.put("builds", "new", &b"y"[..], []).unwrap();
        assert_eq!(s.sweep_lifecycle(), 1);
        assert!(s.get("builds", "old").is_err());
        assert!(s.get("builds", "new").is_ok());
        assert_eq!(s.usage().expired, 1);
    }

    #[test]
    fn lifecycle_last_use_refresh_keeps_object_alive() {
        let s = store();
        s.put("uploads", "proj", &b"x"[..], []).unwrap();
        // Touch it every 20 days for 100 days — survives a 30-day rule.
        for _ in 0..5 {
            s.clock().advance(SimDuration::from_days(20));
            s.get("uploads", "proj").unwrap();
            assert_eq!(s.sweep_lifecycle(), 0);
        }
        // Then go idle for 31 days.
        s.clock().advance(SimDuration::from_days(31));
        assert_eq!(s.sweep_lifecycle(), 1);
    }

    #[test]
    fn head_does_not_refresh_last_use() {
        let s = store();
        s.put("uploads", "proj", &b"x"[..], []).unwrap();
        s.clock().advance(SimDuration::from_days(29));
        s.head("uploads", "proj").unwrap();
        s.clock().advance(SimDuration::from_days(2));
        assert_eq!(s.sweep_lifecycle(), 1, "head must not reset the clock");
    }

    #[test]
    fn usage_counters() {
        let s = store();
        s.put("keep", "a", vec![0u8; 100], []).unwrap();
        s.put("keep", "b", vec![0u8; 50], []).unwrap();
        s.get("keep", "a").unwrap();
        s.delete("keep", "b").unwrap();
        let u = s.usage();
        assert_eq!(u.puts, 2);
        assert_eq!(u.gets, 1);
        assert_eq!(u.deletes, 1);
        assert_eq!(u.bytes_uploaded, 150);
        assert_eq!(u.bytes_downloaded, 100);
        assert_eq!(u.bytes_stored, 100);
        assert_eq!(u.objects, 1);
    }

    #[test]
    fn identical_payloads_share_chunks() {
        let s = store();
        let payload = varied(4000, 7);
        s.put("keep", "a", payload.clone(), []).unwrap();
        s.put("keep", "b", payload.clone(), []).unwrap();
        s.put("uploads", "c", payload.clone(), []).unwrap();
        let u = s.usage();
        assert_eq!(u.bytes_stored, 12_000, "logical triples");
        assert_eq!(u.bytes_physical, 4_000, "physical stays one copy");
        assert!(u.chunks_dedup_total > 0);
        // Every copy reads back intact.
        assert_eq!(s.get("keep", "b").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(s.get("uploads", "c").unwrap().data.as_ref(), &payload[..]);
    }

    #[test]
    fn delete_frees_chunks_only_at_last_reference() {
        let s = store();
        let payload = varied(2000, 13);
        s.put("keep", "a", payload.clone(), []).unwrap();
        s.put("keep", "b", payload.clone(), []).unwrap();
        s.delete("keep", "a").unwrap();
        let u = s.usage();
        assert_eq!(u.bytes_physical, 2000, "b still references the chunks");
        assert_eq!(s.get("keep", "b").unwrap().data.as_ref(), &payload[..]);
        s.delete("keep", "b").unwrap();
        let u = s.usage();
        assert_eq!(u.bytes_physical, 0);
        assert_eq!(u.chunks, 0);
    }

    #[test]
    fn expiry_spares_chunks_shared_with_live_objects() {
        let s = store();
        let payload = varied(3000, 17);
        // One copy in a bucket that expires, one in a bucket that keeps.
        s.put("builds", "doomed", payload.clone(), []).unwrap();
        s.put("keep", "survivor", payload.clone(), []).unwrap();
        s.clock().advance(SimDuration::from_days(91));
        assert_eq!(s.sweep_lifecycle(), 1);
        let u = s.usage();
        assert_eq!(u.objects, 1);
        assert_eq!(u.bytes_physical, 3000, "shared chunks must survive expiry");
        assert_eq!(
            s.get("keep", "survivor").unwrap().data.as_ref(),
            &payload[..],
            "survivor still reassembles after the sweep"
        );
        // Once the survivor goes too, the chunks are actually freed.
        s.delete("keep", "survivor").unwrap();
        assert_eq!(s.usage().bytes_physical, 0);
    }

    #[test]
    fn has_chunks_reports_residency() {
        let s = store();
        let payload = vec![5u8; 1000];
        let (manifest, _) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        let flags = s.has_chunks(&manifest.digests()).unwrap();
        assert!(flags.iter().all(|&f| !f), "nothing resident yet");
        s.put("keep", "a", payload, []).unwrap();
        let flags = s.has_chunks(&manifest.digests()).unwrap();
        assert!(flags.iter().all(|&f| f), "all resident after put");
    }

    #[test]
    fn put_delta_round_trips_and_saves_wire_bytes() {
        let s = store();
        let payload = varied(5000, 1);
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        // First upload must carry everything.
        let etag = s.put_delta("keep", "a", &manifest, &chunks, []).unwrap();
        assert_eq!(s.get("keep", "a").unwrap().data.as_ref(), &payload[..]);
        assert_eq!(s.get("keep", "a").unwrap().meta.etag, etag);
        // Second upload of the same content: manifest only.
        s.put_delta("keep", "b", &manifest, &[], []).unwrap();
        assert_eq!(s.get("keep", "b").unwrap().data.as_ref(), &payload[..]);
        let u = s.usage();
        assert_eq!(u.delta_puts, 2);
        assert_eq!(u.bytes_uploaded, 10_000, "logical counts both");
        assert_eq!(
            u.bytes_wire,
            5_000 + 2 * manifest.encoded_len(),
            "second upload ships the manifest only, no chunk bytes"
        );
        assert_eq!(u.bytes_physical, 5_000);
    }

    #[test]
    fn put_delta_missing_chunks_is_atomic() {
        let s = store();
        let payload = varied(4000, 2);
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        assert!(manifest.chunks.len() >= 2, "payload must span chunks");
        // Send all but one chunk against an empty store.
        let partial = &chunks[1..];
        let err = s.put_delta("keep", "a", &manifest, partial, []).unwrap_err();
        match err {
            StoreError::MissingChunks { missing } => {
                assert_eq!(missing, vec![chunks[0].digest]);
            }
            other => panic!("expected MissingChunks, got {other:?}"),
        }
        // Nothing was stored, nothing leaked.
        let u = s.usage();
        assert_eq!(u.objects, 0);
        assert_eq!(u.bytes_physical, 0);
        assert_eq!(u.chunks, 0);
        assert!(s.get("keep", "a").is_err());
    }

    #[test]
    fn put_delta_rejects_corrupt_chunks() {
        let s = store();
        let payload = vec![4u8; 1000];
        let (manifest, mut chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        chunks[0].data = Bytes::copy_from_slice(b"not the real bytes");
        assert!(matches!(
            s.put_delta("keep", "a", &manifest, &chunks, []),
            Err(StoreError::DeltaMismatch { .. })
        ));
        let mut bad = manifest.clone();
        bad.total_len += 1;
        assert!(matches!(
            s.put_delta("keep", "a", &bad, &[], []),
            Err(StoreError::DeltaMismatch { .. })
        ));
    }

    #[test]
    fn presigned_url_round_trip_and_expiry() {
        let s = store();
        s.put("keep", "build.tar", &b"artifact"[..], []).unwrap();
        let url = s.presign("keep", "build.tar", SimTime::ZERO + SimDuration::from_days(7));
        assert!(url.starts_with("rai-s3://keep/build.tar?"));
        assert_eq!(s.get_presigned(&url).unwrap().data.as_ref(), b"artifact");
        // Tampered key fails.
        let tampered = url.replace("build.tar", "other.tar");
        assert_eq!(s.get_presigned(&tampered), Err(StoreError::BadPresignedUrl));
        // Tampered expiry fails (signature covers it).
        let extended = url.replace("expires=", "expires=9");
        assert_eq!(s.get_presigned(&extended), Err(StoreError::BadPresignedUrl));
        // Garbage fails.
        assert_eq!(s.get_presigned("http://nope"), Err(StoreError::BadPresignedUrl));
        // After expiry it stops working.
        s.clock().advance(SimDuration::from_days(8));
        assert_eq!(s.get_presigned(&url), Err(StoreError::BadPresignedUrl));
    }

    #[test]
    fn presigned_urls_differ_across_stores() {
        let a = store();
        let b = store();
        a.put("keep", "k", &b"x"[..], []).unwrap();
        b.put("keep", "k", &b"x"[..], []).unwrap();
        let url_a = a.presign("keep", "k", SimTime::ZERO + SimDuration::from_days(1));
        assert!(b.get_presigned(&url_a).is_err(), "cross-store URLs must not validate");
    }

    #[test]
    fn fault_injection_fails_then_recovers() {
        let s = store();
        s.put("keep", "k", &b"v"[..], []).unwrap();
        s.inject_faults(2);
        assert_eq!(s.get("keep", "k"), Err(StoreError::Unavailable));
        assert_eq!(s.put("keep", "k2", &b"v"[..], []), Err(StoreError::Unavailable));
        // Budget exhausted: service recovers.
        assert!(s.get("keep", "k").is_ok());
        assert!(s.put("keep", "k2", &b"v"[..], []).is_ok());
    }

    #[test]
    fn seeded_injector_fails_ops_reproducibly() {
        let run = || {
            let s = store();
            s.set_fault_injector(rai_faults::FaultInjector::new(rai_faults::FaultPlan {
                store_put: 0.2,
                store_get: 0.2,
                ..rai_faults::FaultPlan::none(5)
            }));
            let mut outcomes = Vec::new();
            for i in 0..100 {
                outcomes.push(s.put("keep", &format!("k{i}"), &b"v"[..], []).is_err());
                outcomes.push(s.get("keep", &format!("k{i}")).is_err());
            }
            outcomes
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same fault stream");
        assert!(a.iter().any(|&e| e), "p=0.2 over 200 ops should fire");
        assert!(a.iter().any(|&e| !e), "and should not fire every time");
    }

    fn durable_store(config: rai_wal::DurabilityConfig) -> (ObjectStore, rai_wal::MemDisk) {
        let disk = rai_wal::MemDisk::new();
        let wal = rai_wal::Wal::open(Arc::new(disk.clone()), config);
        let s = ObjectStore::new(VirtualClock::new());
        // Attach before the first mutation so the log covers the
        // store's whole history, bucket creation included.
        s.attach_wal(wal);
        s.create_bucket("uploads", LifecycleRule::one_month_after_last_use())
            .unwrap();
        s.create_bucket("builds", LifecycleRule::AfterUpload(SimDuration::from_days(90)))
            .unwrap();
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        (s, disk)
    }

    fn reopen(disk: &rai_wal::MemDisk, clock: VirtualClock) -> (ObjectStore, StoreRecovery) {
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig::durable(),
        );
        ObjectStore::recover(clock, wal)
    }

    fn fingerprint(s: &ObjectStore) -> (StoreUsage, Vec<(String, Vec<ObjectMeta>)>) {
        let listings = ["builds", "keep", "uploads"]
            .iter()
            .filter(|b| s.has_bucket(b))
            .map(|b| (b.to_string(), s.list(b, "").unwrap()))
            .collect();
        (s.usage(), listings)
    }

    #[test]
    fn recover_replays_to_identical_state() {
        let (s, disk) = durable_store(rai_wal::DurabilityConfig::durable());
        let payload = varied(5000, 21);
        s.put("uploads", "team1/proj.tar", payload.clone(), []).unwrap();
        // Identical re-upload via delta: exercises dedup in the log
        // (the second Put journals zero new chunk bytes).
        let (manifest, chunks) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        s.put_delta("keep", "copy", &manifest, &chunks, []).unwrap();
        s.put("builds", "b1", varied(800, 22), [("job".into(), "42".into())])
            .unwrap();
        s.clock().advance(SimDuration::from_days(10));
        s.get("uploads", "team1/proj.tar").unwrap();
        s.put("builds", "b1", varied(900, 23), []).unwrap(); // overwrite
        s.put("builds", "gone", &b"x"[..], []).unwrap();
        s.delete("builds", "gone").unwrap();
        s.clock().advance(SimDuration::from_days(95));
        assert!(s.sweep_lifecycle() > 0, "builds + stale uploads expire");
        s.sync_wal();

        let clock = VirtualClock::new();
        clock.advance(SimDuration::from_days(105));
        let (r, recovery) = reopen(&disk, clock);
        assert_eq!(recovery.stats.corrupt_dropped, 0);
        assert_eq!(recovery.malformed_dropped, 0);
        assert_eq!(recovery.objects_dropped, 0);
        assert!(recovery.applied > 0);
        assert_eq!(fingerprint(&r), fingerprint(&s), "replayed state must be identical");
        assert_eq!(
            r.get("keep", "copy").unwrap().data.as_ref(),
            &payload[..],
            "payloads reassemble from replayed chunks"
        );

        // The recovered store keeps journaling: mutate, reopen again.
        r.put("keep", "after", &b"post-recovery"[..], []).unwrap();
        r.sync_wal();
        let (r2, _) = reopen(&disk, VirtualClock::new());
        assert_eq!(fingerprint(&r2), fingerprint(&r));
        assert_eq!(r2.get("keep", "after").unwrap().data.as_ref(), b"post-recovery");
    }

    #[test]
    fn store_compaction_preserves_state_and_shrinks_log() {
        let disk = rai_wal::MemDisk::new();
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig {
                compact_min_bytes: 1,
                compact_factor: 2,
                ..rai_wal::DurabilityConfig::durable()
            },
        );
        let s = ObjectStore::new(VirtualClock::new());
        s.attach_wal(wal);
        s.create_bucket("keep", LifecycleRule::Keep).unwrap();
        // Overwrite one key many times: the log accumulates dead puts
        // the snapshot does not carry.
        for i in 0..50u64 {
            s.put("keep", "hot", varied(1200, i), []).unwrap();
        }
        s.sync_wal();
        let before = disk.total_bytes();
        assert!(s.maybe_compact(), "50 dead overwrites must trip the threshold");
        let after = disk.total_bytes();
        assert!(
            after * 4 < before,
            "snapshot should be far smaller than the log ({after} vs {before})"
        );
        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert_eq!(recovery.objects_dropped, 0);
        assert_eq!(fingerprint(&r), fingerprint(&s));
        assert_eq!(
            r.get("keep", "hot").unwrap().data,
            s.get("keep", "hot").unwrap().data
        );
    }

    #[test]
    fn torn_tail_loses_only_unsynced_puts() {
        let (s, disk) = durable_store(rai_wal::DurabilityConfig::durable());
        let a = varied(2000, 31);
        s.put("keep", "synced", a.clone(), []).unwrap();
        s.sync_wal();
        s.put("keep", "unsynced", varied(2000, 32), []).unwrap();
        let profile = rai_faults::DiskFaultProfile {
            torn_tail: 1.0,
            ..rai_faults::DiskFaultProfile::none(9)
        };
        let faults = disk.crash_with(&profile, 0);
        assert!(!faults.is_empty(), "profile guarantees a torn tail");
        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert!(
            recovery.stats.torn_bytes > 0 || recovery.stats.corrupt_dropped > 0,
            "the tear must be detected, not silently accepted"
        );
        assert_eq!(
            r.get("keep", "synced").unwrap().data.as_ref(),
            &a[..],
            "synced object survives intact"
        );
        let objects = r.usage().objects;
        assert!(objects == 1 || objects == 2, "unsynced put may or may not survive");
        // Whatever survived is fully readable.
        for meta in r.list("keep", "").unwrap() {
            r.get("keep", &meta.key).unwrap();
        }
    }

    #[test]
    fn replay_drops_objects_whose_chunk_bytes_were_lost() {
        let disk = rai_wal::MemDisk::new();
        let wal = rai_wal::Wal::open(
            Arc::new(disk.clone()),
            rai_wal::DurabilityConfig::durable(),
        );
        let payload = varied(3000, 41);
        let (manifest, _) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        wal.append(
            &StoreRecord::CreateBucket { name: "keep".into(), rule: LifecycleRule::Keep }
                .encode(),
        );
        // A dedup'd Put whose chunk bytes rode an earlier record that
        // was dropped as corrupt: nothing in the log carries the bytes.
        wal.append(
            &StoreRecord::Put {
                bucket: "keep".into(),
                key: "orphan".into(),
                time_millis: 0,
                manifest,
                new_chunks: Vec::new(),
                user: BTreeMap::new(),
                wire_bytes: 0,
                delta: true,
            }
            .encode(),
        );
        wal.sync();
        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert_eq!(recovery.objects_dropped, 1, "unreadable object must be dropped");
        assert_eq!(r.usage().objects, 0);
        assert_eq!(r.usage().bytes_physical, 0, "no orphaned chunks linger");
        // The store stays fully functional.
        r.put("keep", "fresh", &b"ok"[..], []).unwrap();
        assert_eq!(r.get("keep", "fresh").unwrap().data.as_ref(), b"ok");
    }

    #[test]
    fn unknown_record_tag_replays_as_malformed() {
        let (s, disk) = durable_store(rai_wal::DurabilityConfig::durable());
        s.put("keep", "before", &b"one"[..], []).unwrap();
        // A record under an unassigned tag (7 once carried per-shard
        // chunk installs) between two valid puts.
        let mut unknown = vec![7u8];
        unknown.extend_from_slice(&0xFEED_FACEu64.to_le_bytes());
        s.wal().unwrap().append(&unknown);
        s.put("keep", "after", &b"two"[..], []).unwrap();
        s.sync_wal();
        let (r, recovery) = reopen(&disk, VirtualClock::new());
        assert_eq!(recovery.malformed_dropped, 1);
        assert_eq!(recovery.objects_dropped, 0);
        assert_eq!(r.get("keep", "before").unwrap().data.as_ref(), b"one");
        assert_eq!(r.get("keep", "after").unwrap().data.as_ref(), b"two");
    }

    #[test]
    fn presence_reads_take_no_write_locks() {
        let s = store();
        let payload = varied(5000, 7);
        s.put("uploads", "team/proj.tar", payload.clone(), []).unwrap();
        let (manifest, _) = chunk_bytes(&payload, ChunkerParams::DEFAULT);
        let mut digests: Vec<u64> = manifest.chunks.iter().map(|r| r.digest).collect();
        digests.push(0xdead_beef_dead_beef); // absent digest probes the same path
        let writes_before = s.inner.arena.write_acquisitions();
        let reads_before = s.inner.arena.read_acquisitions();
        let flags = s.has_chunks(&digests).unwrap();
        assert!(flags[..flags.len() - 1].iter().all(|&f| f));
        assert!(!flags[flags.len() - 1]);
        assert_eq!(
            s.inner.arena.write_acquisitions(),
            writes_before,
            "presence checks must never take the exclusive arena lock"
        );
        assert_eq!(
            s.inner.arena.read_acquisitions(),
            reads_before + 1,
            "one probe batch costs exactly one shared-guard acquisition"
        );
    }

    #[test]
    fn concurrent_puts_and_gets() {
        let s = store();
        let mut handles = Vec::new();
        for t in 0..8 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let key = format!("t{t}/obj{i}");
                    s.put("keep", &key, vec![t as u8; 10], []).unwrap();
                    let got = s.get("keep", &key).unwrap();
                    assert_eq!(got.data.len(), 10);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.usage().objects, 400);
    }
}
