//! Refcounted content-addressed chunk arena — the physical layer of
//! the store.
//!
//! Objects (see [`crate::store::ObjectStore`]) are manifests of chunk
//! digests; every distinct chunk lives here exactly once with a
//! reference count. Overwrites, deletes and lifecycle expiry release
//! references, and a chunk's bytes are freed only when the last
//! manifest referencing it is gone — which is what makes lifecycle GC
//! safe in the presence of cross-object sharing (DESIGN.md §10).

use bytes::Bytes;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

struct ChunkEntry {
    data: Bytes,
    refs: u64,
}

/// The chunk arena: digest → (bytes, refcount), plus physical-usage
/// accounting.
#[derive(Default)]
pub(crate) struct ChunkStore {
    chunks: BTreeMap<u64, ChunkEntry>,
    physical_bytes: u64,
    dedup_hits: u64,
}

impl ChunkStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a chunk with this digest is resident.
    pub fn contains(&self, digest: u64) -> bool {
        self.chunks.contains_key(&digest)
    }

    /// The chunk's bytes, if resident.
    pub fn data(&self, digest: u64) -> Option<Bytes> {
        self.chunks.get(&digest).map(|e| e.data.clone())
    }

    /// Take one reference on `digest`. If the chunk is already
    /// resident this is a dedup hit and `data` is ignored; otherwise
    /// `data` must carry the bytes, or `Err(())` is returned and no
    /// reference is taken. Returns `Ok(true)` on a dedup hit.
    pub fn retain(&mut self, digest: u64, data: Option<&Bytes>) -> Result<bool, ()> {
        if let Some(entry) = self.chunks.get_mut(&digest) {
            entry.refs += 1;
            self.dedup_hits += 1;
            return Ok(true);
        }
        let Some(data) = data else { return Err(()) };
        self.physical_bytes += data.len() as u64;
        self.chunks.insert(
            digest,
            ChunkEntry {
                data: data.clone(),
                refs: 1,
            },
        );
        Ok(false)
    }

    /// Drop one reference; frees the chunk bytes when the count hits
    /// zero. Releasing an unknown digest is a logic error upstream and
    /// is ignored in release builds.
    pub fn release(&mut self, digest: u64) {
        let Some(entry) = self.chunks.get_mut(&digest) else {
            debug_assert!(false, "release of untracked chunk {digest:016x}");
            return;
        };
        entry.refs -= 1;
        if entry.refs == 0 {
            self.physical_bytes -= entry.data.len() as u64;
            self.chunks.remove(&digest);
        }
    }

    /// Number of distinct resident chunks.
    pub fn count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Bytes actually held (each distinct chunk counted once).
    pub fn physical_bytes(&self) -> u64 {
        self.physical_bytes
    }

    /// Cumulative count of retains that found the chunk already
    /// resident.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    // ---- recovery support (crate::journal) ---------------------------

    /// Every resident chunk in digest order — the physical payload of a
    /// compaction snapshot.
    pub fn snapshot_chunks(&self) -> Vec<(u64, Bytes)> {
        self.chunks.iter().map(|(d, e)| (*d, e.data.clone())).collect()
    }

    /// Install chunk bytes with a zero refcount during snapshot
    /// restore; references are re-derived from object manifests via
    /// [`ChunkStore::ref_existing`]. No-op if the digest is already
    /// resident.
    pub fn restore_chunk(&mut self, digest: u64, data: Bytes) {
        if self.chunks.contains_key(&digest) {
            return;
        }
        self.physical_bytes += data.len() as u64;
        self.chunks.insert(digest, ChunkEntry { data, refs: 0 });
    }

    /// Take one reference on an already-resident chunk without
    /// counting a dedup hit (restore path). Returns `false` if the
    /// digest is not resident.
    pub fn ref_existing(&mut self, digest: u64) -> bool {
        match self.chunks.get_mut(&digest) {
            Some(entry) => {
                entry.refs += 1;
                true
            }
            None => false,
        }
    }

    /// Overwrite the cumulative dedup-hit counter (snapshot restore).
    pub fn set_dedup_hits(&mut self, hits: u64) {
        self.dedup_hits = hits;
    }

    /// Drop chunks no surviving manifest references (objects discarded
    /// during a faulted replay leave their restored bytes orphaned).
    pub fn prune_unreferenced(&mut self) {
        let orphans: Vec<u64> = self
            .chunks
            .iter()
            .filter(|(_, e)| e.refs == 0)
            .map(|(d, _)| *d)
            .collect();
        for digest in orphans {
            if let Some(entry) = self.chunks.remove(&digest) {
                self.physical_bytes -= entry.data.len() as u64;
            }
        }
    }
}

// ---- the locked arena ------------------------------------------------

/// The chunk arena behind one reader-writer lock, plus host-side lock
/// accounting. Mutations (admission, release) take the write half;
/// pure presence reads and accounting sums share the read half.
#[derive(Default)]
pub(crate) struct ChunkArena {
    store: parking_lot::RwLock<ChunkStore>,
    /// Cumulative microseconds spent waiting on the contended lock. A
    /// host fact: surfaced in reports and telemetry, never in
    /// fingerprints.
    lock_wait_micros: AtomicU64,
    /// Exclusive (write) guard acquisitions — lets tests assert that a
    /// pure read path never took the writer lock.
    write_acquisitions: AtomicU64,
    /// Shared (read) guard acquisitions.
    read_acquisitions: AtomicU64,
}

impl ChunkArena {
    /// Lock the arena exclusively (mutation path), charging contended
    /// waits to the lock-wait counter. The uncontended fast path costs
    /// one `try_write`.
    pub fn lock(&self) -> parking_lot::RwLockWriteGuard<'_, ChunkStore> {
        self.write_acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.store.try_write() {
            return g;
        }
        let start = std::time::Instant::now();
        let g = self.store.write();
        self.charge_wait(start);
        g
    }

    /// Lock the arena shared (pure read path): presence checks and
    /// accounting sums run here without excluding each other.
    pub fn read(&self) -> parking_lot::RwLockReadGuard<'_, ChunkStore> {
        self.read_acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.store.try_read() {
            return g;
        }
        let start = std::time::Instant::now();
        let g = self.store.read();
        self.charge_wait(start);
        g
    }

    fn charge_wait(&self, start: std::time::Instant) {
        self.lock_wait_micros
            .fetch_add(start.elapsed().as_micros() as u64, Ordering::Relaxed);
    }

    /// `(chunks, physical_bytes, dedup_hits)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        let g = self.read();
        (g.count(), g.physical_bytes(), g.dedup_hits())
    }

    /// Cumulative contended lock-wait time, in microseconds.
    pub fn lock_wait_micros(&self) -> u64 {
        self.lock_wait_micros.load(Ordering::Relaxed)
    }

    /// Cumulative exclusive-guard acquisitions (tests assert read
    /// paths leave this untouched).
    pub fn write_acquisitions(&self) -> u64 {
        self.write_acquisitions.load(Ordering::Relaxed)
    }

    /// Cumulative shared-guard acquisitions.
    pub fn read_acquisitions(&self) -> u64 {
        self.read_acquisitions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &[u8]) -> Bytes {
        Bytes::copy_from_slice(s)
    }

    #[test]
    fn retain_release_lifecycle() {
        let mut cs = ChunkStore::new();
        assert_eq!(cs.retain(1, Some(&b(b"aaaa"))), Ok(false));
        assert_eq!(cs.retain(1, None), Ok(true), "second ref is a dedup hit");
        assert_eq!(cs.count(), 1);
        assert_eq!(cs.physical_bytes(), 4);
        assert_eq!(cs.dedup_hits(), 1);
        cs.release(1);
        assert!(cs.contains(1), "one ref left");
        cs.release(1);
        assert!(!cs.contains(1));
        assert_eq!(cs.physical_bytes(), 0);
    }

    #[test]
    fn retain_without_data_fails_for_unknown_chunk() {
        let mut cs = ChunkStore::new();
        assert_eq!(cs.retain(42, None), Err(()));
        assert!(!cs.contains(42));
    }

    #[test]
    fn distinct_chunks_accumulate_physical_bytes() {
        let mut cs = ChunkStore::new();
        cs.retain(1, Some(&b(b"xx"))).unwrap();
        cs.retain(2, Some(&b(b"yyy"))).unwrap();
        assert_eq!(cs.physical_bytes(), 5);
        assert_eq!(cs.count(), 2);
        assert_eq!(cs.data(2).unwrap().as_ref(), b"yyy");
        assert_eq!(cs.data(3), None);
    }
}
