//! Durability for the object store: logical records journaled to a
//! [`rai_wal::Wal`] and replayed by
//! [`ObjectStore::recover`](crate::ObjectStore::recover).
//!
//! A [`StoreRecord::Put`] journals the manifest plus only the chunk
//! bytes that were *newly admitted* to the arena by that put — dedup
//! hits reference bytes an earlier record already carries, so the log
//! inherits the store's own dedup ratio. Replay re-runs the retain
//! logic, which reconstructs refcounts and dedup accounting; an object
//! whose chunk bytes were lost to a corrupt-record drop is itself
//! dropped (and counted) rather than installed unreadable.
//!
//! Timestamps are journaled (`uploaded_at`/`last_used` drive lifecycle
//! expiry) because replay runs at recovery time, not historical time.

use crate::lifecycle::LifecycleRule;
use crate::object::ObjectMeta;
use bytes::Bytes;
use rai_archive::chunk::{ChunkManifest, ChunkRef};
use rai_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

// ---- primitive codec -------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Some(out)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }

    fn bytes(&mut self) -> Option<Bytes> {
        let len = self.u32()? as usize;
        self.take(len).map(Bytes::copy_from_slice)
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn encode_rule(rule: &LifecycleRule, out: &mut Vec<u8>) {
    match rule {
        LifecycleRule::Keep => out.push(0),
        LifecycleRule::AfterUpload(d) => {
            out.push(1);
            put_u64(out, d.as_millis());
        }
        LifecycleRule::AfterLastUse(d) => {
            out.push(2);
            put_u64(out, d.as_millis());
        }
    }
}

fn decode_rule(r: &mut Reader<'_>) -> Option<LifecycleRule> {
    Some(match r.u8()? {
        0 => LifecycleRule::Keep,
        1 => LifecycleRule::AfterUpload(SimDuration::from_millis(r.u64()?)),
        2 => LifecycleRule::AfterLastUse(SimDuration::from_millis(r.u64()?)),
        _ => return None,
    })
}

fn encode_manifest(m: &ChunkManifest, out: &mut Vec<u8>) {
    put_u32(out, m.chunks.len() as u32);
    for c in &m.chunks {
        put_u64(out, c.digest);
        put_u32(out, c.len);
    }
    put_u64(out, m.total_len);
    put_str(out, &m.etag);
}

fn decode_manifest(r: &mut Reader<'_>) -> Option<ChunkManifest> {
    let n = r.u32()? as usize;
    let mut chunks = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        chunks.push(ChunkRef { digest: r.u64()?, len: r.u32()? });
    }
    Some(ChunkManifest { chunks, total_len: r.u64()?, etag: r.str()? })
}

fn encode_user(user: &BTreeMap<String, String>, out: &mut Vec<u8>) {
    put_u32(out, user.len() as u32);
    for (k, v) in user {
        put_str(out, k);
        put_str(out, v);
    }
}

fn decode_user(r: &mut Reader<'_>) -> Option<BTreeMap<String, String>> {
    let n = r.u32()? as usize;
    let mut user = BTreeMap::new();
    for _ in 0..n {
        let k = r.str()?;
        let v = r.str()?;
        user.insert(k, v);
    }
    Some(user)
}

fn encode_chunk_list(chunks: &[(u64, Bytes)], out: &mut Vec<u8>) {
    put_u32(out, chunks.len() as u32);
    for (digest, data) in chunks {
        put_u64(out, *digest);
        put_bytes(out, data);
    }
}

fn decode_chunk_list(r: &mut Reader<'_>) -> Option<Vec<(u64, Bytes)>> {
    let n = r.u32()? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let digest = r.u64()?;
        out.push((digest, r.bytes()?));
    }
    Some(out)
}

fn encode_meta(meta: &ObjectMeta, out: &mut Vec<u8>) {
    put_str(out, &meta.key);
    put_u64(out, meta.size);
    put_str(out, &meta.etag);
    put_u64(out, meta.uploaded_at.as_millis());
    put_u64(out, meta.last_used.as_millis());
    encode_user(&meta.user, out);
}

fn decode_meta(r: &mut Reader<'_>) -> Option<ObjectMeta> {
    Some(ObjectMeta {
        key: r.str()?,
        size: r.u64()?,
        etag: r.str()?,
        uploaded_at: SimTime::from_millis(r.u64()?),
        last_used: SimTime::from_millis(r.u64()?),
        user: decode_user(r)?,
    })
}

// ---- snapshot payload ------------------------------------------------

/// One object inside a [`StoreRecord::SnapshotStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapObject {
    /// Full metadata (timestamps included).
    pub meta: ObjectMeta,
    /// The object's chunk manifest.
    pub manifest: ChunkManifest,
}

/// One bucket inside a [`StoreRecord::SnapshotStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapBucket {
    /// Bucket name.
    pub name: String,
    /// Lifecycle rule.
    pub rule: LifecycleRule,
    /// Every object, in key order.
    pub objects: Vec<SnapObject>,
}

/// Cumulative store counters carried by a snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapCounters {
    /// Logical bytes ever uploaded.
    pub bytes_uploaded: u64,
    /// Bytes ever served.
    pub bytes_downloaded: u64,
    /// Wire bytes ever shipped on uploads.
    pub bytes_wire: u64,
    /// Put operations.
    pub puts: u64,
    /// Delta-put operations.
    pub delta_puts: u64,
    /// Get operations.
    pub gets: u64,
    /// Explicit deletes.
    pub deletes: u64,
    /// Lifecycle expirations.
    pub expired: u64,
    /// Dedup hits in the chunk arena.
    pub dedup_hits: u64,
}

// ---- logical records -------------------------------------------------

/// One committed store mutation, as journaled to the WAL.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRecord {
    /// `create_bucket(name, rule)`.
    CreateBucket {
        /// Bucket name.
        name: String,
        /// Lifecycle rule.
        rule: LifecycleRule,
    },
    /// A successful `put`/`put_delta`: manifest plus only the chunks
    /// this put newly admitted to the arena.
    Put {
        /// Target bucket.
        bucket: String,
        /// Object key.
        key: String,
        /// Upload time (becomes `uploaded_at` and `last_used`).
        time_millis: u64,
        /// The object's manifest.
        manifest: ChunkManifest,
        /// Chunks admitted by this put: `(digest, bytes)`.
        new_chunks: Vec<(u64, Bytes)>,
        /// User metadata.
        user: BTreeMap<String, String>,
        /// Wire bytes this upload cost (for counter reconstruction).
        wire_bytes: u64,
        /// Whether this was a delta put.
        delta: bool,
    },
    /// A successful `get`: refreshes `last_used` (lifecycle-relevant)
    /// and reconstructs download counters.
    Touch {
        /// Target bucket.
        bucket: String,
        /// Object key.
        key: String,
        /// Access time.
        time_millis: u64,
        /// Object size at access (for `bytes_downloaded`).
        size: u64,
    },
    /// A successful `delete`.
    Delete {
        /// Target bucket.
        bucket: String,
        /// Object key.
        key: String,
    },
    /// A lifecycle sweep that expired at least one object, replayed at
    /// its recorded time.
    Sweep {
        /// Sweep time.
        time_millis: u64,
    },
    /// Compaction snapshot of the whole store: buckets, objects,
    /// distinct chunk bytes, and cumulative counters.
    SnapshotStore {
        /// Every bucket, in name order.
        buckets: Vec<SnapBucket>,
        /// Every distinct resident chunk, in digest order.
        chunks: Vec<(u64, Bytes)>,
        /// Cumulative counters.
        counters: SnapCounters,
    },
}

impl StoreRecord {
    /// Serialize to a WAL payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            StoreRecord::CreateBucket { name, rule } => {
                out.push(1);
                put_str(&mut out, name);
                encode_rule(rule, &mut out);
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
                out.push(2);
                put_str(&mut out, bucket);
                put_str(&mut out, key);
                put_u64(&mut out, *time_millis);
                encode_manifest(manifest, &mut out);
                encode_chunk_list(new_chunks, &mut out);
                encode_user(user, &mut out);
                put_u64(&mut out, *wire_bytes);
                out.push(u8::from(*delta));
            }
            StoreRecord::Touch { bucket, key, time_millis, size } => {
                out.push(3);
                put_str(&mut out, bucket);
                put_str(&mut out, key);
                put_u64(&mut out, *time_millis);
                put_u64(&mut out, *size);
            }
            StoreRecord::Delete { bucket, key } => {
                out.push(4);
                put_str(&mut out, bucket);
                put_str(&mut out, key);
            }
            StoreRecord::Sweep { time_millis } => {
                out.push(5);
                put_u64(&mut out, *time_millis);
            }
            StoreRecord::SnapshotStore { buckets, chunks, counters } => {
                out.push(6);
                put_u32(&mut out, buckets.len() as u32);
                for b in buckets {
                    put_str(&mut out, &b.name);
                    encode_rule(&b.rule, &mut out);
                    put_u32(&mut out, b.objects.len() as u32);
                    for o in &b.objects {
                        encode_meta(&o.meta, &mut out);
                        encode_manifest(&o.manifest, &mut out);
                    }
                }
                encode_chunk_list(chunks, &mut out);
                let c = counters;
                for v in [
                    c.bytes_uploaded,
                    c.bytes_downloaded,
                    c.bytes_wire,
                    c.puts,
                    c.delta_puts,
                    c.gets,
                    c.deletes,
                    c.expired,
                    c.dedup_hits,
                ] {
                    put_u64(&mut out, v);
                }
            }
        }
        out
    }

    /// Deserialize a WAL payload. `None` on malformed input (dropped
    /// and counted by recovery, never a panic).
    pub fn decode(bytes: &[u8]) -> Option<StoreRecord> {
        let mut r = Reader::new(bytes);
        let rec = match r.u8()? {
            1 => StoreRecord::CreateBucket { name: r.str()?, rule: decode_rule(&mut r)? },
            2 => StoreRecord::Put {
                bucket: r.str()?,
                key: r.str()?,
                time_millis: r.u64()?,
                manifest: decode_manifest(&mut r)?,
                new_chunks: decode_chunk_list(&mut r)?,
                user: decode_user(&mut r)?,
                wire_bytes: r.u64()?,
                delta: r.u8()? != 0,
            },
            3 => StoreRecord::Touch {
                bucket: r.str()?,
                key: r.str()?,
                time_millis: r.u64()?,
                size: r.u64()?,
            },
            4 => StoreRecord::Delete { bucket: r.str()?, key: r.str()? },
            5 => StoreRecord::Sweep { time_millis: r.u64()? },
            6 => {
                let nb = r.u32()? as usize;
                let mut buckets = Vec::with_capacity(nb.min(1 << 10));
                for _ in 0..nb {
                    let name = r.str()?;
                    let rule = decode_rule(&mut r)?;
                    let no = r.u32()? as usize;
                    let mut objects = Vec::with_capacity(no.min(1 << 16));
                    for _ in 0..no {
                        let meta = decode_meta(&mut r)?;
                        let manifest = decode_manifest(&mut r)?;
                        objects.push(SnapObject { meta, manifest });
                    }
                    buckets.push(SnapBucket { name, rule, objects });
                }
                let chunks = decode_chunk_list(&mut r)?;
                let mut vals = [0u64; 9];
                for v in &mut vals {
                    *v = r.u64()?;
                }
                StoreRecord::SnapshotStore {
                    buckets,
                    chunks,
                    counters: SnapCounters {
                        bytes_uploaded: vals[0],
                        bytes_downloaded: vals[1],
                        bytes_wire: vals[2],
                        puts: vals[3],
                        delta_puts: vals[4],
                        gets: vals[5],
                        deletes: vals[6],
                        expired: vals[7],
                        dedup_hits: vals[8],
                    },
                }
            }
            _ => return None,
        };
        r.done().then_some(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let manifest = ChunkManifest {
            chunks: vec![
                ChunkRef { digest: 0xDEAD, len: 4 },
                ChunkRef { digest: 0xBEEF, len: 6 },
            ],
            total_len: 10,
            etag: "fnv1a:abc".into(),
        };
        let records = vec![
            StoreRecord::CreateBucket {
                name: "uploads".into(),
                rule: LifecycleRule::AfterLastUse(SimDuration::from_days(30)),
            },
            StoreRecord::Put {
                bucket: "uploads".into(),
                key: "team/x.tar".into(),
                time_millis: 123_456,
                manifest: manifest.clone(),
                new_chunks: vec![(0xDEAD, Bytes::from_static(b"abcd"))],
                user: [("team".to_string(), "a".to_string())].into_iter().collect(),
                wire_bytes: 42,
                delta: true,
            },
            StoreRecord::Touch {
                bucket: "uploads".into(),
                key: "team/x.tar".into(),
                time_millis: 200_000,
                size: 10,
            },
            StoreRecord::Delete { bucket: "uploads".into(), key: "team/x.tar".into() },
            StoreRecord::Sweep { time_millis: 300_000 },
            StoreRecord::SnapshotStore {
                buckets: vec![SnapBucket {
                    name: "uploads".into(),
                    rule: LifecycleRule::Keep,
                    objects: vec![SnapObject {
                        meta: ObjectMeta {
                            key: "k".into(),
                            size: 10,
                            etag: "e".into(),
                            uploaded_at: SimTime::from_millis(1),
                            last_used: SimTime::from_millis(2),
                            user: BTreeMap::new(),
                        },
                        manifest,
                    }],
                }],
                chunks: vec![(7, Bytes::from_static(b"zz"))],
                counters: SnapCounters { puts: 3, dedup_hits: 1, ..SnapCounters::default() },
            },
        ];
        for rec in records {
            assert_eq!(StoreRecord::decode(&rec.encode()), Some(rec));
        }
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(StoreRecord::decode(&[]), None);
        assert_eq!(StoreRecord::decode(&[77]), None);
        // Tag 7 is unassigned: a record carrying it is unknown, not a
        // chunk install.
        let mut unknown = vec![7u8];
        unknown.extend_from_slice(&0xFEED_FACEu64.to_le_bytes());
        assert_eq!(StoreRecord::decode(&unknown), None);
        let mut bytes = StoreRecord::Sweep { time_millis: 1 }.encode();
        bytes.push(9);
        assert_eq!(StoreRecord::decode(&bytes), None);
        bytes.truncate(4);
        assert_eq!(StoreRecord::decode(&bytes), None);
    }
}
