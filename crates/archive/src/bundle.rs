//! The top-level pack/unpack API: container + LZSS, playing the role of
//! `tar cjf` / `tar xjf` on the client and worker.

use crate::container::{read_container, write_container, ArchiveError};
use crate::fnv;
use crate::lzss;
use crate::tree::FileTree;

/// A packed project directory — what actually travels to the file
/// server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bundle {
    /// Compressed archive bytes.
    pub bytes: Vec<u8>,
    /// Uncompressed (container) size, for accounting.
    pub uncompressed_len: u64,
    /// ETag of the compressed bytes (FNV-1a hex), matching what the
    /// object store will compute on upload.
    pub etag: String,
}

impl Bundle {
    /// Size of the compressed payload in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the payload is empty (never true — headers are present).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Achieved compression ratio (compressed / uncompressed).
    pub fn ratio(&self) -> f64 {
        if self.uncompressed_len == 0 {
            1.0
        } else {
            self.bytes.len() as f64 / self.uncompressed_len as f64
        }
    }
}

/// Pack a file tree: serialize to the container format, then compress.
pub fn pack(tree: &FileTree) -> Bundle {
    let container = write_container(tree);
    let bytes = lzss::compress(&container);
    Bundle {
        etag: fnv::etag(&bytes),
        uncompressed_len: container.len() as u64,
        bytes,
    }
}

/// Unpack bytes produced by [`pack`] back into a file tree, verifying
/// compression framing and container checksums.
pub fn unpack(bytes: &[u8]) -> Result<FileTree, ArchiveError> {
    let container = lzss::decompress(bytes)?;
    read_container(&container)
}

/// Restore a file tree from either archive format, sniffing the magic:
/// LZSS-compressed bundles (produced by [`pack`]) or raw containers
/// (produced by [`write_container`], the form the dedup store chunks).
///
/// Readers use this instead of [`unpack`] so they keep working across
/// the storage-model migration, where uploads switched from compressed
/// bundles to chunked uncompressed containers (DESIGN.md §10).
pub fn restore(bytes: &[u8]) -> Result<FileTree, ArchiveError> {
    if bytes.starts_with(lzss::MAGIC) {
        unpack(bytes)
    } else {
        read_container(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project() -> FileTree {
        // A plausible student CUDA project; repetitive enough to compress.
        let kernel = "__global__ void conv_forward(float* y, const float* x) {\n    int i = blockIdx.x * blockDim.x + threadIdx.x;\n    y[i] = x[i];\n}\n"
            .repeat(20);
        FileTree::new()
            .with("rai-build.yml", &b"rai:\n  version: 0.1\n  image: webgpu/rai:root\n"[..])
            .with("src/new-forward.cuh", kernel.clone().into_bytes())
            .with("src/main.cu", kernel.into_bytes())
            .with("CMakeLists.txt", &b"cmake_minimum_required(VERSION 3.0)\n"[..])
    }

    #[test]
    fn pack_unpack_round_trip() {
        let t = project();
        let b = pack(&t);
        assert_eq!(unpack(&b.bytes).unwrap(), t);
    }

    #[test]
    fn compresses_real_projects() {
        let b = pack(&project());
        assert!(b.ratio() < 0.5, "expected <0.5 ratio, got {}", b.ratio());
        assert!(b.uncompressed_len > b.len() as u64);
    }

    #[test]
    fn etag_matches_store_etag() {
        let b = pack(&project());
        assert_eq!(b.etag, fnv::etag(&b.bytes));
        assert_eq!(b.etag.len(), 16);
    }

    #[test]
    fn tamper_detected() {
        let mut b = pack(&project());
        let mid = b.bytes.len() / 2;
        b.bytes[mid] ^= 0xFF;
        assert!(unpack(&b.bytes).is_err());
    }

    #[test]
    fn empty_tree() {
        let b = pack(&FileTree::new());
        let t = unpack(&b.bytes).unwrap();
        assert!(t.is_empty());
    }
}
