//! Seeded paper-sized project trees for the `deadline-payloads`
//! workload.
//!
//! The paper gives only the mean upload: 100 GB over more than 40,000
//! submissions, about 2.5 MB each. What filled a tree is taken from the
//! course's own grading utility: before re-running a downloaded
//! submission, `rai_core::grading::Grader::clean_submission` deletes make
//! intermediates (`*.o`, `Makefile`, `CMakeFiles/`), profiler output
//! (`*.nvprof`) and copies of the provided dataset (`*.hdf5`), the files
//! students uploaded along with their sources (paper §VI). A tree here
//! is therefore:
//!
//! * the course skeleton the course model submits (`rai-build.yml`,
//!   `CMakeLists.txt`, `main.cu` with its perf directive);
//! * [`SOURCE_FILES`] generated kernel sources, `src/layer_NN.cu`;
//! * a build directory: `build/Makefile`, one object per source
//!   (`build/CMakeFiles/ece408.dir/layer_NN.o`) and the linked
//!   `build/ece408`;
//! * a profile, `timeline.nvprof`;
//! * a copy of the provided dataset, `data/test10.hdf5`, the same bytes
//!   in every team's tree.
//!
//! No upload traces are in the repository, so the sizes of these parts
//! and the edits are assumptions: the constants below. A resubmission
//! tunes the perf directive in `main.cu`, as the course model's
//! resubmissions do, rewrites one short region in each of one to
//! [`MAX_EDITED_FILES`] sources, and rebuilds: the edited sources'
//! objects, the linked binary and the profile come out new; the
//! dataset copy, the `Makefile` and every other file stay the same.

use rai_core::ProjectDir;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeSet;

/// Mean tree size in bytes (the paper's uploads average ~2.5 MB; this
/// keeps the same order of magnitude at a run time that fits the
/// benchmark window).
pub const MEAN_TREE_BYTES: u64 = 1024 * 1024;
/// Tree sizes spread evenly over ±`TREE_SPREAD` of the mean across a
/// class, so every seed uploads the same volume.
pub const TREE_SPREAD: f64 = 0.3;
/// Generated kernel source files per tree.
pub const SOURCE_FILES: usize = 24;
/// Source files a resubmission edits, at most.
pub const MAX_EDITED_FILES: usize = 3;
/// Bytes of the provided dataset's copy, the same in every tree.
pub const DATASET_BYTES: usize = 256 * 1024;
/// Bytes of the linked binary.
const BINARY_BYTES: usize = 64 * 1024;
/// Bytes of the profiler output.
const PROFILE_BYTES: usize = 32 * 1024;
/// An object file is this many times the size of its source.
const OBJECT_PER_SOURCE: usize = 2;

const VOCAB: &[&str] = &[
    "float",
    "int",
    "const",
    "__global__",
    "__shared__",
    "void",
    "for",
    "if",
    "return",
    "blockIdx.x",
    "threadIdx.x",
    "blockDim.x",
    "__syncthreads();",
    "tile",
    "acc",
    "k",
    "x",
    "y",
    "W",
    "+=",
    "*",
    "=",
    "<",
    "0;",
    "1;",
    "{",
    "}",
    "(",
    ")",
    "[",
    "]",
    "i",
    "j",
    "row",
    "col",
    "TILE_WIDTH",
];

/// Append about `len` bytes of kernel-like source text to `out`.
fn source_text(rng: &mut StdRng, len: usize, out: &mut Vec<u8>) {
    let end = out.len() + len;
    let mut col = 0;
    while out.len() < end {
        let word = VOCAB[rng.gen_range(0..VOCAB.len())];
        out.extend_from_slice(word.as_bytes());
        col += word.len() + 1;
        if col > 72 || rng.gen_range(0u32..12) == 0 {
            out.push(b'\n');
            col = 0;
        } else {
            out.push(b' ');
        }
    }
    out.truncate(end);
}

/// `len` bytes of compiler or profiler output, a function of `seed`.
fn binary(seed: u64, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    StdRng::seed_from_u64(seed).fill_bytes(&mut out);
    out
}

/// FNV-1a of `bytes`: what an object file is compiled from.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn source_path(i: usize) -> String {
    format!("src/layer_{i:02}.cu")
}

fn object_path(i: usize) -> String {
    format!("build/CMakeFiles/ece408.dir/layer_{i:02}.o")
}

/// The `Makefile` CMake generates for the sources.
fn makefile() -> Vec<u8> {
    let mut m = String::from("# CMake generated file\nall: ece408\n");
    for i in 0..SOURCE_FILES {
        m += &format!(
            "{}: ../{}\n\tnvcc -c -o $@ $<\n",
            object_path(i).trim_start_matches("build/"),
            source_path(i)
        );
    }
    m.into_bytes()
}

/// One team's evolving project.
pub struct TeamTree {
    rng: StdRng,
    full_ms: f64,
    accuracy: f64,
    /// The current tree.
    pub project: ProjectDir,
}

impl TeamTree {
    /// The initial tree of team `team` in a class of `teams` for `seed`.
    pub fn generate(seed: u64, team: usize, teams: usize) -> TeamTree {
        let mut rng = StdRng::seed_from_u64(
            seed ^ 0xDEAD_11AE ^ (team as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        // Kernel speeds and tree sizes are spread evenly over the class
        // by team index, so every seed queues the same mix of work; the
        // seed draws the contents and the edits. Full-dataset kernel
        // times of 2–20 s sit inside the course model's descent from the
        // ~60 s first CUDA version to the ~0.65 s final runtime.
        let speed = (team as f64 + 0.5) * 7.0 / teams as f64 % 1.0;
        let full_ms = 2_000.0 + 18_000.0 * speed;
        let stratum = (team as f64 + 0.5) * 3.0 / teams as f64 % 1.0;
        let accuracy = rng.gen_range(0.80..0.95);
        let mut project = ProjectDir::cuda_project_with_perf(full_ms, accuracy, 2048);
        let tree = &mut project.tree;
        tree.insert("build/Makefile", makefile())
            .expect("static path");
        tree.insert("data/test10.hdf5", binary(seed ^ 0xDA7A, DATASET_BYTES))
            .expect("static path");

        // Source sizes follow the file index (build time grows with
        // source bytes) and the seed only jitters them; one scale per
        // team brings sources plus objects to the team's tree size.
        let target = MEAN_TREE_BYTES as f64 * (1.0 - TREE_SPREAD + 2.0 * TREE_SPREAD * stratum);
        let fixed = tree.total_size() as usize + BINARY_BYTES + PROFILE_BYTES;
        let base: Vec<f64> = (0..SOURCE_FILES)
            .map(|i| 3_000.0 + 9_000.0 * ((i as f64 + 0.5) * 5.0 / SOURCE_FILES as f64 % 1.0))
            .collect();
        let scale =
            (target - fixed as f64) / ((1 + OBJECT_PER_SOURCE) as f64 * base.iter().sum::<f64>());
        for (i, b) in base.iter().enumerate() {
            let mut text = format!("// layer {i}: generated kernel source\n").into_bytes();
            let len = (b * scale * rng.gen_range(0.98..1.02)) as usize;
            source_text(&mut rng, len, &mut text);
            tree.insert(&source_path(i), text).expect("static path");
        }
        let mut team_tree = TeamTree {
            rng,
            full_ms,
            accuracy,
            project,
        };
        team_tree.rebuild(0..SOURCE_FILES);
        team_tree
    }

    /// Tree size in bytes.
    pub fn bytes(&self) -> u64 {
        self.project.tree.total_size()
    }

    /// Recompile the objects of `sources`, relink and profile. Returns
    /// the bytes written.
    fn rebuild(&mut self, sources: impl IntoIterator<Item = usize>) -> u64 {
        let tree = &mut self.project.tree;
        let mut link = 0u64;
        let mut written = 0;
        for i in sources {
            let source = tree.get(&source_path(i)).expect("generated source");
            let object = binary(fnv(source), OBJECT_PER_SOURCE * source.len());
            written += object.len();
            tree.insert(&object_path(i), object).expect("static path");
        }
        for i in 0..SOURCE_FILES {
            let object = tree.get(&object_path(i)).expect("built object");
            link = link.rotate_left(5) ^ fnv(&object[..64]);
        }
        tree.insert("build/ece408", binary(link, BINARY_BYTES))
            .expect("static path");
        let profile = binary(self.rng.next_u64(), PROFILE_BYTES);
        tree.insert("timeline.nvprof", profile)
            .expect("static path");
        (written + BINARY_BYTES + PROFILE_BYTES) as u64
    }

    /// Make the next development resubmission: tune the kernel (a
    /// faster perf directive in `main.cu`), rewrite one short region in
    /// each of one to [`MAX_EDITED_FILES`] sources and rebuild. Returns
    /// the bytes rewritten.
    pub fn resubmit(&mut self) -> u64 {
        self.full_ms *= self.rng.gen_range(0.92..0.94);
        let skeleton = ProjectDir::cuda_project_with_perf(self.full_ms, self.accuracy, 2048);
        let main_cu = skeleton
            .tree
            .get("main.cu")
            .expect("skeleton has main.cu")
            .clone();
        let mut changed = main_cu.len() as u64;
        self.project
            .tree
            .insert("main.cu", main_cu)
            .expect("static path");
        let files = self.rng.gen_range(1..=MAX_EDITED_FILES);
        let mut edited = BTreeSet::new();
        for _ in 0..files {
            let i = self.rng.gen_range(0..SOURCE_FILES);
            let path = source_path(i);
            let old = self
                .project
                .tree
                .get(&path)
                .expect("generated source")
                .to_vec();
            let region = self.rng.gen_range(64..=512).min(old.len());
            let at = self.rng.gen_range(0..=old.len() - region);
            let mut new = Vec::with_capacity(old.len());
            new.extend_from_slice(&old[..at]);
            source_text(&mut self.rng, region, &mut new);
            new.extend_from_slice(&old[at + region..]);
            changed += region as u64;
            self.project.tree.insert(&path, new).expect("static path");
            edited.insert(i);
        }
        changed + self.rebuild(edited)
    }

    /// The final submission: the current tree plus `USAGE` and
    /// `report.pdf`.
    pub fn final_project(&self) -> ProjectDir {
        self.project.clone().with_final_artifacts()
    }
}
