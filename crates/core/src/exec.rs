//! The scheduling round: claim → execute → commit on the calling
//! thread (DESIGN.md §12).
//!
//! A driver claims a batch of jobs serially (every shared-state touch
//! point resolved in a deterministic order), then hands the claims to
//! [`Executor::run_jobs`], which executes each claim and commits the
//! results in claim order. The executor only counts rounds; it owns no
//! threads. RAI scales by adding workers behind the broker, not by
//! threading one process.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Runs scheduling rounds and counts them. Clones share the counters.
///
/// # Examples
///
/// ```
/// use rai_core::exec::Executor;
///
/// let exec = Executor::default();
/// let mut committed = Vec::new();
/// exec.run_jobs(
///     vec![1u64, 2, 3, 4],          // claims, in claim order
///     |n| n * n,                    // execute
///     |sq| committed.push(sq),      // commit, in claim order
/// );
/// assert_eq!(committed, vec![1, 4, 9, 16]);
/// assert_eq!(exec.stats().batches, 1);
/// assert_eq!(exec.stats().batch_jobs, 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Executor {
    counters: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    batches: AtomicU64,
    batch_jobs: AtomicU64,
}

/// Point-in-time copy of an executor's cumulative counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rounds scheduled via [`Executor::run_jobs`].
    pub batches: u64,
    /// Jobs those rounds carried (round sizes summed).
    pub batch_jobs: u64,
    /// Tasks handed to other threads. Always 0: rounds run on the
    /// calling thread.
    pub spawned: u64,
    /// Tasks taken from another thread's queue. Always 0.
    pub stolen: u64,
    /// Times an idle thread parked. Always 0.
    pub parked: u64,
}

impl Executor {
    /// Snapshot of the cumulative counters, shared by every clone.
    pub fn stats(&self) -> ExecStats {
        ExecStats {
            batches: self.counters.batches.load(Ordering::Relaxed),
            batch_jobs: self.counters.batch_jobs.load(Ordering::Relaxed),
            ..ExecStats::default()
        }
    }

    /// Run one *claim → execute → commit* round.
    ///
    /// `claims` is the round in claim order. Every claim is executed
    /// first, in claim order; then `commit` is applied to each result,
    /// in the same order, and the commit results are returned. A panic
    /// in `execute` therefore surfaces before any commit runs.
    pub fn run_jobs<C, T, O>(
        &self,
        claims: Vec<C>,
        execute: impl FnMut(C) -> T,
        commit: impl FnMut(T) -> O,
    ) -> Vec<O> {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batch_jobs
            .fetch_add(claims.len() as u64, Ordering::Relaxed);
        let executed: Vec<T> = claims.into_iter().map(execute).collect();
        executed.into_iter().map(commit).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_follow_claim_order_after_every_execute() {
        let exec = Executor::default();
        let log = std::cell::RefCell::new(Vec::new());
        let out = exec.run_jobs(
            vec![3u64, 1, 2],
            |n| {
                log.borrow_mut().push(format!("x{n}"));
                n * 10
            },
            |n| {
                log.borrow_mut().push(format!("c{n}"));
                n + 1
            },
        );
        assert_eq!(out, vec![31, 11, 21]);
        assert_eq!(log.into_inner(), ["x3", "x1", "x2", "c30", "c10", "c20"]);
    }

    #[test]
    fn clones_share_counters() {
        let exec = Executor::default();
        exec.clone().run_jobs(vec![1, 2], |n| n, |n| n);
        exec.run_jobs(Vec::<u8>::new(), |n| n, |n| n);
        assert_eq!(
            exec.stats(),
            ExecStats {
                batches: 2,
                batch_jobs: 2,
                ..ExecStats::default()
            }
        );
    }
}
