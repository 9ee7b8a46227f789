//! # rai-bench — the experiment harness
//!
//! One binary per paper table/figure (see `src/bin/`), plus criterion
//! micro-benchmarks for every substrate (see `benches/`). The
//! `EXPERIMENTS.md` at the repository root indexes paper-vs-measured
//! for each.
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1_features`      | Table I feature comparison |
//! | `fig2_histogram`       | Fig. 2 top-30 runtime histogram |
//! | `fig3_delivery`        | Fig. 3 client download matrix |
//! | `fig4_timeline`        | Fig. 4 submissions/hour, last 2 weeks |
//! | `listing3_keys`        | Listing 3 key-delivery e-mails |
//! | `semester_report`      | §VII resource-usage numbers |
//! | `ablation_concurrency` | §V single-job timing-accuracy claim |
//! | `ablation_elasticity`  | §IV/§VII elasticity claim |
//! | `ablation_log_gc`      | ephemeral log-topic GC design choice |
//! | `chaos_report`         | §IV crash-requeue guarantee, audited under chaos |
//! | `store_report`         | storage dedup baseline (`BENCH_store.json`, DESIGN.md §10) |
//! | `perf_report`          | end-to-end perf baseline (`BENCH_perf.json`, DESIGN.md §11) |

use rai_auth::{sign_request, Credentials};
use rai_core::client::ProjectDir;
use rai_core::protocol::{JobKind, JobRequest};
use rai_core::spec::FINAL_SUBMISSION_YML;
use rai_store::ObjectStore;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Print a section header for bench-binary output.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Map `f` over `items` on at most `available_parallelism()` scoped
/// threads, returning the results in input order. The report bins use
/// it to fan out independent whole runs (one per seed or scenario);
/// each run itself stays on one thread.
pub fn fan_out<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len())
        .max(1);
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, U)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { return out };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, u)| u).collect()
}

/// Build a ready-to-process final-submission job request: uploads the
/// project and returns the signed request. Shared by the ablation
/// binaries, which drive `Worker::process*` directly.
pub fn staged_final_request(
    store: &ObjectStore,
    creds: &Credentials,
    team: &str,
    project: &ProjectDir,
    job_id: u64,
) -> JobRequest {
    let bundle = rai_archive::pack(&project.tree);
    let key = format!("{team}/{job_id:08x}.tar.bz2");
    store
        .put(rai_core::client::UPLOAD_BUCKET, &key, bundle.bytes, [])
        .expect("upload bucket exists");
    let mut request = JobRequest {
        job_id,
        access_key: creds.access_key.clone(),
        signature: String::new(),
        team: team.to_string(),
        upload_bucket: rai_core::client::UPLOAD_BUCKET.to_string(),
        upload_key: key,
        build_yml: FINAL_SUBMISSION_YML.to_string(),
        kind: JobKind::Submit,
    };
    request.signature = sign_request(&creds.secret_key, &creds.access_key, &request.signing_payload());
    request
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_auth::KeyGenerator;
    use rai_sim::VirtualClock;
    use rai_store::LifecycleRule;

    #[test]
    fn staged_request_round_trips() {
        let store = ObjectStore::new(VirtualClock::new());
        store
            .create_bucket(rai_core::client::UPLOAD_BUCKET, LifecycleRule::Keep)
            .unwrap();
        let creds = KeyGenerator::from_seed(1).generate("t");
        let project = ProjectDir::sample_cuda_project().with_final_artifacts();
        let req = staged_final_request(&store, &creds, "t", &project, 7);
        assert_eq!(req.kind, JobKind::Submit);
        assert!(store.get(rai_core::client::UPLOAD_BUCKET, &req.upload_key).is_ok());
        let decoded = JobRequest::decode(&req.encode()).unwrap();
        assert_eq!(decoded, req);
    }
}
