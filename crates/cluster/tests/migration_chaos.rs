//! Migration chaos suite: prove that live segment migration is
//! crash-safe at every instrumented point and invisible to correctness.
//!
//! A subject cluster is compared against a **never-migrated oracle** loaded
//! with the identical deterministic dataset. Every assertion on query
//! results is bit-level (`f32::to_bits` on distances, exact vertex ids), so
//! a migration that loses, duplicates, or reorders a single delta record
//! fails loudly.
//!
//! The main test walks every [`Point::MIGRATION`] point at several
//! occurrence indices and requires one of exactly two outcomes:
//!
//! * **clean abort** — placement generation unchanged, source still
//!   authoritative, orphaned destination state garbage-collected, staging
//!   file gone, the abort recorded in [`MigrationErrors`], and a fresh
//!   retry completing normally; or
//! * **idempotent completion** — the flip had already committed, queries
//!   route to the destination, and re-running the identical plan returns
//!   `already_complete` while finishing the release.
//!
//! Separate tests keep concurrent appends and queries flowing *during* a
//! migration, drive the typed `Moved` redirect with a paused worker, and
//! pin down degraded-mode `Coverage` accounting around aborted and
//! completed migrations.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tv_cluster::{ClusterResponse, ClusterRuntime, MigrationPlan, Migrator, RuntimeConfig};
use tv_common::ids::{LocalId, VertexId};
use tv_common::inject::{Action, Injector, Point};
use tv_common::{
    DistanceMetric, MigrationConfig, RetryPolicy, SegmentId, SplitMix64, Tid, TvError,
};
use tv_embedding::{EmbeddingSegment, EmbeddingTypeDef};
use tv_hnsw::DeltaRecord;

const SERVERS: usize = 3;
const SEGMENTS: u32 = 6;
const DIM: usize = 8;
/// Records folded into each segment's index snapshot before migration.
const BASE: u32 = 30;
/// Post-snapshot records per segment — the delta tail catch-up must ship.
const EXTRA: u32 = 20;
/// The segment every migration in this suite moves.
const MIGRATED: SegmentId = SegmentId(1);

/// Tight knobs so the scripted migration exercises multiple catch-up
/// rounds and drains the final tail inside the flip.
fn test_config() -> MigrationConfig {
    MigrationConfig {
        flip_threshold: 0,
        catchup_batch: 8,
        max_catchup_rounds: 64,
    }
}

fn retry_policy(attempt_timeout: Duration) -> RetryPolicy {
    RetryPolicy {
        max_retries: 2,
        attempt_timeout,
        backoff: Duration::from_millis(1),
        hedge_after: None,
    }
}

fn start_cluster_with(degraded: bool, retry: RetryPolicy) -> Arc<ClusterRuntime> {
    Arc::new(ClusterRuntime::start(RuntimeConfig {
        servers: SERVERS,
        replication: 1,
        // Exact scans: results are bit-comparable however each copy's
        // index was built.
        planner: tv_common::PlannerConfig::default().with_brute_threshold(4096),
        retry,
        degraded_mode: degraded,
    }))
}

fn start_cluster(degraded: bool) -> Arc<ClusterRuntime> {
    start_cluster_with(degraded, retry_policy(Duration::from_millis(500)))
}

/// Deterministic vector for `(segment, local slot, version)`.
fn vec_for(seg: u32, local: u32, version: u64) -> Vec<f32> {
    let mut rng =
        SplitMix64::new(0x4D16_12A7 ^ (u64::from(seg) << 32) ^ (u64::from(local) << 8) ^ version);
    (0..DIM).map(|_| rng.next_f32() * 4.0).collect()
}

/// Load the deterministic dataset: `BASE` records per segment folded into
/// an index snapshot, then `EXTRA` records appended *through the runtime*
/// so every segment carries a delta tail beyond its snapshot (real
/// catch-up work). Returns the final committed TID.
fn load(runtime: &Arc<ClusterRuntime>) -> Tid {
    let def = EmbeddingTypeDef::new("emb", DIM, "model", DistanceMetric::L2);
    let mut tid = 0u64;
    for s in 0..SEGMENTS {
        let seg = Arc::new(EmbeddingSegment::new(SegmentId(s), &def, 256));
        let mut recs = Vec::new();
        for l in 0..BASE {
            tid += 1;
            recs.push(DeltaRecord::upsert(
                VertexId::new(SegmentId(s), LocalId(l)),
                Tid(tid),
                vec_for(s, l, 0),
            ));
        }
        seg.append_deltas(&recs).unwrap();
        seg.delta_merge(Tid(tid)).unwrap();
        seg.index_merge(Tid(tid)).unwrap();
        runtime.add_segment(seg);
    }
    for s in 0..SEGMENTS {
        let mut recs = Vec::new();
        for l in BASE..BASE + EXTRA {
            tid += 1;
            recs.push(DeltaRecord::upsert(
                VertexId::new(SegmentId(s), LocalId(l)),
                Tid(tid),
                vec_for(s, l, 0),
            ));
        }
        runtime.append_deltas(SegmentId(s), &recs).unwrap();
    }
    Tid(tid)
}

fn queries() -> Vec<Vec<f32>> {
    (0..8u64)
        .map(|q| {
            let mut rng = SplitMix64::new(0x9E37_79B9 + q);
            (0..DIM).map(|_| rng.next_f32() * 4.0).collect()
        })
        .collect()
}

fn fingerprint(r: &ClusterResponse) -> Vec<(u64, u32)> {
    r.neighbors
        .iter()
        .map(|n| (n.id.0, n.dist.to_bits()))
        .collect()
}

/// Every probe query on `subject` must be complete and bit-identical to
/// the oracle's answer at the same pinned TID.
fn assert_bit_identical(subject: &ClusterRuntime, oracle: &ClusterRuntime, tid: Tid, label: &str) {
    for (i, q) in queries().iter().enumerate() {
        let a = subject.top_k(q, 5, 64, tid, None).unwrap();
        let b = oracle.top_k(q, 5, 64, tid, None).unwrap();
        assert!(a.coverage.is_complete(), "{label}: query {i} degraded");
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{label}: query {i} diverged from the never-migrated oracle"
        );
    }
}

fn staging(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tv-migration-chaos-{}-{label}", std::process::id()))
}

/// The only holder of `seg` under replication 1, and a server that does
/// not hold it.
fn source_and_spare(runtime: &ClusterRuntime, seg: SegmentId) -> (usize, usize) {
    let table = runtime.placement();
    let from = table.holders(seg)[0];
    let to = (0..SERVERS).find(|s| !table.holds(seg, *s)).unwrap();
    (from, to)
}

/// One armed crash case: run the scripted migration with `point` tripping
/// on its `nth` occurrence and require a clean abort or an idempotent
/// completion — never a third state.
fn run_crash_case(point: Point, nth: u64, oracle: &Arc<ClusterRuntime>, final_tid: Tid) {
    let label = format!("{point}@{nth}");
    let subject = start_cluster(false);
    assert_eq!(load(&subject), final_tid, "{label}: fixture drifted");
    let (from, to) = source_and_spare(&subject, MIGRATED);
    let plan = MigrationPlan {
        segment: MIGRATED,
        from,
        to,
    };
    let dir = staging(&label.replace(['/', '@'], "-"));
    let _ = std::fs::remove_dir_all(&dir);
    let crash = Injector::live();
    crash.arm(point, Action::Fail, nth, Some(1));
    let migrator = Migrator::new(Arc::clone(&subject), dir.clone())
        .with_injector(crash)
        .with_config(test_config());
    let gen_before = subject.generation();
    let errors_before = subject.migration_errors().count();

    let err = migrator
        .run(plan)
        .expect_err("an armed crash point must surface as an error");
    // `Injected` is the crash itself; `Storage` is the CRC rejection of a
    // truncated transfer (the ship-truncate fault fires *and continues*,
    // so the install phase must catch the damage).
    assert!(
        matches!(err, TvError::Injected(_) | TvError::Storage(_)),
        "{label}: unexpected error shape: {err}"
    );
    assert!(
        subject.migration_errors().count() > errors_before,
        "{label}: the failure must be recorded, not swallowed"
    );
    let probe = &queries()[0];

    if subject.generation() == gen_before {
        // --- Clean abort: the source is still authoritative. ------------
        let table = subject.placement();
        assert!(
            table.holds(MIGRATED, from),
            "{label}: source lost the segment"
        );
        assert!(!table.holds(MIGRATED, to), "{label}: abort leaked a holder");
        let on_src = subject.search_on(from, MIGRATED, probe, 5, 64, final_tid);
        assert!(
            !on_src.unwrap().is_empty(),
            "{label}: source stopped serving after a clean abort"
        );
        // The orphaned destination copy was garbage-collected: a direct
        // probe gets the typed redirect, not stale data.
        assert!(
            matches!(
                subject.search_on(to, MIGRATED, probe, 5, 64, final_tid),
                Err(TvError::Moved { .. })
            ),
            "{label}: destination still holds orphaned state"
        );
        let ship = dir.join(format!("migrate-seg{}-{from}to{to}.tvm", MIGRATED.0));
        assert!(!ship.exists(), "{label}: staging file survived the abort");
        assert_bit_identical(&subject, oracle, final_tid, &format!("{label}/post-abort"));

        // A fresh retry of the identical plan completes normally.
        let retry = Migrator::new(Arc::clone(&subject), dir.clone()).with_config(test_config());
        let report = retry.run(plan).unwrap();
        assert!(!report.already_complete, "{label}: retry skipped real work");
        assert_eq!(report.generation, gen_before + 1);
    } else {
        // --- The flip committed before the crash: migration complete. ---
        let table = subject.placement();
        assert!(
            table.holds(MIGRATED, to),
            "{label}: flip did not move the segment"
        );
        assert!(
            !table.holds(MIGRATED, from),
            "{label}: flip left two holders"
        );

        // Re-running the identical plan is recognized as already done and
        // finishes the release idempotently.
        let retry = Migrator::new(Arc::clone(&subject), dir.clone()).with_config(test_config());
        let report = retry.run(plan).unwrap();
        assert!(
            report.already_complete,
            "{label}: retry re-ran a committed flip"
        );
        assert_eq!(report.generation, subject.generation());
        assert!(
            matches!(
                subject.search_on(from, MIGRATED, probe, 5, 64, final_tid),
                Err(TvError::Moved { .. })
            ),
            "{label}: source copy not released after retry"
        );
    }

    // Either way the cluster answers exactly like the oracle, and the
    // moved copy holds exactly the oracle's live records (no loss, no
    // duplication).
    assert_bit_identical(&subject, oracle, final_tid, &format!("{label}/final"));
    let subject_live = subject.segment(MIGRATED).unwrap().live_count(final_tid);
    let oracle_live = oracle.segment(MIGRATED).unwrap().live_count(final_tid);
    assert_eq!(
        subject_live, oracle_live,
        "{label}: live-record count drifted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_migration_crash_point_aborts_cleanly_or_completes_idempotently() {
    // Observation run: an unarmed plan counts how often each migration
    // crash point is reached by the scripted migration.
    let observed = Injector::live();
    {
        let subject = start_cluster(false);
        load(&subject);
        let (from, to) = source_and_spare(&subject, MIGRATED);
        let dir = staging("observe");
        let migrator = Migrator::new(Arc::clone(&subject), dir.clone())
            .with_injector(observed.clone())
            .with_config(test_config());
        let report = migrator
            .run(MigrationPlan {
                segment: MIGRATED,
                from,
                to,
            })
            .unwrap();
        assert!(
            report.catchup_rounds >= 2,
            "fixture must force real catch-up"
        );
        assert!(report.catchup_records >= u64::from(EXTRA));
        let _ = std::fs::remove_dir_all(&dir);
    }
    for point in Point::MIGRATION {
        assert!(
            observed.hits(point) > 0,
            "{point} is unreachable in the scripted migration — the suite would prove nothing"
        );
    }

    let oracle = start_cluster(false);
    let final_tid = load(&oracle);

    for point in Point::MIGRATION {
        let hits = observed.hits(point);
        let mut nths = vec![1, 2, hits / 2, hits];
        nths.retain(|n| (1..=hits).contains(n));
        nths.sort_unstable();
        nths.dedup();
        for nth in nths {
            run_crash_case(point, nth, &oracle, final_tid);
        }
    }
}

#[test]
fn live_migration_with_concurrent_appends_and_queries_is_bit_identical() {
    let subject = start_cluster(false);
    let oracle = start_cluster(false);
    let t0 = load(&subject);
    assert_eq!(load(&oracle), t0);
    let (from, to) = source_and_spare(&subject, MIGRATED);

    // `committed` only advances after a record landed on BOTH clusters, so
    // any query pinned at or below it must see identical state.
    let committed = Arc::new(AtomicU64::new(t0.0));
    let stop = Arc::new(AtomicBool::new(false));

    let writer = {
        let subject = Arc::clone(&subject);
        let oracle = Arc::clone(&oracle);
        let committed = Arc::clone(&committed);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut tid = t0.0;
            let mut appended = 0u64;
            while !stop.load(Ordering::Relaxed) {
                tid += 1;
                // Overwrite existing slots round-robin: unbounded churn
                // without exhausting segment capacity.
                let local = LocalId((tid % u64::from(BASE)) as u32);
                let rec = DeltaRecord::upsert(
                    VertexId::new(MIGRATED, local),
                    Tid(tid),
                    vec_for(MIGRATED.0, local.0, tid),
                );
                subject
                    .append_deltas(MIGRATED, std::slice::from_ref(&rec))
                    .unwrap();
                oracle.append_deltas(MIGRATED, &[rec]).unwrap();
                committed.store(tid, Ordering::Release);
                appended += 1;
                std::thread::sleep(Duration::from_micros(100));
            }
            appended
        })
    };

    let checker = {
        let subject = Arc::clone(&subject);
        let oracle = Arc::clone(&oracle);
        let committed = Arc::clone(&committed);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let qs = queries();
            let mut checked = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let tid = Tid(committed.load(Ordering::Acquire));
                for q in &qs {
                    let a = subject.top_k(q, 5, 64, tid, None).unwrap();
                    let b = oracle.top_k(q, 5, 64, tid, None).unwrap();
                    assert!(a.coverage.is_complete());
                    assert_eq!(
                        fingerprint(&a),
                        fingerprint(&b),
                        "mid-migration query at tid {} diverged",
                        tid.0
                    );
                    checked += 1;
                }
            }
            checked
        })
    };

    // Migrate while both flows run. A small flip threshold plus a writer
    // that keeps appending forces the flip to drain a live tail.
    let dir = staging("live");
    let migrator = Migrator::new(Arc::clone(&subject), dir.clone()).with_config(MigrationConfig {
        flip_threshold: 4,
        catchup_batch: 8,
        max_catchup_rounds: 1024,
    });
    std::thread::sleep(Duration::from_millis(20));
    let report = migrator
        .run(MigrationPlan {
            segment: MIGRATED,
            from,
            to,
        })
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stop.store(true, Ordering::Relaxed);
    let appended = writer.join().unwrap();
    let checked = checker.join().unwrap();

    assert!(!report.already_complete);
    assert!(report.shipped_bytes > 0);
    assert!(appended > 0, "the writer never ran");
    assert!(checked > 0, "the checker never ran");

    // Zero lost or duplicated records across the hand-off: the final state
    // is bit-identical to the oracle at the writer's last committed TID,
    // and the destination copy's live count matches exactly.
    let final_tid = Tid(committed.load(Ordering::Acquire));
    assert_bit_identical(&subject, &oracle, final_tid, "post-migration");
    assert_eq!(
        subject.segment(MIGRATED).unwrap().live_count(final_tid),
        oracle.segment(MIGRATED).unwrap().live_count(final_tid)
    );
    assert!(subject.placement().holds(MIGRATED, to));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn in_flight_queries_pinned_to_the_old_generation_redirect_instead_of_failing() {
    // Long attempt timeout: the paused worker must NOT be declared a
    // suspect — the point is to catch the *redirect* path, not the retry
    // path.
    let subject = start_cluster_with(false, retry_policy(Duration::from_secs(5)));
    let oracle = start_cluster(false);
    let final_tid = load(&subject);
    assert_eq!(load(&oracle), final_tid);
    let (from, to) = source_and_spare(&subject, MIGRATED);

    // The source's next request stays paused until the migration has
    // flipped and released the segment under the query.
    let source = Point::WorkerRecv { server: from };
    subject.injector().arm(source, Action::Pause, 1, Some(1));

    let probe = queries()[0].clone();
    let want = {
        let r = oracle.top_k(&probe, 5, 64, final_tid, None).unwrap();
        fingerprint(&r)
    };
    let query = {
        let subject = Arc::clone(&subject);
        let probe = probe.clone();
        std::thread::spawn(move || subject.top_k(&probe, 5, 64, final_tid, None).unwrap())
    };

    // Flip the segment away while the query's pinned-generation request
    // is parked on the old holder.
    subject.injector().wait_parked(source);
    let dir = staging("redirect");
    let report = Migrator::new(Arc::clone(&subject), dir.clone())
        .with_config(test_config())
        .run(MigrationPlan {
            segment: MIGRATED,
            from,
            to,
        })
        .unwrap();
    assert!(!report.already_complete);
    subject.injector().release(source);

    let response = query.join().unwrap();
    assert!(response.coverage.is_complete());
    assert_eq!(
        fingerprint(&response),
        want,
        "redirected query returned a wrong answer"
    );
    assert!(
        response.moved_redirects >= 1,
        "the drained source must answer with a typed redirect, got {:?} redirects",
        response.moved_redirects
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn degraded_coverage_stays_honest_across_aborted_and_completed_migrations() {
    let subject = start_cluster(true);
    let final_tid = load(&subject);
    let (from, to) = source_and_spare(&subject, MIGRATED);
    let plan = MigrationPlan {
        segment: MIGRATED,
        from,
        to,
    };
    let dir = staging("coverage");
    let probe = queries()[0].clone();
    let unsearched_count =
        |r: &ClusterResponse| r.unsearched.iter().filter(|s| **s == MIGRATED).count();

    // Abort a migration mid-install, leaving a would-be orphan copy.
    let crash = Injector::live();
    crash.arm(Point::MigrateMidInstall, Action::Fail, 1, Some(1));
    Migrator::new(Arc::clone(&subject), dir.clone())
        .with_injector(crash)
        .with_config(test_config())
        .run(plan)
        .unwrap_err();

    // Healthy cluster after the abort: full coverage, stable totals.
    let r = subject.top_k(&probe, 5, 64, final_tid, None).unwrap();
    assert!(r.coverage.is_complete());
    assert_eq!(r.coverage.segments_total, SEGMENTS as usize);

    // Source down after the abort: the segment is unsearched EXACTLY once
    // — an aborted migration must neither double-count it (orphan copy)
    // nor drop it from the accounting.
    subject.fail_server(from);
    let r = subject.top_k(&probe, 5, 64, final_tid, None).unwrap();
    assert!(!r.coverage.is_complete());
    assert_eq!(r.coverage.segments_total, SEGMENTS as usize);
    assert_eq!(
        unsearched_count(&r),
        1,
        "aborted migration corrupted coverage"
    );
    subject.recover_server(from);

    // Complete the migration for real, then check both failure sides.
    let report = Migrator::new(Arc::clone(&subject), dir.clone())
        .with_config(test_config())
        .run(plan)
        .unwrap();
    assert!(!report.already_complete);

    // Old source down: the migrated segment no longer depends on it.
    subject.fail_server(from);
    let r = subject.top_k(&probe, 5, 64, final_tid, None).unwrap();
    assert_eq!(r.coverage.segments_total, SEGMENTS as usize);
    assert_eq!(
        unsearched_count(&r),
        0,
        "migrated segment still accounted to the drained source"
    );
    subject.recover_server(from);

    // New holder down: the segment is unsearched exactly once again.
    subject.fail_server(to);
    let r = subject.top_k(&probe, 5, 64, final_tid, None).unwrap();
    assert!(!r.coverage.is_complete());
    assert_eq!(unsearched_count(&r), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
