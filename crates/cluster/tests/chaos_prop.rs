//! Randomized chaos properties for the fault-tolerant scatter-gather.
//!
//! The container cannot vendor `proptest`, so these are hand-rolled
//! seeded-random properties over [`SplitMix64`]: every trial derives its
//! fault schedule, down/recover sequence, and query from the seed, so a
//! failure reproduces exactly. Two properties:
//!
//! 1. **Bit-identical recovery** — with `replication = 2` and at most one
//!    impaired server at a time (down, crash-on-recv, reply-drop, or
//!    delayed), a distributed top-k returns exactly the ids and distances
//!    of the healthy cluster: retry and hedging may change *who* answers,
//!    never *what* is answered.
//! 2. **Honest degradation** — with `replication = 1` and `degraded_mode`,
//!    impairing one server yields partial results whose [`Coverage`] and
//!    `unsearched` list match the injected fault exactly, and no neighbor
//!    is ever drawn from an unsearched segment.

use std::sync::Arc;
use std::time::Duration;
use tv_cluster::{ClusterRuntime, RuntimeConfig};
use tv_common::ids::{LocalId, VertexId};
use tv_common::inject::{Action, Point};
use tv_common::{DistanceMetric, PlannerConfig, RetryPolicy, SegmentId, SplitMix64, Tid};
use tv_embedding::{EmbeddingSegment, EmbeddingTypeDef};
use tv_hnsw::DeltaRecord;

const DIM: usize = 8;
const SEGMENTS: u32 = 8;
const PER_SEGMENT: u32 = 25;

fn loaded_cluster(config: RuntimeConfig, seed: u64) -> (ClusterRuntime, Vec<Vec<f32>>) {
    let runtime = ClusterRuntime::start(config);
    let def = EmbeddingTypeDef::new("e", DIM, "M", DistanceMetric::L2);
    let mut rng = SplitMix64::new(seed);
    let mut vecs = Vec::new();
    let mut tid = 0u64;
    for s in 0..SEGMENTS {
        let seg = Arc::new(EmbeddingSegment::new(SegmentId(s), &def, 256));
        let mut recs = Vec::new();
        for l in 0..PER_SEGMENT {
            tid += 1;
            let v: Vec<f32> = (0..DIM).map(|_| rng.next_f32() * 5.0).collect();
            recs.push(DeltaRecord::upsert(
                VertexId::new(SegmentId(s), LocalId(l)),
                Tid(tid),
                v.clone(),
            ));
            vecs.push(v);
        }
        seg.append_deltas(&recs).unwrap();
        seg.delta_merge(Tid(tid)).unwrap();
        seg.index_merge(Tid(tid)).unwrap();
        runtime.add_segment(seg);
    }
    (runtime, vecs)
}

fn random_query(rng: &mut SplitMix64) -> Vec<f32> {
    (0..DIM).map(|_| rng.next_f32() * 5.0).collect()
}

/// One impaired server per step keeps every segment routable at
/// `replication = 2`, which is exactly the regime where recovery must be
/// invisible to the caller.
#[test]
fn topk_is_bit_identical_under_random_single_server_faults() {
    let servers = 4;
    let (runtime, _vecs) = loaded_cluster(
        RuntimeConfig {
            servers,
            replication: 2,
            planner: PlannerConfig::default().with_brute_threshold(4),
            retry: RetryPolicy {
                max_retries: 2,
                attempt_timeout: Duration::from_millis(80),
                backoff: Duration::from_millis(1),
                hedge_after: None,
            },
            degraded_mode: false,
        },
        31,
    );
    let mut rng = SplitMix64::new(0xC4A0_5EED);
    for step in 0..12 {
        let q = random_query(&mut rng);
        let healthy = runtime.top_k(&q, 10, 64, Tid::MAX, None).unwrap();
        assert!(healthy.coverage.is_complete());

        let victim = rng.next_below(servers as u64) as usize;
        let kind = rng.next_below(4);
        let (recv, reply) = (
            Point::WorkerRecv { server: victim },
            Point::WorkerReply { server: victim },
        );
        match kind {
            0 => runtime.fail_server(victim),
            1 => runtime.injector().arm(recv, Action::Fail, 1, Some(1)),
            2 => runtime.injector().arm(reply, Action::Fail, 1, Some(1)),
            _ => {
                // Half the delays exceed the attempt timeout (suspect →
                // retry), half do not (the original answers, just late).
                let ms = if rng.next_below(2) == 0 { 120 } else { 20 };
                let delay = Action::Delay(Duration::from_millis(ms));
                runtime.injector().arm(recv, delay, 1, Some(1));
            }
        }

        let chaotic = runtime.top_k(&q, 10, 64, Tid::MAX, None).unwrap();
        assert_eq!(
            healthy.neighbors, chaotic.neighbors,
            "step {step}: victim {victim} kind {kind} changed the answer"
        );
        assert!(
            chaotic.coverage.is_complete(),
            "step {step}: replication 2 must always reach full coverage"
        );

        runtime.recover_server(victim);
        runtime.injector().clear();
    }
}

/// With no replicas, a failed server's segments are honestly reported as
/// unsearched — never silently dropped, never leaked into the answer.
#[test]
fn degraded_coverage_accounts_exactly_for_injected_faults() {
    let servers = 4usize;
    let (runtime, vecs) = loaded_cluster(
        RuntimeConfig {
            servers,
            replication: 1,
            planner: PlannerConfig::default().with_brute_threshold(4),
            retry: RetryPolicy {
                max_retries: 1,
                attempt_timeout: Duration::from_millis(60),
                backoff: Duration::from_millis(1),
                hedge_after: None,
            },
            degraded_mode: true,
        },
        47,
    );
    let all: Vec<(VertexId, &Vec<f32>)> = (0..SEGMENTS)
        .flat_map(|s| (0..PER_SEGMENT).map(move |l| VertexId::new(SegmentId(s), LocalId(l))))
        .zip(vecs.iter())
        .collect();

    let mut rng = SplitMix64::new(0xDE6_0ADE);
    for step in 0..8 {
        let q = random_query(&mut rng);
        let victim = rng.next_below(servers as u64) as usize;
        // Round-robin placement at replication 1: the victim is the only
        // holder of every segment congruent to it mod `servers`.
        let expected_unsearched: Vec<SegmentId> = (0..SEGMENTS)
            .filter(|s| *s as usize % servers == victim)
            .map(SegmentId)
            .collect();

        let crashed = rng.next_below(2) == 0;
        if crashed {
            // Enough uses to swallow the scatter and every retry wave.
            let recv = Point::WorkerRecv { server: victim };
            runtime.injector().arm(recv, Action::Fail, 1, Some(4));
        } else {
            runtime.fail_server(victim);
        }

        let r = runtime.top_k(&q, 10, 64, Tid::MAX, None).unwrap();
        assert_eq!(
            r.unsearched, expected_unsearched,
            "step {step}: victim {victim} crashed={crashed}"
        );
        assert_eq!(r.coverage.segments_total, SEGMENTS as usize);
        assert_eq!(
            r.coverage.segments_searched,
            SEGMENTS as usize - expected_unsearched.len()
        );
        assert_eq!(r.coverage.servers_failed, 1);
        assert!(!r.coverage.is_complete());
        assert!(
            r.neighbors
                .iter()
                .all(|n| !expected_unsearched.contains(&n.id.segment())),
            "step {step}: a neighbor came from an unsearched segment"
        );
        // The partial answer is still exact over the live segments.
        let live_best = all
            .iter()
            .filter(|(id, _)| !expected_unsearched.contains(&id.segment()))
            .min_by(|a, b| {
                tv_common::metric::l2_sq(&q, a.1).total_cmp(&tv_common::metric::l2_sq(&q, b.1))
            })
            .unwrap()
            .0;
        assert_eq!(r.neighbors[0].id, live_best, "step {step}");

        runtime.recover_server(victim);
        runtime.injector().clear();
        let clean = runtime.top_k(&q, 10, 64, Tid::MAX, None).unwrap();
        assert!(
            clean.coverage.is_complete(),
            "step {step}: recovery must restore full coverage"
        );
    }
}

/// Random fail/recover sequences across steps: the cluster's down-set
/// evolves, and as long as replication covers it, answers never change.
#[test]
fn random_fail_recover_walk_never_changes_answers() {
    let servers = 4usize;
    let (runtime, _vecs) = loaded_cluster(
        RuntimeConfig {
            servers,
            replication: 2,
            planner: PlannerConfig::default().with_brute_threshold(4),
            retry: RetryPolicy {
                max_retries: 2,
                attempt_timeout: Duration::from_millis(80),
                backoff: Duration::from_millis(1),
                hedge_after: None,
            },
            degraded_mode: false,
        },
        59,
    );
    let mut rng = SplitMix64::new(0xF01D_AB1E);
    let mut down: Option<usize> = None;
    let mut baseline: Vec<(Vec<f32>, Vec<VertexId>)> = Vec::new();
    for _ in 0..4 {
        let q = random_query(&mut rng);
        let r = runtime.top_k(&q, 10, 64, Tid::MAX, None).unwrap();
        let ids = r.neighbors.iter().map(|n| n.id).collect();
        baseline.push((q, ids));
    }
    for step in 0..16 {
        // Mutate the down-set: recover the current victim or fail a new one
        // (never two at once — adjacent pairs share every replica at rep 2).
        match down {
            Some(s) if rng.next_below(2) == 0 => {
                runtime.recover_server(s);
                down = None;
            }
            Some(_) => {}
            None => {
                let s = rng.next_below(servers as u64) as usize;
                runtime.fail_server(s);
                down = Some(s);
            }
        }
        let (q, expected) = &baseline[step % baseline.len()];
        let r = runtime.top_k(q, 10, 64, Tid::MAX, None).unwrap();
        let got: Vec<VertexId> = r.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(&got, expected, "step {step}, down = {down:?}");
        assert!(r.coverage.is_complete());
    }
}
