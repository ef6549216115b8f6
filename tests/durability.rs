//! Durability integration tests: durable graphs survive "crashes"
//! (process restarts and torn writes) with graph *and* vector state intact —
//! the single-WAL atomicity design of §4.3 — and recovery refuses a log it
//! cannot replay from the first transaction.

use tigervector::common::ids::SegmentLayout;
use tigervector::common::DistanceMetric;
use tigervector::embedding::{EmbeddingTypeDef, ServiceConfig};
use tigervector::graph::durability::{CKPT_DIR, WAL_FILE};
use tigervector::graph::Graph;
use tigervector::storage::{AttrType, AttrValue};

/// A fresh data directory for one test.
fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tv-durability-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config() -> (SegmentLayout, ServiceConfig) {
    (
        SegmentLayout::with_capacity(16),
        ServiceConfig {
            planner: tv_common::PlannerConfig::default().with_brute_threshold(4),
            query_threads: 1,
            default_ef: 32,
        },
    )
}

fn build_schema(g: &Graph) -> (u32, u32) {
    let post = g
        .create_vertex_type("Post", &[("author", AttrType::Str)])
        .unwrap();
    let emb = g
        .add_embedding_attribute(
            "Post",
            EmbeddingTypeDef::new("content_emb", 4, "GPT4", DistanceMetric::L2),
        )
        .unwrap();
    (post, emb)
}

#[test]
fn restart_recovers_graph_and_vectors() {
    let dir = tmp("restart");
    let (layout, cfg) = config();
    let mut expected = Vec::new();
    {
        let g = Graph::durable(&dir, layout, cfg).unwrap();
        let (post, emb) = build_schema(&g);
        for i in 0..40 {
            let id = g.allocate(post).unwrap();
            let v = vec![i as f32; 4];
            g.txn()
                .upsert_vertex(post, id, vec![AttrValue::Str(format!("a{i}"))])
                .set_vector(emb, id, v.clone())
                .commit()
                .unwrap();
            expected.push((id, v));
        }
        // Delete a few in later transactions.
        for (id, _) in expected.drain(35..) {
            g.txn().delete_vertex(post, id).commit().unwrap();
        }
    } // drop = crash

    let g = Graph::durable(&dir, layout, cfg).unwrap();
    let (post, emb) = build_schema(&g);
    let report = g.recover().unwrap();
    assert_eq!((report.checkpoint, report.replayed), (None, 45));
    let tid = g.read_tid();
    assert_eq!(tid.0, 45); // 40 inserts + 5 deletes
    for (id, v) in &expected {
        assert!(g.is_live(post, *id, tid).unwrap());
        assert_eq!(
            g.embedding_of(emb, *id, tid).unwrap().as_deref(),
            Some(v.as_slice())
        );
    }
    // Vector search over recovered state works.
    let (hits, _) = g
        .vector_search(&[emb], &[20.0; 4], 1, 32, None, tid)
        .unwrap();
    assert_eq!(hits[0].neighbor.id, expected[20].0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_final_transaction_is_rolled_back() {
    let dir = tmp("torn");
    let (layout, cfg) = config();
    let (a, b);
    {
        let g = Graph::durable(&dir, layout, cfg).unwrap();
        let (post, emb) = build_schema(&g);
        a = g.allocate(post).unwrap();
        b = g.allocate(post).unwrap();
        g.txn()
            .upsert_vertex(post, a, vec![AttrValue::Str("first".into())])
            .set_vector(emb, a, vec![1.0; 4])
            .commit()
            .unwrap();
        g.txn()
            .upsert_vertex(post, b, vec![AttrValue::Str("second".into())])
            .set_vector(emb, b, vec![2.0; 4])
            .commit()
            .unwrap();
    }
    // Tear the tail: chop bytes off the last record.
    let wal = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 7]).unwrap();

    let g = Graph::durable(&dir, layout, cfg).unwrap();
    let (post, emb) = build_schema(&g);
    g.recover().unwrap();
    let tid = g.read_tid();
    assert_eq!(tid.0, 1, "only the intact transaction replays");
    assert!(g.is_live(post, a, tid).unwrap());
    assert!(!g.is_live(post, b, tid).unwrap());
    // Both sides of the torn transaction are absent — atomicity held.
    assert!(g.embedding_of(emb, b, tid).unwrap().is_none());
    assert!(g.embedding_of(emb, a, tid).unwrap().is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovered_store_accepts_new_commits() {
    let dir = tmp("continue");
    let (layout, cfg) = config();
    {
        let g = Graph::durable(&dir, layout, cfg).unwrap();
        let (post, emb) = build_schema(&g);
        let id = g.allocate(post).unwrap();
        g.txn()
            .upsert_vertex(post, id, vec![AttrValue::Str("x".into())])
            .set_vector(emb, id, vec![0.5; 4])
            .commit()
            .unwrap();
    }
    let g = Graph::durable(&dir, layout, cfg).unwrap();
    let (post, emb) = build_schema(&g);
    g.recover().unwrap();
    // New writes continue from the recovered TID and survive another cycle.
    let id2 = g.allocate(post).unwrap();
    g.txn()
        .upsert_vertex(post, id2, vec![AttrValue::Str("y".into())])
        .set_vector(emb, id2, vec![9.0; 4])
        .commit()
        .unwrap();
    drop(g);

    let g = Graph::durable(&dir, layout, cfg).unwrap();
    let (post, emb) = build_schema(&g);
    g.recover().unwrap();
    let tid = g.read_tid();
    assert_eq!(tid.0, 2);
    assert!(g.is_live(post, id2, tid).unwrap());
    assert_eq!(g.embedding_of(emb, id2, tid).unwrap(), Some(vec![9.0; 4]));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint rotates the log past itself. If that checkpoint is then
/// lost, what is left starts mid-history: recovery must say so, not hand
/// back a graph missing its first transactions.
#[test]
fn rotated_log_without_its_checkpoint_is_refused() {
    let dir = tmp("rotated");
    let (layout, cfg) = config();
    {
        let g = Graph::durable(&dir, layout, cfg).unwrap();
        let (post, emb) = build_schema(&g);
        let commit = |i: u32| {
            let id = g.allocate(post).unwrap();
            g.txn()
                .upsert_vertex(post, id, vec![AttrValue::Str(format!("a{i}"))])
                .set_vector(emb, id, vec![i as f32; 4])
                .commit()
                .unwrap();
        };
        (0..3).for_each(commit);
        g.checkpoint().unwrap();
        (3..5).for_each(commit);
    }
    // With its checkpoint the directory recovers: 3 restored, 2 replayed.
    let g = Graph::durable(&dir, layout, cfg).unwrap();
    build_schema(&g);
    let report = g.recover().unwrap();
    assert_eq!(
        (report.checkpoint.map(|t| t.0), report.replayed),
        (Some(3), 2)
    );
    assert_eq!(g.read_tid().0, 5);
    drop(g);

    std::fs::remove_dir_all(dir.join(CKPT_DIR)).unwrap();
    let g = Graph::durable(&dir, layout, cfg).unwrap();
    build_schema(&g);
    let err = g.recover().unwrap_err();
    assert!(
        matches!(&err, tigervector::common::TvError::Storage(m) if m.contains("resumes at TID 4")),
        "{err}"
    );
    assert_eq!(g.read_tid().0, 0, "nothing of the torn history is served");
    std::fs::remove_dir_all(&dir).unwrap();
}
