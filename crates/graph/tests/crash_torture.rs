//! Crash-recovery torture: run a deterministic mixed graph+vector workload,
//! "crash" (via deterministic crash-point injection) at every reachable
//! crash point, recover, resume, and require the final state to be
//! bit-identical to a no-crash oracle.
//!
//! The workload commits 30 transactions interleaved with checkpoints (after
//! TID 10 and 20) and a two-stage embedding vacuum (after TID 15), so the
//! crash points cover: mid-WAL-append, post-WAL-pre-apply, mid-checkpoint
//! file writes, post-manifest-pre-WAL-truncate, and mid-index-merge.
//!
//! Searches use a brute-force threshold above the dataset size, so top-k
//! results are exact and comparable bit-for-bit regardless of how the HNSW
//! index was (re)built.

use std::path::{Path, PathBuf};
use tg_graph::Graph;
use tg_storage::{AttrType, AttrValue};
use tv_common::ids::SegmentLayout;
use tv_common::inject::{Action, Injector, Point};
use tv_common::{DistanceMetric, QuantSpec, SplitMix64, StorageTier, Tid, TvError, TvResult};
use tv_embedding::{EmbeddingTypeDef, ServiceConfig};

const N_TXNS: u64 = 30;
const N_VERTICES: u32 = 24; // 3 segments of capacity 8
const DIM: usize = 4;
const DOC: u32 = 0; // vertex type id
const LINKS: u32 = 0; // edge type id
const EMB: u32 = 0; // embedding attribute id

fn layout() -> SegmentLayout {
    SegmentLayout::with_capacity(8)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        // Above the dataset size: every segment search is an exact scan,
        // so results are deterministic however the index was built.
        planner: tv_common::PlannerConfig::default().with_brute_threshold(1024),
        query_threads: 1,
        default_ef: 64,
    }
}

fn test_dir(label: &str) -> PathBuf {
    // Tests of this binary run on parallel threads and several of them
    // build the same `oracle`: each call gets a directory of its own.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("tv-torture-{pid}-{call}-{label}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, plan: Injector) -> Graph {
    let g = Graph::durable_with_plan(dir, layout(), config(), plan).unwrap();
    g.create_vertex_type("Doc", &[("title", AttrType::Str), ("score", AttrType::Int)])
        .unwrap();
    g.create_edge_type("links", "Doc", "Doc").unwrap();
    g.add_embedding_attribute(
        "Doc",
        EmbeddingTypeDef::new("emb", DIM, "GPT4", DistanceMetric::L2),
    )
    .unwrap();
    g
}

fn vec_for(t: u64, v: u32) -> Vec<f32> {
    let mut rng = SplitMix64::new(0x70C7_0000 ^ (t << 8) ^ u64::from(v));
    (0..DIM).map(|_| rng.next_f32() * 4.0).collect()
}

/// Commit transaction `t` of the script. Fully determined by `t`.
fn apply_txn(g: &Graph, t: u64) -> TvResult<Tid> {
    let v = ((t * 7) % u64::from(N_VERTICES)) as u32;
    let id = layout().vertex_id(v as usize);
    let txn = match t % 5 {
        0 if t > 5 => g.txn().delete_vertex(DOC, id),
        4 if t > 5 => g.txn().set_vector(EMB, id, vec_for(t, v)),
        3 => {
            let w = ((t * 11 + 3) % u64::from(N_VERTICES)) as u32;
            let other = layout().vertex_id(w as usize);
            g.txn()
                .upsert_vertex(
                    DOC,
                    id,
                    vec![AttrValue::Str(format!("doc-{t}")), AttrValue::Int(t as i64)],
                )
                .set_vector(EMB, id, vec_for(t, v))
                .add_edge(LINKS, DOC, id, other)
        }
        _ => g
            .txn()
            .upsert_vertex(
                DOC,
                id,
                vec![AttrValue::Str(format!("doc-{t}")), AttrValue::Int(t as i64)],
            )
            .set_vector(EMB, id, vec_for(t, v)),
    };
    let tid = txn.commit()?;
    assert_eq!(tid, Tid(t), "script TIDs must track txn numbers");
    Ok(tid)
}

/// Maintenance keyed to the script position: checkpoints after TID 10 and
/// 20, the two-stage embedding vacuum plus graph vacuum after TID 15.
fn maintenance(g: &Graph, t: u64) -> TvResult<()> {
    match t {
        10 | 20 => {
            g.checkpoint()?;
        }
        15 => {
            let up_to = g.read_tid();
            g.store().vacuum();
            g.embeddings().delta_merge(EMB, up_to)?;
            g.embeddings().index_merge(EMB, up_to, 1)?;
        }
        _ => {}
    }
    Ok(())
}

fn run_from(g: &Graph, from: u64, to: u64) -> TvResult<()> {
    for t in from..=to {
        apply_txn(g, t)?;
        maintenance(g, t)?;
    }
    Ok(())
}

/// Full observable state, rendered to comparable strings: per-vertex
/// liveness/attributes/edges/embedding (with f32 bit patterns) plus exact
/// top-k results for deterministic probe queries.
fn fingerprint(g: &Graph) -> Vec<String> {
    let tid = g.read_tid();
    let mut out = vec![format!("read_tid={tid}")];
    for v in 0..N_VERTICES {
        let id = layout().vertex_id(v as usize);
        let live = g.is_live(DOC, id, tid).unwrap();
        let title = g.attr(DOC, id, "title", tid).unwrap();
        let score = g.attr(DOC, id, "score", tid).unwrap();
        let edges = g.out_neighbors(DOC, id, LINKS, tid).unwrap();
        let emb: Option<Vec<u32>> = g
            .embedding_of(EMB, id, tid)
            .unwrap()
            .map(|e| e.iter().map(|x| x.to_bits()).collect());
        out.push(format!(
            "v{v}: {live} {title:?} {score:?} {edges:?} {emb:?}"
        ));
    }
    for probe in 0..3u64 {
        let q = vec_for(1000 + probe, 0);
        let (r, _) = g.vector_search(&[EMB], &q, 5, 64, None, tid).unwrap();
        let hits: Vec<String> = r
            .iter()
            .map(|tn| format!("{}@{:08x}", tn.neighbor.id, tn.neighbor.dist.to_bits()))
            .collect();
        out.push(format!("probe{probe}: {hits:?}"));
    }
    out
}

/// The no-crash oracle: the script run start to finish in one process life.
fn oracle() -> Vec<String> {
    let dir = test_dir("oracle");
    let g = open(&dir, Injector::default());
    run_from(&g, 1, N_TXNS).unwrap();
    let fp = fingerprint(&g);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
    fp
}

/// Crash at every reachable crash point and require recovery to converge to
/// the oracle state bit-for-bit.
#[test]
fn torture_every_crash_point_recovers_to_oracle() {
    let want = oracle();

    // Observation pass: count how often each crash point is reached.
    let observe = Injector::live();
    {
        let dir = test_dir("observe");
        let g = open(&dir, observe.clone());
        run_from(&g, 1, N_TXNS).unwrap();
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    for point in Point::DURABILITY {
        let hits = observe.hits(point);
        assert!(hits > 0, "crash point {point} never reached by the script");
        // Sample crash positions: first, second, middle, last occurrence.
        let mut nths = vec![1, 2, hits / 2, hits];
        nths.retain(|&n| n >= 1 && n <= hits);
        nths.dedup();
        for nth in nths {
            let dir = test_dir(&format!("{}-{nth}", point.to_string().replace('/', "_")));

            // Run until the armed crash point trips; the Err is the "crash".
            let plan = Injector::live();
            plan.arm(point, Action::Fail, nth, Some(1));
            let g = open(&dir, plan.clone());
            g.recover().unwrap();
            let err = run_from(&g, 1, N_TXNS)
                .expect_err("armed crash point must trip before the script ends");
            assert!(
                matches!(err, TvError::Injected(_)),
                "expected injected crash at {point}#{nth}, got {err}"
            );
            drop(g); // process death

            // Recover and resume from the first non-durable transaction.
            let g = open(&dir, Injector::default());
            g.recover()
                .unwrap_or_else(|e| panic!("recovery after {point}#{nth} failed: {e}"));
            let next = g.read_tid().0 + 1;
            run_from(&g, next, N_TXNS).unwrap();
            assert_eq!(
                fingerprint(&g),
                want,
                "state diverged from oracle after crash at {point}#{nth}"
            );
            drop(g);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// After a checkpoint rotates the WAL, recovery restores the checkpoint and
/// replays only the tail beyond its TID.
#[test]
fn recovery_after_rotation_replays_only_the_tail() {
    let dir = test_dir("rotation");
    {
        let g = open(&dir, Injector::default());
        run_from(&g, 1, N_TXNS).unwrap();
    }
    let g = open(&dir, Injector::default());
    let report = g.recover().unwrap();
    assert_eq!(report.checkpoint, Some(Tid(20)));
    assert_eq!(report.replayed, (N_TXNS - 20) as usize);
    assert_eq!(report.skipped_checkpoints, 0);
    assert_eq!(fingerprint(&g), oracle());
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Flip one byte in the manifest of the checkpoint taken at `tid`.
fn corrupt_checkpoint(dir: &Path, tid: u64) {
    let manifest = dir
        .join("checkpoints")
        .join(format!("ckpt-{tid:020}"))
        .join("MANIFEST");
    let mut bytes = std::fs::read(&manifest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&manifest, &bytes).unwrap();
}

/// A corrupted newest checkpoint is skipped; recovery falls back to its
/// predecessor and replays the longer WAL tail to the same final state.
#[test]
fn corrupt_newest_checkpoint_falls_back_to_previous() {
    let dir = test_dir("fallback");
    {
        let g = open(&dir, Injector::default());
        run_from(&g, 1, N_TXNS).unwrap();
    }
    corrupt_checkpoint(&dir, 20);

    let g = open(&dir, Injector::default());
    let report = g.recover().unwrap();
    assert_eq!(report.checkpoint, Some(Tid(10)));
    assert_eq!(report.skipped_checkpoints, 1);
    assert_eq!(report.replayed, (N_TXNS - 10) as usize);
    assert_eq!(fingerprint(&g), oracle());
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

fn ckpt_dir(dir: &Path, tid: u64) -> PathBuf {
    dir.join("checkpoints").join(format!("ckpt-{tid:020}"))
}

/// A durafile container is 28 header bytes, the payload CRC at 24..28, then
/// the payload: whether `bytes` verifies on its own.
fn container_verifies(bytes: &[u8]) -> bool {
    let crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    tv_common::crc32(&bytes[28..]) == crc
}

/// Copy `name` from the checkpoint taken at TID 10 over the file of that
/// name in the checkpoint taken at TID 20. The copy is a whole container
/// whose own CRC verifies: only checkpoint 20's manifest entry can tell
/// that it belongs to another checkpoint.
fn transplant_older_file(dir: &Path, name: &str) {
    let older = std::fs::read(ckpt_dir(dir, 10).join(name)).unwrap();
    let newer = std::fs::read(ckpt_dir(dir, 20).join(name)).unwrap();
    assert_ne!(older, newer, "{name} must differ between the checkpoints");
    assert!(container_verifies(&older), "{name} verifies alone");
    std::fs::write(ckpt_dir(dir, 20).join(name), &older).unwrap();
}

/// Change one digit of a title in checkpoint 20's `graph-t0-s0.seg` and
/// reseal its container: same length, still decodable, own CRC valid, so
/// only the manifest's CRC tells the file is not the one it listed.
fn reseal_graph_file(dir: &Path) {
    let path = ckpt_dir(dir, 20).join("graph-t0-s0.seg");
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes
        .windows(4)
        .position(|w| w == b"doc-")
        .expect("a title in the image")
        + 4;
    bytes[at] = b'0' + (bytes[at] - b'0' + 1) % 10;
    let crc = tv_common::crc32(&bytes[28..]);
    bytes[24..28].copy_from_slice(&crc.to_le_bytes());
    assert!(container_verifies(&bytes));
    std::fs::write(&path, &bytes).unwrap();
}

/// After `tamper` swaps a data file of checkpoint 20 for one its manifest
/// did not list, recovery skips checkpoint 20, restores 10, replays, and
/// reaches the oracle.
fn swapped_file_falls_back_to_previous(label: &str, tamper: impl Fn(&Path)) {
    let dir = test_dir(label);
    {
        let g = open(&dir, Injector::default());
        run_from(&g, 1, N_TXNS).unwrap();
    }
    tamper(&dir);

    let g = open(&dir, Injector::default());
    let report = g.recover().unwrap();
    assert_eq!(report.skipped_checkpoints, 1);
    assert_eq!(report.checkpoint, Some(Tid(10)));
    assert_eq!(report.replayed, (N_TXNS - 10) as usize);
    assert_eq!(fingerprint(&g), oracle());
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn embedding_image_of_an_older_checkpoint_is_refused_by_the_manifest() {
    swapped_file_falls_back_to_previous("transplant-emb", |dir| {
        transplant_older_file(dir, "emb-a0-s0.vec");
    });
}

#[test]
fn graph_image_of_an_older_checkpoint_is_refused_by_the_manifest() {
    swapped_file_falls_back_to_previous("transplant-graph", |dir| {
        transplant_older_file(dir, "graph-t0-s0.seg");
    });
}

/// The two files above also differ in length from the ones they replace;
/// this one differs only in the CRC the manifest recorded.
#[test]
fn resealed_image_of_the_same_length_is_refused_by_the_manifest() {
    swapped_file_falls_back_to_previous("reseal-graph", reseal_graph_file);
}

/// With *every* retained checkpoint corrupt there is nothing to fall back
/// to: the WAL was rotated past the older one, so it starts at TID 11.
/// Replaying it onto an empty graph would silently drop transactions 1–10;
/// recovery must refuse, naming where its state ends and the log resumes.
#[test]
fn every_checkpoint_corrupt_is_an_error_not_a_hole_in_history() {
    let dir = test_dir("no-fallback");
    {
        let g = open(&dir, Injector::default());
        run_from(&g, 1, N_TXNS).unwrap();
    }
    corrupt_checkpoint(&dir, 10);
    corrupt_checkpoint(&dir, 20);

    let g = open(&dir, Injector::default());
    let err = g.recover().expect_err("ten transactions are unrecoverable");
    assert!(matches!(err, TvError::Storage(_)), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("TID 0") && msg.contains("TID 11"), "{msg}");
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transaction carrying both graph deltas and vector deltas is atomically
/// present or absent after a crash — never split across the two stores.
#[test]
fn mixed_txn_atomic_across_crash() {
    for (point, expect_present) in [
        // Crash mid-WAL-append: the record never became durable — neither
        // the vertex nor its vector may surface after recovery.
        (Point::CommitMidWalAppend, false),
        // Crash after the WAL sync: the record is durable — both the vertex
        // and its vector must surface after recovery.
        (Point::CommitPostWalPreApply, true),
    ] {
        let dir = test_dir(&format!("atomic-{}", point.to_string().replace('/', "_")));
        let plan = Injector::live();
        plan.arm(point, Action::Fail, 1, Some(1));
        let g = open(&dir, plan.clone());
        let id = layout().vertex_id(0);
        let err = g
            .txn()
            .upsert_vertex(DOC, id, vec![AttrValue::Str("x".into()), AttrValue::Int(1)])
            .set_vector(EMB, id, vec![1.0, 2.0, 3.0, 4.0])
            .commit()
            .expect_err("armed commit crash");
        assert!(matches!(err, TvError::Injected(_)));
        drop(g);

        let g = open(&dir, Injector::default());
        g.recover().unwrap();
        let tid = g.read_tid();
        let live = g.is_live(DOC, id, tid).unwrap();
        let emb = g.embedding_of(EMB, id, tid).unwrap();
        assert_eq!(live, expect_present, "graph side after {point}");
        assert_eq!(
            emb,
            expect_present.then(|| vec![1.0, 2.0, 3.0, 4.0]),
            "vector side after {point}"
        );
        assert_eq!(
            live,
            emb.is_some(),
            "graph and vector state split by {point}"
        );
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Upsert vertex `v` with its title and vector in one transaction.
fn write_doc(g: &Graph, v: u32) -> TvResult<Tid> {
    let id = layout().vertex_id(v as usize);
    g.txn()
        .upsert_vertex(
            DOC,
            id,
            vec![AttrValue::Str(format!("doc-{v}")), AttrValue::Int(v.into())],
        )
        .set_vector(EMB, id, vec_for(0, v))
        .commit()
}

/// A process that keeps running after `point` failed its second commit:
/// every later commit is refused with a typed storage error until the
/// store is reopened. Had the third commit been acknowledged, it would have
/// been appended after a torn frame (which makes the log unreadable at
/// restart) or under the failed commit's TID (which makes replay apply a
/// commit its caller was told had failed). After the reopen, every
/// acknowledged commit is recovered, the log's TIDs strictly increase, and
/// commits resume.
fn commits_after_a_failed_commit_are_refused_until_reopen(point: Point) {
    let dir = test_dir(&format!("poison-{}", point.to_string().replace('/', "_")));
    let plan = Injector::live();
    plan.arm(point, Action::Fail, 2, Some(1));
    let g = open(&dir, plan);
    let acked = write_doc(&g, 0).unwrap();
    let err = write_doc(&g, 1).expect_err("armed commit failure");
    assert!(matches!(err, TvError::Injected(_)), "{err}");
    for v in 2..4 {
        let later = write_doc(&g, v);
        assert!(
            matches!(later, Err(TvError::Storage(_))),
            "commit after a failed one at {point} must be refused, got {later:?}"
        );
    }
    drop(g);

    let g = open(&dir, Injector::default());
    g.recover()
        .unwrap_or_else(|e| panic!("recovery after a failed commit at {point}: {e}"));
    let tid = g.read_tid();
    let id = layout().vertex_id(0);
    assert!(tid >= acked);
    assert!(g.is_live(DOC, id, tid).unwrap(), "acknowledged commit lost");
    assert_eq!(g.embedding_of(EMB, id, tid).unwrap(), Some(vec_for(0, 0)));
    let log = tg_storage::Wal::replay(&dir.join(tg_graph::durability::WAL_FILE)).unwrap();
    let tids: Vec<u64> = log.iter().map(|r| r.tid.0).collect();
    assert!(tids.windows(2).all(|w| w[0] < w[1]), "log TIDs {tids:?}");
    assert_eq!(write_doc(&g, 2).unwrap(), Tid(tid.0 + 1));
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_wal_append_refuses_later_commits_until_reopen() {
    commits_after_a_failed_commit_are_refused_until_reopen(Point::CommitMidWalAppend);
}

#[test]
fn failure_after_the_wal_append_refuses_later_commits_until_reopen() {
    commits_after_a_failed_commit_are_refused_until_reopen(Point::CommitPostWalPreApply);
}

fn open_quant(dir: &Path, plan: Injector) -> Graph {
    let g = Graph::durable_with_plan(dir, layout(), config(), plan).unwrap();
    g.create_vertex_type("Doc", &[("title", AttrType::Str), ("score", AttrType::Int)])
        .unwrap();
    g.create_edge_type("links", "Doc", "Doc").unwrap();
    g.add_embedding_attribute(
        "Doc",
        EmbeddingTypeDef::new("emb", DIM, "GPT4", DistanceMetric::L2).with_quant(QuantSpec::sq8()),
    )
    .unwrap();
    g
}

/// Serialized image of each segment's snapshot visible at the vacuum TID —
/// this is exactly what the checkpoint persisted for the quantized index.
fn quant_snapshot_bytes(g: &Graph) -> Vec<Vec<u8>> {
    g.embeddings()
        .attr(EMB)
        .unwrap()
        .all_segments()
        .iter()
        .map(|s| tv_hnsw::snapshot::to_bytes(&s.snapshot_for(Tid(15)).index))
        .collect()
}

/// A segment declared SQ8 trains its codec at the script's index merge, the
/// checkpoint persists codes + codebook, and recovery restores them
/// **byte-identically** — both via the checkpoint restore path and via a
/// mid-checkpoint crash that forces codec retraining during script replay.
#[test]
fn quantized_segment_checkpoint_recovery_is_byte_identical() {
    let dir = test_dir("quant");
    let (want, want_bytes) = {
        let g = open_quant(&dir, Injector::default());
        run_from(&g, 1, N_TXNS).unwrap();
        let attr = g.embeddings().attr(EMB).unwrap();
        assert!(
            attr.all_segments()
                .iter()
                .any(|s| s.storage_tier() == StorageTier::Sq8),
            "index merge at TID 15 should have trained the SQ8 codec"
        );
        (fingerprint(&g), quant_snapshot_bytes(&g))
    }; // process death

    // Recovery path 1: restore the checkpoint (TID 20) + replay the tail.
    let g = open_quant(&dir, Injector::default());
    g.recover().unwrap();
    assert_eq!(
        quant_snapshot_bytes(&g),
        want_bytes,
        "quantized snapshot bytes diverged across checkpoint recovery"
    );
    run_from(&g, g.read_tid().0 + 1, N_TXNS).unwrap();
    assert_eq!(fingerprint(&g), want);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);

    // Recovery path 2: crash *inside* the TID-20 checkpoint write. Recovery
    // falls back to the TID-10 checkpoint (pre-quantization) and the resumed
    // script retrains the codec — which must be deterministic enough to
    // reproduce the same bytes and the same search results.
    let dir = test_dir("quant-midckpt");
    let plan = Injector::live();
    plan.arm(Point::CheckpointMidWrite, Action::Fail, 2, Some(1));
    let g = open_quant(&dir, plan.clone());
    g.recover().unwrap();
    let err = run_from(&g, 1, N_TXNS).expect_err("armed mid-checkpoint crash must trip");
    assert!(matches!(err, TvError::Injected(_)));
    drop(g);

    let g = open_quant(&dir, Injector::default());
    g.recover().unwrap();
    run_from(&g, g.read_tid().0 + 1, N_TXNS).unwrap();
    assert_eq!(
        quant_snapshot_bytes(&g),
        want_bytes,
        "codec retraining after mid-checkpoint crash is not deterministic"
    );
    assert_eq!(fingerprint(&g), want);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Layout and serialized image of each segment's snapshot visible at the
/// vacuum TID. The default attribute declares the packed+prefetch layout,
/// so the index merge at TID 15 compiles the frozen CSR form and the
/// checkpoint persists it (the snapshot carries the layout tag).
fn compiled_snapshot_state(g: &Graph) -> Vec<(tv_common::GraphLayout, Vec<u8>)> {
    g.embeddings()
        .attr(EMB)
        .unwrap()
        .all_segments()
        .iter()
        .map(|s| {
            let index = &s.snapshot_for(Tid(15)).index;
            (index.layout(), tv_hnsw::snapshot::to_bytes(index))
        })
        .collect()
}

/// A segment with the default (packed+prefetch) layout compiles its frozen
/// CSR form at the script's index merge; the checkpoint persists the
/// compiled snapshot and recovery restores it **byte-identically** — both
/// via the checkpoint restore path (no recompile: the layout tag and BFS
/// permutation ride in the snapshot bytes) and via a mid-checkpoint crash
/// whose replay path recompiles from scratch.
#[test]
fn compiled_segment_checkpoint_recovery_is_byte_identical() {
    let dir = test_dir("layout");
    let (want, want_state) = {
        let g = open(&dir, Injector::default());
        run_from(&g, 1, N_TXNS).unwrap();
        let state = compiled_snapshot_state(&g);
        assert!(
            state.iter().any(|(l, _)| l.is_packed()),
            "index merge at TID 15 should have compiled the packed layout"
        );
        (fingerprint(&g), state)
    }; // process death

    // Recovery path 1: restore the checkpoint (TID 20) + replay the tail.
    let g = open(&dir, Injector::default());
    g.recover().unwrap();
    assert_eq!(
        compiled_snapshot_state(&g),
        want_state,
        "compiled snapshot diverged across checkpoint recovery"
    );
    run_from(&g, g.read_tid().0 + 1, N_TXNS).unwrap();
    assert_eq!(fingerprint(&g), want);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);

    // Recovery path 2: crash *inside* the TID-20 checkpoint write. Recovery
    // falls back to the TID-10 checkpoint (pre-compile), so the resumed
    // script re-runs the TID-15 index merge and recompiles — the BFS
    // reordering is deterministic, so it must reproduce the same bytes.
    let dir = test_dir("layout-midckpt");
    let plan = Injector::live();
    plan.arm(Point::CheckpointMidWrite, Action::Fail, 2, Some(1));
    let g = open(&dir, plan.clone());
    g.recover().unwrap();
    let err = run_from(&g, 1, N_TXNS).expect_err("armed mid-checkpoint crash must trip");
    assert!(matches!(err, TvError::Injected(_)));
    drop(g);

    let g = open(&dir, Injector::default());
    g.recover().unwrap();
    run_from(&g, g.read_tid().0 + 1, N_TXNS).unwrap();
    assert_eq!(
        compiled_snapshot_state(&g),
        want_state,
        "recompile after mid-checkpoint crash did not reproduce the compiled bytes"
    );
    assert_eq!(fingerprint(&g), want);
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Vertex-id allocation watermarks survive checkpoint + recovery: fresh ids
/// never collide with pre-crash ids.
#[test]
fn allocation_watermark_survives_recovery() {
    let dir = test_dir("alloc");
    let pre;
    {
        let g = open(&dir, Injector::default());
        let ids = g.allocate_many(DOC, 5).unwrap();
        let mut txn = g.txn();
        for (i, &id) in ids.iter().enumerate() {
            txn = txn.upsert_vertex(
                DOC,
                id,
                vec![AttrValue::Str(format!("d{i}")), AttrValue::Int(i as i64)],
            );
        }
        txn.commit().unwrap();
        g.checkpoint().unwrap();
        pre = ids;
    }
    let g = open(&dir, Injector::default());
    g.recover().unwrap();
    let fresh = g.allocate_many(DOC, 5).unwrap();
    for id in &fresh {
        assert!(!pre.contains(id), "recycled vertex id {id} after recovery");
    }
    drop(g);
    let _ = std::fs::remove_dir_all(&dir);
}
