//! Workload definitions and set-up: build the durable graph, load it,
//! vacuum the delta tail to empty, assert the declared layout, and put the
//! `tv-server` gateway (with a two-server cluster runtime holding the same
//! segments, and the background vacuum) in front of it.
//!
//! Every crate config is its `Default` except segment capacity and
//! `RuntimeConfig.servers`, so a PR that changes a default shows up here.

use crate::gen::AUTHORS;
use crate::oracle::{Mirror, SEGMENTS};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tg_graph::{AccessControl, Graph, Role};
use tg_storage::{AttrType, AttrValue};
use tv_cluster::{ClusterRuntime, RuntimeConfig};
use tv_common::ids::{LocalId, SegmentId, SegmentLayout, VertexId};
use tv_common::{DistanceMetric, Tid};
use tv_embedding::vacuum::VacuumHooks;
use tv_embedding::{BackgroundVacuum, EmbeddingTypeDef, ServiceConfig, VacuumConfig};
use tv_server::{Server, ServerConfig, Session};

pub type Res<T> = Result<T, String>;

/// Stringify any displayable error with what was being attempted.
pub fn ctx<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

pub const K: usize = 10;
/// `ef > k`, so the beam is not clamped up to `k` (the fig7 flat-recall
/// artefact). Equal to `TuningDefaults::default().default_ef`, which the
/// GSQL and batcher doors use; the cluster door passes it explicitly.
pub const EF: usize = 64;
pub const RECALL_FLOOR: f64 = 0.95;

/// The writer's fixed schedule: 50 txn/s, each 12 updates, 3 inserts and
/// 1 delete.
pub const WRITER_PERIOD: Duration = Duration::from_millis(20);
pub const TXN_UPDATES: usize = 12;
pub const TXN_INSERTS: usize = 3;
/// The quiesced write probe every workload ends with: paced commits, so
/// that `recover_s` and the per-layer write metrics exist (and `recover_s`
/// is never 0) on the three read-only workloads too.
pub const PROBE_PERIOD: Duration = Duration::from_millis(4);
pub const PROBE_TXNS: usize = 250;
/// Transactions committed after the final checkpoint, so that recovery
/// replays a WAL tail as well as restoring the checkpoint.
pub const TAIL_TXNS: usize = 4;
/// Docs per load transaction.
const LOAD_BATCH: usize = 500;
/// Discarded before the first part of the window is measured: the process
/// (its pools, the machine's clocks) and the first set-up warm up.
const WARM_UP: Duration = Duration::from_secs(3);
/// Discarded before each further part: only that set-up's pages and scratch
/// buffers are cold.
const PART_WARM_UP: Duration = Duration::from_millis(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// `Server::query` with the plain top-k text.
    Gsql,
    /// `Server::cluster_top_k` over the attached runtime.
    Cluster,
    /// `Server::query`, equal shares of three selectivities and a 1-hop
    /// pattern.
    GsqlFiltered,
    /// `Server::vector_top_k` (the batcher path) beside a paced writer.
    TopKWithWriter,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub dim: usize,
    pub n: usize,
    pub door: Door,
    /// Queries the traced ladder sends through every layer.
    pub ladder_queries: usize,
    /// Queries the quiesced pass checks against the f64 brute force.
    pub recall_queries: usize,
    /// Set-ups one run measures. The window is cut into this many equal
    /// parts and each part is served by a graph loaded, vacuumed and started
    /// for it alone; `setup_s` is the median of those set-ups. Where the data
    /// fits the cache, one loaded graph serves steadily but up to 15 % faster
    /// or slower than the next one loaded from the same inputs in the same
    /// process (where its pages land), so `gsql_light`, whose set-up is the
    /// cheapest, measures six; see `benchmark/README.md` ("Steadiness").
    pub parts: usize,
}

/// `n` follows the issue's table except `hybrid_filtered`, halved to
/// 10 000: its filtered queries cost ~4 µs per `Doc` today, and at 20 000 the
/// window holds too few of them for a p95. Ladder and recall query counts
/// are what keeps 92 runs of a 15-second window inside the driver's
/// 3 420 s on two cores; see `benchmark/README.md` ("Sizes").
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "gsql_light",
        dim: 32,
        n: 8_000,
        door: Door::Gsql,
        ladder_queries: 2_000,
        recall_queries: 1_000,
        parts: 6,
    },
    Spec {
        name: "cluster_heavy",
        dim: 768,
        n: 16_000,
        door: Door::Cluster,
        ladder_queries: 1_000,
        recall_queries: 400,
        parts: 3,
    },
    Spec {
        name: "hybrid_filtered",
        dim: 128,
        n: 10_000,
        door: Door::GsqlFiltered,
        ladder_queries: 1_000,
        recall_queries: 120,
        parts: 3,
    },
    Spec {
        name: "fresh_mixed",
        dim: 128,
        n: 20_000,
        door: Door::TopKWithWriter,
        ladder_queries: 1_000,
        recall_queries: 400,
        parts: 3,
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// One run's sizes and durations, after `--smoke` and `--seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub spec: Spec,
    pub n: usize,
    pub cap: usize,
    pub queries: usize,
    pub ladder_queries: usize,
    pub class_queries: usize,
    pub recall_queries: usize,
    /// The measured window, `--seconds`: all parts together.
    pub measured: Duration,
    /// Warm-up before the first part and before each further one, and the
    /// measured time of each of the `spec.parts` parts.
    pub warm: Duration,
    pub part_warm: Duration,
    pub window: Duration,
}

impl Shape {
    pub fn new(spec: Spec, seconds: u64, smoke: bool) -> Shape {
        let div = if smoke { 10 } else { 1 };
        let parts = spec.parts as u32;
        let measured = Duration::from_secs(seconds);
        let window = measured / parts;
        // `--smoke` has a two-second window; it warms up for half of that.
        let warm = WARM_UP.min(measured / 2);
        let part_warm = PART_WARM_UP.min(warm);
        let n = (spec.n / div).next_multiple_of(SEGMENTS);
        let mut txns = PROBE_TXNS + TAIL_TXNS;
        if spec.door == Door::TopKWithWriter {
            // The writer runs through one part and its warm-up.
            txns += ((warm + window).as_millis() / WRITER_PERIOD.as_millis()) as usize + 1;
        }
        let headroom = (txns * TXN_INSERTS).div_ceil(SEGMENTS) + 64;
        Shape {
            spec,
            n,
            cap: n / SEGMENTS + headroom,
            queries: 2_048 / div,
            ladder_queries: spec.ladder_queries / div,
            class_queries: 40 / div,
            recall_queries: spec.recall_queries / div,
            measured,
            warm,
            part_warm,
            window,
        }
    }
}

/// Catalog ids the harness needs after DDL.
#[derive(Debug, Clone, Copy)]
pub struct Schema {
    pub doc: u32,
    pub author: u32,
    pub wrote: u32,
    pub attr: u32,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupReport {
    pub total_s: f64,
    pub merge_s: f64,
}

pub struct Rig {
    pub dir: PathBuf,
    pub graph: Arc<Graph>,
    pub server: Arc<Server>,
    pub cluster: Arc<ClusterRuntime>,
    /// Running until [`Rig::stop_vacuum`] takes it.
    vacuum: Mutex<Option<BackgroundVacuum>>,
    pub session: Session,
    pub schema: Schema,
    pub report: SetupReport,
}

pub fn author_id(a: usize) -> VertexId {
    VertexId::new(SegmentId(0), LocalId(a as u32))
}

pub fn author_name(a: usize) -> String {
    format!("author-{a}")
}

/// Open a durable graph at `dir` and run the DDL. Recovery needs the same
/// DDL in the same order, so both paths come through here.
pub fn open_graph(dir: &Path, dim: usize, cap: usize) -> Res<(Graph, Schema)> {
    let graph = ctx(
        Graph::durable(
            dir,
            SegmentLayout::with_capacity(cap),
            ServiceConfig::default(),
        ),
        "open durable graph",
    )?;
    let doc = ctx(
        graph.create_vertex_type("Doc", &[("bucket", AttrType::Int)]),
        "create Doc",
    )?;
    let author = ctx(
        graph.create_vertex_type("Author", &[("name", AttrType::Str)]),
        "create Author",
    )?;
    let wrote = ctx(
        graph.create_edge_type("wrote", "Author", "Doc"),
        "create wrote",
    )?;
    let attr = ctx(
        graph.add_embedding_attribute(
            "Doc",
            EmbeddingTypeDef::new("emb", dim, "M", DistanceMetric::L2),
        ),
        "add embedding attribute",
    )?;
    Ok((
        graph,
        Schema {
            doc,
            author,
            wrote,
            attr,
        },
    ))
}

fn load(graph: &Graph, schema: Schema, mirror: &Mirror) -> Res<()> {
    let mut txn = graph.txn();
    for a in 0..AUTHORS {
        txn = txn.upsert_vertex(
            schema.author,
            author_id(a),
            vec![AttrValue::Str(author_name(a))],
        );
    }
    ctx(txn.commit(), "load authors")?;

    let live: Vec<usize> = (0..mirror.slots()).filter(|&s| mirror.is_live(s)).collect();
    for batch in live.chunks(LOAD_BATCH) {
        let mut txn = graph.txn();
        for &slot in batch {
            let id = mirror.id_of(slot);
            txn = txn
                .upsert_vertex(
                    schema.doc,
                    id,
                    vec![AttrValue::Int(i64::from(mirror.bucket(slot)))],
                )
                .set_vector(schema.attr, id, mirror.vector(slot).to_vec());
            if let Some(a) = mirror.author(slot) {
                txn = txn.add_edge(schema.wrote, schema.author, author_id(a as usize), id);
            }
        }
        ctx(txn.commit(), "load docs")?;
    }
    Ok(())
}

/// `delta_merge` + `index_merge` + prune until no segment has a delta tail.
pub fn vacuum_to_empty(graph: &Graph, attr: u32) -> Res<()> {
    let emb = graph.embeddings();
    let threads = VacuumConfig::default().max_merge_threads;
    for _ in 0..8 {
        let tid = graph.read_tid();
        ctx(emb.delta_merge(attr, tid), "delta merge")?;
        ctx(emb.index_merge(attr, tid, threads), "index merge")?;
        emb.prune(graph.store().txn().vacuum_horizon());
        if emb.total_mem_deltas() == 0 && emb.total_delta_files() == 0 {
            return Ok(());
        }
    }
    Err("delta tail not empty after 8 vacuum rounds".into())
}

/// Do not repeat `serve_load`'s mistake of timing an unvacuumed graph:
/// before any timing, every segment must serve from one snapshot in the
/// attribute's declared layout, with nothing left in the delta tail.
fn assert_layout(graph: &Graph, attr: u32, mirror: &Mirror) -> Res<()> {
    let a = ctx(graph.embeddings().attr(attr), "embedding attribute")?;
    let segments = a.all_segments();
    if segments.len() != SEGMENTS {
        return Err(format!("{} segments, declared {SEGMENTS}", segments.len()));
    }
    for seg in &segments {
        let snap = seg.newest_snapshot();
        if seg.mem_delta_count() != 0 || seg.delta_file_count() != 0 || seg.snapshot_count() != 1 {
            return Err(format!("segment {} not fully vacuumed", seg.segment_id.0));
        }
        if snap.index.layout() != a.def.layout {
            return Err(format!(
                "segment {} serves layout {}, declared {}",
                seg.segment_id.0,
                snap.index.layout(),
                a.def.layout
            ));
        }
    }
    let live = a.live_count(graph.read_tid());
    if live != mirror.live_count {
        return Err(format!("{live} live vectors, loaded {}", mirror.live_count));
    }
    Ok(())
}

pub fn start_vacuum(graph: &Arc<Graph>) -> BackgroundVacuum {
    let committed = Arc::clone(graph);
    let horizon = Arc::clone(graph);
    BackgroundVacuum::start(
        Arc::clone(graph.embeddings()),
        VacuumHooks {
            committed: Arc::new(move || committed.read_tid()),
            horizon: Arc::new(move || horizon.store().txn().vacuum_horizon()),
            // Both cores are driven by the load threads for the whole run.
            load: Arc::new(|| 1.0),
        },
        VacuumConfig::default(),
    )
}

impl Rig {
    /// Timed as `setup_s`: load, vacuum to empty, assert the layout, start
    /// the serving tier.
    pub fn setup(dir: PathBuf, shape: &Shape, mirror: &Mirror) -> Res<Rig> {
        let t0 = Instant::now();
        let (graph, schema) = open_graph(&dir, shape.spec.dim, shape.cap)?;
        load(&graph, schema, mirror)?;

        let t1 = Instant::now();
        vacuum_to_empty(&graph, schema.attr)?;
        let merge_s = t1.elapsed().as_secs_f64();
        assert_layout(&graph, schema.attr, mirror)?;

        let graph = Arc::new(graph);
        let cluster = Arc::new(ClusterRuntime::start(RuntimeConfig {
            servers: 2,
            ..RuntimeConfig::default()
        }));
        for seg in ctx(graph.embeddings().attr(schema.attr), "attr")?.all_segments() {
            cluster.add_segment(seg);
        }
        let acl = AccessControl::new();
        acl.define_role(
            "reader",
            Role::default()
                .allow_type(schema.doc)
                .allow_type(schema.author),
        );
        ctx(acl.assign("rag-app", "reader"), "assign role")?;
        let server = Arc::new(
            Server::new(Arc::clone(&graph), Arc::new(acl), ServerConfig::default())
                .with_cluster(Arc::clone(&cluster)),
        );
        let session = server.open_session("rag", "rag-app");
        let vacuum = Mutex::new(Some(start_vacuum(&graph)));
        Ok(Rig {
            dir,
            graph,
            server,
            cluster,
            vacuum,
            session,
            schema,
            report: SetupReport {
                total_s: t0.elapsed().as_secs_f64(),
                merge_s,
            },
        })
    }

    pub fn tid(&self) -> Tid {
        self.graph.read_tid()
    }

    /// Stop the background vacuum; returns its delta-merge, index-merge and
    /// error counts (zeros if it was stopped before).
    pub fn stop_vacuum(&self) -> (u64, u64, u64) {
        let running = self.vacuum.lock().expect("vacuum handle lock").take();
        match running {
            Some(v) => {
                let counts = (
                    v.delta_merge_count(),
                    v.index_merge_count(),
                    v.error_count(),
                );
                v.stop();
                counts
            }
            None => (0, 0, 0),
        }
    }

    /// Records not yet folded into the newest snapshot, and retained
    /// snapshot versions, summed over segments.
    pub fn tail_and_snapshots(&self) -> (usize, usize) {
        let Ok(attr) = self.graph.embeddings().attr(self.schema.attr) else {
            return (0, 0);
        };
        attr.all_segments().iter().fold((0, 0), |(t, s), seg| {
            let after = seg.newest_snapshot().up_to;
            (
                t + seg.delta_tail(after, Tid::MAX).len(),
                s + seg.snapshot_count(),
            )
        })
    }

    /// Stop the background threads, drop the graph (closing its WAL) and
    /// hand back the data directory for recovery.
    pub fn close(self) -> PathBuf {
        self.stop_vacuum();
        self.dir
    }
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The parts of every workload add up to `--seconds`, and `--smoke`
    /// keeps the names and shrinks the rest.
    #[test]
    fn parts_add_up_to_the_window() {
        for spec in SPECS {
            let full = Shape::new(spec, 15, false);
            assert_eq!(
                full.window * spec.parts as u32,
                full.measured,
                "{}",
                spec.name
            );
            assert_eq!(full.warm, WARM_UP);
            assert_eq!(full.part_warm, PART_WARM_UP);
            let smoke = Shape::new(spec, 2, true);
            assert!(smoke.window * spec.parts as u32 <= smoke.measured);
            assert_eq!(smoke.warm, Duration::from_secs(1));
            assert!(smoke.n * 10 <= spec.n + 10 * SEGMENTS && smoke.n.is_multiple_of(SEGMENTS));
        }
    }
}
