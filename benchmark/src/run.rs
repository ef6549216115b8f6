//! One run of one workload: the measured window in parts, each on a set-up
//! made and warmed up for it; then, on the last set-up, the quiesced
//! correctness pass, (traced runs only) the ladder, and the epilogue that
//! probes the write path, checkpoints, restarts and compares the recovered
//! state bit for bit with the mirror.

use crate::gen::{Inputs, SplitMix64};
use crate::ladder::{run_ladder, Metrics};
use crate::load::{
    query_plan, run_window, Observed, Prepared, Traffic, WindowResult, Writer, WriterLog,
};
use crate::oracle::{answer_ok, recall, truth_many, Mirror};
use crate::rig::{
    ctx, dir_bytes, open_graph, vacuum_to_empty, Res, Rig, Schema, Shape, Spec, K, PROBE_PERIOD,
    PROBE_TXNS, RECALL_FLOOR, TAIL_TXNS,
};
use crate::stats::{
    mean, median, ns_to_us, p50_us, percentile, percentile_supported, slice_percentiles,
    slice_rates, sorted, window_percentile,
};
use crate::trace::Tracer;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tv_embedding::VacuumConfig;

pub struct RunArgs {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
}

pub struct RunOutput {
    pub correct: bool,
    /// `recall_at_10` is at or above the floor; the process exits non-zero
    /// when it is not.
    pub recall_ok: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Exactly the end-to-end metrics (tracing off) or exactly the
    /// per-layer metrics (traced run), in catalogue order.
    pub metrics: Metrics,
    pub provenance: serde_json::Value,
}

/// The tail a traced run merges explicitly: the issue's 16×50 vectors.
const TRACED_TAIL_TXNS: usize = 50;
/// `recover_s` is the median of this many restarts (`setup_s`, of the
/// workload's `parts` set-ups): the driver's contract asks for set-up to be
/// repeated within a run, and a restart is tens of milliseconds on the small
/// workloads.
const RECOVERIES: usize = 5;
const CLEAN_SAMPLE: usize = 256;

/// `VmHWM` of this process, in MB.
fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn commit_id() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// What failed, by kind; the sum is the result line's `failed`.
#[derive(Debug, Default)]
struct Failures {
    /// Reader answers in the window that were `Err` or malformed.
    reader: u64,
    checkpoint: u64,
    /// Commits and read-your-write probe calls that returned `Err`.
    writer: u64,
    /// Malformed answers in the quiesced pass and in the ladder.
    quiesced_pass: u64,
    ladder: u64,
    /// Recovered slots that differ from the mirror.
    recovery: u64,
}

impl Failures {
    fn add_writer(&mut self, log: &WriterLog) {
        self.writer += log.calls_failed;
    }

    fn total(&self) -> u64 {
        self.reader
            + self.checkpoint
            + self.writer
            + self.quiesced_pass
            + self.ladder
            + self.recovery
    }

    fn json(&self) -> serde_json::Value {
        serde_json::json!({
            "reader": self.reader,
            "checkpoint": self.checkpoint,
            "writer": self.writer,
            "quiesced_pass": self.quiesced_pass,
            "ladder": self.ladder,
            "recovery": self.recovery,
        })
    }
}

struct Epilogue {
    probe: WriterLog,
    merge_ms_per_segment: f64,
    checkpoint_ms: f64,
    checkpoint_bytes: f64,
    wal_bytes_per_vector_byte: f64,
    recover_s: f64,
    recover_wal_records: f64,
    checked: u64,
    mismatched: u64,
}

/// Compare the recovered graph with the mirror: every slot written after
/// the load, plus a sample of untouched ones, by `f32::to_bits`.
fn verify_recovered(
    graph: &tg_graph::Graph,
    schema: Schema,
    mirror: &Mirror,
    rng: &mut SplitMix64,
) -> Res<(u64, u64)> {
    let tid = graph.read_tid();
    let mut slots: Vec<usize> = (0..mirror.slots()).filter(|&s| mirror.dirty[s]).collect();
    for _ in 0..CLEAN_SAMPLE {
        slots.push(rng.next_below(mirror.slots() as u64) as usize);
    }
    let mut mismatched = 0u64;
    for &slot in &slots {
        let id = mirror.id_of(slot);
        let got = ctx(
            graph.embedding_of(schema.attr, id, tid),
            "read recovered vector",
        )?;
        let live = ctx(
            graph.is_live(schema.doc, id, tid),
            "read recovered liveness",
        )?;
        let same = match (&got, mirror.is_live(slot)) {
            (Some(v), true) => {
                live && v.len() == mirror.dim
                    && v.iter()
                        .zip(mirror.vector(slot))
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            (None, false) => !live,
            _ => false,
        };
        if !same {
            mismatched += 1;
        }
    }
    Ok((slots.len() as u64, mismatched))
}

fn epilogue(
    rig: Rig,
    shape: &Shape,
    inputs: &Inputs,
    mirror: &mut Mirror,
    traced: bool,
) -> Res<Epilogue> {
    let schema = rig.schema;
    let wal = rig.dir.join("wal.log");
    let wal_before = std::fs::metadata(&wal).map_or(0, |m| m.len());
    let mut rng = inputs.writer_rng.clone();
    rng.next_u64(); // a different stream from the in-window writer's

    // Paced write probe, timed from due time like the in-window writer. A
    // traced run empties the delta tail before the probe's last
    // transactions, so that the merge timed below is of exactly that tail.
    let mut w = Writer::new(&rig, inputs, mirror, rng.fork());
    if traced {
        w.run(PROBE_PERIOD, PROBE_TXNS - TRACED_TAIL_TXNS, None);
        vacuum_to_empty(&rig.graph, schema.attr)?;
        w.run(PROBE_PERIOD, TRACED_TAIL_TXNS, None);
    } else {
        w.run(PROBE_PERIOD, PROBE_TXNS, None);
    }
    let probe = std::mem::take(&mut w.log);
    let wal_after = std::fs::metadata(&wal).map_or(0, |m| m.len());
    let vector_bytes = probe.vectors_written as f64 * inputs.dim as f64 * 4.0;
    let wal_bytes_per_vector_byte =
        wal_after.saturating_sub(wal_before) as f64 / vector_bytes.max(1.0);

    // One explicit delta merge + index merge of the probe's tail.
    let mut merge_ms_per_segment = 0.0;
    if traced {
        let emb = rig.graph.embeddings();
        let tid = rig.tid();
        let t0 = Instant::now();
        ctx(emb.delta_merge(schema.attr, tid), "delta merge")?;
        let merged = ctx(
            emb.index_merge(schema.attr, tid, VacuumConfig::default().max_merge_threads),
            "index merge",
        )?;
        merge_ms_per_segment = t0.elapsed().as_secs_f64() * 1e3 / merged.max(1) as f64;
        emb.prune(rig.graph.store().txn().vacuum_horizon());
    }

    let t0 = Instant::now();
    ctx(rig.server.checkpoint(), "checkpoint")?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let checkpoint_bytes = dir_bytes(&rig.dir.join("checkpoints")) as f64;

    // A WAL tail beyond the checkpoint, so recovery replays as well as
    // restores.
    let mut w = Writer::new(&rig, inputs, mirror, rng.fork());
    w.run(Duration::ZERO, TAIL_TXNS, None);
    let tail = std::mem::take(&mut w.log);

    // Restart: a fresh graph on the same directory, same DDL, recover().
    let dir = rig.close();
    let mut times = Vec::new();
    let mut replayed = 0.0;
    let (mut checked, mut mismatched) = (0, 0);
    for round in 0..RECOVERIES {
        let t0 = Instant::now();
        let (graph, schema) = open_graph(&dir, shape.spec.dim, shape.cap)?;
        let report = ctx(graph.recover(), "recover")?;
        times.push(t0.elapsed().as_secs_f64());
        replayed = report.replayed as f64;
        if round == 0 {
            (checked, mismatched) = verify_recovered(&graph, schema, mirror, &mut rng)?;
        }
    }
    ctx(std::fs::remove_dir_all(&dir), "remove data directory")?;

    let mut probe = probe;
    probe.add_counts(&tail);
    Ok(Epilogue {
        probe,
        merge_ms_per_segment,
        checkpoint_ms,
        checkpoint_bytes,
        wal_bytes_per_vector_byte,
        recover_s: median(&times),
        recover_wal_records: replayed,
        checked,
        mismatched,
    })
}

/// The quiesced pass: `recall_queries` through the front door, one at a
/// time, against the f64 brute force over the mirror at the final TID.
fn recall_pass(traffic: Traffic, queries: usize, mirror: &Mirror) -> (f64, u64, u64) {
    let asked: Vec<(&[f32], _)> = (0..queries)
        .map(|qi| (traffic.inputs.query(qi), query_plan(traffic.door, qi).0))
        .collect();
    let truth = truth_many(mirror, &asked, K);
    let mut recalls = Vec::with_capacity(asked.len());
    let mut failed = 0u64;
    for (qi, ((_, class), truth)) in asked.iter().zip(&truth).enumerate() {
        let rows = traffic.send(qi).0.unwrap_or_default();
        if !answer_ok(
            &rows,
            K.min(mirror.admitted_count(*class)),
            *class,
            Some(mirror),
        ) {
            failed += 1;
        }
        recalls.push(recall(&rows, truth, mirror));
    }
    (mean(&recalls), asked.len() as u64, failed)
}

fn numbers(values: &[f64]) -> Vec<serde_json::Value> {
    values.iter().map(|&v| serde_json::Value::from(v)).collect()
}

/// Everything one run measured, before it is cut into metrics.
struct Facts<'a> {
    args: &'a RunArgs,
    shape: Shape,
    /// `(completion time in the window, latency in ms)` per reader query.
    reads: Vec<(u64, f64)>,
    /// The in-window writer's log (`fresh_mixed` only).
    writer: Option<WriterLog>,
    observed: Observed,
    /// `Server::metrics_json()` after each part of the window.
    server_snapshots: Vec<serde_json::Value>,
    /// `BackgroundVacuum` counters over warm-up + window, all parts: delta
    /// merges, index merges, errors.
    vacuum: (u64, u64, u64),
    mem_bytes_per_vector: f64,
    peak_rss_mb: f64,
    recall_at_10: f64,
    ryw_missed: u64,
    setup_s: Vec<f64>,
    build_vps: Vec<f64>,
    ep: Epilogue,
}

impl Facts<'_> {
    fn window_ns(&self) -> u64 {
        self.shape.measured.as_nanos() as u64
    }

    /// One-second slices of the window.
    fn slices(&self) -> usize {
        self.args.seconds as usize
    }

    /// The in-window writer where there is one, the quiesced probe elsewhere.
    fn write_log(&self) -> &WriterLog {
        self.writer.as_ref().unwrap_or(&self.ep.probe)
    }

    /// In catalogue order.
    fn end_to_end(&self) -> Metrics {
        let values = [
            self.reads.len() as f64 / self.shape.measured.as_secs_f64(),
            window_percentile(&self.reads, 0.50),
            self.recall_at_10,
            self.ep.recover_s,
            self.mem_bytes_per_vector,
            self.peak_rss_mb,
            median(&self.setup_s),
        ];
        crate::catalog::END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name.to_string(), v))
            .collect()
    }

    /// The ladder's metrics plus those read off the window, the vacuum, the
    /// gateway and the epilogue; in catalogue order.
    fn per_layer(&self, mut layer: Metrics) -> Res<Metrics> {
        let (ep, log) = (&self.ep, self.write_log());
        // The gateway's own counters for the harness's tenant, per part.
        let tenant = |key: &str| -> Vec<f64> {
            let of = |snapshot: &serde_json::Value| {
                snapshot
                    .get("rag")
                    .and_then(|t| t.get(key))
                    .and_then(serde_json::Value::as_f64)
                    .unwrap_or(0.0)
            };
            self.server_snapshots.iter().map(of).collect()
        };
        let completed = tenant("completed");
        let all_completed = completed.iter().sum::<f64>().max(1.0);
        let writes = log.commit_latency_ms();
        let lat_ms: Vec<f64> = self.reads.iter().map(|&(_, ms)| ms).collect();
        let mut put = |name: &str, v: f64| layer.push((name.to_string(), v));
        put("hnsw.build_vps", median(&self.build_vps));
        put("segment.delta_tail_len", mean(&self.observed.tail_len));
        put("segment.snapshot_count", mean(&self.observed.snapshots));
        put("vacuum.delta_merge_rounds", self.vacuum.0 as f64);
        put("vacuum.index_merge_rounds", self.vacuum.1 as f64);
        put("vacuum.errors", self.vacuum.2 as f64);
        put("vacuum.index_merge_ms_per_segment", ep.merge_ms_per_segment);
        put("graph.commit_us_p50", p50_us(&ep.probe.commit_ns));
        for (name, q) in [("graph.write_p50_ms", 0.50), ("graph.write_p95_ms", 0.95)] {
            put(name, window_percentile(&writes, q));
        }
        put(
            "storage.wal_bytes_per_vector_byte",
            ep.wal_bytes_per_vector_byte,
        );
        put("storage.checkpoint_ms", ep.checkpoint_ms);
        put("storage.checkpoint_bytes", ep.checkpoint_bytes);
        put("storage.recover_wal_records", ep.recover_wal_records);
        put(
            "server.batched_share",
            tenant("batched").iter().sum::<f64>() / all_completed,
        );
        put("server.rejected", tenant("rejected").iter().sum());
        put(
            "server.max_queue_depth",
            tenant("max_queue_depth").into_iter().fold(0.0, f64::max),
        );
        put("server.ryw_misses", self.ryw_missed as f64);
        put("server.query_p95_ms", window_percentile(&self.reads, 0.95));
        put("server.query_p99_ms", window_percentile(&self.reads, 0.99));
        let latency_sum_ms: f64 = tenant("latency_mean_ms")
            .iter()
            .zip(&completed)
            .map(|(mean_ms, n)| mean_ms * n)
            .sum();
        put("server.latency_mean_ms", latency_sum_ms / all_completed);
        put("harness.client_mean_ms", mean(&lat_ms));
        put(
            "harness.writer_late_ms_p95",
            percentile(&sorted(ns_to_us(&log.late_ns)), 0.95) / 1e3,
        );
        put("harness.samples", self.reads.len() as f64);
        crate::catalog::PER_LAYER
            .iter()
            .map(|d| {
                layer
                    .iter()
                    .find(|(n, _)| n == d.name)
                    .cloned()
                    .ok_or_else(|| format!("per-layer metric {} was not measured", d.name))
            })
            .collect()
    }
}

pub fn run(args: &RunArgs) -> Res<RunOutput> {
    let shape = Shape::new(args.spec, args.seconds, args.smoke);
    let spec = shape.spec;
    ctx(
        std::fs::create_dir_all(&args.out_dir),
        "create output directory",
    )?;
    // Workloads of one shape still get datasets of their own.
    let tag = spec
        .name
        .bytes()
        .fold(0u64, |h, b| h.wrapping_mul(131) ^ u64::from(b));
    let inputs = Inputs::generate(args.seed ^ (tag << 20), spec.dim, shape.n, shape.queries);

    let mut setup_s = Vec::new();
    let mut build_vps = Vec::new();
    let mut set_up = |round: usize| -> Res<(Rig, Mirror)> {
        let mirror = Mirror::new(&inputs, shape.cap);
        let dir = args
            .out_dir
            .join(format!("data-{}-{}-{round}", spec.name, std::process::id()));
        if dir.exists() {
            ctx(std::fs::remove_dir_all(&dir), "clear stale data directory")?;
        }
        let rig = Rig::setup(dir, &shape, &mirror)?;
        setup_s.push(rig.report.total_s);
        build_vps.push(shape.n as f64 / rig.report.merge_s.max(1e-9));
        Ok((rig, mirror))
    };

    // Warm-up + measured window, part by part, each part on a set-up made
    // for it; the one before is closed first, so one graph is in memory at a
    // time. Everything after the window is done on the last set-up.
    let part_ns = shape.window.as_nanos() as u64;
    let mut window = WindowResult::default();
    let mut server_snapshots = Vec::new();
    let mut vacuum = (0, 0, 0);
    let mut prepared = None;
    let mut peak_rss_mb = None;
    let mut serving: Option<(Rig, Mirror)> = None;
    for part in 0..spec.parts {
        if let Some((served, _)) = serving.take() {
            ctx(
                std::fs::remove_dir_all(served.close()),
                "remove data directory",
            )?;
        }
        let (rig, mut mirror) = set_up(part)?;
        let traffic = Traffic {
            rig: &rig,
            inputs: &inputs,
            prepared: prepared.get_or_insert_with(|| Prepared::new(spec.door, &inputs, &mirror)),
            door: spec.door,
        };
        let warm = if part == 0 {
            shape.warm
        } else {
            shape.part_warm
        };
        window.extend(
            run_window(traffic, &shape, warm, &mut mirror),
            part as u64 * part_ns,
        );
        // Load and serve: what an operator provisions for. Read on the first
        // set-up, before the harness's own further set-ups and restarts
        // raise the mark.
        peak_rss_mb.get_or_insert_with(read_peak_rss_mb);
        server_snapshots.push(rig.server.metrics_json());
        let (delta_merges, index_merges, errors) = rig.stop_vacuum();
        vacuum = (
            vacuum.0 + delta_merges,
            vacuum.1 + index_merges,
            vacuum.2 + errors,
        );
        serving = Some((rig, mirror));
    }
    let WindowResult {
        samples,
        writer,
        observed,
    } = window;
    let (Some((rig, mut mirror)), Some(prepared), Some(peak_rss_mb)) =
        (serving, prepared, peak_rss_mb)
    else {
        return Err(format!("{} has no parts", spec.name));
    };
    let traffic = Traffic {
        rig: &rig,
        inputs: &inputs,
        prepared: &prepared,
        door: spec.door,
    };
    let mem_bytes = rig.graph.embeddings().memory_bytes() as f64;

    let mut attempted = samples.len() as u64;
    let mut failures = Failures {
        reader: samples.iter().filter(|s| !s.ok).count() as u64,
        checkpoint: observed.checkpoint_failures,
        ..Failures::default()
    };
    attempted += observed.checkpoint_ms.len() as u64 + observed.checkpoint_failures;
    if let Some(w) = &writer {
        attempted += w.attempted;
        failures.add_writer(w);
    }

    // Quiesced correctness pass (the delta tail, if any, is left in place).
    let mem_bytes_per_vector = mem_bytes / (mirror.live_count as f64).max(1.0);
    let (recall_at_10, asked, wrong) = recall_pass(traffic, shape.recall_queries, &mirror);
    attempted += asked;
    failures.quiesced_pass = wrong;

    // Traced ladder.
    let mut layer = Metrics::new();
    if args.trace {
        let mut tracer = Tracer::new();
        let out = run_ladder(traffic, &shape, &mirror, &mut tracer)?;
        attempted += out.attempted;
        failures.ladder = out.failed;
        layer = out.metrics;
        let path = args.out_dir.join(format!("trace_{}.jsonl", spec.name));
        ctx(tracer.write_jsonl(&path), "write trace")?;
    }

    // Captured before the rig is consumed.
    let emb_config = rig.graph.embeddings().config();
    let attr_layout = ctx(rig.graph.embeddings().attr(rig.schema.attr), "attr")?
        .def
        .layout;
    let ep = epilogue(rig, &shape, &inputs, &mut mirror, args.trace)?;
    attempted += ep.probe.attempted + ep.checked;
    failures.add_writer(&ep.probe);
    // Read-your-write probes that missed. The issue counts each as a failed
    // operation; the result line does not (see the README, "Read-your-write"):
    // they are the per-layer `server.ryw_misses` and, in every run, here.
    let in_window = |f: fn(&WriterLog) -> u64| writer.as_ref().map_or(0, f);
    let ryw_missed = ep.probe.ryw_missed + in_window(|w| w.ryw_missed);
    let ryw_probed = ep.probe.ryw_probed + in_window(|w| w.ryw_probed);
    failures.recovery = ep.mismatched;

    let facts = Facts {
        args,
        shape,
        reads: samples
            .iter()
            .map(|s| (s.end_ns, s.lat_ns as f64 / 1e6))
            .collect(),
        writer,
        observed,
        server_snapshots,
        vacuum,
        mem_bytes_per_vector,
        peak_rss_mb,
        recall_at_10,
        ryw_missed,
        setup_s,
        build_vps,
        ep,
    };
    let n_samples = facts.reads.len();
    // A p95 needs more than ten samples beyond it. A window too short for
    // that (`--smoke`, or a much slower machine) says so.
    let p95_supported = percentile_supported(n_samples, 0.95);
    if !p95_supported {
        eprintln!("perf_ledger: too few samples for a p95: {n_samples} queries");
    }
    let metrics = if args.trace {
        facts.per_layer(layer)?
    } else {
        facts.end_to_end()
    };

    let (reads, window_ns, slices) = (&facts.reads, facts.window_ns(), facts.slices());
    let provenance = serde_json::json!({
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "nproc": std::thread::available_parallelism().map_or(1, usize::from),
        "kernel_tier": tv_common::kernels::active().tier().name(),
        "layout": attr_layout.name(),
        "commit": commit_id(),
        "dataset_fingerprint": format!("{:016x}", inputs.fingerprint()),
        "n": shape.n,
        "dim": spec.dim,
        "segment_capacity": shape.cap,
        "batch_window_us": tv_server::ServerConfig::default().batch_window.as_micros() as u64,
        "default_ef": emb_config.default_ef,
        "query_threads": emb_config.query_threads,
        "query_samples": n_samples,
        "write_samples": facts.write_log().from_due_ns.len(),
        "p95_supported": p95_supported,
        "slice_qps": numbers(&slice_rates(reads, window_ns, slices)),
        "slice_p50_ms": numbers(&slice_percentiles(reads, window_ns, slices, 0.50)),
        "slice_p95_ms": numbers(&slice_percentiles(reads, window_ns, slices, 0.95)),
        "parts": spec.parts,
        "steal_share": mean(&facts.observed.steal_share),
        "failures": failures.json(),
        "ryw_misses": facts.ryw_missed,
        "ryw_probes": ryw_probed,
        "setup_s_each": numbers(&facts.setup_s),
    });
    let failed = failures.total();
    Ok(RunOutput {
        correct: failed == 0 && recall_at_10 >= RECALL_FLOOR,
        recall_ok: recall_at_10 >= RECALL_FLOOR,
        attempted,
        failed,
        metrics,
        provenance,
    })
}
