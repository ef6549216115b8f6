//! The load: closed-loop readers through the workload's front door, the
//! paced writer, and the window that runs them side by side.
//!
//! A RAG application waits for each reply before it sends the next query,
//! so readers are a closed loop (two clients, or one beside the writer).
//! The ingest job commits on a fixed schedule whether or not the system
//! keeps up, so the writer is an open loop: each commit is timed from when
//! it was *due*, and how late the generator ran is reported.

use crate::gen::{Inputs, SplitMix64, AUTHORS, BUCKETS};
use crate::oracle::{answer_ok, Class, Mirror, Row, SEGMENTS};
use crate::rig::{author_name, Door, Rig, Shape, EF, K, TXN_INSERTS, TXN_UPDATES, WRITER_PERIOD};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use tg_storage::AttrValue;
use tv_gsql::{Params, QueryOutput, Value};

pub const TEXT_PLAIN: &str = "SELECT s FROM (s:Doc) ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10";
pub const TEXT_SEL50: &str =
    "SELECT s FROM (s:Doc) WHERE s.bucket < 50 ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10";
pub const TEXT_SEL10: &str =
    "SELECT s FROM (s:Doc) WHERE s.bucket < 10 ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10";
pub const TEXT_SEL1: &str =
    "SELECT s FROM (s:Doc) WHERE s.bucket < 1 ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10";
pub const TEXT_HOP1: &str = "SELECT s FROM (a:Author)-[:wrote]->(s:Doc) WHERE a.name = $n \
     ORDER BY VECTOR_DIST(s.emb, $qv) LIMIT 10";

/// The four filtered classes of `hybrid_filtered`, in the order queries
/// cycle through them; also the per-class rows of the traced ladder.
pub const CLASS_NAMES: [&str; 4] = ["sel50", "sel10", "sel1", "hop1"];

/// Class `c` (index into [`CLASS_NAMES`]) of query `qi`.
pub fn filtered_class(c: usize, qi: usize) -> (Class, &'static str) {
    match c {
        0 => (Class::BucketBelow(50), TEXT_SEL50),
        1 => (Class::BucketBelow(10), TEXT_SEL10),
        2 => (Class::BucketBelow(1), TEXT_SEL1),
        _ => (Class::WrittenBy(((qi / 4) % AUTHORS) as u16), TEXT_HOP1),
    }
}

/// What query `qi` asks through `door`: its class, and (for GSQL doors) text.
pub fn query_plan(door: Door, qi: usize) -> (Class, &'static str) {
    match door {
        Door::GsqlFiltered => filtered_class(qi % 4, qi),
        _ => (Class::Plain, TEXT_PLAIN),
    }
}

pub fn params_for(inputs: &Inputs, qi: usize, class: Class) -> Params {
    let mut p = Params::new();
    p.insert("qv".into(), Value::Vector(inputs.query(qi).to_vec()));
    if let Class::WrittenBy(a) = class {
        p.insert("n".into(), Value::Str(author_name(a as usize)));
    }
    p
}

pub fn rows_of(out: &QueryOutput) -> Vec<Row> {
    match out {
        QueryOutput::Vertices(v) => v
            .iter()
            .map(|r| Row {
                id: r.id,
                dist: r.dist.unwrap_or(f32::NAN),
            })
            .collect(),
        QueryOutput::Pairs(_) => Vec::new(),
    }
}

/// Bindings built before the clock starts: a client has its request in
/// hand when it sends it.
pub struct Prepared {
    params: Vec<Params>,
    /// Rows each query must return: `min(k, rows its class admits)` at load
    /// time. (The writer keeps far more than `k` vectors live.)
    expected: Vec<usize>,
}

impl Prepared {
    pub fn new(door: Door, inputs: &Inputs, mirror: &Mirror) -> Prepared {
        let classes: Vec<Class> = (0..inputs.query_count())
            .map(|qi| query_plan(door, qi).0)
            .collect();
        let params = match door {
            Door::Gsql | Door::GsqlFiltered => classes
                .iter()
                .enumerate()
                .map(|(qi, &class)| params_for(inputs, qi, class))
                .collect(),
            _ => Vec::new(),
        };
        let mut admitted: Vec<(Class, usize)> = Vec::new();
        let expected = classes
            .iter()
            .map(|&class| {
                let known = admitted.iter().find(|(c, _)| *c == class).map(|&(_, n)| n);
                let n = known.unwrap_or_else(|| {
                    let n = mirror.admitted_count(class);
                    admitted.push((class, n));
                    n
                });
                K.min(n)
            })
            .collect();
        Prepared { params, expected }
    }

    pub fn expected_rows(&self, qi: usize) -> usize {
        self.expected[qi % self.expected.len()]
    }
}

/// One client's view: the system, the inputs, the bindings prepared before
/// the clock starts, and the front door it sends through.
#[derive(Clone, Copy)]
pub struct Traffic<'a> {
    pub rig: &'a Rig,
    pub inputs: &'a Inputs,
    pub prepared: &'a Prepared,
    pub door: Door,
}

impl Traffic<'_> {
    /// Send query `qi` through the front door. Returns the rows and the
    /// call's latency; `None` rows mean the call returned `Err`.
    pub fn send(&self, qi: usize) -> (Option<Vec<Row>>, Duration) {
        let Traffic {
            rig,
            inputs,
            prepared,
            door,
        } = *self;
        let q = qi % inputs.query_count();
        match door {
            Door::Gsql | Door::GsqlFiltered => {
                let (_, text) = query_plan(door, q);
                let t0 = Instant::now();
                let out = rig.server.query(&rig.session, text, &prepared.params[q]);
                let lat = t0.elapsed();
                (out.ok().as_ref().map(rows_of), lat)
            }
            Door::Cluster => {
                let t0 = Instant::now();
                let out = rig
                    .server
                    .cluster_top_k(&rig.session, inputs.query(q), K, EF, rig.tid());
                let lat = t0.elapsed();
                let rows = out.ok().map(|r| {
                    r.neighbors
                        .iter()
                        .map(|n| Row {
                            id: n.id,
                            dist: n.dist,
                        })
                        .collect()
                });
                (rows, lat)
            }
            Door::TopKWithWriter => {
                let query = inputs.query(q).to_vec();
                let t0 = Instant::now();
                let out = rig
                    .server
                    .vector_top_k(&rig.session, &[rig.schema.attr], query, K);
                let lat = t0.elapsed();
                (out.ok().map(|v| typed_rows(&v)), lat)
            }
        }
    }
}

fn typed_rows(v: &[tv_embedding::TypedNeighbor]) -> Vec<Row> {
    v.iter()
        .map(|t| Row {
            id: t.neighbor.id,
            dist: t.neighbor.dist,
        })
        .collect()
}

/// One completed reader query.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, nanoseconds after the window opened (warm-up
    /// included).
    pub end_ns: u64,
    pub lat_ns: u64,
    pub ok: bool,
}

/// Client `client` of `clients`: a closed loop until `stop` is raised.
fn reader(
    traffic: Traffic,
    mirror: Option<&Mirror>,
    (client, clients): (usize, usize),
    open: Instant,
    stop: &AtomicBool,
) -> Vec<Sample> {
    let mut samples = Vec::with_capacity(1 << 16);
    // Each client walks the query list one by one from a start of its own,
    // so each sends every class in turn (a class is `qi % 4`): a stride of
    // `clients` would give one client two of the four classes and the other
    // the rest. The `+ client` keeps two clients a class apart.
    let mut qi = client * (traffic.inputs.query_count() / clients) + client;
    while !stop.load(Ordering::Relaxed) {
        let (class, _) = query_plan(traffic.door, qi % traffic.inputs.query_count());
        let (rows, lat) = traffic.send(qi);
        let expected = traffic.prepared.expected_rows(qi);
        let ok = rows.is_some_and(|r| answer_ok(&r, expected, class, mirror));
        samples.push(Sample {
            end_ns: open.elapsed().as_nanos() as u64,
            lat_ns: lat.as_nanos() as u64,
            ok,
        });
        qi += 1;
    }
    samples
}

/// What the writer measured.
#[derive(Debug, Default)]
pub struct WriterLog {
    /// Per transaction: due time (ns after start), how late it started,
    /// the commit call's own duration, and commit latency from due time.
    pub due_ns: Vec<u64>,
    pub late_ns: Vec<u64>,
    pub commit_ns: Vec<u64>,
    pub from_due_ns: Vec<u64>,
    /// Commits plus read-your-write probes attempted; how many of those
    /// calls returned `Err`; probes made; probes that were answered but did
    /// not get their vector back first at distance 0.
    pub attempted: u64,
    pub calls_failed: u64,
    pub ryw_probed: u64,
    pub ryw_missed: u64,
    pub vectors_written: u64,
}

/// The ingest job. It owns the mirror while it runs: it is the only writer,
/// so the mirror is exact between its commits.
pub struct Writer<'a> {
    pub rig: &'a Rig,
    pub inputs: &'a Inputs,
    pub mirror: &'a mut Mirror,
    pub rng: SplitMix64,
    pub log: WriterLog,
    next_seg: usize,
}

impl WriterLog {
    /// Put `next`, whose clock started `offset_ns` after this log's, behind it.
    fn extend(&mut self, next: WriterLog, offset_ns: u64) {
        self.add_counts(&next);
        self.vectors_written += next.vectors_written;
        self.due_ns
            .extend(next.due_ns.iter().map(|due| due + offset_ns));
        self.late_ns.extend(next.late_ns);
        self.commit_ns.extend(next.commit_ns);
        self.from_due_ns.extend(next.from_due_ns);
    }

    /// Count `other`'s operations and failures here; its timings are dropped.
    pub fn add_counts(&mut self, other: &WriterLog) {
        self.attempted += other.attempted;
        self.calls_failed += other.calls_failed;
        self.ryw_probed += other.ryw_probed;
        self.ryw_missed += other.ryw_missed;
    }

    /// `(due time, commit latency from due time in ms)` per transaction.
    pub fn commit_latency_ms(&self) -> Vec<(u64, f64)> {
        self.due_ns
            .iter()
            .zip(&self.from_due_ns)
            .map(|(&due, &lat)| (due, lat as f64 / 1e6))
            .collect()
    }
}

impl<'a> Writer<'a> {
    pub fn new(rig: &'a Rig, inputs: &'a Inputs, mirror: &'a mut Mirror, rng: SplitMix64) -> Self {
        Writer {
            rig,
            inputs,
            mirror,
            rng,
            log: WriterLog::default(),
            next_seg: 0,
        }
    }

    fn random_live_slot(&mut self, taken: &[usize]) -> usize {
        loop {
            let slot = self.rng.next_below(self.mirror.slots() as u64) as usize;
            if self.mirror.is_live(slot) && !taken.contains(&slot) {
                return slot;
            }
        }
    }

    /// Commit one transaction (12 updates, 3 inserts, 1 delete), apply it
    /// to the mirror, then re-query one just-committed vector through the
    /// batcher door and expect it back at distance 0.
    fn one_txn(&mut self, due: Instant, start_ns: u64) {
        let schema = self.rig.schema;
        let mut touched: Vec<usize> = Vec::with_capacity(16);
        let mut puts: Vec<(usize, Vec<f32>, u8)> = Vec::with_capacity(15);
        for _ in 0..TXN_UPDATES {
            let slot = self.random_live_slot(&touched);
            touched.push(slot);
            let v = self.inputs.mixture.sample(&mut self.rng);
            puts.push((slot, v, self.mirror.bucket(slot)));
        }
        for _ in 0..TXN_INSERTS {
            let seg = self.next_seg;
            self.next_seg = (self.next_seg + 1) % SEGMENTS;
            if let Some(slot) = self.mirror.claim_free(seg) {
                touched.push(slot);
                let v = self.inputs.mixture.sample(&mut self.rng);
                puts.push((slot, v, self.rng.next_below(BUCKETS) as u8));
            }
        }
        let victim = self.random_live_slot(&touched);

        let mut txn = self.rig.graph.txn();
        for (i, (slot, v, bucket)) in puts.iter().enumerate() {
            let id = self.mirror.id_of(*slot);
            if i >= TXN_UPDATES {
                txn = txn.upsert_vertex(schema.doc, id, vec![AttrValue::Int(i64::from(*bucket))]);
            }
            txn = txn.set_vector(schema.attr, id, v.clone());
        }
        txn = txn.delete_vertex(schema.doc, self.mirror.id_of(victim));

        let started = Instant::now();
        let committed = txn.commit();
        let done = Instant::now();
        self.log.due_ns.push(start_ns);
        self.log
            .late_ns
            .push(started.saturating_duration_since(due).as_nanos() as u64);
        self.log.commit_ns.push((done - started).as_nanos() as u64);
        self.log
            .from_due_ns
            .push(done.saturating_duration_since(due).as_nanos() as u64);
        self.log.attempted += 1;
        if committed.is_err() {
            self.log.calls_failed += 1;
            return;
        }
        for (slot, v, bucket) in &puts {
            self.mirror.put(*slot, v, *bucket);
        }
        self.mirror.delete(victim);
        self.log.vectors_written += puts.len() as u64;

        // Read-your-write probe: asked once, and a miss is a miss.
        let (slot, v, _) = &puts[0];
        let want = self.mirror.id_of(*slot);
        self.log.attempted += 1;
        self.log.ryw_probed += 1;
        match self
            .rig
            .server
            .vector_top_k(&self.rig.session, &[schema.attr], v.clone(), K)
        {
            Err(_) => self.log.calls_failed += 1,
            Ok(r) => {
                let first = r.first().map(|t| t.neighbor);
                if !first.is_some_and(|n| n.id == want && n.dist <= 1e-6) {
                    self.log.ryw_missed += 1;
                }
            }
        }
    }

    /// Run the schedule: transaction `i` is due at `start + i × period`.
    /// Stops after `max_txns`, or when `stop` is raised.
    pub fn run(&mut self, period: Duration, max_txns: usize, stop: Option<&AtomicBool>) {
        let start = Instant::now();
        for i in 0..max_txns {
            let due = start + period * i as u32;
            loop {
                if stop.is_some_and(|s| s.load(Ordering::Relaxed)) {
                    return;
                }
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(Duration::from_millis(2)));
            }
            self.one_txn(due, (due - start).as_nanos() as u64);
        }
    }
}

/// `(stolen, all)` CPU ticks of the machine so far, from the first line of
/// `/proc/stat`: time the host ran something else while this guest had work.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is in user.
    (ticks.len() >= 8).then(|| (ticks[7], ticks[..8].iter().sum()))
}

/// What the main thread does while the load runs.
#[derive(Debug, Default)]
pub struct Observed {
    /// Per part: the share of the machine's CPU time the host took away
    /// while it was measured (0 where `/proc/stat` does not say).
    pub steal_share: Vec<f64>,
    /// Every 100 ms: records not yet in a snapshot, retained snapshots.
    pub tail_len: Vec<f64>,
    pub snapshots: Vec<f64>,
    /// `Server::checkpoint` calls, one in the middle of each part.
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_failures: u64,
}

#[derive(Default)]
pub struct WindowResult {
    /// Reader samples that completed inside the measured window; `end_ns`
    /// is rebased to the window's start.
    pub samples: Vec<Sample>,
    pub writer: Option<WriterLog>,
    pub observed: Observed,
}

impl WindowResult {
    /// Put `part`, measured from `offset_ns` after this window opened, behind
    /// what has been measured so far.
    pub fn extend(&mut self, part: WindowResult, offset_ns: u64) {
        self.samples.extend(part.samples.into_iter().map(|mut s| {
            s.end_ns += offset_ns;
            s
        }));
        if let Some(log) = part.writer {
            self.writer
                .get_or_insert_with(WriterLog::default)
                .extend(log, offset_ns);
        }
        let (all, next) = (&mut self.observed, part.observed);
        all.tail_len.extend(next.tail_len);
        all.snapshots.extend(next.snapshots);
        all.steal_share.extend(next.steal_share);
        all.checkpoint_ms.extend(next.checkpoint_ms);
        all.checkpoint_failures += next.checkpoint_failures;
    }
}

/// One part of the window on the set-up it was made for. Warm up for
/// `warm`, then measure: two closed-loop readers, or one reader beside the
/// writer. The main thread samples the delta tail and, beside a writer,
/// checkpoints in the middle of the part.
pub fn run_window(
    traffic: Traffic,
    shape: &Shape,
    warm: Duration,
    mirror: &mut Mirror,
) -> WindowResult {
    let Traffic { rig, inputs, .. } = traffic;
    let with_writer = shape.spec.door == Door::TopKWithWriter;
    let readers = if with_writer { 1 } else { 2 };
    let stop = AtomicBool::new(false);
    let open = Instant::now();
    let measure_from = open + warm;
    let close_at = measure_from + shape.window;
    let mut observed = Observed::default();

    let (mut samples, writer) = std::thread::scope(|s| {
        let stop = &stop;
        // Readers may consult the mirror only when nothing is writing it.
        let (writer_handle, reader_mirror) = if with_writer {
            let mut w = Writer::new(rig, inputs, &mut *mirror, inputs.writer_rng.clone());
            let h = s.spawn(move || {
                w.run(WRITER_PERIOD, 1_000_000, Some(stop));
                w.log
            });
            (Some(h), None)
        } else {
            (None, Some(&*mirror))
        };
        let reader_handles: Vec<_> = (0..readers)
            .map(|c| s.spawn(move || reader(traffic, reader_mirror, (c, readers), open, stop)))
            .collect();

        let mut checkpoint_due = with_writer.then(|| measure_from + shape.window / 2);
        let mut ticks_at_open = None;
        loop {
            let now = Instant::now();
            if now >= close_at {
                break;
            }
            if now >= measure_from {
                ticks_at_open = ticks_at_open.or_else(cpu_ticks);
                let (tail, snaps) = rig.tail_and_snapshots();
                observed.tail_len.push(tail as f64);
                observed.snapshots.push(snaps as f64);
            }
            if checkpoint_due.is_some_and(|due| now >= due) {
                checkpoint_due = None;
                let t0 = Instant::now();
                match rig.server.checkpoint() {
                    Ok(_) => observed
                        .checkpoint_ms
                        .push(t0.elapsed().as_secs_f64() * 1e3),
                    Err(_) => observed.checkpoint_failures += 1,
                }
            }
            let left = close_at.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(100)));
        }
        stop.store(true, Ordering::Relaxed);
        if let (Some((s0, all0)), Some((s1, all1))) = (ticks_at_open, cpu_ticks()) {
            observed
                .steal_share
                .push(s1.saturating_sub(s0) as f64 / all1.saturating_sub(all0).max(1) as f64);
        }
        let mut samples = Vec::new();
        for h in reader_handles {
            samples.extend(h.join().expect("reader thread panicked"));
        }
        let writer = writer_handle.map(|h| h.join().expect("writer thread panicked"));
        (samples, writer)
    });

    let (from_ns, to_ns) = (
        warm.as_nanos() as u64,
        (warm + shape.window).as_nanos() as u64,
    );
    samples.retain(|s| s.end_ns >= from_ns && s.end_ns < to_ns);
    for s in &mut samples {
        s.end_ns -= from_ns;
    }
    let writer = writer.map(|mut w| {
        // Keep the writer's in-window transactions only (by due time).
        let keep: Vec<bool> = w
            .due_ns
            .iter()
            .map(|&d| d >= from_ns && d < to_ns)
            .collect();
        for series in [
            &mut w.due_ns,
            &mut w.late_ns,
            &mut w.commit_ns,
            &mut w.from_due_ns,
        ] {
            let mut it = keep.iter();
            series.retain(|_| *it.next().expect("series and mask have equal length"));
        }
        for due in &mut w.due_ns {
            *due -= from_ns;
        }
        w
    });
    WindowResult {
        samples,
        writer,
        observed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The second part of a window lands behind the first: its samples and
    /// its writer's due times move by the offset, counts add up.
    #[test]
    fn parts_are_laid_end_to_end() {
        let part = |end_ns, due_ns| WindowResult {
            samples: vec![Sample {
                end_ns,
                lat_ns: 7,
                ok: true,
            }],
            writer: Some(WriterLog {
                due_ns: vec![due_ns],
                late_ns: vec![1],
                commit_ns: vec![2],
                from_due_ns: vec![3],
                attempted: 2,
                ryw_probed: 1,
                vectors_written: 15,
                ..WriterLog::default()
            }),
            observed: Observed {
                tail_len: vec![4.0],
                checkpoint_ms: vec![5.0],
                ..Observed::default()
            },
        };
        let mut window = WindowResult::default();
        window.extend(part(10, 20), 0);
        window.extend(part(11, 21), 1_000);
        let ends: Vec<u64> = window.samples.iter().map(|s| s.end_ns).collect();
        assert_eq!(ends, [10, 1_011]);
        let log = window.writer.expect("both parts had a writer");
        assert_eq!(log.due_ns, [20, 1_021]);
        assert_eq!(log.from_due_ns, [3, 3]);
        assert_eq!(
            (log.attempted, log.ryw_probed, log.vectors_written),
            (4, 2, 30)
        );
        assert_eq!(window.observed.tail_len, [4.0, 4.0]);
        assert_eq!(window.observed.checkpoint_ms.len(), 2);
    }
}
