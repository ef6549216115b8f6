//! Coordinator-driven live segment migration.
//!
//! A [`Migrator`] moves one segment copy between servers while the cluster
//! keeps serving queries and accepting delta appends, in five phases:
//!
//! 1. **Ship** — write the source's segment image ([`tv_embedding::image`],
//!    the unit a checkpoint persists: newest index snapshot, empty delta
//!    tail) into a `durafile` container (CRC32-verified, temp+rename
//!    atomic) in the staging directory. The source stays fully
//!    authoritative.
//! 2. **Install** — read the container back (a truncated or corrupt
//!    transfer fails the CRC here, not at query time), decode the image,
//!    and register an independent destination copy declared as its source
//!    was. Not yet routed to: the placement table still lists only the old
//!    holders.
//! 3. **Catch up** — replay the source's delta tail (`(snapshot_tid, ∞)`)
//!    onto the destination in bounded batches until the remaining tail is
//!    short enough to drain inside the flip, or the round budget runs out.
//! 4. **Flip** — under the segment's append gate: drain the final tail,
//!    then atomically publish the moved placement table (generation + 1).
//!    In-flight queries keep the table they pinned at scatter; requests
//!    that still reach the drained source get a typed
//!    [`tv_common::TvError::Moved`] redirect.
//! 5. **Release** — drop the source's copy (no longer a table holder) and
//!    the staging file.
//!
//! Every phase is instrumented with a migration [`Point`]. A crash in
//! phases 1–4 aborts cleanly: the placement table is untouched, the source
//! still serves, and the orphaned destination state (store entry + staging
//! file) is garbage-collected. A crash after the flip committed leaves the
//! migration *complete*; re-running the same plan recognizes that and
//! finishes the release idempotently. Aborts are recorded in the runtime's
//! [`MigrationErrors`] log, never silently swallowed.

use crate::placement::MigrationPlan;
use crate::runtime::ClusterRuntime;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tv_common::inject::{Injector, Point};
use tv_common::{durafile, MigrationConfig, SegmentId, Tid, TvError, TvResult};
use tv_embedding::{EmbeddingSegment, SegmentImage};

/// `durafile` kind tag of a shipped migration segment ("MIGS").
pub(crate) const KIND_MIGRATE_SEG: u32 = 0x4D49_4753;
/// Version 2: the payload is the embedding segment image.
const FORMAT_VERSION: u32 = 2;

/// Migration failure counter — the `VacuumErrors` pattern: a lock-free
/// count for cheap "did anything fail" checks.
#[derive(Default)]
pub struct MigrationErrors {
    count: AtomicU64,
}

impl MigrationErrors {
    /// Record one aborted migration.
    pub(crate) fn record(&self) {
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Total aborts recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }
}

/// What a completed (or recognized-as-already-complete) migration did.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The executed plan's segment.
    pub segment: SegmentId,
    /// Source server.
    pub from: usize,
    /// Destination server.
    pub to: usize,
    /// Placement generation after the flip.
    pub generation: u64,
    /// Bytes of snapshot payload shipped through the staging container.
    pub shipped_bytes: u64,
    /// Background catch-up rounds run before the flip.
    pub catchup_rounds: u64,
    /// Delta records replayed onto the destination (catch-up + final
    /// drain).
    pub catchup_records: u64,
    /// How long the flip held the segment's append gate (the only window
    /// in which writers to this segment wait).
    pub flip_pause: Duration,
    /// Wall-clock for the whole migration.
    pub total: Duration,
    /// `true` when the plan was already committed by a previous attempt
    /// (crash after flip) and this run only finished the release.
    pub already_complete: bool,
}

/// Executes [`MigrationPlan`]s against a [`ClusterRuntime`].
pub struct Migrator {
    runtime: Arc<ClusterRuntime>,
    staging: PathBuf,
    injector: Injector,
    config: MigrationConfig,
}

impl Migrator {
    /// A migrator staging shipped snapshots under `staging`.
    #[must_use]
    pub fn new(runtime: Arc<ClusterRuntime>, staging: PathBuf) -> Self {
        Migrator {
            runtime,
            staging,
            injector: Injector::default(),
            config: MigrationConfig::default(),
        }
    }

    /// Hit the migration points on `injector` (tests only).
    #[must_use]
    pub fn with_injector(mut self, injector: Injector) -> Self {
        self.injector = injector;
        self
    }

    /// Override the catch-up/flip knobs.
    #[must_use]
    pub fn with_config(mut self, config: MigrationConfig) -> Self {
        self.config = config;
        self
    }

    fn ship_path(&self, plan: MigrationPlan) -> PathBuf {
        self.staging.join(format!(
            "migrate-seg{}-{}to{}.tvm",
            plan.segment.0, plan.from, plan.to
        ))
    }

    /// Run `plan` to completion. On error the migration has been cleanly
    /// aborted (placement untouched, source authoritative, destination
    /// state garbage-collected) — unless the flip had already committed, in
    /// which case re-running the identical plan completes idempotently.
    pub fn run(&self, plan: MigrationPlan) -> TvResult<MigrationReport> {
        let started = Instant::now();
        let table = self.runtime.placement();

        // Idempotent retry: a previous attempt that died after the flip
        // left the table already moved; only the release is outstanding.
        if !table.holds(plan.segment, plan.from) && table.holds(plan.segment, plan.to) {
            self.release(plan);
            return Ok(MigrationReport {
                segment: plan.segment,
                from: plan.from,
                to: plan.to,
                generation: table.generation(),
                shipped_bytes: 0,
                catchup_rounds: 0,
                catchup_records: 0,
                flip_pause: Duration::ZERO,
                total: started.elapsed(),
                already_complete: true,
            });
        }

        if plan.to >= self.runtime.config.servers {
            return Err(TvError::InvalidArgument(format!(
                "migration destination {} outside cluster of {} servers",
                plan.to, self.runtime.config.servers
            )));
        }
        if !table.holds(plan.segment, plan.from) {
            return Err(TvError::InvalidArgument(format!(
                "server {} does not hold segment {}",
                plan.from, plan.segment.0
            )));
        }
        if table.holds(plan.segment, plan.to) {
            return Err(TvError::InvalidArgument(format!(
                "server {} already holds segment {}",
                plan.to, plan.segment.0
            )));
        }

        match self.execute(plan, started) {
            Ok(report) => Ok(report),
            Err(e) => {
                self.abort(plan);
                self.runtime.migration_errors().record();
                Err(e)
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn execute(&self, plan: MigrationPlan, started: Instant) -> TvResult<MigrationReport> {
        let seg_id = plan.segment;
        let inject = &self.injector;
        let path = self.ship_path(plan);

        // --- Phase 1: Ship -------------------------------------------------
        let src = self
            .runtime
            .store(plan.from)
            .read()
            .get(&seg_id)
            .cloned()
            .ok_or_else(|| {
                TvError::Cluster(format!(
                    "source server {} has no local copy of segment {}",
                    plan.from, seg_id.0
                ))
            })?;
        inject.hit(Point::MigrateMidShip)?;
        let snap = src.newest_snapshot();
        let snap_tid = snap.up_to;
        let mut payload = Vec::new();
        src.encode_image(&snap, &[], &mut payload);
        let shipped_bytes = payload.len() as u64;
        std::fs::create_dir_all(&self.staging)
            .map_err(|e| TvError::Storage(format!("staging dir: {e}")))?;
        durafile::write_atomic(&path, KIND_MIGRATE_SEG, FORMAT_VERSION, &payload)?;
        if inject.hit(Point::MigrateShipTruncate).is_err() {
            // The injected "crash" models a transfer cut mid-stream: chop
            // the shipped container and carry on — the install phase's CRC
            // verification must catch it and abort the migration.
            truncate_file(&path)?;
        }

        // --- Phase 2: Install ----------------------------------------------
        let dest = durafile::read(&path, KIND_MIGRATE_SEG, FORMAT_VERSION)
            .and_then(|(read_back, _)| SegmentImage::decode(&read_back))
            .and_then(EmbeddingSegment::from_image)?;
        inject.hit(Point::MigrateMidInstall)?;
        let dest = Arc::new(dest);
        self.runtime
            .store(plan.to)
            .write()
            .insert(seg_id, Arc::clone(&dest));

        // --- Phase 3: Catch up ---------------------------------------------
        let mut cursor = snap_tid;
        let mut catchup_rounds = 0u64;
        let mut catchup_records = 0u64;
        loop {
            let tail = src.delta_tail(cursor, Tid::MAX);
            if tail.len() <= self.config.flip_threshold
                || catchup_rounds >= self.config.max_catchup_rounds as u64
            {
                break;
            }
            inject.hit(Point::MigrateMidCatchup)?;
            let batch = &tail[..tail.len().min(self.config.catchup_batch)];
            dest.append_deltas(batch)?;
            cursor = batch.last().expect("non-empty batch").tid;
            catchup_records += batch.len() as u64;
            catchup_rounds += 1;
        }

        // --- Phase 4: Flip --------------------------------------------------
        // Under the append gate: no writer can slip a record between the
        // final-tail drain and the table swap.
        let gate = self.runtime.write_gate(seg_id);
        let flip_started = Instant::now();
        let generation;
        {
            let _guard = gate.lock();
            inject.hit(Point::MigrateAtFlip)?;
            let tail = src.delta_tail(cursor, Tid::MAX);
            if !tail.is_empty() {
                dest.append_deltas(&tail)?;
                catchup_records += tail.len() as u64;
            }
            generation = self.runtime.commit_flip(seg_id, plan.from, plan.to)?;
        }
        let flip_pause = flip_started.elapsed();

        // --- Phase 5: Release ----------------------------------------------
        inject.hit(Point::MigratePostFlipPreRelease)?;
        self.release(plan);

        Ok(MigrationReport {
            segment: seg_id,
            from: plan.from,
            to: plan.to,
            generation,
            shipped_bytes,
            catchup_rounds,
            catchup_records,
            flip_pause,
            total: started.elapsed(),
            already_complete: false,
        })
    }

    /// Post-flip cleanup: drop the source's copy (it is no longer a table
    /// holder) and the staging file. Idempotent.
    fn release(&self, plan: MigrationPlan) {
        let table = self.runtime.placement();
        if !table.holds(plan.segment, plan.from) {
            self.runtime.store(plan.from).write().remove(&plan.segment);
        }
        let _ = std::fs::remove_file(self.ship_path(plan));
    }

    /// Pre-flip cleanup: garbage-collect the orphaned destination state.
    /// Guarded by the table so an abort can never remove a copy that a
    /// committed flip made authoritative. Idempotent.
    fn abort(&self, plan: MigrationPlan) {
        let table = self.runtime.placement();
        if !table.holds(plan.segment, plan.to) {
            self.runtime.store(plan.to).write().remove(&plan.segment);
        }
        let _ = std::fs::remove_file(self.ship_path(plan));
    }
}

/// Chop the tail off a staged container (the partial-transfer fault).
fn truncate_file(path: &Path) -> TvResult<()> {
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| TvError::Storage(format!("truncate open: {e}")))?;
    let len = f
        .metadata()
        .map_err(|e| TvError::Storage(format!("truncate stat: {e}")))?
        .len();
    f.set_len(len * 2 / 3)
        .map_err(|e| TvError::Storage(format!("truncate: {e}")))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use tv_common::ids::{LocalId, VertexId};
    use tv_common::{DistanceMetric, GraphLayout, QuantSpec, SplitMix64};
    use tv_embedding::EmbeddingTypeDef;
    use tv_hnsw::{snapshot, DeltaRecord};

    /// What migration installs on the destination is the source's own image:
    /// same snapshot bytes, and the same declaration — capacity, storage
    /// spec and the *declared* layout, so a `pointer` segment does not turn
    /// into a compiling one by moving.
    #[test]
    fn migrated_copy_is_declared_as_its_source_was() {
        let runtime = Arc::new(ClusterRuntime::start(RuntimeConfig {
            servers: 2,
            replication: 1,
            ..RuntimeConfig::default()
        }));
        let def = EmbeddingTypeDef::new("e", 8, "M", DistanceMetric::Cosine)
            .with_quant(QuantSpec::sq8())
            .with_layout(GraphLayout::Pointer);
        let seg = SegmentId(0);
        // Capacity 48: the 30 merged vectors are enough to train the codec,
        // so what ships is a quantized snapshot.
        let src = Arc::new(EmbeddingSegment::new(seg, &def, 48));
        let mut rng = SplitMix64::new(5);
        let recs: Vec<DeltaRecord> = (0..40)
            .map(|i| {
                let v: Vec<f32> = (0..8).map(|_| rng.next_f32()).collect();
                DeltaRecord::upsert(VertexId::new(seg, LocalId(i)), Tid(u64::from(i) + 1), v)
            })
            .collect();
        src.append_deltas(&recs).unwrap();
        src.delta_merge(Tid(30)).unwrap();
        src.index_merge(Tid(30)).unwrap();
        assert_eq!(src.storage_tier(), tv_common::StorageTier::Sq8);
        runtime.add_segment(Arc::clone(&src));

        let from = runtime.placement().holders(seg)[0];
        let staging = std::env::temp_dir().join(format!("tv-migrate-unit-{}", std::process::id()));
        let plan = MigrationPlan {
            segment: seg,
            from,
            to: 1 - from,
        };
        let report = Migrator::new(Arc::clone(&runtime), staging.clone())
            .run(plan)
            .unwrap();
        assert_eq!(report.catchup_records, 10, "the unmerged tail is caught up");

        let dest = runtime.store(plan.to).read().get(&seg).cloned().unwrap();
        assert!(!Arc::ptr_eq(&dest, &src), "an independent copy");
        assert_eq!(
            (dest.capacity(), dest.quant_spec(), dest.layout()),
            (48, QuantSpec::sq8(), GraphLayout::Pointer)
        );
        let (want, got) = (src.newest_snapshot(), dest.newest_snapshot());
        assert_eq!(got.up_to, want.up_to);
        assert_eq!(
            snapshot::to_bytes(&got.index),
            snapshot::to_bytes(&want.index)
        );
        assert_eq!(
            dest.delta_tail(Tid(30), Tid::MAX),
            src.delta_tail(Tid(30), Tid::MAX)
        );
        let _ = std::fs::remove_dir_all(&staging);
    }

    #[test]
    fn migration_errors_count() {
        let errs = MigrationErrors::default();
        assert_eq!(errs.count(), 0);
        errs.record();
        errs.record();
        assert_eq!(errs.count(), 2);
    }
}
