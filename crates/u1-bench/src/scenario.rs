//! Scenario execution: one simulated month, everything the analyses need.

use std::path::PathBuf;
use std::sync::Arc;
use u1_blobstore::BlobStoreStats;
use u1_core::fault::FaultPlan;
use u1_core::{SimClock, SimTime};
use u1_metastore::store::VolumeSnapshot;
use u1_server::{Backend, BackendConfig};
use u1_trace::{DirSink, MemorySink, TraceRecord};
use u1_workload::{Driver, DriverReport, WorkloadConfig};

/// A completed simulation run plus end-of-run state snapshots.
pub struct Scenario {
    pub cfg: WorkloadConfig,
    pub horizon: SimTime,
    pub records: Vec<TraceRecord>,
    pub volumes: Vec<VolumeSnapshot>,
    pub store_dedup_ratio: f64,
    pub blob_stats: BlobStoreStats,
    pub report: DriverReport,
    /// The backend itself, for experiments that keep interacting with it.
    pub backend: Arc<Backend>,
}

/// Runs a workload against a fresh backend under a virtual clock.
pub fn run_scenario(cfg: WorkloadConfig) -> Scenario {
    run_scenario_with_faults(cfg, FaultPlan::none())
}

/// [`run_scenario`] with a fault plan injected into the backend (the driver
/// reads the same plan off the backend for its client-side behavior).
pub fn run_scenario_with_faults(cfg: WorkloadConfig, fault: FaultPlan) -> Scenario {
    let clock = SimClock::new();
    let sink = Arc::new(MemorySink::new());
    let backend_cfg = BackendConfig {
        seed: cfg.seed ^ 0xBACC,
        fault,
        ..BackendConfig::default()
    };
    let backend = Arc::new(Backend::new(
        backend_cfg,
        Arc::new(clock.clone()),
        sink.clone(),
    ));
    let driver = Driver::new(cfg.clone(), Arc::clone(&backend), clock);
    let started = std::time::Instant::now();
    let report = driver.run();
    eprintln!(
        "[scenario] {} users x {} days: {} records in {:.1}s",
        cfg.users,
        cfg.days,
        sink.len(),
        started.elapsed().as_secs_f64()
    );
    Scenario {
        horizon: cfg.horizon(),
        records: sink.take_sorted(),
        volumes: backend.store.volume_snapshot(),
        store_dedup_ratio: backend.store.dedup_ratio(),
        blob_stats: backend.blobs.stats(),
        report,
        cfg,
        backend,
    }
}

/// A completed stream-to-disk run: the trace went straight to stamped
/// logfiles under `trace_dir` instead of accumulating in memory, so the
/// run's peak RSS is bounded by live metastore/driver state — not by the
/// month of records. Read the trace back with
/// `u1_analytics::engine::run_all_offdisk` (bit-identical to the in-memory
/// report) or `LogDirReader`.
pub struct StreamedScenario {
    pub cfg: WorkloadConfig,
    pub horizon: SimTime,
    /// Directory of per-(machine, process, day) stamped logfiles.
    pub trace_dir: PathBuf,
    pub volumes: Vec<VolumeSnapshot>,
    pub store_dedup_ratio: f64,
    pub blob_stats: BlobStoreStats,
    pub report: DriverReport,
    /// First trace I/O failure, if the sink ran degraded (the count is in
    /// `report.trace_io_errors`).
    pub first_trace_io_error: Option<String>,
    pub backend: Arc<Backend>,
}

/// [`run_scenario`], but streaming every record to stamped logfiles under
/// `dir` as the simulation runs. The wiring is identical — same seeds, same
/// per-record emission (the driver is sink-agnostic) — so the emitted
/// records, and therefore the canonical `(t, origin, seq)` trace and its
/// golden hash, match the in-memory mode exactly.
pub fn run_scenario_streamed(
    cfg: WorkloadConfig,
    dir: impl Into<PathBuf>,
) -> std::io::Result<StreamedScenario> {
    let clock = SimClock::new();
    let sink = Arc::new(DirSink::create_stamped(dir)?);
    let trace_dir = sink.dir().to_path_buf();
    let backend_cfg = BackendConfig {
        seed: cfg.seed ^ 0xBACC,
        fault: FaultPlan::none(),
        ..BackendConfig::default()
    };
    let backend = Arc::new(Backend::new(
        backend_cfg,
        Arc::new(clock.clone()),
        sink.clone(),
    ));
    let driver = Driver::new(cfg.clone(), Arc::clone(&backend), clock);
    let started = std::time::Instant::now();
    let report = driver.run();
    eprintln!(
        "[scenario] {} users x {} days streamed to {} in {:.1}s",
        cfg.users,
        cfg.days,
        trace_dir.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(StreamedScenario {
        horizon: cfg.horizon(),
        trace_dir,
        volumes: backend.store.volume_snapshot(),
        store_dedup_ratio: backend.store.dedup_ratio(),
        blob_stats: backend.blobs.stats(),
        report,
        first_trace_io_error: sink.first_io_error(),
        cfg,
        backend,
    })
}

/// Builds the workload configuration from the environment (see crate docs)
/// and runs it.
pub fn scenario_from_env() -> Scenario {
    let mut cfg = WorkloadConfig::paper_scaled();
    if let Ok(v) = std::env::var("U1_USERS") {
        cfg.users = v.parse().expect("U1_USERS must be an integer");
    }
    if let Ok(v) = std::env::var("U1_DAYS") {
        cfg.days = v.parse().expect("U1_DAYS must be an integer");
    }
    if let Ok(v) = std::env::var("U1_SEED") {
        cfg.seed = v.parse().expect("U1_SEED must be an integer");
    }
    if std::env::var("U1_ATTACKS").as_deref() == Ok("0") {
        cfg.attacks = false;
    }
    run_scenario(cfg)
}
