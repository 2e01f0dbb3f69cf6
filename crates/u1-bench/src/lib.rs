//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§4–§7) from a freshly simulated trace.
//!
//! Run one experiment:
//!
//! ```text
//! cargo run --release -p u1-bench --bin exp_f7c_gini
//! ```
//!
//! or everything at once (single simulation, all analyses):
//!
//! ```text
//! cargo run --release -p u1-bench --bin exp_all
//! ```
//!
//! Environment overrides: `U1_USERS`, `U1_DAYS`, `U1_SEED`, `U1_ATTACKS=0`,
//! `U1_OUT_DIR` (JSON output directory, default `target/experiments`).
//!
//! Every experiment prints a human-readable table (the paper row/series)
//! and writes a JSON document so EXPERIMENTS.md numbers are regenerable.

pub mod experiments;
pub mod fingerprint;
pub mod mem;
pub mod scenario;

pub use fingerprint::Fingerprint;
pub use scenario::{
    config_from_env, run_scenario, run_scenario_streamed, run_scenario_with_faults,
    scenario_from_env, Scenario, StreamedScenario,
};

use serde_json::Value;
use std::io::Write;
use std::path::PathBuf;
use u1_analytics::engine::{EngineConfig, EngineReport};

/// The engine configuration a scenario implies: its horizon, the backend's
/// API-machine and store-shard counts, and the paper's default extension
/// list / detector parameters.
pub fn engine_config(scn: &Scenario) -> EngineConfig {
    EngineConfig::new(
        scn.horizon,
        scn.backend.config().cluster.machines as usize,
        scn.backend.config().store.shards as usize,
    )
}

/// [`engine_config`] for a stream-to-disk run.
pub fn engine_config_streamed(scn: &StreamedScenario) -> EngineConfig {
    EngineConfig::new(
        scn.horizon,
        scn.backend.config().cluster.machines as usize,
        scn.backend.config().store.shards as usize,
    )
}

/// ONE streaming pass over the scenario's trace producing everything the
/// experiment battery reads (the legacy harness re-walked `scn.records`
/// once per analyzer — ~30 passes for an `exp_all` run).
pub fn analyze(scn: &Scenario) -> EngineReport {
    u1_analytics::engine::run_all(&scn.records, &engine_config(scn))
}

/// Output directory for experiment JSON.
pub fn out_dir() -> PathBuf {
    std::env::var("U1_OUT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/experiments"))
}

/// Prints the human-readable block and persists the JSON document.
pub fn emit(id: &str, human: &str, json: &Value) {
    println!("== {id} ==");
    println!("{human}");
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{id}.json"));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = writeln!(f, "{}", serde_json::to_string_pretty(json).unwrap());
            println!("[json: {}]", path.display());
        }
    }
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats bytes humanely.
pub fn bytes(x: u64) -> String {
    u1_core::ByteSize(x).to_string()
}
