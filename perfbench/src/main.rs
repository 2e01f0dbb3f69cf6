//! Command-line entry point; see `README.md`.
//!
//! ```text
//! perfbench --workload <month|crowd|analyze|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run's figures by name and unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! metrics). Exits 1 when a correctness check fails, 2 on bad arguments.

use perfbench::{metric, per_layer_names, Metric, Outcome, Params, Scale, Workload, END_TO_END};
use std::path::PathBuf;

const USAGE: &str =
    "usage: perfbench --workload <month|crowd|analyze|serve|all> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workloads: Vec<Workload>,
    params: Params,
    /// Set: only stream the `analyze` month to this directory (the set-up
    /// `analyze` runs in a child process).
    write_days: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut write_days = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--write-days" => write_days = Some(PathBuf::from(value)),
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(format!("bad --scale {value}")),
                }
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workloads = match workload.as_deref() {
        None if write_days.is_some() => Vec::new(),
        None => return Err("--workload is required".into()),
        Some("all") => Workload::ALL.to_vec(),
        Some(name) => {
            vec![Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?]
        }
    };
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"));
    Ok(Args {
        workloads,
        params: Params {
            seed,
            seconds,
            trace,
            scale,
            threads: Params::host_cpus(),
            work_dir: target.join("perfbench-work"),
            exe: std::env::current_exe()
                .map_err(|e| format!("cannot locate this executable: {e}"))?,
        },
        write_days,
    })
}

/// The metrics the result line carries: every end-to-end metric, or with
/// tracing every per-layer metric (0 for a layer the workload never ran).
fn reported(outcome: &Outcome, trace: bool) -> Vec<Metric> {
    let pick = |got: &[Metric], names: Vec<(String, &'static str)>| -> Vec<Metric> {
        names
            .into_iter()
            .map(|(name, unit)| {
                let value = got.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
                metric(name, unit, value)
            })
            .collect()
    };
    if trace {
        pick(&outcome.layers, per_layer_names())
    } else {
        let names = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect();
        pick(&outcome.e2e, names)
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let p = &args.params;
    if let Some(dir) = &args.write_days {
        match perfbench::analyze::write_days(p, dir) {
            Ok(0) => std::process::exit(0),
            Ok(n) => eprintln!("perfbench: {n} trace I/O errors while streaming"),
            Err(e) => eprintln!("perfbench: streaming to {}: {e}", dir.display()),
        }
        std::process::exit(1);
    }
    let mut all_correct = true;
    let mut attempted = 0;
    let mut failed = 0;
    let mut metrics = Vec::new();
    for &workload in &args.workloads {
        let tag = workload.name();
        println!(
            "[{tag}] seed {} seconds {} trace {} host_cpus {} threads {}",
            p.seed,
            p.seconds,
            u8::from(p.trace),
            Params::host_cpus(),
            p.threads
        );
        let outcome = perfbench::run(workload, p);
        for m in outcome.e2e.iter().chain(&outcome.named) {
            println!("[{tag}] {} = {} {}", m.name, m.value, m.unit);
        }
        for m in &outcome.layers {
            println!("[{tag}] layer {} = {} {}", m.name, m.value, m.unit);
        }
        if let Some(rec) = &outcome.spans {
            let path = p.work_dir.join(format!("spans-{tag}-seed{}.csv", p.seed));
            match rec.write_csv(&path) {
                Ok(()) => println!("[{tag}] {} spans written to {}", rec.len(), path.display()),
                Err(e) => println!("[{tag}] could not write spans to {}: {e}", path.display()),
            }
        }
        let mut correct = outcome.checks.passed();
        for f in outcome.checks.failures() {
            println!("[{tag}] CHECK FAILED: {f}");
        }
        let mut got = reported(&outcome, p.trace);
        for m in &mut got {
            if !m.value.is_finite() {
                println!("[{tag}] CHECK FAILED: {} is not a finite number", m.name);
                correct = false;
                m.value = 0.0;
            }
        }
        println!("[{tag}] correct {correct}");
        all_correct &= correct;
        attempted += outcome.attempted;
        failed += outcome.failed;
        if args.workloads.len() > 1 {
            println!(
                "{}",
                json_line(correct, outcome.attempted, outcome.failed, &got)
            );
            for m in &mut got {
                m.name = format!("{tag}/{}", m.name);
            }
        }
        metrics.extend(got);
    }
    println!("{}", json_line(all_correct, attempted, failed, &metrics));
    std::process::exit(if all_correct { 0 } else { 1 });
}
