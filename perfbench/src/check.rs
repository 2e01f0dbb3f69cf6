//! Output checks shared by the workloads.

use std::fmt::Write as _;
use u1_core::Sha1;
use u1_trace::{csvline, TraceRecord};

/// Canonical trace hash of the paper-scaled month (2,500 users x 30 days)
/// at the default seed.
pub const MONTH_SHA: &str = "276c0d2a4087360ada6eeef55bc5cc592668a01f";

/// Canonical trace hash of the `crowd` workload (25,000 users x 3 days) at
/// the default seed.
pub const CROWD_SHA: &str = "269b0daa5c09c8faf0e088e46581a7c4b06404d3";

/// SHA-1 over the canonical trace: every record serialized with
/// [`csvline::write_line`] plus its `(origin, seq)` stamp, in
/// `take_sorted` order. The formula the repository's golden hashes use.
pub fn trace_hash(records: &[TraceRecord]) -> String {
    let mut sha = Sha1::new();
    let mut line = String::with_capacity(160);
    for r in records {
        line.clear();
        let _ = csvline::write_line(r, &mut line);
        let _ = writeln!(line, "|{}|{}", r.origin, r.seq);
        sha.update(line.as_bytes());
    }
    sha.finalize().to_hex()
}

/// Failed checks of one run, in the order they were made.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    /// Records a failure described by `what` unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn expect_eq<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T, what: &str) {
        if got != want {
            self.failures
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}
