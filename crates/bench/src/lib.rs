//! # dra-bench — workloads and harnesses for the paper's evaluation
//!
//! Shared by the table-regeneration binaries (`src/bin/*.rs`) and the
//! Criterion benches (`benches/*.rs`). The central piece is
//! [`fig9::run_fig9_trace`], which executes the exact step sequence of the
//! paper's experiments (Fig. 9A/9B: sequence, AND-split/join, one loop
//! iteration) while timing each phase at the same boundaries as Tables 1–2:
//!
//! * **α** — time for the AEA (and TFC in the advanced model) to decrypt
//!   cipher data and verify digital signatures on receive,
//! * **β** — time for the AEA to encrypt the result and embed signatures,
//! * **γ** — time for the TFC to re-encrypt, timestamp and sign,
//! * **Σ** — the size of the generated document in bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chain;
pub mod fig9;
pub mod fuzz;
pub mod perfgate;
pub mod table;

pub use fig9::{run_fig9_trace, StepRecord};

/// Write a bench artifact (`BENCH_*.json`, a trace or alert sidecar). A
/// failed write is fatal: the bin exits with status 2, so a CI step that
/// compares the file never reads a stale copy left by an earlier run.
pub fn write_artifact(path: impl AsRef<std::path::Path>, contents: impl AsRef<[u8]>) {
    let path = path.as_ref();
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(2);
    }
}

/// End-of-bin metric gate shared by every `claim_*` binary: run the
/// cross-layer accounting invariants on whatever the bin recorded and exit
/// nonzero on a violation. Bins that never touch the delivery layer still
/// pass through here — the invariants degrade gracefully when the
/// delivery/alert counters are absent, and the call keeps every bin honest
/// about the books it *does* keep.
pub fn enforce_metric_invariants(metrics: &dra_obs::MetricsRegistry) {
    match dra_cloud::check_metric_invariants(&metrics.snapshot()) {
        Ok(()) => println!("metric invariants: ok"),
        Err(e) => {
            eprintln!("metric invariants VIOLATED: {e}");
            std::process::exit(1);
        }
    }
}
