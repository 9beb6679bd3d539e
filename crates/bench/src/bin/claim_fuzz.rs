//! Claim C14: differential fuzzing over the workflow-pattern catalogue —
//! every definition a seeded generator draws from the full pattern set
//! (AND/XOR/OR joins, multi-instance activities, cancellation regions) is
//! proven sound, executes to the byte-identical final document and pool
//! digest through both operational models under honest, hostile and
//! crashing channels, reconciles cleanly against its span trace, catches
//! every injected forgery, and has its deadlocking twin rejected at
//! admission.
//!
//! Sweeps a fixed 64-seed corpus and writes the fully deterministic
//! results (virtual time only, no wall clock) to `BENCH_fuzz.json` —
//! running the bin twice must produce byte-identical JSON, which CI
//! checks and perf-gates against `perf/BENCH_fuzz.baseline.json`.
//!
//! Run with: `cargo run --release -p dra-bench --bin claim_fuzz [n_seeds]`

use dra_bench::fuzz;
use dra_bench::write_artifact;

const DEFAULT_SEEDS: u64 = 64;

fn main() {
    let seeds: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(DEFAULT_SEEDS);

    println!("C14: differential fuzz over the pattern catalogue — {seeds} seeds\n");
    println!(
        "{:>6} {:>5} {:>6} {:>6} {:>7} {:>9} {:>9} {:>11} {:>9}",
        "seed", "acts", "hopsB", "hopsA", "states", "or-waits", "cancels", "forgeries", "unsound"
    );

    let mut reports = Vec::new();
    let mut failures = Vec::new();
    for seed in 0..seeds {
        match fuzz::fuzz_seed(seed) {
            Ok(r) => {
                println!(
                    "{:>6} {:>5} {:>6} {:>6} {:>7} {:>9} {:>9} {:>6}/{:<4} {:>9}",
                    r.seed,
                    r.activities,
                    r.hops_basic,
                    r.hops_advanced,
                    r.soundness_states,
                    r.or_join_waits,
                    r.cancelled,
                    r.forgeries_caught,
                    r.forgeries_tried,
                    if r.unsound_rejected { "rejected" } else { "ADMITTED" }
                );
                reports.push(r);
            }
            Err(e) => {
                println!("{seed:>6}  DIVERGED: {e}");
                failures.push(e);
            }
        }
    }

    // deterministic JSON in the scaling-array shape: every numeric field on
    // a "cell" row is auto-gated by perf_gate, so any drift in hop counts,
    // soundness-state counts or detection totals fails CI
    let mut json = String::from("[\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"cell\": \"seed-{:02}\", \"activities\": {}, \"hops_basic\": {}, \
             \"hops_advanced\": {}, \"soundness_states\": {}, \"or_join_waits\": {}, \
             \"cancelled\": {}, \"forgeries_tried\": {}, \"forgeries_caught\": {}, \
             \"unsound_rejected\": {}, \"outcome_sha256\": \"{}\"}}{}\n",
            r.seed,
            r.activities,
            r.hops_basic,
            r.hops_advanced,
            r.soundness_states,
            r.or_join_waits,
            r.cancelled,
            r.forgeries_tried,
            r.forgeries_caught,
            u64::from(r.unsound_rejected),
            r.outcome_sha256,
            if i + 1 == reports.len() && failures.is_empty() { "" } else { "," }
        ));
    }
    for (i, e) in failures.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"cell\": \"divergence-{:02}\", \"error\": \"{}\"}}{}\n",
            i,
            e.replace('"', "'"),
            if i + 1 == failures.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    write_artifact("BENCH_fuzz.json", &json);
    println!("\nwrote BENCH_fuzz.json ({} cells)", reports.len() + failures.len());

    // verdict: every seed ran the full differential matrix without
    // divergence, every forgery was caught, every unsound twin rejected,
    // and the corpus actually exercised the new patterns
    let all_forgeries = reports.iter().all(|r| r.forgeries_caught == r.forgeries_tried);
    let all_rejected = reports.iter().all(|r| r.unsound_rejected);
    let patterns_hit = reports.iter().map(|r| r.or_join_waits).sum::<u64>() > 0
        && reports.iter().map(|r| r.cancelled).sum::<u64>() > 0;
    let ok = failures.is_empty()
        && reports.len() as u64 == seeds
        && all_forgeries
        && all_rejected
        && patterns_hit;
    println!(
        "\nC14 verdict: {}",
        if ok {
            "PASS — every seed converged across models and channels, every forgery \
             caught, every unsound twin rejected"
        } else {
            "FAIL"
        }
    );
    if !ok {
        if !failures.is_empty() {
            eprintln!("  {} seed(s) diverged", failures.len());
        }
        if !all_forgeries {
            eprintln!("  a forgery went undetected");
        }
        if !all_rejected {
            eprintln!("  an unsound twin was admitted");
        }
        if !patterns_hit {
            eprintln!("  the corpus never parked an OR-join or fired a cancellation");
        }
        std::process::exit(1);
    }
}
