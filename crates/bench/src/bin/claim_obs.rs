//! Claim C9: the observability layer is *checkable and cheap* — every
//! Fig. 9 run (basic and advanced model, lossless and hostile channels,
//! with and without injected crashes) produces a span trace that the
//! document-anchored differential oracle (`dra4wfms_core::reconcile`)
//! accepts, the end-of-run metrics satisfy the cross-layer accounting
//! invariants, and instrumenting the hot path costs ≤ 5% wall-clock on the
//! C1 chain workload.
//!
//! The trace is stamped in virtual time, so for a fixed seed the exported
//! `BENCH_obs_trace.jsonl` / `BENCH_obs_trace.chrome.json` are
//! byte-identical across re-runs — CI executes the bin twice and diffs
//! them. `BENCH_obs.json` carries the sweep (deterministic fields) plus
//! the wall-clock overhead measurement (machine-dependent, not diffed).
//!
//! Run with: `cargo run --release -p dra-bench --bin claim_obs [seeds…]`

use dra4wfms_core::prelude::*;
use dra4wfms_core::reconcile::reconcile;
use dra_bench::chain::run_chain_incremental_traced;
use dra_bench::fig9;
use dra_bench::write_artifact;
use dra_cloud::{
    check_metric_invariants, tracer_for, CloudSystem, CrashPlan, CrashPoint, Delivery,
    DeliveryPolicy, FaultProfile, InstanceRun, NetworkSim,
};
use dra_obs::{events_to_chrome, events_to_jsonl, MetricsRegistry, Tracer};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

fn respond(received: &ReceivedActivity) -> Vec<(String, String)> {
    match received.activity.as_str() {
        "A" => vec![("attachment".into(), "contract.pdf".into())],
        "B1" => vec![("review1".into(), "ok".into())],
        "B2" => vec![("review2".into(), "ok".into())],
        "C" => vec![(
            "decision".into(),
            if received.iter == 0 { "insufficient" } else { "accept" }.into(),
        )],
        "D" => vec![("ack".into(), "done".into())],
        _ => vec![],
    }
}

struct Cell {
    mode: &'static str,
    channel: &'static str,
    crash: bool,
    seed: u64,
    steps: usize,
    events: usize,
    hops_matched: usize,
    crashed_attempts: usize,
    crashes_injected: u64,
    reconciled: bool,
    invariants: Result<(), String>,
}

/// Drive one fully instrumented Fig. 9 instance and reconcile its trace
/// against the final document. Returns the cell plus the recorded events
/// (the canonical cell's events become the exported trace files).
fn run_cell(
    mode: &'static str,
    advanced: bool,
    channel: &'static str,
    hostile: bool,
    crash: bool,
    seed: u64,
) -> (Cell, Vec<dra_obs::TraceEvent>) {
    let (creds, dir) = fig9::cast();
    let def = fig9::definition(advanced);
    let network = Arc::new(NetworkSim::lan());
    let tracer = tracer_for(&network);
    let metrics = MetricsRegistry::new();

    // a single-crash schedule that always fires: the nth AEA signing visit,
    // n drawn from the seed within the 9 hops of one Fig. 9 instance
    let plan = if crash {
        CrashPlan::once(CrashPoint::AeaBeforeSign, 1 + seed % 9)
    } else {
        CrashPlan::none()
    };
    let sys = CloudSystem::new(dir.clone(), 3, Arc::clone(&network))
        .with_crash_plan(Arc::clone(&plan))
        .with_tracer(tracer.clone());
    let delivery = if hostile {
        Delivery::new(
            Arc::clone(&network),
            FaultProfile::hostile(),
            DeliveryPolicy::default(),
            seed,
        )
        .expect("valid profile")
    } else {
        Delivery::lossless(Arc::clone(&network))
    }
    .with_tracer(tracer.clone());
    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| {
            let aea = Aea::new(c.clone(), dir.clone())
                .with_crash_hook(plan.hook())
                .with_tracer(tracer.clone());
            (c.name.clone(), Arc::new(aea))
        })
        .collect();
    let tfc = advanced.then(|| {
        let tfc_creds = creds.iter().find(|c| c.name == "TFC").expect("TFC creds").clone();
        TfcServer::with_clock(tfc_creds, dir.clone(), Arc::new(|| 1_700_000_000_000))
            .with_crash_hook(plan.hook())
            .with_tracer(tracer.clone())
    });
    let policy = if advanced {
        SecurityPolicy::public().with_tfc_access("TFC", &def)
    } else {
        SecurityPolicy::public()
    };

    let initial = DraDocument::new_initial_with_pid(
        &def, &policy, &creds[0],
        // seed-independent pid: the trace must vary only through the
        // fault/crash schedule, never through the document bytes
        "obs-fig9",
    )
    .expect("initial");
    let mut run = InstanceRun::new(&sys, &initial)
        .agents(&agents)
        .respond(&respond)
        .max_steps(100)
        .network(&delivery)
        .tracer(tracer.clone())
        .metrics(&metrics);
    if let Some(server) = tfc.as_ref() {
        run = run.tfc(server);
    }
    let out = run.run().expect("instrumented run completes");
    Verifier::new(&dir).run(out.document.document()).expect("final document verifies");

    let events = tracer.events();
    let report = reconcile(&events, out.document.document());
    let invariants = check_metric_invariants(&metrics.snapshot());
    let cell = Cell {
        mode,
        channel,
        crash,
        seed,
        steps: out.steps,
        events: events.len(),
        hops_matched: report.as_ref().map(|r| r.hops_matched).unwrap_or(0),
        crashed_attempts: report.as_ref().map(|r| r.crashed_attempts).unwrap_or(0),
        crashes_injected: plan.crashes_injected(),
        reconciled: report.is_ok(),
        invariants,
    };
    if let Err(e) = &report {
        eprintln!("  reconcile FAILED [{mode}/{channel}/crash={crash}/seed={seed}]: {e}");
    }
    (cell, events)
}

/// Best-of-`reps` wall-clock of the sealed chain workload, instrumented or
/// not. Chains run on no network, so the traced variant uses logical time.
fn chain_secs(n: usize, reps: usize, traced: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let tracer = if traced { Tracer::sequential() } else { Tracer::disabled() };
        let t0 = Instant::now();
        let records = run_chain_incremental_traced(n, true, "x", &tracer);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(records.len(), n);
        best = best.min(dt);
    }
    best
}

fn main() {
    let seeds: Vec<u64> = {
        let args: Vec<u64> = std::env::args().skip(1).filter_map(|s| s.parse().ok()).collect();
        if args.is_empty() {
            vec![1, 7, 42]
        } else {
            args
        }
    };

    println!("observability matrix: 1 Fig. 9 instance per cell, seeds {seeds:?}\n");
    println!(
        "{:>6} {:>9} {:>6} {:>5} {:>6} {:>7} {:>5} {:>8} {:>10} {:>10}",
        "mode",
        "channel",
        "crash",
        "seed",
        "steps",
        "events",
        "hops",
        "crashed",
        "reconcile",
        "invariants"
    );

    let mut cells: Vec<Cell> = Vec::new();
    let mut canonical_events: Option<Vec<dra_obs::TraceEvent>> = None;
    for (mode, advanced) in [("basic", false), ("tfc", true)] {
        for (channel, hostile) in [("lossless", false), ("hostile", true)] {
            for crash in [false, true] {
                for &seed in &seeds {
                    let (cell, events) = run_cell(mode, advanced, channel, hostile, crash, seed);
                    // canonical trace: first advanced-model lossless
                    // crash-free cell — the richest fault-free timeline
                    if canonical_events.is_none() && advanced && !hostile && !crash {
                        canonical_events = Some(events);
                    }
                    println!(
                        "{:>6} {:>9} {:>6} {:>5} {:>6} {:>7} {:>5} {:>8} {:>10} {:>10}",
                        cell.mode,
                        cell.channel,
                        cell.crash,
                        cell.seed,
                        cell.steps,
                        cell.events,
                        cell.hops_matched,
                        cell.crashed_attempts,
                        if cell.reconciled { "ok" } else { "FAILED" },
                        if cell.invariants.is_ok() { "ok" } else { "VIOLATED" },
                    );
                    if let Err(e) = &cell.invariants {
                        eprintln!("  invariant violated: {e}");
                    }
                    cells.push(cell);
                }
            }
        }
    }

    // instrumentation overhead on the C1 chain workload (wall clock,
    // best-of-5 — the only machine-dependent numbers in this bin)
    const CHAIN_N: usize = 48;
    const REPS: usize = 5;
    let plain = chain_secs(CHAIN_N, REPS, false);
    let traced = chain_secs(CHAIN_N, REPS, true);
    let overhead_pct = (traced - plain) / plain * 100.0;
    println!(
        "\nchain({CHAIN_N}) best-of-{REPS}: plain {:.1} ms, traced {:.1} ms, overhead {:+.2}%",
        plain * 1e3,
        traced * 1e3,
        overhead_pct
    );

    // deterministic trace exports: CI runs this bin twice and byte-compares
    let events = canonical_events.expect("canonical cell ran");
    write_artifact("BENCH_obs_trace.jsonl", events_to_jsonl(&events));
    write_artifact("BENCH_obs_trace.chrome.json", events_to_chrome(&events));
    println!("wrote BENCH_obs_trace.jsonl + BENCH_obs_trace.chrome.json ({} events)", events.len());

    let mut json = String::from("{\n  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"channel\": \"{}\", \"crash\": {}, \"seed\": {}, \
             \"steps\": {}, \"events\": {}, \"hops_matched\": {}, \"crashed_attempts\": {}, \
             \"crashes_injected\": {}, \"reconciled\": {}, \"invariants_ok\": {}}}{}\n",
            c.mode,
            c.channel,
            c.crash,
            c.seed,
            c.steps,
            c.events,
            c.hops_matched,
            c.crashed_attempts,
            c.crashes_injected,
            c.reconciled,
            c.invariants.is_ok(),
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"overhead\": {{\"chain_n\": {CHAIN_N}, \"reps\": {REPS}, \
         \"plain_ms\": {:.3}, \"traced_ms\": {:.3}, \"overhead_pct\": {:.3}}}\n}}\n",
        plain * 1e3,
        traced * 1e3,
        overhead_pct
    ));
    write_artifact("BENCH_obs.json", &json);
    println!("wrote BENCH_obs.json ({} cells)", cells.len());

    let all_reconciled = cells.iter().all(|c| c.reconciled);
    let all_invariants = cells.iter().all(|c| c.invariants.is_ok());
    let crashes_fired = cells.iter().filter(|c| c.crash).all(|c| c.crashes_injected == 1);
    let all_complete = cells.iter().all(|c| c.steps == 9);
    let overhead_ok = overhead_pct <= 5.0;
    println!("\nall cells reconciled against the signed document: {all_reconciled}");
    println!("metric invariants hold in every cell: {all_invariants}");
    println!("every crash cell injected exactly one crash: {crashes_fired}");
    println!("instrumentation overhead ≤ 5%: {overhead_ok} ({overhead_pct:+.2}%)");

    let pass = all_reconciled && all_invariants && crashes_fired && all_complete && overhead_ok;
    println!("\nC9 verdict: {}", if pass { "OBSERVABILITY RECONCILED" } else { "NOT REPRODUCED" });
    if !pass {
        std::process::exit(1);
    }
}
