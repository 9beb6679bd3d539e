//! Claim C8: crash-fault recovery — under every single-crash schedule at
//! every injection point (AEA after-verify / before-sign / after-sign, TFC
//! between timestamp and re-encrypt, portal between seen-row and document
//! row), every Fig. 9 instance still completes and the final document pool
//! is **byte-identical** to the crash-free run: no CER lost, none appended
//! twice, no double timestamp.
//!
//! The machinery under test: the portals' write-ahead journal (replayed on
//! restart), the TFC redo log (re-emits the same timestamped document), the
//! runner's lease-based hop takeover (re-dispatches from the pool copy) and
//! deterministic signing + sealing (the re-executed hop is byte-identical,
//! so the wire-digest idempotency suppresses any copy the dead agent did
//! land).
//!
//! The sweep is fully deterministic (virtual time only, seeded crash
//! schedules) and writes `BENCH_crash.json` — running the bin twice must
//! produce byte-identical JSON, which CI checks.
//!
//! Every cell runs under a live [`HealthMonitor`]: stalls caused by a
//! crashed hop surface as `stuck_instance` alerts *during* the run, the
//! alert books are balanced against the runner's takeover counters by
//! `check_metric_invariants`, and the crash-free baselines must stay
//! alert-silent. Pass `--trace-out PATH` to export the span stream of the
//! first crashed tfc cell, `--alerts-out PATH` for the sweep's alert JSONL.
//!
//! Run with: `cargo run --release -p dra-bench --bin claim_crash [seeds…]`

use dra4wfms_core::prelude::*;
use dra_bench::fig9;
use dra_bench::write_artifact;
use dra_cloud::{
    alerts_to_jsonl, check_metric_invariants, tracer_for, Alert, CloudSystem, CrashPlan,
    CrashPoint, Delivery, HealthMonitor, InstanceRun, MonitorConfig, NetworkSim,
};
use dra_obs::{events_to_jsonl, TraceEvent};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const INSTANCES: usize = 4;
/// The scheduled crash visit is drawn from the seed in `[1, MAX_NTH]`;
/// every injection point is visited ≥ 36 times per cell, so the schedule
/// always fires exactly once.
const MAX_NTH: u64 = 12;

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
    point: String,
    seed: u64,
    nth: u64,
    completed: usize,
    crashes: u64,
    leases_expired: u64,
    journal_replays: u64,
    sends: u64,
    attempts: u64,
    duplicates_suppressed: u64,
    virtual_time_us: u64,
    pool_sha256: String,
    alerts: Vec<Alert>,
    invariants: Result<(), String>,
    events: Vec<TraceEvent>,
}

/// Run `INSTANCES` Fig. 9 instances on a fresh deployment under `plan`.
fn run_cell(mode: &'static str, advanced: bool, plan: Arc<CrashPlan>, seed: u64) -> Cell {
    let (creds, dir) = fig9::cast();
    let def = fig9::definition(advanced);
    let network = Arc::new(NetworkSim::lan());
    let tracer = tracer_for(&network);
    let metrics = dra_obs::MetricsRegistry::new();
    // one monitor watches the whole cell: per-pid state keeps the
    // instances separate, and the stuck/crash-loop alerts it raises are
    // reconciled against the runner's takeover counters below
    let monitor = HealthMonitor::new(MonitorConfig::default());
    let sys = CloudSystem::new(dir.clone(), 3, Arc::clone(&network))
        .with_crash_plan(Arc::clone(&plan))
        .with_tracer(tracer.clone());
    let delivery = Delivery::lossless(Arc::clone(&network)).with_tracer(tracer.clone());
    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| {
            let aea = Aea::new(c.clone(), dir.clone()).with_crash_hook(plan.hook());
            (c.name.clone(), Arc::new(aea))
        })
        .collect();
    // fresh deterministic clock per cell: crash-free and crashed runs draw
    // the same timestamps (the redo log guarantees one draw per hop)
    let draws = Arc::new(AtomicU64::new(0));
    let tfc = advanced.then(|| {
        let tfc_creds = creds.iter().find(|c| c.name == "TFC").expect("TFC creds").clone();
        let draws = Arc::clone(&draws);
        TfcServer::with_clock(
            tfc_creds,
            dir.clone(),
            Arc::new(move || 1_000 + draws.fetch_add(1, Ordering::Relaxed)),
        )
        .with_crash_hook(plan.hook())
    });
    let policy = if advanced {
        SecurityPolicy::public().with_tfc_access("TFC", &def)
    } else {
        SecurityPolicy::public()
    };

    let mut completed = 0usize;
    let mut leases_expired = 0u64;
    for i in 0..INSTANCES {
        let initial = DraDocument::new_initial_with_pid(
            &def,
            &policy,
            &creds[0],
            // seed-independent pid: the stored bytes must depend only on
            // the workflow, never on the crash schedule
            &format!("crash-{i:02}"),
        )
        .expect("initial");
        let mut run = InstanceRun::new(&sys, &initial)
            .agents(&agents)
            .respond(&respond)
            .max_steps(100)
            .network(&delivery)
            .tracer(tracer.clone())
            .metrics(&metrics)
            .monitor(&monitor);
        if let Some(server) = tfc.as_ref() {
            run = run.tfc(server);
        }
        if let Ok(out) = run.run() {
            if out.steps == 9 {
                Verifier::new(&dir).run(&out.document).expect("final document verifies");
                completed += 1;
            }
            leases_expired += out.delivery.map(|s| s.leases_expired).unwrap_or(0);
        }
    }

    let stats = delivery.stats();
    let (point, nth) = match plan.scheduled() {
        Some((p, n)) => (p.site().to_string(), n),
        None => ("none".to_string(), 0),
    };
    Cell {
        mode,
        point,
        seed,
        nth,
        completed,
        crashes: plan.crashes_injected(),
        leases_expired,
        journal_replays: sys.journal_replays(),
        sends: stats.sends,
        attempts: stats.attempts,
        duplicates_suppressed: stats.duplicates_suppressed,
        virtual_time_us: stats.virtual_time_us,
        pool_sha256: sys.pool_digest(),
        alerts: monitor.alerts(),
        invariants: check_metric_invariants(&metrics.snapshot()),
        events: tracer.events(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out =
        args.iter().position(|a| a == "--trace-out").and_then(|i| args.get(i + 1)).cloned();
    let alerts_out =
        args.iter().position(|a| a == "--alerts-out").and_then(|i| args.get(i + 1)).cloned();
    let seeds: Vec<u64> = {
        let nums: Vec<u64> = args.iter().filter_map(|s| s.parse().ok()).collect();
        if nums.is_empty() {
            vec![1, 7, 42]
        } else {
            nums
        }
    };

    println!("crash-matrix: {INSTANCES} Fig. 9 instances per cell, seeds {seeds:?}\n");
    println!(
        "{:>6} {:>28} {:>5} {:>4} {:>5} {:>7} {:>7} {:>8} {:>5} {:>6} {:>4} {:>9}",
        "mode",
        "point",
        "seed",
        "nth",
        "done",
        "crashes",
        "leases",
        "replays",
        "dups",
        "alerts",
        "inv",
        "baseline"
    );

    let mut cells = Vec::new();
    let mut all_ok = true;
    for (mode, advanced) in [("basic", false), ("tfc", true)] {
        // crash-free baseline fixes the byte-identity target for this mode
        let baseline = run_cell(mode, advanced, CrashPlan::none(), 0);
        let target = baseline.pool_sha256.clone();
        // crash-free baseline: the monitor must stay completely silent
        let baseline_ok = baseline.completed == INSTANCES
            && baseline.crashes == 0
            && baseline.alerts.is_empty()
            && baseline.invariants.is_ok();
        all_ok &= baseline_ok;
        println!(
            "{:>6} {:>28} {:>5} {:>4} {:>2}/{:<2} {:>7} {:>7} {:>8} {:>5} {:>6} {:>4} {:>9}",
            baseline.mode,
            baseline.point,
            "-",
            "-",
            baseline.completed,
            INSTANCES,
            baseline.crashes,
            baseline.leases_expired,
            baseline.journal_replays,
            baseline.duplicates_suppressed,
            baseline.alerts.len(),
            if baseline.invariants.is_ok() { "ok" } else { "BAD" },
            "(target)"
        );
        cells.push(baseline);

        let points: &[CrashPoint] = if advanced { &CrashPoint::ALL } else { &CrashPoint::BASIC };
        for &point in points {
            for &seed in &seeds {
                let cell = run_cell(mode, advanced, CrashPlan::seeded(point, seed, MAX_NTH), seed);
                let identical = cell.pool_sha256 == target;
                let ok = cell.completed == INSTANCES
                    && cell.crashes == 1
                    && identical
                    && cell.invariants.is_ok();
                all_ok &= ok;
                println!(
                    "{:>6} {:>28} {:>5} {:>4} {:>2}/{:<2} {:>7} {:>7} {:>8} {:>5} {:>6} {:>4} {:>9}",
                    cell.mode,
                    cell.point,
                    cell.seed,
                    cell.nth,
                    cell.completed,
                    INSTANCES,
                    cell.crashes,
                    cell.leases_expired,
                    cell.journal_replays,
                    cell.duplicates_suppressed,
                    cell.alerts.len(),
                    if cell.invariants.is_ok() { "ok" } else { "BAD" },
                    if identical { "identical" } else { "DIVERGED" }
                );
                if let Err(e) = &cell.invariants {
                    eprintln!("  invariant violated: {e}");
                }
                cells.push(cell);
            }
        }
    }

    // deterministic JSON: virtual-time accounting only, no wall clock —
    // re-running with the same seeds must reproduce these bytes exactly
    let mut json = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"mode\": \"{}\", \"point\": \"{}\", \"seed\": {}, \"nth\": {}, \
             \"instances\": {}, \"completed\": {}, \"crashes_injected\": {}, \
             \"leases_expired\": {}, \"journal_replays\": {}, \
             \"sends\": {}, \"attempts\": {}, \"duplicates_suppressed\": {}, \
             \"virtual_time_us\": {}, \"pool_sha256\": \"{}\", \
             \"alerts\": {}, \"invariants\": \"{}\"}}{}\n",
            c.mode,
            c.point,
            c.seed,
            c.nth,
            INSTANCES,
            c.completed,
            c.crashes,
            c.leases_expired,
            c.journal_replays,
            c.sends,
            c.attempts,
            c.duplicates_suppressed,
            c.virtual_time_us,
            c.pool_sha256,
            c.alerts.len(),
            if c.invariants.is_ok() { "ok" } else { "violated" },
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    write_artifact("BENCH_crash.json", &json);
    println!("\nwrote BENCH_crash.json ({} cells)", cells.len());

    // optional exports: span stream of the first crashed tfc cell (the
    // richest trace: crash + takeover + TFC redo), and the sweep's alerts
    if let Some(path) = &trace_out {
        let canonical =
            cells.iter().find(|c| c.mode == "tfc" && c.crashes > 0).unwrap_or(&cells[0]);
        write_artifact(path, events_to_jsonl(&canonical.events));
        println!(
            "wrote {path} ({} spans, {} cell seed {})",
            canonical.events.len(),
            canonical.point,
            canonical.seed
        );
    }
    if let Some(path) = &alerts_out {
        let all: Vec<Alert> = cells.iter().flat_map(|c| c.alerts.clone()).collect();
        write_artifact(path, alerts_to_jsonl(&all));
        println!("wrote {path} ({} alerts)", all.len());
    }

    println!(
        "\nC8 verdict: {}",
        if all_ok { "CRASH RECOVERY REPRODUCED" } else { "NOT REPRODUCED" }
    );
    if !all_ok {
        std::process::exit(1);
    }
}
