//! Claim C10: per-stage latency attribution is *deterministic and
//! gateable* — sweeping the Fig. 9 workflow over basic/tfc × lossless/
//! hostile cells under a live `HealthMonitor` yields byte-identical
//! `BENCH_profile.json` / `BENCH_alerts.jsonl` for a fixed seed, the
//! lossless cells raise zero alerts, and the profile numbers feed the CI
//! `perf-gate` job (see the `perf_gate` bin and `perf/`).
//!
//! Everything written here is virtual-time integer arithmetic — no wall
//! clock — so CI runs the bin twice and `cmp`s both outputs, then holds
//! the fresh profile against `perf/BENCH_profile.baseline.json` with the
//! tolerances in `perf/perf_tolerances.json`.
//!
//! Run with: `cargo run --release -p dra-bench --bin claim_profile [seed]`

use dra4wfms_core::prelude::*;
use dra_bench::fig9;
use dra_bench::write_artifact;
use dra_cloud::{
    alerts_to_jsonl, check_metric_invariants, tracer_for, Alert, CloudSystem, Delivery,
    DeliveryPolicy, FaultProfile, HealthMonitor, InstanceRun, MonitorConfig, NetworkSim,
};
use dra_obs::{LatencyProfile, MetricsRegistry};
use std::collections::HashMap;
use std::sync::Arc;

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

struct CellResult {
    cell: String,
    steps: usize,
    events: usize,
    profile: LatencyProfile,
    alerts: Vec<Alert>,
    invariants: Result<(), String>,
}

/// One fully instrumented, monitored Fig. 9 instance; returns the cell's
/// latency profile plus the alert stream it produced.
fn run_cell(mode: &str, advanced: bool, channel: &str, hostile: bool, seed: u64) -> CellResult {
    let (creds, dir) = fig9::cast();
    let def = fig9::definition(advanced);
    let network = Arc::new(NetworkSim::lan());
    let tracer = tracer_for(&network);
    let metrics = MetricsRegistry::new();
    let monitor = HealthMonitor::new(MonitorConfig::default());
    let sys = CloudSystem::new(dir.clone(), 3, Arc::clone(&network)).with_tracer(tracer.clone());
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
            let aea = Aea::new(c.clone(), dir.clone()).with_tracer(tracer.clone());
            (c.name.clone(), Arc::new(aea))
        })
        .collect();
    let tfc = advanced.then(|| {
        let tfc_creds = creds.iter().find(|c| c.name == "TFC").expect("TFC creds").clone();
        TfcServer::with_clock(tfc_creds, dir.clone(), Arc::new(|| 1_700_000_000_000))
            .with_tracer(tracer.clone())
    });
    let policy = if advanced {
        SecurityPolicy::public().with_tfc_access("TFC", &def)
    } else {
        SecurityPolicy::public()
    };

    // per-cell pid: the alert stream names the cell it came from
    let pid = format!("profile-{mode}-{channel}");
    let initial =
        DraDocument::new_initial_with_pid(&def, &policy, &creds[0], &pid).expect("initial");
    let mut run = InstanceRun::new(&sys, &initial)
        .agents(&agents)
        .respond(&respond)
        .max_steps(100)
        .network(&delivery)
        .tracer(tracer.clone())
        .metrics(&metrics)
        .monitor(&monitor)
        // a 25 ms end-to-end SLO: comfortable on a lossless channel,
        // deterministically blown by the hostile one (backoff is charged
        // in virtual time) — so the sweep demonstrates SloBreach too
        .slo_us(25_000);
    if let Some(server) = tfc.as_ref() {
        run = run.tfc(server);
    }
    let out = run.run().expect("instrumented run completes");
    Verifier::new(&dir).run(out.document.document()).expect("final document verifies");

    let events = tracer.events();
    CellResult {
        cell: format!("{mode}/{channel}"),
        steps: out.steps,
        events: events.len(),
        profile: LatencyProfile::from_events(&events),
        alerts: monitor.alerts(),
        invariants: check_metric_invariants(&metrics.snapshot()),
    }
}

fn main() {
    let seed: u64 = std::env::args().skip(1).find_map(|s| s.parse().ok()).unwrap_or(7);

    println!("latency-attribution sweep: 1 monitored Fig. 9 instance per cell, seed {seed}\n");

    let mut cells: Vec<CellResult> = Vec::new();
    for (mode, advanced) in [("basic", false), ("tfc", true)] {
        for (channel, hostile) in [("lossless", false), ("hostile", true)] {
            let cell = run_cell(mode, advanced, channel, hostile, seed);
            println!(
                "{:>14}: {} steps, {} spans, {} alert(s), invariants {}",
                cell.cell,
                cell.steps,
                cell.events,
                cell.alerts.len(),
                if cell.invariants.is_ok() { "ok" } else { "VIOLATED" }
            );
            if let Err(e) = &cell.invariants {
                eprintln!("  invariant violated: {e}");
            }
            println!("  hottest stages by self time:");
            for s in cell.profile.top_k(3) {
                println!(
                    "    {:<14} self {:>8} µs  (count {}, p95 {} µs)",
                    s.stage, s.self_us, s.count, s.p95_us
                );
            }
            cells.push(cell);
        }
    }

    // deterministic profile JSON: one cell header / one stage per line,
    // fixed key order — the exact shape `perf_gate` parses back
    let mut json = format!("{{\n\"claim\": \"C10\",\n\"seed\": {seed},\n\"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "{{\"cell\": \"{}\", \"steps\": {}, \"spans\": {}, \"alerts\": {}, \"stages\": [\n",
            c.cell,
            c.steps,
            c.events,
            c.alerts.len()
        ));
        for (j, s) in c.profile.stages.iter().enumerate() {
            json.push_str(&format!(
                "{{\"stage\": \"{}\", \"count\": {}, \"total_us\": {}, \"self_us\": {}, \
                 \"child_us\": {}, \"max_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \
                 \"p99_us\": {}}}{}\n",
                s.stage,
                s.count,
                s.total_us,
                s.self_us,
                s.child_us,
                s.max_us,
                s.p50_us,
                s.p95_us,
                s.p99_us,
                if j + 1 == c.profile.stages.len() { "" } else { "," }
            ));
        }
        json.push_str(&format!("]}}{}\n", if i + 1 == cells.len() { "" } else { "," }));
    }
    json.push_str("]\n}\n");
    write_artifact("BENCH_profile.json", &json);
    println!("\nwrote BENCH_profile.json ({} cells)", cells.len());

    // the concatenated alert streams, byte-deterministic like the traces
    let all_alerts: Vec<Alert> = cells.iter().flat_map(|c| c.alerts.clone()).collect();
    write_artifact("BENCH_alerts.jsonl", alerts_to_jsonl(&all_alerts));
    println!("wrote BENCH_alerts.jsonl ({} alerts)", all_alerts.len());

    // verdict: every cell completes and balances its books, lossless cells
    // are silent, and the attribution accounts for every span
    let all_complete = cells.iter().all(|c| c.steps == 9);
    let all_invariants = cells.iter().all(|c| c.invariants.is_ok());
    let lossless_silent =
        cells.iter().filter(|c| c.cell.ends_with("lossless")).all(|c| c.alerts.is_empty());
    let attribution_balanced = cells.iter().all(|c| {
        let total: u64 = c.profile.stages.iter().map(|s| s.total_us).sum();
        c.profile.total_self_us() <= total
    });
    println!("\nall cells completed 9 steps: {all_complete}");
    println!("metric invariants hold in every cell: {all_invariants}");
    println!("lossless cells raised zero alerts: {lossless_silent}");
    println!("self-time attribution bounded by totals: {attribution_balanced}");

    let pass = all_complete && all_invariants && lossless_silent && attribution_balanced;
    println!(
        "\nC10 verdict: {}",
        if pass { "LATENCY ATTRIBUTION REPRODUCED" } else { "NOT REPRODUCED" }
    );
    if !pass {
        std::process::exit(1);
    }
}
