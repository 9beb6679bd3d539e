//! Claim C11: the event-driven scheduler carries *fleet-scale* load — 100,
//! 300 and 1000 concurrent Fig. 9A instances admitted into one
//! `cloud::sched::Scheduler` over a shared deployment all complete, with
//! hash-routed portals absorbing the stores evenly (no portal-0 hot-spot),
//! the bus accounting laws holding, and a byte-identical
//! `BENCH_fleet.json` for a fixed configuration.
//!
//! Reported rates are in *virtual* time (hops and instances per virtual
//! second), so the JSON is deterministic; wall-clock goes to stdout only.
//! CI runs the bin twice, `cmp`s the outputs, then holds the fresh numbers
//! against `perf/BENCH_fleet.baseline.json` via the `perf_gate` bin.
//!
//! Run with: `cargo run --release -p dra-bench --bin claim_fleet`

use dra4wfms_core::prelude::*;
use dra_bench::fig9;
use dra_bench::write_artifact;
use dra_cloud::{tracer_for, CloudSystem, InstanceRun, NetworkSim, Scheduler};
use dra_obs::MetricsRegistry;
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
    instances: usize,
    completed: usize,
    hops: u64,
    virtual_us: u64,
    hops_per_vsec: u64,
    instances_per_vsec: u64,
    portal_min_stored: usize,
    portal_max_stored: usize,
    hop_count: u64,
    hop_total_us: u64,
    hop_max_us: u64,
    hop_p50_us: u64,
    hop_p95_us: u64,
    hop_p99_us: u64,
    activations: u64,
    dispatched: u64,
    bus_depth: i64,
    complete_statuses: usize,
    pool_rows: u64,
    scanned_rows: u64,
    scanned_regions: u64,
}

/// Admit `n` Fig. 9A instances into one scheduler over a fresh deployment
/// and drain the bus to completion.
fn run_cell(n: usize, portals: usize) -> CellResult {
    let (creds, dir) = fig9::cast();
    let def = fig9::definition(false);
    let network = Arc::new(NetworkSim::lan());
    let tracer = tracer_for(&network);
    let metrics = MetricsRegistry::new();
    let sys = CloudSystem::new(dir.clone(), portals, Arc::clone(&network));
    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone()))))
        .collect();

    let initials: Vec<DraDocument> = (0..n)
        .map(|i| {
            DraDocument::new_initial_with_pid(
                &def,
                &SecurityPolicy::public(),
                &creds[0],
                &format!("fleet-{i:04}"),
            )
            .expect("initial document")
        })
        .collect();

    let wall_start = std::time::Instant::now();
    let vt_start = network.virtual_time_us();
    let mut sched = Scheduler::new(&sys);
    for initial in &initials {
        sched
            .admit_instance(
                InstanceRun::new(&sys, initial)
                    .agents(&agents)
                    .respond(&respond)
                    .max_steps(100)
                    .tracer(tracer.clone())
                    .metrics(&metrics),
            )
            .expect("admission succeeds");
    }
    let results = sched.run_to_completion();
    let virtual_us = network.virtual_time_us() - vt_start;
    let wall = wall_start.elapsed();

    let completed = results.iter().filter(|(_, r)| r.as_ref().map(|o| o.steps) == Ok(9)).count();
    let snap = metrics.snapshot();
    let hops = snap.counter("run.steps");
    let hist = snap.histograms.get("hop.duration_us").cloned().expect("hops were traced");
    let stored: Vec<usize> =
        sys.portals.iter().map(|p| p.stored.load(std::sync::atomic::Ordering::Relaxed)).collect();

    // wall-clock is stdout-only: the JSON stays byte-deterministic
    println!(
        "  fleet {n:>5}: {completed} completed, {hops} hops in {virtual_us} virtual µs \
         ({:.2}s wall), portal stored spread {:?}",
        wall.as_secs_f64(),
        stored
    );

    // end-of-run aggregation rides the typed scan API: a projected `meta/`
    // prefix scan feeds MapReduce, never a full table read
    let statuses = sys.statistics_by_status(4);
    let complete_statuses = statuses.get("complete").copied().unwrap_or(0);
    sys.export_metrics(&metrics);
    let snap = metrics.snapshot();

    dra_bench::enforce_metric_invariants(&metrics);

    CellResult {
        cell: format!("fleet-{n:04}"),
        instances: n,
        completed,
        hops,
        virtual_us,
        hops_per_vsec: hops.saturating_mul(1_000_000) / virtual_us.max(1),
        instances_per_vsec: (completed as u64).saturating_mul(1_000_000) / virtual_us.max(1),
        portal_min_stored: stored.iter().copied().min().unwrap_or(0),
        portal_max_stored: stored.iter().copied().max().unwrap_or(0),
        hop_count: hist.count,
        hop_total_us: hist.sum,
        hop_max_us: hist.max,
        hop_p50_us: hist.p50(),
        hop_p95_us: hist.p95(),
        hop_p99_us: hist.p99(),
        activations: snap.counter("sched.activations"),
        dispatched: snap.counter("sched.dispatched"),
        bus_depth: snap.gauge("sched.bus_depth"),
        complete_statuses,
        pool_rows: snap.counter("pool.rows"),
        scanned_rows: snap.counter("pool.scanned_rows"),
        scanned_regions: snap.counter("pool.scanned_regions"),
    }
}

fn main() {
    const PORTALS: usize = 8;
    let fleets = [100usize, 300, 1000];

    println!("fleet sweep: concurrent Fig. 9A instances over {PORTALS} hash-routed portals\n");

    let mut cells: Vec<CellResult> = Vec::new();
    for n in fleets {
        cells.push(run_cell(n, PORTALS));
    }

    // deterministic JSON, one cell header / one stage per line in the exact
    // shape `perf_gate` parses back (the "hop" stage carries the p95)
    let mut json = String::from("{\n\"claim\": \"C11\",\n\"portals\": 8,\n\"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "{{\"cell\": \"{}\", \"instances\": {}, \"completed\": {}, \"hops\": {}, \
             \"virtual_us\": {}, \"hops_per_vsec\": {}, \"instances_per_vsec\": {}, \
             \"portal_min_stored\": {}, \"portal_max_stored\": {}, \"activations\": {}, \
             \"dispatched\": {}, \"bus_depth\": {}, \"complete_statuses\": {}, \
             \"pool_rows\": {}, \"scanned_rows\": {}, \"scanned_regions\": {}, \"stages\": [\n",
            c.cell,
            c.instances,
            c.completed,
            c.hops,
            c.virtual_us,
            c.hops_per_vsec,
            c.instances_per_vsec,
            c.portal_min_stored,
            c.portal_max_stored,
            c.activations,
            c.dispatched,
            c.bus_depth,
            c.complete_statuses,
            c.pool_rows,
            c.scanned_rows,
            c.scanned_regions
        ));
        json.push_str(&format!(
            "{{\"stage\": \"hop\", \"count\": {}, \"total_us\": {}, \"self_us\": {}, \
             \"child_us\": 0, \"max_us\": {}, \"p50_us\": {}, \"p95_us\": {}, \
             \"p99_us\": {}}}\n",
            c.hop_count,
            c.hop_total_us,
            c.hop_total_us,
            c.hop_max_us,
            c.hop_p50_us,
            c.hop_p95_us,
            c.hop_p99_us
        ));
        json.push_str(&format!("]}}{}\n", if i + 1 == cells.len() { "" } else { "," }));
    }
    json.push_str("]\n}\n");
    write_artifact("BENCH_fleet.json", &json);
    println!("\nwrote BENCH_fleet.json ({} cells)", cells.len());

    // verdict: every instance of every fleet completes, the bus drains,
    // notifications balance, and the hash routing spreads the stores (the
    // old round-robin melted portal 0 with every initial document)
    let all_complete = cells.iter().all(|c| c.completed == c.instances);
    let thousand_strong = cells.iter().any(|c| c.instances >= 1000 && c.completed >= 1000);
    let bus_drained = cells.iter().all(|c| c.bus_depth == 0);
    let books_balance = cells.iter().all(|c| c.dispatched <= c.activations);
    let spread = cells
        .iter()
        .all(|c| c.portal_min_stored > 0 && c.portal_max_stored < 2 * c.portal_min_stored);
    let statuses_agree = cells.iter().all(|c| c.complete_statuses == c.completed);
    println!("\nevery fleet completed all instances: {all_complete}");
    println!("a 1000-instance fleet completed: {thousand_strong}");
    println!("bus drained to empty in every cell: {bus_drained}");
    println!("dispatches never exceed activations: {books_balance}");
    println!("stores spread across portals (max < 2·min): {spread}");
    println!("scan-backed status aggregation agrees with the runner: {statuses_agree}");

    let pass =
        all_complete && thousand_strong && bus_drained && books_balance && spread && statuses_agree;
    println!(
        "\nC11 verdict: {}",
        if pass { "FLEET-SCALE EXECUTION REPRODUCED" } else { "NOT REPRODUCED" }
    );
    if !pass {
        std::process::exit(1);
    }
}
