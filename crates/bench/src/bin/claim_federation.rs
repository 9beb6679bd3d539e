//! Claim C13: multi-cloud federation degrades gracefully — for every
//! topology × fault × seed cell (≥ 2 clouds, {healthy, cloud-outage,
//! tampered-portal}, pinned seeds), every Fig. 9A instance completes and
//! the final document pool is **byte-identical** to the healthy
//! single-cloud baseline: a bad cloud costs time, never safety.
//!
//! The machinery under test: per-cloud pools and write-ahead journals,
//! post-commit replication charged to virtual time, the
//! `FederationController`'s outage confirmation dance (retriable
//! `Crash` errors absorbed by the delivery retry layer), serve-side
//! tamper detection (digest probe, full re-verify fallback, typed
//! `portal_tampered` alert), quarantine with frozen admission counters,
//! and health-driven failover of the active cloud.
//!
//! The sweep is fully deterministic (virtual time only, seeded outage /
//! tamper schedules) and writes `BENCH_federation.json` — running the
//! bin twice must produce byte-identical JSON, which CI checks, then
//! gates against `perf/BENCH_federation.baseline.json`. Pass
//! `--alerts-out PATH` for the sweep's alert JSONL (also byte-
//! deterministic).
//!
//! Run with: `cargo run --release -p dra-bench --bin claim_federation [seeds…]`

use dra4wfms_core::prelude::*;
use dra_bench::fig9;
use dra_bench::write_artifact;
use dra_cloud::{
    alerts_to_jsonl, check_metric_invariants, Alert, CloudSystem, Delivery, DeliveryPolicy,
    FaultProfile, FederationStats, HealthMonitor, InstanceRun, MonitorConfig, NetworkSim,
    OutagePlan, Scheduler, TamperPlan, Topology,
};
use dra_obs::MetricsRegistry;
use std::collections::HashMap;
use std::sync::Arc;

/// Instances admitted before the serve audit (the audit gives an armed
/// tamper plan its chance to fire) plus one wave after any quarantine —
/// frozen portals must stay frozen while the fleet keeps moving.
const WAVE1: usize = 3;
const WAVE2: usize = 1;
const TOTAL: usize = WAVE1 + WAVE2;
/// Seeded outages fire at `1 + seed % MAX_OUTAGE_US` virtual µs: a full
/// sweep runs ~21k virtual µs, so every draw lands inside the run —
/// early draws kill the active cloud before its first admission, late
/// draws mid-fleet.
const MAX_OUTAGE_US: u64 = 15_000;
/// Seeded tampers fire on the portal's 1st..=3rd serve — always within
/// the audit sweep below.
const MAX_TAMPER_NTH: u64 = 3;

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

fn initials(creds: &[Credentials], ids: std::ops::Range<usize>) -> Vec<DraDocument> {
    let def = fig9::definition(false);
    let policy = SecurityPolicy::public();
    ids.map(|i| {
        // seed-independent pids: the stored bytes must depend only on the
        // workflow, never on the fault schedule or the topology
        DraDocument::new_initial_with_pid(&def, &policy, &creds[0], &format!("fed-{i:02}"))
            .expect("initial document")
    })
    .collect()
}

/// Admit `docs` into one scheduler and drain the bus, counting the
/// instances that completed the full 9-step Fig. 9A run.
fn drive(
    sys: &CloudSystem,
    agents: &HashMap<String, Arc<Aea>>,
    docs: &[DraDocument],
    delivery: &Delivery,
    monitor: &Arc<HealthMonitor>,
    metrics: &MetricsRegistry,
) -> usize {
    let mut sched = Scheduler::new(sys);
    for doc in docs {
        sched
            .admit_instance(
                InstanceRun::new(sys, doc)
                    .agents(agents)
                    .respond(&respond)
                    .max_steps(100)
                    .network(delivery)
                    .monitor(monitor)
                    .metrics(metrics),
            )
            .expect("admission succeeds");
    }
    sched.run_to_completion().iter().filter(|(_, r)| r.as_ref().map(|o| o.steps) == Ok(9)).count()
}

struct Cell {
    topology: &'static str,
    scenario: &'static str,
    seed: u64,
    completed: usize,
    stats: FederationStats,
    crashes_absorbed: u64,
    retries: u64,
    virtual_time_us: u64,
    pool_sha256: String,
    identical: bool,
    frozen_ok: bool,
    consistent: bool,
    alerts: Vec<Alert>,
    invariants: Result<(), String>,
}

/// Run `TOTAL` Fig. 9A instances over the federated `topology` under one
/// fault `scenario`, audit every serve path, and fingerprint the pool.
fn run_cell(
    topology_name: &'static str,
    topology: Topology,
    scenario: &'static str,
    seed: u64,
    target: &str,
) -> Cell {
    let (creds, dir) = fig9::cast();
    let network = Arc::new(NetworkSim::lan());
    let total_portals = topology.total_portals();
    let sys = CloudSystem::federated(dir.clone(), topology, Arc::clone(&network))
        .expect("valid topology");
    let ctrl = Arc::clone(sys.federation_controller().expect("federated"));
    let monitor = HealthMonitor::new(MonitorConfig::default());
    ctrl.set_monitor(&monitor);
    match scenario {
        "healthy" => {}
        // the outage always hits cloud 0 — the initially active cloud, so
        // a confirmed outage forces a real failover of the primary
        "outage" => ctrl.set_outage(OutagePlan::seeded(0, seed, MAX_OUTAGE_US)),
        "tampered" => {
            ctrl.set_tamper(TamperPlan::seeded(seed as usize % total_portals, seed, MAX_TAMPER_NTH))
        }
        other => panic!("unknown scenario {other}"),
    }
    // lossless channel: the outage dance surfaces as retriable Crash
    // errors, which the delivery retry layer absorbs without losing hops
    let delivery = Delivery::new(
        Arc::clone(&network),
        FaultProfile::lossless(),
        DeliveryPolicy::default(),
        seed,
    )
    .expect("lossless profile");
    let metrics = MetricsRegistry::new();
    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone()))))
        .collect();

    let mut completed =
        drive(&sys, &agents, &initials(&creds, 0..WAVE1), &delivery, &monitor, &metrics);

    // audit pass: serve every instance through every portal, so an armed
    // tamper plan fires mid-sweep and the honest bytes get re-served
    let mut audits_ok = true;
    for i in 0..WAVE1 {
        let pid = format!("fed-{i:02}");
        let latest = sys.retrieve_version(&pid, 9);
        for portal in 0..total_portals {
            if let Some(served) = sys.retrieve_latest(portal, &pid) {
                audits_ok &= Some(served) == latest;
            }
        }
    }

    // second wave after any quarantine: the fleet keeps completing and
    // quarantined portals take none of it
    completed +=
        drive(&sys, &agents, &initials(&creds, WAVE1..TOTAL), &delivery, &monitor, &metrics);

    sys.export_metrics(&metrics);
    let dstats = delivery.stats();
    let pool_sha256 = sys.pool_digest();
    Cell {
        topology: topology_name,
        scenario,
        seed,
        completed,
        stats: ctrl.stats(),
        crashes_absorbed: dstats.crashes_injected,
        retries: dstats.retries,
        virtual_time_us: network.virtual_time_us(),
        identical: pool_sha256 == target && audits_ok,
        pool_sha256,
        frozen_ok: ctrl.zero_admissions_after_quarantine(),
        consistent: sys.replicas_consistent(),
        alerts: monitor.alerts(),
        invariants: check_metric_invariants(&metrics.snapshot()),
    }
}

/// The healthy single-cloud pool digest over the same `TOTAL` instances:
/// the byte-identity target every federated cell is held against.
fn single_cloud_target() -> String {
    let (creds, dir) = fig9::cast();
    let sys = CloudSystem::new(dir.clone(), 4, Arc::new(NetworkSim::lan()));
    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone()))))
        .collect();
    let mut sched = Scheduler::new(&sys);
    let docs = initials(&creds, 0..TOTAL);
    for doc in &docs {
        sched
            .admit_instance(
                InstanceRun::new(&sys, doc).agents(&agents).respond(&respond).max_steps(100),
            )
            .expect("baseline admission");
    }
    for (pid, result) in sched.run_to_completion() {
        assert_eq!(result.expect("baseline completes").steps, 9, "{pid}");
    }
    sys.pool_digest()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
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

    let target = single_cloud_target();
    println!(
        "federation-matrix: {TOTAL} Fig. 9 instances per cell, seeds {seeds:?}\n\
         single-cloud target {}…\n",
        &target[..16]
    );
    println!(
        "{:>6} {:>9} {:>5} {:>5} {:>6} {:>6} {:>5} {:>5} {:>8} {:>7} {:>4} {:>9}",
        "topo",
        "scenario",
        "seed",
        "done",
        "acked",
        "quar",
        "fail",
        "out",
        "tampered",
        "frozen",
        "inv",
        "pool"
    );

    let topologies = [
        ("fed2", Topology::new().cloud("east", 2).cloud("west", 2)),
        ("fed3", Topology::new().cloud("east", 2).cloud("west", 2).cloud("south", 2)),
    ];
    let mut cells = Vec::new();
    let mut all_ok = true;
    for (name, topo) in &topologies {
        for scenario in ["healthy", "outage", "tampered"] {
            for &seed in &seeds {
                let cell = run_cell(name, topo.clone(), scenario, seed, &target);
                let ok = cell.completed == TOTAL
                    && cell.identical
                    && cell.frozen_ok
                    && cell.consistent
                    && cell.invariants.is_ok();
                all_ok &= ok;
                println!(
                    "{:>6} {:>9} {:>5} {:>2}/{:<2} {:>6} {:>6} {:>5} {:>5} {:>8} {:>7} {:>4} {:>9}",
                    cell.topology,
                    cell.scenario,
                    cell.seed,
                    cell.completed,
                    TOTAL,
                    cell.stats.replicas_acked,
                    cell.stats.quarantines,
                    cell.stats.failovers,
                    cell.stats.outages,
                    cell.stats.tampered_serves,
                    if cell.frozen_ok { "ok" } else { "LEAKED" },
                    if cell.invariants.is_ok() { "ok" } else { "BAD" },
                    if cell.identical { "identical" } else { "DIVERGED" }
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
            "  {{\"cell\": \"{}/{}/{}\", \"instances\": {}, \"completed\": {}, \
             \"replicas_acked\": {}, \"quarantines\": {}, \"failovers\": {}, \
             \"outages\": {}, \"reroutes\": {}, \"tampered_serves\": {}, \
             \"active_cloud\": {}, \"crashes_absorbed\": {}, \"retries\": {}, \
             \"alerts\": {}, \"virtual_time_us\": {}, \"pool_sha256\": \"{}\", \
             \"identical\": \"{}\", \"invariants\": \"{}\"}}{}\n",
            c.topology,
            c.scenario,
            c.seed,
            TOTAL,
            c.completed,
            c.stats.replicas_acked,
            c.stats.quarantines,
            c.stats.failovers,
            c.stats.outages,
            c.stats.reroutes,
            c.stats.tampered_serves,
            c.stats.active_cloud,
            c.crashes_absorbed,
            c.retries,
            c.alerts.len(),
            c.virtual_time_us,
            c.pool_sha256,
            if c.identical { "yes" } else { "NO" },
            if c.invariants.is_ok() { "ok" } else { "violated" },
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    write_artifact("BENCH_federation.json", &json);
    println!("\nwrote BENCH_federation.json ({} cells)", cells.len());

    if let Some(path) = &alerts_out {
        let all: Vec<Alert> = cells.iter().flat_map(|c| c.alerts.clone()).collect();
        write_artifact(path, alerts_to_jsonl(&all));
        println!("wrote {path} ({} alerts)", all.len());
    }

    println!(
        "\nC13 verdict: {}",
        if all_ok { "GRACEFUL DEGRADATION REPRODUCED" } else { "NOT REPRODUCED" }
    );
    if !all_ok {
        std::process::exit(1);
    }
}
