//! Claim C15: pool-side monitoring is **cheap, live and honest** — the
//! typed scan API answers fleet queries touching strictly fewer rows than
//! a full table read, the incrementally maintained fleet views are
//! byte-identical to a fresh MapReduce recompute in every cell, and the
//! continuous nonrepudiation auditor catches 100% of seeded stored-row
//! forgeries with zero false positives on honest cells — on federated
//! deployments pumping the divergence alert straight into quarantine.
//!
//! Three cell families:
//!
//! * `fleet-NNNN` (honest) — N Fig. 9A instances through the scheduler,
//!   then: the status aggregation's scan-counter delta vs the pool's row
//!   count, the `views ≡ scan` differential (map equality *and* byte
//!   equality of the rendered pool view), and a full auditor sweep that
//!   must stay silent;
//! * `tamper-S` (seeded) — a small fleet, then 3 stored **non-latest**
//!   rows forged in place via `pool.put` (rows nobody ever serves); a full
//!   auditor sweep must flag exactly the forged keys;
//! * `federated-quarantine` — a 2-cloud fleet with one forged row on the
//!   active cloud: the auditor's typed alert, pumped through the
//!   `FederationController`, quarantines every portal of the indicted
//!   cloud and fails the deployment over.
//!
//! All numbers are virtual-time; the bin writes `BENCH_dashboard.json`
//! (flat cell array in the shape `perf_gate` parses), the 300-instance
//! cell's `fleet_dashboard.json`, and `--alerts-out PATH` for the alert
//! JSONL — CI runs the bin twice and `cmp`s all three.
//!
//! Run with: `cargo run --release -p dra-bench --bin claim_dashboard [seeds…]`

use dra4wfms_core::prelude::*;
use dra_bench::fig9;
use dra_bench::write_artifact;
use dra_cloud::{
    alerts_to_jsonl, check_metric_invariants, tracer_for, Alert, AuditConfig, CloudSystem,
    Delivery, DeliveryPolicy, FaultProfile, HealthMonitor, InstanceRun, MonitorConfig, NetworkSim,
    PoolAuditor, Scheduler, Topology,
};
use dra_docpool::Scan;
use dra_obs::MetricsRegistry;
use std::collections::HashMap;
use std::sync::Arc;

const AUDIT_BATCH: usize = 32;
const AUDIT_PERIOD_US: u64 = 10_000;
const FORGED_PER_TAMPER_CELL: usize = 3;

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

/// Admit `n` Fig. 9A instances into one scheduler and drain the bus.
#[allow(clippy::too_many_arguments)]
fn drive_fleet(
    sys: &CloudSystem,
    creds: &[Credentials],
    dir: &Directory,
    n: usize,
    pid_prefix: &str,
    delivery: Option<&Delivery>,
    monitor: &Arc<HealthMonitor>,
    metrics: &MetricsRegistry,
    network: &Arc<NetworkSim>,
) -> usize {
    let def = fig9::definition(false);
    let policy = SecurityPolicy::public();
    let tracer = tracer_for(network);
    let agents: HashMap<String, Arc<Aea>> = creds
        .iter()
        .map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone()))))
        .collect();
    let initials: Vec<DraDocument> = (0..n)
        .map(|i| {
            DraDocument::new_initial_with_pid(
                &def,
                &policy,
                &creds[0],
                &format!("{pid_prefix}{i:04}"),
            )
            .expect("initial document")
        })
        .collect();
    let mut sched = Scheduler::new(sys);
    for doc in &initials {
        let mut run = InstanceRun::new(sys, doc)
            .agents(&agents)
            .respond(&respond)
            .max_steps(100)
            .tracer(tracer.clone())
            .monitor(monitor)
            .metrics(metrics);
        if let Some(d) = delivery {
            run = run.network(d);
        }
        sched.admit_instance(run).expect("admission succeeds");
    }
    sched.run_to_completion().iter().filter(|(_, r)| r.as_ref().map(|o| o.steps) == Ok(9)).count()
}

/// Drive the auditor through one complete sweep of every member cloud in
/// virtual time: enough periodic passes to wrap the largest `doc/` range.
fn full_audit_sweep(
    auditor: &PoolAuditor,
    sys: &CloudSystem,
    monitor: &HealthMonitor,
    network: &Arc<NetworkSim>,
) {
    let doc_rows = sys
        .audit_pools()
        .iter()
        .map(|(_, _, pool)| pool.query_count(&Scan::prefix("doc/")))
        .max()
        .unwrap_or(0);
    let passes = doc_rows.div_ceil(AUDIT_BATCH) + 1;
    for _ in 0..passes {
        let now = network.virtual_time_us();
        assert!(auditor.due(now), "periodic schedule kept");
        auditor.run_pass(sys, Some(monitor), now);
        network.advance(AUDIT_PERIOD_US);
    }
}

/// In-place forgery of one stored row: ASCII case-flip of the first
/// alphabetic byte past the midpoint (same byte-budget as the federation
/// sweep's serve tamper, but applied to the *pool*, not the serve path).
fn forge(xml: &str) -> String {
    let bytes = xml.as_bytes();
    let mid = bytes.len() / 2;
    let mut out = bytes.to_vec();
    for i in (mid..bytes.len()).chain(0..mid) {
        if out[i].is_ascii_alphabetic() {
            out[i] ^= 0x20;
            break;
        }
    }
    String::from_utf8(out).expect("case flip preserves utf8")
}

/// The stored `doc/` keys that are *not* the latest version of their
/// process — rows the serve path never touches, in key order.
fn non_latest_doc_keys(pool: &dra_docpool::HTable) -> Vec<String> {
    let rows = pool.query(&Scan::prefix("doc/").family("doc"));
    let keys: Vec<String> = rows.rows.into_iter().map(|(k, _)| k).collect();
    keys.iter()
        .filter(|k| {
            let pid_prefix = match k.rfind('/') {
                Some(i) => &k[..=i],
                None => return false,
            };
            // not the last key of its pid group
            keys.iter().filter(|o| o.starts_with(pid_prefix)).max() != Some(k)
        })
        .cloned()
        .collect()
}

struct Cell {
    cell: String,
    instances: usize,
    completed: usize,
    pool_rows: u64,
    agg_scanned_rows: u64,
    agg_scanned_regions: u64,
    audit_passes: u64,
    audit_sampled: u64,
    tampered_rows: u64,
    detected: u64,
    false_positives: u64,
    audit_alerts: u64,
    quarantines: u64,
    failovers: u64,
    views_identical: bool,
    invariants: Result<(), String>,
    alerts: Vec<Alert>,
    dashboard: String,
}

/// Honest fleet cell: scan-backed aggregation efficiency, `views ≡ scan`
/// byte identity, and a silent full auditor sweep.
fn run_fleet_cell(n: usize) -> Cell {
    let (creds, dir) = fig9::cast();
    let network = Arc::new(NetworkSim::lan());
    let sys = CloudSystem::new(dir.clone(), 4, Arc::clone(&network));
    let monitor = HealthMonitor::new(MonitorConfig::default());
    let metrics = MetricsRegistry::new();
    let completed = drive_fleet(&sys, &creds, &dir, n, "dash-", None, &monitor, &metrics, &network);

    // the monitoring aggregation's scan cost, isolated as a counter delta
    let (rows_before, regions_before) = sys.pool.scan_counters();
    let statuses = sys.statistics_by_status(4);
    let (rows_after, regions_after) = sys.pool.scan_counters();
    let complete_statuses = statuses.get("complete").copied().unwrap_or(0);

    // incremental views vs a fresh full recompute: map and byte identity
    let views_identical = sys.views_match_scan(4).is_ok()
        && sys.fleet_views().pool_view_json() == sys.recompute_pool_view_json(4)
        && complete_statuses == completed;

    let auditor = PoolAuditor::new(AuditConfig {
        batch: AUDIT_BATCH,
        period_us: AUDIT_PERIOD_US,
        threads: 4,
    });
    full_audit_sweep(&auditor, &sys, &monitor, &network);

    sys.export_metrics(&metrics);
    auditor.export_metrics(&metrics);
    monitor.export_metrics(&metrics);
    let snap = metrics.snapshot();
    Cell {
        cell: format!("fleet-{n:04}"),
        instances: n,
        completed,
        pool_rows: sys.pool.row_count() as u64,
        agg_scanned_rows: (rows_after - rows_before) as u64,
        agg_scanned_regions: (regions_after - regions_before) as u64,
        audit_passes: snap.counter("audit.passes"),
        audit_sampled: snap.counter("audit.sampled"),
        tampered_rows: 0,
        detected: snap.counter("audit.divergences"),
        false_positives: snap.counter("audit.divergences"),
        audit_alerts: snap.counter("alerts.audit_divergence"),
        quarantines: 0,
        failovers: 0,
        views_identical,
        invariants: check_metric_invariants(&snap),
        alerts: monitor.alerts(),
        dashboard: sys.fleet_dashboard_json(),
    }
}

/// Seeded tamper cell: forge stored non-latest rows, then prove the sweep
/// flags exactly those keys.
fn run_tamper_cell(seed: u64) -> Cell {
    let (creds, dir) = fig9::cast();
    let network = Arc::new(NetworkSim::lan());
    let sys = CloudSystem::new(dir.clone(), 2, Arc::clone(&network));
    let monitor = HealthMonitor::new(MonitorConfig::default());
    let metrics = MetricsRegistry::new();
    let n = 6;
    let completed = drive_fleet(
        &sys,
        &creds,
        &dir,
        n,
        &format!("tam{seed}-"),
        None,
        &monitor,
        &metrics,
        &network,
    );

    // forge FORGED_PER_TAMPER_CELL distinct non-latest rows, seed-picked
    let candidates = non_latest_doc_keys(&sys.pool);
    let mut forged: Vec<String> = Vec::new();
    let mut idx = seed as usize;
    while forged.len() < FORGED_PER_TAMPER_CELL && forged.len() < candidates.len() {
        idx = (idx.wrapping_mul(31).wrapping_add(17)) % candidates.len();
        let key = &candidates[idx];
        if !forged.contains(key) {
            let xml = sys.pool.get_str(key, "doc", "xml").expect("doc cell");
            sys.pool.put(key, "doc", "xml", forge(&xml));
            forged.push(key.clone());
        }
    }
    forged.sort();

    let auditor = PoolAuditor::new(AuditConfig {
        batch: AUDIT_BATCH,
        period_us: AUDIT_PERIOD_US,
        threads: 2,
    });
    full_audit_sweep(&auditor, &sys, &monitor, &network);

    let mut caught: Vec<String> =
        auditor.divergent_rows().into_iter().map(|(_, key)| key).collect();
    caught.sort();
    let detected = caught.iter().filter(|k| forged.contains(k)).count() as u64;
    let false_positives = caught.iter().filter(|k| !forged.contains(k)).count() as u64;

    sys.export_metrics(&metrics);
    auditor.export_metrics(&metrics);
    monitor.export_metrics(&metrics);
    metrics.set_counter("audit.tampered_rows", forged.len() as u64);
    let snap = metrics.snapshot();
    Cell {
        cell: format!("tamper-{seed}"),
        instances: n,
        completed,
        pool_rows: sys.pool.row_count() as u64,
        agg_scanned_rows: 0,
        agg_scanned_regions: 0,
        audit_passes: snap.counter("audit.passes"),
        audit_sampled: snap.counter("audit.sampled"),
        tampered_rows: forged.len() as u64,
        detected,
        false_positives,
        audit_alerts: snap.counter("alerts.audit_divergence"),
        quarantines: 0,
        failovers: 0,
        views_identical: sys.views_match_scan(2).is_ok(),
        invariants: check_metric_invariants(&snap),
        alerts: monitor.alerts(),
        dashboard: String::new(),
    }
}

/// Federated cell: one forged row on the active cloud; the pumped alert
/// must quarantine that whole cloud and fail the deployment over.
fn run_federated_cell() -> Cell {
    let (creds, dir) = fig9::cast();
    let network = Arc::new(NetworkSim::lan());
    let topology = Topology::new().cloud("east", 2).cloud("west", 2);
    let sys = CloudSystem::federated(dir.clone(), topology, Arc::clone(&network))
        .expect("valid topology");
    let ctrl = Arc::clone(sys.federation_controller().expect("federated"));
    let monitor = HealthMonitor::new(MonitorConfig::default());
    ctrl.set_monitor(&monitor);
    let delivery =
        Delivery::new(Arc::clone(&network), FaultProfile::lossless(), DeliveryPolicy::default(), 1)
            .expect("lossless profile");
    let metrics = MetricsRegistry::new();
    let n = 4;
    let completed =
        drive_fleet(&sys, &creds, &dir, n, "fedq-", Some(&delivery), &monitor, &metrics, &network);

    // forge one non-latest row on the active cloud's pool
    let pools = sys.audit_pools();
    let active = ctrl.stats().active_cloud;
    let (_, _, active_pool) = &pools[active];
    let key = non_latest_doc_keys(active_pool).first().cloned().expect("non-latest row");
    let xml = active_pool.get_str(&key, "doc", "xml").expect("doc cell");
    active_pool.put(&key, "doc", "xml", forge(&xml));

    let auditor = PoolAuditor::new(AuditConfig {
        batch: AUDIT_BATCH,
        period_us: AUDIT_PERIOD_US,
        threads: 2,
    });
    full_audit_sweep(&auditor, &sys, &monitor, &network);
    // the scheduler normally polls between dispatches; the background
    // auditor's alert is consumed on the next poll
    sys.federation_poll();

    sys.export_metrics(&metrics);
    auditor.export_metrics(&metrics);
    monitor.export_metrics(&metrics);
    metrics.set_counter("audit.tampered_rows", 1);
    let snap = metrics.snapshot();
    let stats = ctrl.stats();
    Cell {
        cell: "federated-quarantine".to_string(),
        instances: n,
        completed,
        pool_rows: snap.counter("pool.rows"),
        agg_scanned_rows: 0,
        agg_scanned_regions: 0,
        audit_passes: snap.counter("audit.passes"),
        audit_sampled: snap.counter("audit.sampled"),
        tampered_rows: 1,
        detected: snap.counter("audit.divergences"),
        false_positives: snap.counter("audit.divergences").saturating_sub(1),
        audit_alerts: snap.counter("alerts.audit_divergence"),
        quarantines: stats.quarantines,
        failovers: stats.failovers,
        views_identical: sys.views_match_scan(2).is_ok(),
        invariants: check_metric_invariants(&snap),
        alerts: monitor.alerts(),
        dashboard: String::new(),
    }
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

    println!("dashboard-matrix: scan API + incremental views + continuous auditor\n");
    println!(
        "{:>22} {:>5} {:>9} {:>9} {:>8} {:>7} {:>6} {:>5} {:>5} {:>4}",
        "cell", "done", "pool_rows", "agg_rows", "sampled", "forged", "caught", "fp", "quar", "inv"
    );

    let mut cells: Vec<Cell> = Vec::new();
    for n in [100usize, 300] {
        cells.push(run_fleet_cell(n));
    }
    for &seed in &seeds {
        cells.push(run_tamper_cell(seed));
    }
    cells.push(run_federated_cell());

    let mut dashboard_out: Option<String> = None;
    for c in &cells {
        println!(
            "{:>22} {:>2}/{:<2} {:>9} {:>9} {:>8} {:>7} {:>6} {:>5} {:>5} {:>4}",
            c.cell,
            c.completed,
            c.instances,
            c.pool_rows,
            c.agg_scanned_rows,
            c.audit_sampled,
            c.tampered_rows,
            c.detected,
            c.false_positives,
            c.quarantines,
            if c.invariants.is_ok() { "ok" } else { "BAD" }
        );
        if let Err(e) = &c.invariants {
            eprintln!("  invariant violated: {e}");
        }
        if c.cell == "fleet-0300" {
            dashboard_out = Some(c.dashboard.clone());
        }
    }

    // deterministic flat cell array in the exact shape perf_gate parses
    let mut json = String::from("[\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"cell\": \"{}\", \"instances\": {}, \"completed\": {}, \"pool_rows\": {}, \
             \"agg_scanned_rows\": {}, \"agg_scanned_regions\": {}, \"audit_passes\": {}, \
             \"audit_sampled\": {}, \"tampered_rows\": {}, \"detected\": {}, \
             \"false_positives\": {}, \"audit_alerts\": {}, \"quarantines\": {}, \
             \"failovers\": {}, \"views_identical\": \"{}\", \"invariants\": \"{}\"}}{}\n",
            c.cell,
            c.instances,
            c.completed,
            c.pool_rows,
            c.agg_scanned_rows,
            c.agg_scanned_regions,
            c.audit_passes,
            c.audit_sampled,
            c.tampered_rows,
            c.detected,
            c.false_positives,
            c.audit_alerts,
            c.quarantines,
            c.failovers,
            if c.views_identical { "yes" } else { "NO" },
            if c.invariants.is_ok() { "ok" } else { "violated" },
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    json.push_str("]\n");
    write_artifact("BENCH_dashboard.json", &json);
    println!("\nwrote BENCH_dashboard.json ({} cells)", cells.len());

    if let Some(dashboard) = &dashboard_out {
        write_artifact("fleet_dashboard.json", dashboard);
        println!("wrote fleet_dashboard.json");
    }
    if let Some(path) = &alerts_out {
        let all: Vec<Alert> = cells.iter().flat_map(|c| c.alerts.clone()).collect();
        write_artifact(path, alerts_to_jsonl(&all));
        println!("wrote {path} ({} alerts)", all.len());
    }

    // verdicts
    let all_complete = cells.iter().all(|c| c.completed == c.instances);
    let scans_cheaper = cells
        .iter()
        .filter(|c| c.cell.starts_with("fleet-"))
        .all(|c| c.agg_scanned_rows > 0 && c.agg_scanned_rows < c.pool_rows);
    let views_ok = cells.iter().all(|c| c.views_identical);
    let honest_silent = cells
        .iter()
        .filter(|c| c.tampered_rows == 0)
        .all(|c| c.detected == 0 && c.audit_alerts == 0);
    let forgeries_caught = cells
        .iter()
        .filter(|c| c.tampered_rows > 0)
        .all(|c| c.detected == c.tampered_rows && c.false_positives == 0);
    let quarantine_pumped = cells
        .iter()
        .filter(|c| c.cell == "federated-quarantine")
        .all(|c| c.quarantines >= 2 && c.failovers >= 1);
    let invariants_ok = cells.iter().all(|c| c.invariants.is_ok());

    println!("\nevery cell completed its fleet: {all_complete}");
    println!("monitoring scans touch strictly fewer rows than the pool holds: {scans_cheaper}");
    println!("incremental views byte-identical to full recompute everywhere: {views_ok}");
    println!("auditor silent on every honest cell: {honest_silent}");
    println!("every seeded forgery caught, zero false positives: {forgeries_caught}");
    println!("audit alert pumped into whole-cloud quarantine + failover: {quarantine_pumped}");
    println!("metric invariants hold in every cell: {invariants_ok}");

    let pass = all_complete
        && scans_cheaper
        && views_ok
        && honest_silent
        && forgeries_caught
        && quarantine_pumped
        && invariants_ok;
    println!(
        "\nC15 verdict: {}",
        if pass { "POOL-SIDE MONITORING REPRODUCED" } else { "NOT REPRODUCED" }
    );
    if !pass {
        std::process::exit(1);
    }
}
