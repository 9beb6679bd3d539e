//! The `pool_read` workload: an operator's query mix and periodic
//! continuous-audit passes over a deployment populated during set-up with
//! an encrypted Fig. 9A fleet (plus a few admitted, not yet started
//! instances, so TO-DO lists are not all empty).

use crate::calib::{Calibration, Kernel};
use crate::hops::{
    drain, fig9_setup, probe_stored_rows, probe_verify, probe_xml, Deployment, Setup,
};
use crate::layers::LayerInputs;
use crate::spans::{Recorder, SpanId};
use crate::{median, repeated_setup, threads, Checks, Report, Rng, Timed, AUDIT_BATCH};
use dra4wfms_core::prelude::*;
use dra_cloud::{check_metric_invariants, AuditConfig, CloudSystem, PoolAuditor};
use dra_obs::MetricsRegistry;
use std::collections::HashMap;
use std::time::Instant;

/// Completed Fig. 9A instances in the pool.
const POOL_INSTANCES: usize = 48;
/// Instances admitted but not started: their first TO-DO entry is pending.
const POOL_PENDING: usize = 8;
/// One block of requests; the seed shuffles each block and picks every
/// page view's instance and participant. A page view is what an operator
/// screen loads: the four queries of `PAGE`. Each dashboard load comes with
/// one `statistics_by_status` call, the ratio of the workspace's monitoring
/// claim (`claim_dashboard` runs the MapReduce statistics once per
/// `fleet_dashboard_json`). One audit pass per block is assumed, with no
/// source; the run prints each request kind's share of the block wall
/// time, so a claim on this workload can be read against those shares.
const PAGES_PER_BLOCK: usize = 32;
const STATISTICS_PER_BLOCK: usize = PAGES_PER_BLOCK;
const PAGE: [Query; 4] =
    [Query::ProcessStatus, Query::RetrieveLatest, Query::SearchTodo, Query::Dashboard];

#[derive(Clone)]
enum Request {
    Page { pid: String, participant: String },
    Statistics,
    Audit,
}

/// The traced run probes stored rows every `PROBE_EVERY`-th block.
const PROBE_EVERY: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    ProcessStatus,
    RetrieveLatest,
    SearchTodo,
    Dashboard,
    Statistics,
}

impl Query {
    fn span(self) -> &'static str {
        match self {
            Query::ProcessStatus => "cloud.process_status",
            Query::RetrieveLatest => "cloud.retrieve_latest",
            Query::SearchTodo => "cloud.search_todo",
            Query::Dashboard => "cloud.fleet_dashboard_json",
            Query::Statistics => "cloud.statistics_by_status",
        }
    }
}

/// What a correct deployment answers.
pub struct Expect {
    pub steps: usize,
    pub complete: usize,
    pub running: usize,
    /// Pending TO-DO entries per participant (absent: none).
    pub todo: HashMap<String, usize>,
}

pub struct Answer {
    pub ok: bool,
    pub returned: u64,
    pub scanned: u64,
    pub wire: Option<String>,
}

/// Issue one operator query and check its answer.
pub fn ask(q: Query, sys: &CloudSystem, pid: &str, participant: &str, expect: &Expect) -> Answer {
    let scanned0 = sys.pool.scan_counters().0;
    let mut wire = None;
    let (ok, returned) = match q {
        Query::ProcessStatus => match sys.process_status(pid) {
            Ok(Some(status)) => (status.steps() == expect.steps, 1),
            _ => (false, 0),
        },
        Query::RetrieveLatest => {
            wire = sys.retrieve_latest(sys.portal_for(pid, 0), pid);
            (wire.as_deref().is_some_and(|x| x.starts_with("<DRA4WfMS")), u64::from(wire.is_some()))
        }
        Query::SearchTodo => {
            let todo = sys.search_todo(participant);
            (todo.len() == expect.todo.get(participant).copied().unwrap_or(0), todo.len() as u64)
        }
        Query::Dashboard => {
            let json = sys.fleet_dashboard_json();
            (json.contains(&format!("\"complete\":{}", expect.complete)), 0)
        }
        Query::Statistics => {
            let counts = sys.statistics_by_status(threads());
            let total: usize = counts.values().sum();
            let ok = counts.get("complete").copied().unwrap_or(0) == expect.complete
                && counts.get("running").copied().unwrap_or(0) == expect.running
                && total == expect.complete + expect.running;
            (ok, total as u64)
        }
    };
    let scanned = (sys.pool.scan_counters().0 - scanned0) as u64;
    Answer { ok, returned, scanned, wire }
}

/// [`ask`] inside a span named after the public call.
pub fn issue(
    q: Query,
    sys: &CloudSystem,
    pid: &str,
    participant: &str,
    expect: &Expect,
    rec: &mut Recorder,
    parent: SpanId,
) -> Answer {
    rec.time(q.span(), parent, || ask(q, sys, pid, participant, expect))
}

struct Populated {
    setup: Setup,
    dep: Deployment,
    metrics: MetricsRegistry,
    pids: Vec<String>,
    failures: Vec<String>,
}

/// Set-up: cast and keys, initial documents, and a pool populated by an
/// encrypted Fig. 9A fleet drained through the scheduler.
fn populate(seed: u64) -> Populated {
    let mut setup = fig9_setup(seed, "pr", POOL_INSTANCES + POOL_PENDING, false);
    let pending = setup.initials.split_off(POOL_INSTANCES);
    let dep = setup.deployment(false);
    let metrics = MetricsRegistry::new();
    let d = drain(&setup, &dep, &metrics, seed, &Default::default(), false);
    let mut failures = Vec::new();
    let mut pids = Vec::new();
    for (pid, r) in &d.results {
        match r {
            Ok(o) if o.steps == setup.steps_per_instance => pids.push(pid.clone()),
            Ok(o) => failures.push(format!("{pid}: {} steps", o.steps)),
            Err(e) => failures.push(format!("{pid}: {e}")),
        }
    }
    let sys = &dep.sys;
    for doc in &pending {
        let stored = doc.process_id().and_then(|pid| {
            let route = Route { targets: vec!["A".into()], ends: false };
            sys.store_sealed(
                sys.route_portal(sys.portal_for(&pid, 0)),
                &SealedDocument::new(doc.clone()),
                &route,
            )?;
            // nobody drains these wake-ups: the instances stay pending
            sys.activation_bus().drain_process(&pid);
            Ok(())
        });
        if let Err(e) = stored {
            failures.push(format!("pending admission: {e}"));
        }
    }
    Populated { setup, dep, metrics, pids, failures }
}

/// One block of requests, in seeded order with seeded targets.
fn block(rng: &mut Rng, pids: &[String], participants: &[String]) -> Vec<Request> {
    let mut reqs: Vec<Request> = (0..PAGES_PER_BLOCK)
        .map(|_| Request::Page {
            pid: pids[rng.below(pids.len())].clone(),
            participant: participants[rng.below(participants.len())].clone(),
        })
        .chain(std::iter::repeat_n(Request::Statistics, STATISTICS_PER_BLOCK))
        .chain([Request::Audit])
        .collect();
    rng.shuffle(&mut reqs);
    reqs
}

#[derive(Default)]
struct Tally {
    page_ms: Vec<f64>,
    stats_ms: Vec<f64>,
    audit_s: f64,
    audit_rows: u64,
    requests: u64,
}

/// Ask (or, with `rec`, issue under a span) one query and check it.
#[allow(clippy::too_many_arguments)]
fn query(
    q: Query,
    sys: &CloudSystem,
    pid: &str,
    participant: &str,
    expect: &Expect,
    checks: &mut Checks,
    layers: &mut LayerInputs,
    rec: &mut Option<(&mut Recorder, SpanId)>,
) {
    let a = match rec.as_mut() {
        Some((r, parent)) => issue(q, sys, pid, participant, expect, r, *parent),
        None => ask(q, sys, pid, participant, expect),
    };
    checks.check(a.ok, || format!("{q:?} {pid} {participant}: wrong answer"));
    if rec.is_some() {
        layers.note_query(&a);
    }
}

/// Serve one block untraced (`rec` is `None`) or with a span per call.
#[allow(clippy::too_many_arguments)]
fn serve(
    reqs: &[Request],
    sys: &CloudSystem,
    expect: &Expect,
    auditor: &PoolAuditor,
    checks: &mut Checks,
    tally: &mut Tally,
    layers: &mut LayerInputs,
    mut rec: Option<(&mut Recorder, SpanId)>,
) {
    for req in reqs {
        let t = Instant::now();
        match req {
            Request::Page { pid, participant } => {
                for q in PAGE {
                    query(q, sys, pid, participant, expect, checks, layers, &mut rec);
                }
                tally.page_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Request::Statistics => {
                query(Query::Statistics, sys, "", "", expect, checks, layers, &mut rec);
                tally.stats_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            Request::Audit => {
                let verified0 = audit_verified(auditor);
                let caught = match rec.as_mut() {
                    Some((r, parent)) => {
                        r.time("cloud.audit_pass", *parent, || auditor.run_pass(sys, None, 0))
                    }
                    None => auditor.run_pass(sys, None, 0),
                };
                tally.audit_s += t.elapsed().as_secs_f64();
                // each verified row is one attempt, each flagged row a failure
                let rows = audit_verified(auditor) - verified0;
                tally.audit_rows += rows;
                checks.attempted += rows;
                checks.failed += caught as u64;
                if caught > 0 {
                    eprintln!("check failed: the auditor flagged {caught} rows of an honest pool");
                }
                if rec.is_some() {
                    layers.audit_rows += rows as f64;
                }
            }
        }
        tally.requests += 1;
    }
}

fn audit_verified(auditor: &PoolAuditor) -> u64 {
    let m = MetricsRegistry::new();
    auditor.export_metrics(&m);
    m.snapshot().counter("audit.verified")
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let Timed { reps: setup_reps, raw_s, scaled_s, value: pop } = repeated_setup(|| populate(seed));
    let mut checks = Checks::default();
    for f in &pop.failures {
        checks.check(false, || format!("set-up: {f}"));
    }
    checks.check(!pop.pids.is_empty(), || "set-up completed no instance".into());
    let sys = &pop.dep.sys;
    let expect = Expect {
        steps: pop.setup.steps_per_instance,
        complete: pop.pids.len(),
        running: POOL_PENDING,
        todo: HashMap::from([("p_a".to_string(), POOL_PENDING)]),
    };
    let participants: Vec<String> = pop.setup.creds.iter().map(|c| c.name.clone()).collect();
    let auditor =
        PoolAuditor::new(AuditConfig { batch: AUDIT_BATCH, period_us: 1, threads: threads() });
    let mut rng = Rng::new(seed ^ 0x0b10_c5ee);
    let mut layers = LayerInputs::default();
    let mut rec = Recorder::new();

    // warm-up block: untimed
    let warm = block(&mut rng, &pop.pids, &participants);
    serve(&warm, sys, &expect, &auditor, &mut checks, &mut Tally::default(), &mut layers, None);

    let mut tally = Tally::default();
    let mut traced_tally = Tally::default();
    let mut blocks = 0usize;
    let mut windows = crate::Windows::default();
    let start = Instant::now();
    let mut wall_s = 0.0;
    let mut calib = Calibration::new(Kernel::WithThreads);
    while blocks == 0 || start.elapsed().as_secs_f64() < seconds {
        calib.tick();
        let reqs = block(&mut rng, &pop.pids, &participants);
        let pages0 = tally.page_ms.len();
        let t = Instant::now();
        serve(&reqs, sys, &expect, &auditor, &mut checks, &mut tally, &mut layers, None);
        let block_s = t.elapsed().as_secs_f64();
        wall_s += block_s;
        windows.add(reqs.len() as f64, block_s, &mut tally.page_ms[pages0..].to_vec());
        blocks += 1;
        if !trace {
            continue;
        }
        let t = Instant::now();
        let root = rec.open("bench.queries", None, None);
        serve(
            &reqs,
            sys,
            &expect,
            &auditor,
            &mut checks,
            &mut traced_tally,
            &mut layers,
            Some((&mut rec, root)),
        );
        rec.close(root);
        layers.traced_wall_s += t.elapsed().as_secs_f64();
        if blocks % PROBE_EVERY == 1 {
            let probes = rec.open("bench.probes", None, None);
            let probed = probe_stored_rows(&mut rec, probes, sys).and_then(|(rows, ops)| {
                layers.stored_rows_probed += rows as f64;
                layers.stored_row_ec_ops += ops as f64;
                let pid = &pop.pids[rng.below(pop.pids.len())];
                let sealed = sys
                    .retrieve_latest_sealed(sys.portal_for(pid, 0), pid)?
                    .ok_or_else(|| WfError::Malformed(format!("{pid}: no stored version")))?;
                probe_verify(&mut rec, probes, &sys.directory, &sealed)?;
                layers.probe_kb += probe_xml(&mut rec, probes, &sealed.wire())?;
                Ok(())
            });
            rec.close(probes);
            checks.check(probed.is_ok(), || format!("stored-row probe: {probed:?}"));
        }
    }

    let views = sys.views_match_scan(threads());
    checks.check(views.is_ok(), || format!("views differ from scan: {views:?}"));
    auditor.export_metrics(&pop.metrics);
    sys.export_metrics(&pop.metrics);
    let snap = pop.metrics.snapshot();
    let invariants = check_metric_invariants(&snap);
    checks.check(invariants.is_ok(), || format!("metric invariants: {invariants:?}"));

    let mut lines = vec![format!(
        "pool_read: {} completed + {POOL_PENDING} pending Fig. 9A instances, {} pool rows; {blocks} blocks of {} requests",
        pop.pids.len(),
        sys.pool.row_count(),
        PAGES_PER_BLOCK + STATISTICS_PER_BLOCK + 1
    )];
    let (throughput, p50, p90) = windows.medians();
    tally.page_ms.sort_by(f64::total_cmp);
    let metrics = if trace {
        layers.untraced_ops = tally.requests as f64;
        layers.untraced_wall_s = wall_s;
        layers.bare_ops = tally.requests as f64;
        layers.bare_wall_s = wall_s;
        layers.traced_ops = traced_tally.requests as f64;
        layers.deployments = 1.0;
        for key in ["pool.rows", "sched.dispatched", "sched.activations", "sched.deferred"] {
            layers.counters.insert(key, snap.counter(key) as f64);
        }
        layers.queries = rec.totals_under("bench.queries");
        layers.probes = rec.totals_under("bench.probes");
        lines.extend(layers.table("pool_read", "request"));
        lines.push(crate::spans::write_out(&rec, "pool_read", seed));
        layers.metrics()
    } else {
        let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
        lines.push(format!(
            "  setup_s           {raw_s:.6} s (median of {setup_reps} set-ups; {scaled_s:.6} s at reference speed)"
        ));
        let (q1, q3) = windows.rate_quartiles();
        lines.push(format!(
            "  requests_per_s    {throughput:.3} 1/s (median of {blocks} blocks, quartiles {q1:.3}..{q3:.3})"
        ));
        lines.push(format!("  query_p50_ms      {p50:.5} ms, query_p90_ms {p90:.5} ms (page views, medians over blocks)"));
        lines.push(format!("  all page views    {}", crate::spread_line(&tally.page_ms, "ms")));
        lines.push(format!(
            "  mapreduce_p50_ms  {:.5} ms ({} statistics_by_status calls)",
            median(&tally.stats_ms),
            tally.stats_ms.len()
        ));
        lines.push(format!(
            "  audit_rows_per_s  {:.3} rows/s ({} rows over {:.3} s of audit passes)",
            tally.audit_rows as f64 / tally.audit_s,
            tally.audit_rows,
            tally.audit_s
        ));
        lines.push(format!(
            "  fail_ratio        {fail_ratio} ({} failed of {} attempted)",
            checks.failed, checks.attempted
        ));
        let share = |ms: &[f64]| 100.0 * ms.iter().sum::<f64>() / 1e3 / wall_s;
        lines.push(format!(
            "  share of block wall time: page views {:.1}%, statistics_by_status {:.1}%, audit passes {:.1}%",
            share(&tally.page_ms),
            share(&tally.stats_ms),
            100.0 * tally.audit_s / wall_s
        ));
        crate::end_to_end(scaled_s, (throughput, p50, p90), &calib, &mut lines)
    };
    Report { checks, lines, metrics }
}
