//! The hop-driven workloads, `fleet` and `long_chain`.
//!
//! Untraced, each round builds a fresh deployment, admits the round's
//! instances into one `Scheduler` (`fleet`) or runs its one instance
//! through `InstanceRun::run` (`long_chain`), and times the drain. Traced,
//! every round also drives the same instances by hand on a second fresh
//! deployment, calling the public functions the scheduler calls in the
//! same order, with a span around each call; and runs them a third time
//! with the program's own tracer and metrics on.

use crate::calib::{Calibration, Kernel};
use crate::layers::LayerInputs;
use crate::pool::{issue, Expect, Query};
use crate::spans::{Recorder, SpanId};
use crate::{repeated_setup, responses, threads, Checks, Report, Rng, Timed, AUDIT_BATCH, PORTALS};
use dra4wfms_core::prelude::*;
use dra4wfms_core::verify::Verifier;
use dra_bench::{chain, fig9};
use dra_cloud::{
    check_metric_invariants, tracer_for, AuditConfig, CloudSystem, InstanceRun, NetworkSim,
    PoolAuditor, Responder, RunOutcome, Scheduler,
};
use dra_docpool::Scan;
use dra_obs::{MetricsRegistry, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Fleet,
    LongChain,
}

/// Concurrent instances per `fleet` drain, alternating Fig. 9A and 9B.
const FLEET_INSTANCES: usize = 32;
/// Process-id sets a run cycles through, one per drain. Portal routing and
/// pool keys hash the process ids, so one set's placement would decide a
/// whole run; a run spreads over several.
const PID_SETS: usize = 4;
/// Activities of the `long_chain` definition.
const CHAIN_LEN: usize = 64;
/// The traced run probes every `PROBE_EVERY`-th hop.
const PROBE_EVERY: u64 = 4;
const MAX_STEPS: usize = 200;
/// Fixed TFC clock, so the three drains of a round do the same work.
const TFC_CLOCK_MS: u64 = 1_700_000_000_000;

/// Keys, agents and initial documents: everything a round reuses.
pub struct Setup {
    pub creds: Vec<Credentials>,
    pub dir: Directory,
    pub agents: HashMap<String, Arc<Aea>>,
    pub tfc_creds: Option<Credentials>,
    pub initials: Vec<DraDocument>,
    pub steps_per_instance: usize,
}

/// `n` Fig. 9 instances under `fig9::policy` element-wise encryption,
/// alternating 9A and 9B when `mixed`, all 9A otherwise.
pub fn fig9_setup(seed: u64, prefix: &str, n: usize, mixed: bool) -> Setup {
    let (creds, dir) = fig9::cast();
    let tag = Rng::new(seed).tag();
    let defs = [fig9::definition(false), fig9::definition(true)];
    let policies = [fig9::policy(&defs[0], false), fig9::policy(&defs[1], true)];
    let initials = (0..n)
        .map(|i| {
            let k = usize::from(mixed && i % 2 == 1);
            DraDocument::new_initial_with_pid(
                &defs[k],
                &policies[k],
                &creds[0],
                &format!("{prefix}-{tag}-{i:03}"),
            )
            .expect("fig9 initial document")
        })
        .collect();
    let agents = agents(&creds, &dir);
    let tfc_creds = creds.iter().find(|c| c.name == "TFC").cloned();
    Setup { creds, dir, agents, tfc_creds, initials, steps_per_instance: 9 }
}

fn chain_setup(seed: u64, prefix: &str) -> Setup {
    let (creds, dir) = chain::chain_cast(CHAIN_LEN);
    let def = chain::chain_definition(CHAIN_LEN);
    let policy = chain::chain_policy(CHAIN_LEN, true);
    let pid = format!("{prefix}-{}", Rng::new(seed).tag());
    let initial = DraDocument::new_initial_with_pid(&def, &policy, &creds[0], &pid)
        .expect("chain initial document");
    let agents = agents(&creds, &dir);
    Setup {
        creds,
        dir,
        agents,
        tfc_creds: None,
        initials: vec![initial],
        steps_per_instance: CHAIN_LEN,
    }
}

fn agents(creds: &[Credentials], dir: &Directory) -> HashMap<String, Arc<Aea>> {
    creds.iter().map(|c| (c.name.clone(), Arc::new(Aea::new(c.clone(), dir.clone())))).collect()
}

/// One fresh deployment: a pool behind `PORTALS` portals and, for Fig. 9B,
/// a fresh TFC (its redo log must not carry over between drains). With
/// `tracer` on, every component records into it.
pub struct Deployment {
    pub sys: CloudSystem,
    pub tfc: Option<TfcServer>,
    pub agents: Option<HashMap<String, Arc<Aea>>>,
    pub tracer: Tracer,
}

impl Setup {
    pub fn deployment(&self, program_tracer: bool) -> Deployment {
        let network = Arc::new(NetworkSim::lan());
        let tracer = if program_tracer { tracer_for(&network) } else { Tracer::disabled() };
        let mut sys = CloudSystem::new(self.dir.clone(), PORTALS, network);
        let mut tfc = self
            .tfc_creds
            .clone()
            .map(|c| TfcServer::with_clock(c, self.dir.clone(), Arc::new(|| TFC_CLOCK_MS)));
        let mut agents = None;
        if program_tracer {
            sys = sys.with_tracer(tracer.clone());
            tfc = tfc.map(|t| t.with_tracer(tracer.clone()));
            agents = Some(
                self.creds
                    .iter()
                    .map(|c| {
                        (
                            c.name.clone(),
                            Arc::new(
                                Aea::new(c.clone(), self.dir.clone()).with_tracer(tracer.clone()),
                            ),
                        )
                    })
                    .collect(),
            );
        }
        Deployment { sys, tfc, agents, tracer }
    }
}

/// Responder-call clock: the gap between successive responder calls of one
/// instance is one full hop as the next participant sees it.
#[derive(Default)]
pub struct GapClock {
    state: Mutex<(HashMap<String, Instant>, Vec<f64>)>,
}

impl GapClock {
    pub fn tick(&self, pid: &str) {
        let now = Instant::now();
        let mut st = self.state.lock().expect("gap clock lock");
        if let Some(prev) = st.0.insert(pid.to_string(), now) {
            st.1.push((now - prev).as_secs_f64() * 1e3);
        }
    }

    pub fn take(&self) -> Vec<f64> {
        std::mem::take(&mut self.state.lock().expect("gap clock lock").1)
    }
}

pub struct Drain {
    pub secs: f64,
    pub hops: u64,
    pub results: Vec<(String, WfResult<RunOutcome>)>,
}

fn instance<'a>(
    dep: &'a Deployment,
    doc: &'a DraDocument,
    agents: &'a HashMap<String, Arc<Aea>>,
    respond: &'a Responder,
    metrics: &'a MetricsRegistry,
) -> InstanceRun<'a> {
    let run = InstanceRun::new(&dep.sys, doc)
        .agents(agents)
        .respond(respond)
        .max_steps(MAX_STEPS)
        .tracer(dep.tracer.clone())
        .metrics(metrics);
    match &dep.tfc {
        Some(t) => run.tfc(t),
        None => run,
    }
}

/// Admit every instance of `setup` and drain the deployment's bus.
pub fn drain(
    setup: &Setup,
    dep: &Deployment,
    metrics: &MetricsRegistry,
    seed: u64,
    gaps: &Arc<GapClock>,
    single: bool,
) -> Drain {
    // the program takes a `'static` responder: it owns its clock handle
    let gaps = Arc::clone(gaps);
    let respond = move |r: &ReceivedActivity| {
        gaps.tick(&r.report.process_id);
        responses(seed, r)
    };
    let agents = dep.agents.as_ref().unwrap_or(&setup.agents);
    let build = |doc| instance(dep, doc, agents, &respond, metrics);
    let t0 = Instant::now();
    let results = if single {
        setup
            .initials
            .iter()
            .map(|doc| (doc.process_id().unwrap_or_default(), build(doc).run()))
            .collect()
    } else {
        let mut sched = Scheduler::new(&dep.sys);
        let mut refused = Vec::new();
        for doc in &setup.initials {
            if let Err(e) = sched.admit_instance(build(doc)) {
                refused.push((doc.process_id().unwrap_or_default(), Err(e)));
            }
        }
        let mut results = sched.run_to_completion();
        results.extend(refused);
        results
    };
    let secs = t0.elapsed().as_secs_f64();
    let hops = results.iter().filter_map(|(_, r)| r.as_ref().ok()).map(|o| o.steps as u64).sum();
    Drain { secs, hops, results }
}

/// Counters the hand-driven mirror must reproduce exactly.
const MIRRORED: [&str; 9] = [
    "pool.rows",
    "portal.stored",
    "portal.verifications",
    "portal.signature_checks",
    "portal.incremental_verifications",
    "portal.notifications",
    "journal.records",
    "trust_cache.hits",
    "trust_cache.misses",
];

fn deployment_counters(sys: &CloudSystem) -> dra_obs::MetricsSnapshot {
    let m = MetricsRegistry::new();
    sys.export_metrics(&m);
    m.snapshot()
}

struct MirrorInstance {
    pid: String,
    trace: usize,
    inbox: HashMap<String, Vec<SealedDocument>>,
    steps: usize,
}

#[derive(Default)]
struct Mirror {
    hops: u64,
    deferred: u64,
    ec_ops: u64,
    sigs_verified: u64,
    out_bytes: u64,
    probe_kb: f64,
    wall_ns: u64,
}

/// Drive the instances of `setup` by hand on `dep`: admission, then the
/// activation bus popped in the scheduler's order, with the scheduler's
/// inbox and AND-join deferral, and the calls of one hop in the order the
/// scheduler makes them. Every call gets a span under `bench.drain`.
fn mirror(setup: &Setup, dep: &Deployment, seed: u64, rec: &mut Recorder) -> WfResult<Mirror> {
    let sys = &dep.sys;
    let gaps = GapClock::default();
    let mut out = Mirror::default();
    let t0 = Instant::now();
    let root = rec.open("bench.drain", None, None);
    let mut insts: Vec<MirrorInstance> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut probe_inputs: Vec<(SealedDocument, SealedDocument, usize)> = Vec::new();
    for initial in &setup.initials {
        let pid = initial.process_id()?;
        let trace = rec.trace(&pid);
        let adm = rec.open("bench.admit", Some(root), Some(trace));
        let (def, _) =
            rec.time("core.effective_definition", adm, || effective_definition(initial))?;
        rec.time("core.validate_and_soundness", adm, || {
            def.validate().and_then(|()| dra4wfms_core::soundness::require_sound(&def))
        })?;
        let sealed = SealedDocument::new(initial.clone());
        let route = Route { targets: vec![def.start.clone()], ends: false };
        let portal = sys.route_portal(sys.portal_for(&pid, 0));
        rec.time("cloud.store_sealed", adm, || sys.store_sealed(portal, &sealed, &route))?;
        rec.close(adm);
        index.insert(pid.clone(), insts.len());
        insts.push(MirrorInstance {
            pid,
            trace,
            inbox: HashMap::from([(def.start.clone(), vec![sealed])]),
            steps: 0,
        });
    }

    let bus = Arc::clone(sys.activation_bus());
    while let Some(act) = bus.pop() {
        let Some(inst) = index.get(&act.process_id).map(|&i| &mut insts[i]) else { continue };
        // a duplicate notification finds the inbox already drained
        let Some(arrived) = inst.inbox.remove(&act.activity) else { continue };
        let span = rec.open("bench.activation", Some(root), Some(inst.trace));
        let merged = if arrived.len() == 1 {
            arrived.into_iter().next().expect("one arrival")
        } else {
            SealedDocument::new(rec.time("core.merge_documents", span, || {
                let docs: Vec<DraDocument> = arrived.iter().map(|s| s.document().clone()).collect();
                merge_documents(&docs)
            })?)
        };
        let (def_now, _) =
            rec.time("core.effective_definition", span, || effective_definition(&merged))?;
        let act_def = def_now.activity(&act.activity)?.clone();
        let aea = setup
            .agents
            .get(&act_def.participant)
            .ok_or_else(|| WfError::UnknownIdentity(act_def.participant.clone()))?;
        if act_def.join == JoinKind::All
            && !rec
                .time("core.join_ready", span, || join_ready(&merged, &def_now, &act.activity))?
        {
            inst.inbox.entry(act.activity.clone()).or_default().push(merged);
            out.deferred += 1;
            rec.close(span);
            continue;
        }
        if act_def.join == JoinKind::Or {
            return Err(WfError::Config("the mirror does not drive OR-joins".into()));
        }

        sys.federation_poll();
        let portal = sys.route_portal(sys.portal_for(&inst.pid, inst.steps + 1));
        let ec0 = dra_crypto::ed25519::ec_ops();
        let received =
            rec.time("core.receive", span, || aea.receive(merged.clone(), &act.activity))?;
        out.sigs_verified += received.report.signatures_verified as u64;
        let answers = rec.time("bench.respond", span, || {
            gaps.tick(&inst.pid);
            responses(seed, &received)
        });
        let (document, route) = if def_now.tfc.is_some() {
            let tfc = dep.tfc.as_ref().ok_or_else(|| WfError::Config("no TFC server".into()))?;
            let inter = rec.time("core.complete_via_tfc", span, || {
                aea.complete_via_tfc(&received, &answers)
            })?;
            sys.network.transfer(inter.document.size_bytes());
            let processed = rec.time("core.tfc_receive", span, || tfc.receive(inter.document))?;
            out.sigs_verified += processed.report.signatures_verified as u64;
            let finalized = rec.time("core.tfc_finalize", span, || tfc.finalize(&processed))?;
            (finalized.document, finalized.route)
        } else {
            let done = rec.time("core.complete", span, || aea.complete(&received, &answers))?;
            (done.document, done.route)
        };
        rec.time("cloud.store_sealed", span, || sys.store_sealed(portal, &document, &route))?;
        inst.steps += 1;
        out.hops += 1;
        rec.time("cloud.consume_todo", span, || {
            sys.consume_todo(&act_def.participant, &inst.pid, &act.activity)
        });
        let fired = rec.time("core.fired_cancellations", span, || {
            fired_cancellations(
                &def_now,
                &act.activity,
                &DocFieldReader::public(document.document()),
            )
            .map(|regions| regions.len())
        })?;
        if fired > 0 {
            return Err(WfError::Config("the mirror does not drive cancellation regions".into()));
        }
        out.ec_ops += dra_crypto::ed25519::ec_ops() - ec0;
        out.out_bytes += document.size_bytes() as u64;
        for target in &route.targets {
            inst.inbox.entry(target.clone()).or_default().push(document.clone());
        }
        // the hop's documents are freed inside its span, as in the scheduler
        drop((received, answers, def_now));
        if rec.enabled() && out.hops % PROBE_EVERY == 0 {
            probe_inputs.push((merged, document, inst.trace));
        } else {
            drop((merged, document));
        }
        rec.close(span);
    }
    rec.close(root);
    out.wall_ns = t0.elapsed().as_nanos() as u64;

    // probes run after the drain, so they never sit inside its wall time
    for (input, output, trace) in &probe_inputs {
        let probes = rec.open("bench.probes", None, Some(*trace));
        probe_verify(rec, probes, &setup.dir, input)?;
        out.probe_kb += probe_xml(rec, probes, &output.wire())?;
        rec.close(probes);
    }
    Ok(out)
}

/// Probe: verify a hop's real input again outside the hop, incrementally
/// with its trust mark and in full without it.
pub fn probe_verify(
    rec: &mut Recorder,
    parent: SpanId,
    dir: &Directory,
    doc: &SealedDocument,
) -> WfResult<()> {
    rec.time("probe.verify_incremental", parent, || {
        Verifier::new(dir).with_mark(doc.trust()).run(doc)
    })?;
    rec.time("probe.verify_full", parent, || Verifier::new(dir).run(doc))?;
    Ok(())
}

/// Probe: parse wire bytes and canonicalize the fresh tree (no memo yet).
/// Returns the KB processed.
pub fn probe_xml(rec: &mut Recorder, parent: SpanId, wire: &str) -> WfResult<f64> {
    let parsed = rec.time("probe.parse", parent, || DraDocument::parse(wire))?;
    let canon = rec.time("probe.canon", parent, || dra_xml::canon::canonicalize(&parsed.root));
    std::hint::black_box(canon);
    Ok(wire.len() as f64 / 1024.0)
}

/// Probe: fully verify the first `AUDIT_BATCH` stored `doc/` rows on this
/// thread, counting EC operations (the counter is per thread). Returns
/// `(rows verified, EC ops)`.
pub fn probe_stored_rows(
    rec: &mut Recorder,
    parent: SpanId,
    sys: &CloudSystem,
) -> WfResult<(u64, u64)> {
    let rows = sys.pool.query(&Scan::prefix("doc/").family("doc").limit(AUDIT_BATCH));
    let mut ec_ops = 0;
    let mut verified = 0;
    for (_, row) in &rows.rows {
        let xml = row
            .get_str("doc", "xml")
            .ok_or_else(|| WfError::Malformed("doc row without xml".into()))?;
        let doc = DraDocument::parse(&xml)?;
        let ec0 = dra_crypto::ed25519::ec_ops();
        rec.time("probe.verify_stored_row", parent, || Verifier::new(&sys.directory).run(&doc))?;
        ec_ops += dra_crypto::ed25519::ec_ops() - ec0;
        verified += 1;
    }
    Ok((verified, ec_ops))
}

/// The output checks of one drain, run as operator queries on its pool.
fn check_drain(
    setup: &Setup,
    sys: &CloudSystem,
    d: &Drain,
    metrics: &MetricsRegistry,
    checks: &mut Checks,
    rec: &mut Recorder,
    layers: &mut LayerInputs,
) {
    let root = rec.open("bench.queries", None, None);
    let expect = Expect {
        steps: setup.steps_per_instance,
        complete: setup.initials.len(),
        running: 0,
        todo: HashMap::new(),
    };
    for (pid, result) in &d.results {
        let outcome = match result {
            Ok(o) if o.steps == setup.steps_per_instance => o,
            Ok(o) => {
                checks.check(false, || {
                    format!("{pid}: {} steps, expected {}", o.steps, setup.steps_per_instance)
                });
                continue;
            }
            Err(e) => {
                checks.check(false, || format!("{pid}: {e}"));
                continue;
            }
        };
        for q in [Query::ProcessStatus, Query::RetrieveLatest] {
            let r = issue(q, sys, pid, "", &expect, rec, root);
            checks.check(r.ok, || format!("{pid}: {q:?} answered wrongly"));
            layers.note_query(&r);
            if q == Query::RetrieveLatest {
                let same = r.wire.as_deref() == Some(outcome.document.wire().as_str());
                checks.check(same, || {
                    format!("{pid}: pool's latest version is not the run's final document")
                });
            }
        }
        let verified = rec
            .time("core.verify_final", root, || Verifier::new(&setup.dir).run(&outcome.document));
        checks.check(verified.is_ok(), || format!("{pid}: final document fails verification"));
    }
    for c in &setup.creds {
        let r = issue(Query::SearchTodo, sys, "", &c.name, &expect, rec, root);
        checks.check(r.ok, || format!("{}: TO-DO list not empty after the drain", c.name));
        layers.note_query(&r);
    }
    for q in [Query::Dashboard, Query::Statistics] {
        let r = issue(q, sys, "", "", &expect, rec, root);
        checks.check(r.ok, || {
            format!("{q:?} disagrees with {} completed instances", expect.complete)
        });
        layers.note_query(&r);
    }
    let views = rec.time("cloud.views_match_scan", root, || sys.views_match_scan(threads()));
    checks.check(views.is_ok(), || format!("views differ from scan: {views:?}"));
    let auditor =
        PoolAuditor::new(AuditConfig { batch: AUDIT_BATCH, period_us: 1, threads: threads() });
    let caught = rec.time("cloud.audit_pass", root, || auditor.run_pass(sys, None, 0));
    let sampled = auditor.sampled_rows() as u64;
    checks.attempted += sampled;
    checks.failed += caught as u64;
    layers.audit_rows += sampled as f64;
    if caught > 0 {
        eprintln!("check failed: the auditor flagged {caught} rows of an honest pool");
    }
    auditor.export_metrics(metrics);
    sys.export_metrics(metrics);
    let invariants = check_metric_invariants(&metrics.snapshot());
    checks.check(invariants.is_ok(), || format!("metric invariants: {invariants:?}"));
    rec.close(root);
}

pub fn run(shape: Shape, seed: u64, seconds: f64, trace: bool) -> Report {
    let (name, single) = match shape {
        Shape::Fleet => ("fleet", false),
        Shape::LongChain => ("long_chain", true),
    };
    let Timed { reps: setup_reps, raw_s, scaled_s, value: setups } = repeated_setup(|| {
        (0..PID_SETS)
            .map(|k| match shape {
                Shape::Fleet => fig9_setup(seed, &format!("fl{k}"), FLEET_INSTANCES, true),
                Shape::LongChain => chain_setup(seed, &format!("lc{k}")),
            })
            .collect::<Vec<_>>()
    });
    let mut checks = Checks::default();
    let mut layers = LayerInputs::default();
    // warm-up drain: lazy tables and per-thread memos fill here, untimed
    {
        let setup = &setups[0];
        let dep = setup.deployment(false);
        drain(setup, &dep, &MetricsRegistry::new(), seed, &Arc::default(), single);
    }

    let mut rec = Recorder::new();
    let mut windows = crate::Windows::default();
    let mut gaps = Vec::new();
    let mut hops_total = 0u64;
    let mut final_bytes = 0usize;
    let loop_start = Instant::now();
    let mut calib = Calibration::new(Kernel::Arithmetic);
    while windows.count() == 0 || loop_start.elapsed().as_secs_f64() < seconds {
        calib.tick();
        let setup = &setups[windows.count() % PID_SETS];
        if !trace {
            rec = Recorder::new();
        }
        // traced rounds drive the same instances by hand on a second fresh
        // deployment, alternately before and after the untraced drain so
        // that neither side always runs on the warmer heap
        let by_hand = trace.then(|| setup.deployment(false));
        let mirror_first = windows.count() % 2 == 1;
        let mut by_hand_result =
            by_hand.as_ref().filter(|_| mirror_first).map(|dep| mirror(setup, dep, seed, &mut rec));
        // and once more without spans: the spans' own cost
        let bare =
            trace.then(|| mirror(setup, &setup.deployment(false), seed, &mut Recorder::disabled()));
        let dep = setup.deployment(false);
        let metrics = MetricsRegistry::new();
        let clock = Arc::new(GapClock::default());
        let d = drain(setup, &dep, &metrics, seed, &clock, single);
        let mut drain_gaps = clock.take();
        windows.add(d.hops as f64, d.secs, &mut drain_gaps);
        gaps.extend(drain_gaps);
        hops_total += d.hops;
        let largest =
            d.results.iter().filter_map(|(_, r)| r.as_ref().ok()).map(|o| o.document.size_bytes());
        final_bytes = final_bytes.max(largest.max().unwrap_or(0));
        let counted = deployment_counters(&dep.sys);
        if let Some(dep) = by_hand.as_ref().filter(|_| !mirror_first) {
            by_hand_result = Some(mirror(setup, dep, seed, &mut rec));
        }
        check_drain(setup, &dep.sys, &d, &metrics, &mut checks, &mut rec, &mut layers);
        let (Some(by_hand), Some(by_hand_result), Some(bare)) = (by_hand, by_hand_result, bare)
        else {
            continue;
        };
        match bare {
            Ok(m) => {
                layers.bare_ops += m.hops as f64;
                layers.bare_wall_s += m.wall_ns as f64 / 1e9;
            }
            Err(e) => checks.check(false, || format!("mirror without spans: {e}")),
        }
        layers.untraced_ops += d.hops as f64;
        layers.untraced_wall_s += d.secs;
        let snap = metrics.snapshot();
        for key in ["sched.dispatched", "sched.activations", "sched.deferred"] {
            *layers.counters.entry(key).or_default() += snap.counter(key) as f64;
        }
        let probes = rec.open("bench.probes", None, None);
        match probe_stored_rows(&mut rec, probes, &dep.sys) {
            Ok((rows, ops)) => {
                layers.stored_rows_probed += rows as f64;
                layers.stored_row_ec_ops += ops as f64;
            }
            Err(e) => checks.check(false, || format!("stored-row probe: {e}")),
        }
        rec.close(probes);
        match by_hand_result {
            Ok(m) => {
                layers.hops += m.hops as f64;
                layers.traced_ops += m.hops as f64;
                layers.traced_wall_s += m.wall_ns as f64 / 1e9;
                layers.hop_ec_ops += m.ec_ops as f64;
                layers.sigs_verified += m.sigs_verified as f64;
                layers.out_bytes += m.out_bytes as f64;
                layers.probe_kb += m.probe_kb;
                layers.deployments += 1.0;
                let mirrored = deployment_counters(&by_hand.sys);
                for key in MIRRORED {
                    let (a, b) = (counted.counter(key), mirrored.counter(key));
                    checks.check(a == b, || {
                        format!("mirror cross-check: {key} {b} by hand vs {a} untraced")
                    });
                    *layers.counters.entry(key).or_default() += b as f64;
                }
                checks.check(m.deferred == snap.counter("sched.deferred"), || {
                    format!(
                        "mirror cross-check: {} AND-join deferrals vs {}",
                        m.deferred,
                        snap.counter("sched.deferred")
                    )
                });
                checks.check(m.hops == d.hops, || {
                    format!("mirror cross-check: {} hops vs {}", m.hops, d.hops)
                });
            }
            Err(e) => checks.check(false, || format!("mirror: {e}")),
        }
        drop(by_hand);

        // the same instances with the program's tracer and metrics on
        let traced = setup.deployment(true);
        let d = drain(setup, &traced, &MetricsRegistry::new(), seed, &Arc::default(), single);
        layers.program_traced_ops += d.hops as f64;
        layers.program_traced_wall_s += d.secs;
    }

    let mut lines = Vec::new();
    let label = match shape {
        Shape::Fleet => format!("{FLEET_INSTANCES} instances per drain (alternating Fig. 9A/9B)"),
        Shape::LongChain => format!("one {CHAIN_LEN}-activity chain per drain"),
    };
    lines.push(format!(
        "{name}: {label}, {PORTALS} portals, {PID_SETS} process-id sets, {} drains, {hops_total} hops, final documents up to {:.1} KB",
        windows.count(),
        final_bytes as f64 / 1024.0
    ));
    gaps.sort_by(f64::total_cmp);
    let (throughput, p50, p90) = windows.medians();
    let fail_ratio = checks.failed as f64 / checks.attempted.max(1) as f64;
    let metrics = if trace {
        layers.queries = rec.totals_under("bench.queries");
        layers.probes = rec.totals_under("bench.probes");
        layers.drain = rec.totals_under("bench.drain");
        lines.extend(layers.table(name, "hop"));
        lines.push(crate::spans::write_out(&rec, name, seed));
        layers.metrics()
    } else {
        let (q1, q3) = windows.rate_quartiles();
        lines.push(format!(
            "  setup_s     {raw_s:.6} s (median of {setup_reps} set-ups; {scaled_s:.6} s at reference speed)"
        ));
        lines.push(format!(
            "  hops_per_s  {throughput:.3} hops/s (median of {} drains, quartiles {q1:.3}..{q3:.3})",
            windows.count()
        ));
        lines.push(format!(
            "  hop_p50_ms  {p50:.4} ms, hop_p90_ms {p90:.4} ms (medians over drains)"
        ));
        lines.push(format!("  all gaps    {}", crate::spread_line(&gaps, "ms")));
        lines.push(format!(
            "  fail_ratio  {fail_ratio} ({} failed of {} attempted)",
            checks.failed, checks.attempted
        ));
        crate::end_to_end(scaled_s, (throughput, p50, p90), &calib, &mut lines)
    };
    Report { checks, lines, metrics }
}
