//! The per-layer metrics of the traced run and the layer table printed
//! beside them. Every workload reports every metric; a layer a workload
//! does not reach reads 0 there (see `perfbench/README.md` for which
//! workload each metric is meant to move).

use crate::spans::Total;
use std::collections::BTreeMap;

/// Everything the traced run of one workload measured.
#[derive(Default)]
pub struct LayerInputs {
    /// Hops driven by hand (0 on `pool_read`).
    pub hops: f64,
    /// Self time per span name of the hand-driven hops (`bench.drain`).
    pub drain: BTreeMap<&'static str, Total>,
    /// Self time per span name of the operator queries and audit passes
    /// (`bench.queries`).
    pub queries: BTreeMap<&'static str, Total>,
    /// Self time per span name of the probes (`bench.probes`).
    pub probes: BTreeMap<&'static str, Total>,
    /// Wire KB parsed and canonicalized by the probes.
    pub probe_kb: f64,
    /// Work units (hops, or requests on `pool_read`) and wall seconds of
    /// the same work: untraced as the program runs it (the scheduler, on
    /// the hop workloads), driven by hand without and with spans, and with
    /// the program's own tracer and metrics on.
    pub untraced_ops: f64,
    pub untraced_wall_s: f64,
    pub bare_ops: f64,
    pub bare_wall_s: f64,
    pub traced_ops: f64,
    pub traced_wall_s: f64,
    pub program_traced_ops: f64,
    pub program_traced_wall_s: f64,
    /// Bytes of the documents the hand-driven hops produced.
    pub out_bytes: f64,
    /// `dra_crypto::ed25519::ec_ops()` spent inside the hand-driven hops.
    pub hop_ec_ops: f64,
    /// Signatures the hops' AEAs and TFC verified (`VerificationReport`).
    pub sigs_verified: f64,
    /// Stored rows fully verified by the stored-row probe, and its EC ops.
    pub stored_rows_probed: f64,
    pub stored_row_ec_ops: f64,
    /// Deployment counters summed over the traced drains.
    pub counters: BTreeMap<&'static str, f64>,
    /// Deployments the counters were summed over.
    pub deployments: f64,
    /// Pool rows scanned and rows returned by the operator queries.
    pub queries_issued: f64,
    pub scanned_rows: f64,
    pub rows_returned: f64,
    /// Rows the audit passes verified.
    pub audit_rows: f64,
}

fn ns(map: &BTreeMap<&'static str, Total>, names: &[&str]) -> f64 {
    names.iter().filter_map(|n| map.get(n)).fold(0.0, |acc, t| acc + t.self_ns as f64)
}

fn per_call_us(map: &BTreeMap<&'static str, Total>, name: &str) -> f64 {
    map.get(name).filter(|t| t.calls > 0).map_or(0.0, |t| t.self_ns as f64 / 1e3 / t.calls as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

impl LayerInputs {
    /// Account one operator query's scan cost.
    pub fn note_query(&mut self, a: &crate::pool::Answer) {
        self.queries_issued += 1.0;
        self.scanned_rows += a.scanned as f64;
        self.rows_returned += a.returned as f64;
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// µs per hop of the named drain spans.
    fn hop_us(&self, names: &[&str]) -> f64 {
        ratio(ns(&self.drain, names) / 1e3, self.hops)
    }

    /// Self time of every program call in the drain (core.* and cloud.*).
    fn program_ns(&self) -> f64 {
        self.drain
            .iter()
            .filter(|(n, _)| n.starts_with("core.") || n.starts_with("cloud."))
            .fold(0.0, |acc, (_, t)| acc + t.self_ns as f64)
    }

    /// Self time of the benchmark's responder in the drain. The untraced
    /// run calls the same responder, so its cost is in the untraced wall.
    fn respond_ns(&self) -> f64 {
        ns(&self.drain, &["bench.respond"])
    }

    fn untraced_us_per_op(&self) -> f64 {
        ratio(self.untraced_wall_s * 1e6, self.untraced_ops)
    }

    /// Percent by which `wall_s / ops` exceeds `base_wall_s / base_ops`.
    fn overhead_pct(ops: f64, wall_s: f64, base_ops: f64, base_wall_s: f64) -> f64 {
        let base = ratio(base_wall_s, base_ops);
        if ops == 0.0 || base == 0.0 {
            return 0.0;
        }
        100.0 * (wall_s / ops - base) / base
    }

    /// Spans' cost: hand-driven work with spans against the same without.
    fn bench_overhead_pct(&self) -> f64 {
        Self::overhead_pct(self.traced_ops, self.traced_wall_s, self.bare_ops, self.bare_wall_s)
    }

    /// The program's tracer and metrics against the untraced program run.
    fn program_overhead_pct(&self) -> f64 {
        Self::overhead_pct(
            self.program_traced_ops,
            self.program_traced_wall_s,
            self.untraced_ops,
            self.untraced_wall_s,
        )
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let residual = if self.hops > 0.0 {
            self.untraced_us_per_op() - (self.program_ns() + self.respond_ns()) / 1e3 / self.hops
        } else {
            0.0
        };
        let probe_ns = |name| ns(&self.probes, &[name]);
        let tc_hits = self.counter("trust_cache.hits");
        let tc_lookups = tc_hits + self.counter("trust_cache.misses");
        let audit_ns = ns(&self.queries, &["cloud.audit_pass"]);
        vec![
            ("core.receive_us", self.hop_us(&["core.receive"]), "us/hop"),
            ("core.complete_us", self.hop_us(&["core.complete"]), "us/hop"),
            (
                "core.tfc_us",
                self.hop_us(&["core.complete_via_tfc", "core.tfc_receive", "core.tfc_finalize"]),
                "us/hop",
            ),
            ("cloud.store_us", self.hop_us(&["cloud.store_sealed"]), "us/hop"),
            ("core.refold_us", self.hop_us(&["core.effective_definition"]), "us/hop"),
            ("core.merge_us", self.hop_us(&["core.merge_documents"]), "us/hop"),
            (
                "core.flow_us",
                self.hop_us(&["core.join_ready", "core.fired_cancellations"]),
                "us/hop",
            ),
            ("core.soundness_us", self.hop_us(&["core.validate_and_soundness"]), "us/hop"),
            ("cloud.consume_us", self.hop_us(&["cloud.consume_todo"]), "us/hop"),
            ("cloud.sched_residual_us", residual, "us/hop"),
            (
                "core.verify_incremental_us",
                per_call_us(&self.probes, "probe.verify_incremental"),
                "us/doc",
            ),
            ("core.verify_full_us", per_call_us(&self.probes, "probe.verify_full"), "us/doc"),
            ("xml.parse_us_per_kb", ratio(probe_ns("probe.parse") / 1e3, self.probe_kb), "us/KB"),
            ("xml.canon_us_per_kb", ratio(probe_ns("probe.canon") / 1e3, self.probe_kb), "us/KB"),
            ("xml.doc_kb_per_hop", ratio(self.out_bytes / 1024.0, self.hops), "KB/hop"),
            ("crypto.ec_ops_per_hop", ratio(self.hop_ec_ops, self.hops), "ops/hop"),
            (
                "crypto.ec_ops_per_audited_row",
                ratio(self.stored_row_ec_ops, self.stored_rows_probed),
                "ops/row",
            ),
            ("core.sigs_verified_per_hop", ratio(self.sigs_verified, self.hops), "sigs/hop"),
            (
                "cloud.portal_verifications_per_hop",
                ratio(self.counter("portal.verifications"), self.hops),
                "verif/hop",
            ),
            (
                "cloud.portal_sig_checks_per_hop",
                ratio(self.counter("portal.signature_checks"), self.hops),
                "sigs/hop",
            ),
            ("cloud.trust_cache_hit_ratio", ratio(tc_hits, tc_lookups), "ratio"),
            (
                "cloud.sched_dispatch_ratio",
                ratio(self.counter("sched.dispatched"), self.counter("sched.activations")),
                "ratio",
            ),
            (
                "cloud.sched_deferred",
                ratio(self.counter("sched.deferred"), self.deployments),
                "count",
            ),
            (
                "docpool.scanned_rows_per_query",
                ratio(self.scanned_rows, self.queries_issued),
                "rows/query",
            ),
            (
                "docpool.rows_returned_per_scanned",
                ratio(self.rows_returned, self.scanned_rows),
                "ratio",
            ),
            (
                "cloud.process_status_us",
                per_call_us(&self.queries, "cloud.process_status"),
                "us/call",
            ),
            (
                "cloud.retrieve_latest_us",
                per_call_us(&self.queries, "cloud.retrieve_latest"),
                "us/call",
            ),
            ("cloud.search_todo_us", per_call_us(&self.queries, "cloud.search_todo"), "us/call"),
            (
                "cloud.fleet_dashboard_json_us",
                per_call_us(&self.queries, "cloud.fleet_dashboard_json"),
                "us/call",
            ),
            (
                "cloud.statistics_by_status_us",
                per_call_us(&self.queries, "cloud.statistics_by_status"),
                "us/call",
            ),
            ("cloud.audit_pass_us", per_call_us(&self.queries, "cloud.audit_pass"), "us/call"),
            ("cloud.audit_us_per_row", ratio(audit_ns / 1e3, self.audit_rows), "us/row"),
            (
                "docpool.journal_records_per_hop",
                ratio(self.counter("journal.records"), self.hops),
                "records/hop",
            ),
            ("docpool.pool_rows", ratio(self.counter("pool.rows"), self.deployments), "rows"),
            ("obs.bench_trace_overhead_pct", self.bench_overhead_pct(), "%"),
            ("obs.program_tracer_overhead_pct", self.program_overhead_pct(), "%"),
        ]
    }

    /// The layer table: self time per span of the traced work against the
    /// untraced wall time of the same work, with the unattributed residual.
    pub fn table(&self, workload: &str, unit: &str) -> Vec<String> {
        let (work, ops) = if self.hops > 0.0 {
            (&self.drain, self.hops)
        } else {
            (&self.queries, self.traced_ops)
        };
        let base_us = self.untraced_us_per_op();
        let mut lines = vec![format!(
            "layer table: {workload}, {ops} {unit}s driven by hand; untraced wall {base_us:.1} us/{unit}"
        )];
        lines.push(format!(
            "  {:<30} {:>9} {:>12} {:>8}",
            "span (self time)",
            "calls",
            format!("us/{unit}"),
            "% wall"
        ));
        let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
        let row = |name: &str, calls: u64, us: f64| {
            format!("  {:<30} {:>9} {:>12.2} {:>8.2}", name, calls, us, ratio(100.0 * us, base_us))
        };
        for (name, t) in work {
            let us = t.self_ns as f64 / 1e3 / ops;
            *by_layer.entry(name.split('.').next().unwrap_or(name)).or_default() += us;
            lines.push(row(name, t.calls, us));
        }
        lines.push("  by layer (crate):".to_string());
        let mut program_us = 0.0;
        for (layer, us) in &by_layer {
            if *layer != "bench" {
                program_us += us;
            }
            lines.push(row(layer, 0, *us));
        }
        let respond_us = self.respond_ns() / 1e3 / ops;
        lines.push(row("sum of program layers", 0, program_us));
        lines.push(row("responder (bench.respond)", 0, respond_us));
        lines.push(row("residual (wall-layers-respond)", 0, base_us - program_us - respond_us));
        lines.push(format!(
            "  driven by hand: {:.1} us/{unit} without spans, {:.1} with (span overhead {:.2}%)",
            ratio(self.bare_wall_s * 1e6, self.bare_ops),
            ratio(self.traced_wall_s * 1e6, self.traced_ops),
            self.bench_overhead_pct()
        ));
        lines.push(format!(
            "  program tracer + metrics on: overhead {:.2}%",
            self.program_overhead_pct()
        ));
        lines.push("  probes (outside the timed work):".to_string());
        for (name, t) in &self.probes {
            lines.push(format!(
                "  {:<30} {:>9} {:>12.2} us/call",
                name,
                t.calls,
                ratio(t.self_ns as f64 / 1e3, t.calls as f64)
            ));
        }
        lines
    }
}
