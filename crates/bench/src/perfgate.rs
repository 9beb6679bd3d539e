//! The perf regression gate: compare a fresh `BENCH_profile.json` against
//! a checked-in baseline under explicit per-stage tolerances.
//!
//! Profiles are in *virtual time*, so the numbers are byte-deterministic
//! for a fixed seed: a "regression" here is a code change that made a
//! stage genuinely cost more simulated time (extra hops, extra retries,
//! longer waits), not scheduler noise. That is exactly what a gate should
//! catch — and why the gate can afford to be strict.
//!
//! All parsing is hand-rolled and line-based (the workspace has no JSON
//! dependency): `claim_profile` writes one cell header / one stage object
//! per line with a fixed key order, and this module reads exactly that
//! shape back.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A parsed profile: `(cell, stage) → p95_us`.
pub type ProfileIndex = BTreeMap<(String, String), u64>;

/// Per-stage tolerance table: how much a stage's p95 may grow (percent)
/// before the gate fails, and which stages may not move at all.
#[derive(Clone, Debug, PartialEq)]
pub struct Tolerances {
    /// Applied to any stage with no explicit entry.
    pub default_pct: f64,
    /// Stage-specific overrides (tighter for hot stages, looser for noisy
    /// composites).
    pub stages: BTreeMap<String, f64>,
    /// Two-sided stages: verdict counters (`detected`, `quarantines`, …)
    /// that fail the gate when they move in *either* direction — a
    /// forgery count falling to zero is as much a regression as a cost
    /// growing.
    pub exact: BTreeSet<String>,
}

impl Tolerances {
    /// The allowed growth for `stage`, percent.
    #[must_use]
    pub fn for_stage(&self, stage: &str) -> f64 {
        self.stages.get(stage).copied().unwrap_or(self.default_pct)
    }
}

/// Extract the string value of `"key": "…"` from a JSON-ish line.
fn str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let open = rest.find('"')?;
    let rest = &rest[open + 1..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract the numeric value of `"key": N` from a JSON-ish line.
fn num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = line[line.find(&tag)? + tag.len()..].trim_start();
    let end =
        rest.find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-')).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse a `BENCH_profile.json` into `(cell, stage) → p95_us`. Cell
/// headers (`"cell": "…"`) scope the stage lines that follow them.
#[must_use]
pub fn parse_profile(text: &str) -> ProfileIndex {
    let mut out = ProfileIndex::new();
    let mut cell = String::new();
    for line in text.lines() {
        if let Some(c) = str_field(line, "cell") {
            cell = c;
        }
        if let (Some(stage), Some(p95)) = (str_field(line, "stage"), num_field(line, "p95_us")) {
            out.insert((cell.clone(), stage), p95 as u64);
        }
    }
    out
}

/// Parse a `BENCH_scaling.json` (one object per line, a `"cell"` string
/// plus deterministic numeric counters) into `(cell, counter) → value`.
/// Every numeric field on a cell row becomes a gated stage, so new
/// counters join the gate without a parser change.
#[must_use]
pub fn parse_scaling(text: &str) -> ProfileIndex {
    let mut out = ProfileIndex::new();
    for line in text.lines() {
        let Some(cell) = str_field(line, "cell") else { continue };
        // quoted substrings alternate key/value; keys are the even ones
        for key in line.split('"').skip(1).step_by(2) {
            if key == "cell" {
                continue;
            }
            if let Some(v) = num_field(line, key) {
                out.insert((cell.clone(), key.to_string()), v as u64);
            }
        }
    }
    out
}

/// Parse a tolerance file:
/// `{"default_pct": N, "exact": ["detected", …], "stages": {"hop": N, …}}`
/// (the `exact` list on one line, and optional).
/// Returns `None` when no `default_pct` is present (malformed file —
/// better to fail the gate than to silently wave regressions through).
#[must_use]
pub fn parse_tolerances(text: &str) -> Option<Tolerances> {
    let mut default_pct = None;
    let mut stages = BTreeMap::new();
    let mut exact = BTreeSet::new();
    let mut in_stages = false;
    for line in text.lines() {
        if let Some(d) = num_field(line, "default_pct") {
            default_pct = Some(d);
        }
        if let Some((_, rest)) = line.split_once("\"exact\":") {
            let items = rest.split(['[', ']']).nth(1).unwrap_or("");
            exact.extend(
                items
                    .split(',')
                    .map(|k| k.trim().trim_matches('"'))
                    .filter(|k| !k.is_empty())
                    .map(str::to_string),
            );
        }
        if line.contains("\"stages\"") {
            in_stages = true;
            continue;
        }
        if in_stages {
            if line.contains('}') {
                in_stages = false;
                continue;
            }
            let trimmed = line.trim().trim_end_matches(',');
            if let Some(rest) = trimmed.strip_prefix('"') {
                if let Some((name, value)) = rest.split_once("\":") {
                    if let Ok(pct) = value.trim().parse::<f64>() {
                        stages.insert(name.to_string(), pct);
                    }
                }
            }
        }
    }
    Some(Tolerances { default_pct: default_pct?, stages, exact })
}

/// One gate violation, human-readable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// `cell/stage` the violation is in.
    pub key: String,
    /// What went wrong.
    pub detail: String,
}

/// Compare `new` against `baseline` under `tol`. Violations: a baseline
/// stage that disappeared (instrumentation silently lost), a stage whose
/// p95 grew beyond its tolerance, or an exact stage that moved either way.
/// New stages are allowed — they join the baseline on the next
/// regeneration.
#[must_use]
pub fn gate(baseline: &ProfileIndex, new: &ProfileIndex, tol: &Tolerances) -> Vec<Violation> {
    let mut violations = Vec::new();
    for ((cell, stage), &base_p95) in baseline {
        let key = format!("{cell}/{stage}");
        match new.get(&(cell.clone(), stage.clone())) {
            None => violations.push(Violation {
                key,
                detail: "stage present in baseline but missing from the new profile".into(),
            }),
            Some(&new_value) if tol.exact.contains(stage) => {
                if new_value != base_p95 {
                    violations.push(Violation {
                        key,
                        detail: format!(
                            "exact counter moved: {base_p95} → {new_value} (must stay equal)"
                        ),
                    });
                }
            }
            Some(&new_p95) => {
                let pct = tol.for_stage(stage);
                let allowed = (base_p95 as f64 * (1.0 + pct / 100.0)).floor() as u64;
                if new_p95 > allowed {
                    violations.push(Violation {
                        key,
                        detail: format!(
                            "p95 regressed: {base_p95} µs → {new_p95} µs \
                             (allowed ≤ {allowed} µs at +{pct}%)"
                        ),
                    });
                }
            }
        }
    }
    violations
}

/// Render a gate report: every baseline stage with its verdict.
#[must_use]
pub fn report(baseline: &ProfileIndex, new: &ProfileIndex, tol: &Tolerances) -> String {
    let violations = gate(baseline, new, tol);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10} {:>8} {:>8}",
        "cell/stage", "base p95", "new p95", "tol", "verdict"
    );
    for ((cell, stage), &base_p95) in baseline {
        let key = format!("{cell}/{stage}");
        let new_p95 = new.get(&(cell.clone(), stage.clone()));
        let bad = violations.iter().any(|v| v.key == key);
        let allowed = if tol.exact.contains(stage) {
            "exact".to_string()
        } else {
            format!("{}%", tol.for_stage(stage))
        };
        let _ = writeln!(
            out,
            "{:<28} {:>10} {:>10} {:>8} {:>8}",
            key,
            base_p95,
            new_p95.map_or("missing".to_string(), u64::to_string),
            allowed,
            if bad { "FAIL" } else { "ok" }
        );
    }
    for v in &violations {
        let _ = writeln!(out, "VIOLATION {}: {}", v.key, v.detail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROFILE: &str = r#"{
"cells": [
{"cell": "basic/lossless", "stages": [
{"stage": "deliver", "count": 10, "p50_us": 100, "p95_us": 200, "p99_us": 210},
{"stage": "hop", "count": 9, "p50_us": 1000, "p95_us": 2000, "p99_us": 2100}
]},
{"cell": "tfc/hostile", "stages": [
{"stage": "hop", "count": 9, "p50_us": 1500, "p95_us": 3000, "p99_us": 3100}
]}
]
}"#;

    const TOLERANCES: &str = r#"{
  "default_pct": 25,
  "exact": ["detected", "quarantines"],
  "stages": {
    "hop": 10,
    "detected": 0
  }
}"#;

    const SCALING: &str = r#"[
  {"cell": "n=1", "sigs": 2, "seq_ec_ops": 1000, "batch_ec_ops": 700, "canon_bytes": 512, "arena_steady_alloc": 0},
  {"cell": "n=8", "sigs": 9, "seq_ec_ops": 4500, "batch_ec_ops": 1500, "canon_bytes": 2048, "arena_steady_alloc": 0}
]"#;

    #[test]
    fn parses_scaling_cells() {
        let idx = parse_scaling(SCALING);
        assert_eq!(idx.len(), 10, "2 cells × 5 counters");
        assert_eq!(idx[&("n=1".to_string(), "seq_ec_ops".to_string())], 1000);
        assert_eq!(idx[&("n=8".to_string(), "batch_ec_ops".to_string())], 1500);
        assert_eq!(idx[&("n=8".to_string(), "arena_steady_alloc".to_string())], 0);
    }

    #[test]
    fn scaling_gate_catches_ec_op_regressions() {
        let base = parse_scaling(SCALING);
        let tol = Tolerances { default_pct: 0.0, stages: BTreeMap::new(), exact: BTreeSet::new() };
        assert_eq!(gate(&base, &base, &tol), vec![]);
        let worse =
            parse_scaling(&SCALING.replace("\"batch_ec_ops\": 1500", "\"batch_ec_ops\": 1501"));
        let violations = gate(&base, &worse, &tol);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].key, "n=8/batch_ec_ops");
        // a dropped counter (e.g. running without --batch) is a violation too
        let missing = parse_scaling(&SCALING.replace(" \"batch_ec_ops\": 1500,", ""));
        assert_eq!(gate(&base, &missing, &tol).len(), 1);
    }

    #[test]
    fn parses_cells_and_stages() {
        let idx = parse_profile(PROFILE);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx[&("basic/lossless".to_string(), "deliver".to_string())], 200);
        assert_eq!(idx[&("tfc/hostile".to_string(), "hop".to_string())], 3000);
    }

    #[test]
    fn parses_tolerances_with_overrides() {
        let tol = parse_tolerances(TOLERANCES).unwrap();
        assert!((tol.default_pct - 25.0).abs() < f64::EPSILON);
        assert!((tol.for_stage("hop") - 10.0).abs() < f64::EPSILON);
        assert!((tol.for_stage("deliver") - 25.0).abs() < f64::EPSILON);
        let exact: Vec<&str> = tol.exact.iter().map(String::as_str).collect();
        assert_eq!(exact, ["detected", "quarantines"]);
        assert!(!tol.stages.contains_key("exact"), "the exact list is not a stage");
        assert_eq!(parse_tolerances("{}"), None, "missing default_pct is malformed");
    }

    #[test]
    fn identical_profiles_pass() {
        let idx = parse_profile(PROFILE);
        let tol = parse_tolerances(TOLERANCES).unwrap();
        assert_eq!(gate(&idx, &idx, &tol), vec![]);
    }

    #[test]
    fn regression_beyond_tolerance_fails() {
        let base = parse_profile(PROFILE);
        let tol = parse_tolerances(TOLERANCES).unwrap();
        // hop tolerance is 10%: 2000 → 2200 is the limit, 2201 must fail
        let ok = parse_profile(&PROFILE.replace("\"p95_us\": 2000", "\"p95_us\": 2200"));
        assert_eq!(gate(&base, &ok, &tol), vec![]);
        let bad = parse_profile(&PROFILE.replace("\"p95_us\": 2000", "\"p95_us\": 2201"));
        let violations = gate(&base, &bad, &tol);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].key, "basic/lossless/hop");
        assert!(violations[0].detail.contains("2201"));
    }

    #[test]
    fn within_default_tolerance_passes() {
        let base = parse_profile(PROFILE);
        let tol = parse_tolerances(TOLERANCES).unwrap();
        // deliver has no override: 25% of 200 → up to 250 passes
        let grown = parse_profile(&PROFILE.replace("\"p95_us\": 200,", "\"p95_us\": 250,"));
        assert_eq!(gate(&base, &grown, &tol), vec![]);
        let too_big = parse_profile(&PROFILE.replace("\"p95_us\": 200,", "\"p95_us\": 251,"));
        assert_eq!(gate(&base, &too_big, &tol).len(), 1);
    }

    #[test]
    fn missing_stage_fails() {
        let base = parse_profile(PROFILE);
        let tol = parse_tolerances(TOLERANCES).unwrap();
        let gone = parse_profile(
            &PROFILE
                .replace("{\"stage\": \"deliver\", \"count\": 10, \"p50_us\": 100, \"p95_us\": 200, \"p99_us\": 210},\n", ""),
        );
        let violations = gate(&base, &gone, &tol);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].detail.contains("missing"));
    }

    #[test]
    fn new_stages_are_allowed() {
        let base = parse_profile(PROFILE);
        let tol = parse_tolerances(TOLERANCES).unwrap();
        let mut new = base.clone();
        new.insert(("basic/lossless".into(), "journal_commit".into()), 500);
        assert_eq!(gate(&base, &new, &tol), vec![]);
    }

    #[test]
    fn exact_counter_fails_when_it_drops() {
        const DASHBOARD: &str = r#"[
  {"cell": "tampered", "tampered_rows": 4, "detected": 4, "false_positives": 0}
]"#;
        let base = parse_scaling(DASHBOARD);
        let tol = parse_tolerances(TOLERANCES).unwrap();
        assert_eq!(gate(&base, &base, &tol), vec![]);
        // a growth-only gate waves a verdict counter falling to zero through
        let dropped = parse_scaling(&DASHBOARD.replace("\"detected\": 4", "\"detected\": 0"));
        let violations = gate(&base, &dropped, &tol);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].key, "tampered/detected");
        assert!(violations[0].detail.contains("4 → 0"));
        // and growth fails too, although the percent tolerance would allow none either
        let grown = parse_scaling(&DASHBOARD.replace("\"detected\": 4", "\"detected\": 5"));
        assert_eq!(gate(&base, &grown, &tol).len(), 1);
        // a non-exact counter may still fall
        let fewer =
            parse_scaling(&DASHBOARD.replace("\"tampered_rows\": 4", "\"tampered_rows\": 3"));
        assert_eq!(gate(&base, &fewer, &tol), vec![]);
    }

    #[test]
    fn report_renders_every_stage() {
        let idx = parse_profile(PROFILE);
        let tol = parse_tolerances(TOLERANCES).unwrap();
        let rendered = report(&idx, &idx, &tol);
        assert_eq!(rendered.lines().count(), 4, "header + 3 stages, no violations");
        assert!(rendered.contains("basic/lossless/hop"));
    }
}
