//! Wall-clock benchmark of the DRA4WfMS workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet|long_chain|pool_read> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with every program tracer
//! off; `--trace 1` re-drives the same work by hand, timing the calls into
//! each layer's public functions from this file set, and prints a layer
//! table plus the per-layer metrics. Either way the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Workloads,
//! metrics and the layer → end-to-end prediction table are documented in
//! `perfbench/README.md`.

mod calib;
mod hops;
mod layers;
mod pool;
mod spans;

use dra4wfms_core::prelude::*;
use std::time::Instant;

/// Hash-routed portals of every deployment the benchmark builds.
pub const PORTALS: usize = 8;
/// A run repeats its full set-up at least `SETUP_MIN_REPS` times and until
/// `SETUP_MIN_SECONDS` have passed (at most `SETUP_MAX_REPS` times);
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.0;
const SETUP_MAX_REPS: usize = 100;
/// Rows one continuous-audit pass samples.
pub const AUDIT_BATCH: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Seeded generator (splitmix64): the seed drives process ids, payload
/// values and query order; the program only ever sees the generated values.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_da4f_cafe_f00d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// Eight hex digits naming this run's process ids.
    pub fn tag(&mut self) -> String {
        format!("{:08x}", self.next_u64() as u32)
    }
}

/// Seeded value of one response field: a pure function of the seed and the
/// hop's coordinates, so the scheduler run and its hand-driven mirror
/// receive the same responses.
fn field_value(seed: u64, pid: &str, activity: &str, iter: u32, hex_len: usize) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in pid.bytes().chain([0]).chain(activity.bytes()).chain(iter.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut rng = Rng::new(h);
    let mut out = String::with_capacity(hex_len + 16);
    while out.len() < hex_len {
        out.push_str(&format!("{:016x}", rng.next_u64()));
    }
    out.truncate(hex_len);
    out
}

/// The scripted participants of every workload: Fig. 9 fields (the loop is
/// taken exactly once) and 64-byte chain payloads.
pub fn responses(seed: u64, r: &ReceivedActivity) -> Vec<(String, String)> {
    let pid = &r.report.process_id;
    let v = |len| field_value(seed, pid, &r.activity, r.iter, len);
    match r.activity.as_str() {
        "A" => vec![("attachment".into(), format!("contract-{}.pdf", v(16)))],
        "B1" => vec![("review1".into(), format!("review {}", v(24)))],
        "B2" => vec![("review2".into(), format!("review {}", v(24)))],
        "C" => {
            vec![("decision".into(), if r.iter == 0 { "insufficient" } else { "accept" }.into())]
        }
        "D" => vec![("ack".into(), format!("ack {}", v(8)))],
        _ => vec![("payload".into(), v(64))],
    }
}

/// Internal worker threads handed to the program's thread knobs
/// (`Scan::threads`, `statistics_by_status`, `AuditConfig::threads`). One:
/// a parallel call waits for its slowest worker, so on a small shared
/// virtual machine a second worker ties the call to the host's scheduling
/// of the other virtual CPU, which the single-threaded calibration kernel
/// does not see. Over ten seeds on a 2-vCPU machine, two workers gave
/// `pool_read` a run-to-run spread of 0.15 in throughput and 0.22 in p90;
/// one worker gave 0.04 and 0.06, and the same `statistics_by_status` p50.
pub fn threads() -> usize {
    1
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// What [`repeated_setup`] measured, and the set-up the run continues with.
pub struct Timed<T> {
    pub reps: usize,
    /// Median seconds as measured.
    pub raw_s: f64,
    /// Median seconds at the reference speed: each set-up scaled by the
    /// calibration pass right after it, so drift during set-up cancels out.
    pub scaled_s: f64,
    pub value: T,
}

/// Time repeated full set-ups.
pub fn repeated_setup<T>(mut f: impl FnMut() -> T) -> Timed<T> {
    let mut calib = calib::Calibration::new(calib::Kernel::Arithmetic);
    let (mut raw, mut scaled) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while raw.len() < SETUP_MIN_REPS
        || (start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && raw.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        let secs = t.elapsed().as_secs_f64();
        raw.push(secs);
        scaled.push(secs * calib.measure());
    }
    Timed {
        reps: raw.len(),
        raw_s: median(&raw),
        scaled_s: median(&scaled),
        value: last.expect("at least one set-up ran"),
    }
}

/// Per-window results: the rate and latency percentiles of one drain (or
/// one request block). A run reports the median of each over its windows,
/// so a window slowed by another tenant of the machine moves the result by
/// one rank, not by its size.
#[derive(Default)]
pub struct Windows {
    rates: Vec<f64>,
    p50: Vec<f64>,
    p90: Vec<f64>,
}

impl Windows {
    pub fn add(&mut self, ops: f64, secs: f64, latencies_ms: &mut [f64]) {
        latencies_ms.sort_by(f64::total_cmp);
        self.rates.push(ops / secs);
        self.p50.push(percentile(latencies_ms, 0.5));
        self.p90.push(percentile(latencies_ms, 0.9));
    }

    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Median rate, median p50 and median p90 over the windows.
    pub fn medians(&self) -> (f64, f64, f64) {
        (median(&self.rates), median(&self.p50), median(&self.p90))
    }

    /// Quartiles of the window rates, for the human-readable lines.
    pub fn rate_quartiles(&self) -> (f64, f64) {
        let mut r = self.rates.clone();
        r.sort_by(f64::total_cmp);
        (percentile(&r, 0.25), percentile(&r, 0.75))
    }
}

/// `p50 | p90 | p99 | n` of an ascending slice, for the human-readable lines.
pub fn spread_line(sorted: &[f64], unit: &str) -> String {
    format!(
        "p50 {:.4} | p90 {:.4} | p99 {:.4} {unit} (n = {}, {} beyond p99)",
        percentile(sorted, 0.5),
        percentile(sorted, 0.9),
        percentile(sorted, 0.99),
        sorted.len(),
        sorted.len() / 100
    )
}

/// The end-to-end metrics. Timings are scaled by the run's machine speed
/// to what they read at the reference speed (throughput divided by it,
/// times multiplied; `setup_s` comes scaled); the figures as measured stay
/// in the human-readable lines above.
pub fn end_to_end(
    setup_s: f64,
    (throughput, p50, p90): (f64, f64, f64),
    calib: &calib::Calibration,
    lines: &mut Vec<String>,
) -> Vec<(&'static str, f64, &'static str)> {
    let speed = calib.speed();
    let rss = peak_rss_mb();
    lines.push(format!("  peak_rss_mb {rss:.2} MB"));
    lines.push(format!(
        "  machine speed {speed:.4} of the reference ({} calibration passes); \
         the JSON timings below are scaled by it",
        calib.samples()
    ));
    vec![
        ("setup_s", setup_s, "s"),
        ("throughput_per_s", throughput / speed, "1/s"),
        ("latency_p50_ms", p50 * speed, "ms"),
        ("latency_p90_ms", p90 * speed, "ms"),
        ("peak_rss_mb", rss, "MB"),
    ]
}

/// Output checks: every check is one attempt, and a failed one is printed.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// What one workload run hands back to `main` for printing.
pub struct Report {
    pub checks: Checks,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
    /// `(name, value, unit)` of the JSON result's metrics.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

fn json_result(report: &Report) -> String {
    let finite = report.metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = report.checks.failed == 0 && finite;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.attempted.max(1),
        report.checks.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} | program threads {} of {} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        threads(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    );
    let report = match args.workload.as_str() {
        "fleet" => hops::run(hops::Shape::Fleet, args.seed, args.seconds, args.trace),
        "long_chain" => hops::run(hops::Shape::LongChain, args.seed, args.seconds, args.trace),
        "pool_read" => pool::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (fleet, long_chain, pool_read)");
            std::process::exit(2);
        }
    };
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", json_result(&report));
}
