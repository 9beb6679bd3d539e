//! Machine-speed calibration. The benchmark shares its machine with other
//! tenants, and the host moves every wall-clock figure by 20% or more over
//! minutes. A fixed kernel written here, independent of the program's code,
//! is timed once at the start of each window of the timed loop (a drain or
//! a request block), at most four times a second; and once after each
//! set-up. Its median rate against its reference rate over the loop is the
//! run's machine speed, and the timed end-to-end metrics are scaled by it
//! to what they read at the reference speed. Each set-up is scaled by the
//! pass that follows it.
//!
//! The kernel mixes what the program spends its time on: integer multiply
//! chains (field arithmetic), string comparison and sorting, binary search
//! and byte hashing (XML trees, canonical bytes, the pool's keys). On
//! `pool_read` it also starts and joins threads, because the pool starts
//! one scoped worker per scanned region, even with one thread, and the
//! read path scans on every request. Thread start-up cost moves with the
//! host's scheduling independently of the arithmetic: between two ten-run
//! sets 20 minutes apart, `pool_read`'s MapReduce p50, mostly thread
//! start-up, halved (0.42 to 0.21 ms), while its arithmetic-bound audit
//! passes held and the arithmetic kernel moved by under 5%. The hop
//! workloads start a thread in few of their calls: scaling them by thread
//! start-ups too moved their medians by 10–21% between two sets in the
//! other direction. Its data is built once and it allocates nothing on the
//! heap while it runs, apart from the threads it starts, so the state of
//! the program's heap cannot change its rate.

use crate::median;
use std::hint::black_box;
use std::time::Instant;

const SAMPLE_EVERY_S: f64 = 0.25;
const KEYS: usize = 4096;
/// Threads started and joined per `WithThreads` pass. Between two ten-run
/// sets `pool_read`'s raw throughput rose 45% while starting a thread got
/// 1.8 times cheaper (57 to 32 us) and the arithmetic held: so thread
/// start-up is about two thirds of `pool_read`'s time when it is slow, and
/// 112 starts make it the same share of a pass.
const SPAWNS: u64 = 112;

/// Which kernel a speed is read from.
#[derive(Clone, Copy)]
pub enum Kernel {
    /// Arithmetic, sorting, search and hashing: the hop workloads and every
    /// set-up.
    Arithmetic,
    /// The same plus thread start-ups: `pool_read`'s timed loop.
    WithThreads,
}

impl Kernel {
    /// Passes per second at the reference speed: about the median rate on
    /// the 2-core machine the bounds in `BENCHMARK.json` were measured on.
    fn reference_rate(self) -> f64 {
        match self {
            Kernel::Arithmetic => 350.0,
            Kernel::WithThreads => 130.0,
        }
    }
}

pub struct Calibration {
    kernel: Kernel,
    rates: Vec<f64>,
    last: Option<Instant>,
    keys: Vec<String>,
    order: Vec<u32>,
}

impl Calibration {
    pub fn new(kernel: Kernel) -> Calibration {
        let keys = (0..KEYS as u64)
            .map(|i| format!("doc/{:016x}/{:06}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15), i))
            .collect();
        Calibration {
            kernel,
            rates: Vec::new(),
            last: None,
            keys,
            order: (0..KEYS as u32).collect(),
        }
    }

    /// Time one kernel pass if a quarter second has passed since the last.
    pub fn tick(&mut self) {
        if self.last.is_some_and(|t| t.elapsed().as_secs_f64() < SAMPLE_EVERY_S) {
            return;
        }
        self.measure();
    }

    /// Time one kernel pass now; return the machine speed it shows.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.arithmetic());
        if let Kernel::WithThreads = self.kernel {
            for i in 0..SPAWNS {
                black_box(std::thread::scope(|s| s.spawn(move || i).join().expect("joined")));
            }
        }
        let rate = 1.0 / t.elapsed().as_secs_f64();
        self.rates.push(rate);
        self.last = Some(Instant::now());
        rate / self.kernel.reference_rate()
    }

    /// Machine speed against the reference (above 1: faster).
    pub fn speed(&self) -> f64 {
        median(&self.rates) / self.kernel.reference_rate()
    }

    pub fn samples(&self) -> usize {
        self.rates.len()
    }

    /// One fixed pass of the arithmetic kernel.
    fn arithmetic(&mut self) -> u64 {
        let mut acc = black_box(0x5eed_u128) | 1;
        for i in 0..100_000u128 {
            acc = (acc * 0x9e37_79b9_7f4a_7c15 + i) % 0xffff_ffff_ffff_ffc5;
        }
        // unsort, then sort the keys by content through the index array
        for (i, slot) in self.order.iter_mut().enumerate() {
            *slot = (i as u32).wrapping_mul(2_654_435_761) % KEYS as u32;
        }
        let keys = &self.keys;
        self.order.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let mut h = acc as u64;
        for k in keys {
            let at =
                self.order.binary_search_by(|&i| keys[i as usize].as_str().cmp(k)).unwrap_or(0);
            h ^= at as u64;
            for b in k.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}
