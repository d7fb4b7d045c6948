//! Host-speed calibration.
//!
//! The benchmark runs on shared hosts whose speed drifts by a fifth or more
//! over minutes: on a 2-thread VM the same code measured 30 s at a time
//! gave medians a quarter apart. [`Calibration`] times two fixed kernels of
//! the benchmark's own (no code of the program) while no program process is
//! alive, and [`Calibration::host_factor`] says how much slower than the
//! reference the host ran during the run. The end-to-end times are divided
//! by it, so they read as times at the reference host speed; the raw
//! medians stay on the metadata line.
//!
//! The two kernels cover the two ways a busy host slows the program: a
//! CPU- and cache-bound one (integer parsing, hashing, sorting, a random
//! walk over 8 MiB) and an allocation-bound one (fresh pages, one `String`
//! per field, the work of a short-lived process that decodes a CSV). Either
//! alone tracks only part of the drift; the factor is the geometric mean of
//! their slowdowns.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Lines of the kernels' fixed CSV-like text.
const LINES: usize = 12_000;
/// Fields per line.
const FIELDS: usize = 8;
/// `u64` slots of the random walk (8 MiB, beyond a core's L2).
const WALK_SLOTS: usize = 1 << 20;
/// Steps of the random walk per sample.
const WALK_STEPS: usize = 200_000;
/// Bytes of fresh memory the allocation kernel touches per sample.
const FRESH_BYTES: usize = 16 << 20;

/// Median kernel times at the reference host speed, in seconds: a 2-thread
/// x86-64 VM of a shared host at 2.1 GHz while its neighbours were quiet
/// (30-second runs). On that host a busy hour measured up to twice these.
pub const REFERENCE_S: [f64; 2] = [0.00275, 0.0097];

/// The fixed kernel inputs and the times of every sample.
#[derive(Debug)]
pub struct Calibration {
    text: Vec<u8>,
    walk: Vec<u64>,
    /// Seconds per sample, one series per kernel.
    samples: [Vec<f64>; 2],
}

impl Default for Calibration {
    fn default() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut text = Vec::with_capacity(LINES * FIELDS * 4);
        for _ in 0..LINES {
            for f in 0..FIELDS {
                if f > 0 {
                    text.push(b',');
                }
                text.extend_from_slice((next() % 1000).to_string().as_bytes());
            }
            text.push(b'\n');
        }
        let walk = (0..WALK_SLOTS).map(|_| next() % WALK_SLOTS as u64).collect();
        Calibration { text, walk, samples: [Vec::new(), Vec::new()] }
    }
}

impl Calibration {
    /// Runs each kernel once and records its wall time. Call it only while
    /// no program process is alive, so that the program cannot slow it.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(cpu_kernel(black_box(&self.text), black_box(&self.walk)));
        self.samples[0].push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(alloc_kernel(black_box(&self.text)));
        self.samples[1].push(start.elapsed().as_secs_f64());
    }

    /// The kernel times in seconds: CPU kernel, then allocation kernel.
    pub fn samples(&self) -> &[Vec<f64>; 2] {
        &self.samples
    }

    /// How many times slower than [`REFERENCE_S`] the host ran: the
    /// geometric mean of the two kernels' median slowdowns. `None` before
    /// the first sample.
    pub fn host_factor(&self) -> Option<f64> {
        let cpu = median(&self.samples[0])? / REFERENCE_S[0];
        let alloc = median(&self.samples[1])? / REFERENCE_S[1];
        Some((cpu * alloc).sqrt())
    }
}

/// Digits to a number, as a CSV decoder reads an integer cell.
fn parse(field: &[u8]) -> u64 {
    field.iter().fold(0, |n, &d| n * 10 + u64::from(d.wrapping_sub(b'0')))
}

fn lines(text: &[u8]) -> impl Iterator<Item = &[u8]> {
    text.split(|&b| b == b'\n').filter(|l| !l.is_empty())
}

fn cpu_kernel(text: &[u8], walk: &[u64]) -> u64 {
    let mut counts: HashMap<(u64, u64), u32> = HashMap::new();
    for line in lines(text) {
        let mut fields = line.split(|&b| b == b',').map(parse);
        let first = fields.next().unwrap_or(0);
        let rest: u64 = fields.sum();
        *counts.entry((first, rest % 97)).or_default() += 1;
    }
    let mut keys: Vec<(u64, u64)> = counts.keys().copied().collect();
    keys.sort_unstable();
    let mut at = 0usize;
    for _ in 0..WALK_STEPS {
        at = walk[at] as usize;
    }
    keys.len() as u64 ^ at as u64
}

fn alloc_kernel(text: &[u8]) -> u64 {
    let mut fresh = vec![0u8; FRESH_BYTES];
    for i in (0..fresh.len()).step_by(4096) {
        fresh[i] = i as u8;
    }
    let mut columns: Vec<Vec<String>> = vec![Vec::new(); FIELDS];
    for line in lines(text) {
        for (i, field) in line.split(|&b| b == b',').enumerate() {
            columns[i % FIELDS].push(String::from_utf8_lossy(field).into_owned());
        }
    }
    let mut counts: HashMap<&str, u32> = HashMap::new();
    for cell in columns.iter().flatten() {
        *counts.entry(cell.as_str()).or_default() += 1;
    }
    let mut keys: Vec<&str> = counts.keys().copied().collect();
    keys.sort_unstable();
    keys.len() as u64 ^ u64::from(fresh[4096])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_factor_needs_a_sample_and_is_positive() {
        let mut c = Calibration::default();
        assert_eq!(c.host_factor(), None);
        c.sample();
        c.sample();
        assert_eq!(c.samples()[0].len(), 2);
        assert_eq!(c.samples()[1].len(), 2);
        let f = c.host_factor().unwrap();
        assert!(f.is_finite() && f > 0.0, "{f}");
    }

    #[test]
    fn kernels_are_deterministic() {
        let (a, b) = (Calibration::default(), Calibration::default());
        assert_eq!(cpu_kernel(&a.text, &a.walk), cpu_kernel(&b.text, &b.walk));
        assert_eq!(alloc_kernel(&a.text), alloc_kernel(&b.text));
    }
}
