//! A speed probe for the timed runs.
//!
//! The benchmark runs on small shared VMs. On the 2-vCPU one it was
//! written on, consecutive passes of one `sweep_ilp` run took anywhere
//! from 2.1 s to 3.9 s, in steps of up to a third that last from one
//! pass to most of an hour, with `steal` near zero: neighbours on the
//! host, invisible from inside. Medians of ten runs taken forty minutes
//! apart differed by 36 %, more than any bound the benchmark may set, so
//! on that box a wall-clock metric follows the neighbours, not the code.
//!
//! A sweep pass is CPU-bound on every pool thread, so its time can be
//! read against a fixed piece of CPU-bound work done under the same
//! conditions. A [`spin`] is that work: exact rational elimination with
//! the solver's instruction mix (128-bit multiply, gcd and remainder, a
//! fresh allocation per row). A [`Probe`] spins on as many threads as the
//! work keeps busy, all at once, before and after each piece of timed
//! work, and gives the work's time in *reference seconds*: wall seconds ×
//! [`SPIN_UNIT_S`] ÷ the mean spin time around the work.
//!
//! The serve workloads' rounds are read the same way, against one
//! spinning thread, except for what is not computing: the admission
//! timer stays as it is and the wait for the disk is left out (see
//! `serve`).

use std::time::Instant;

/// What one spin counts as, in seconds: about what it takes on the box
/// the benchmark was written on while every pool thread spins. The
/// constant only sets the unit; another value rescales every timing
/// alike and changes no comparison.
pub const SPIN_UNIT_S: f64 = 3.0e-3;

/// Spins each thread takes per sample (about 40 ms in all).
const SPINS_PER_SAMPLE: usize = 12;

const SIZE: usize = 14;
const ROUNDS: usize = 28;

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a.abs().max(1)
}

/// `a − f·b` over `(numerator, denominator)` pairs, reduced, with both
/// parts kept small by a remainder so no round can overflow.
fn fused(a: (i128, i128), f: (i128, i128), b: (i128, i128)) -> (i128, i128) {
    const KEEP: i128 = 1_000_000_007;
    let (fb_n, fb_d) = (f.0 * b.0, f.1 * b.1);
    let g = gcd(fb_n, fb_d);
    let (fb_n, fb_d) = (fb_n / g, fb_d / g);
    let (n, d) = (a.0 * fb_d - fb_n * a.1, a.1 * fb_d);
    let g = gcd(n, d) * d.signum();
    let d = d / g % KEEP;
    (n / g % KEEP, if d == 0 { 1 } else { d })
}

/// The fixed reference work; returns the wall seconds it took.
fn spin() -> f64 {
    let t0 = Instant::now();
    let mut acc = 0_i128;
    for round in 0..ROUNDS {
        let mut m: Vec<Vec<(i128, i128)>> = (0..SIZE)
            .map(|i| {
                (0..=SIZE)
                    .map(|j| (((i * 7 + j * 13 + round) % 11) as i128 - 5, 1))
                    .collect()
            })
            .collect();
        // Gauss–Jordan over the rationals, a fresh row per update.
        for k in 0..SIZE {
            let Some(p) = (k..SIZE).find(|&r| m[r][k].0 != 0) else {
                continue;
            };
            m.swap(k, p);
            let pivot = m[k][k];
            for i in 0..SIZE {
                if i == k || m[i][k].0 == 0 {
                    continue;
                }
                let f = (m[i][k].0 * pivot.1, m[i][k].1 * pivot.0);
                m[i] = (0..=SIZE).map(|j| fused(m[i][j], f, m[k][j])).collect();
            }
        }
        acc = acc.wrapping_add(m[SIZE - 1][SIZE].0);
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64()
}

/// Mean seconds per spin with `threads` threads spinning at once.
pub fn sample(threads: usize) -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let spinners: Vec<_> = (0..threads.max(1))
            .map(|_| s.spawn(|| (0..SPINS_PER_SAMPLE).map(|_| spin()).sum::<f64>()))
            .collect();
        spinners
            .into_iter()
            .map(|h| h.join().expect("spinner thread"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / (per_thread.len() * SPINS_PER_SAMPLE) as f64
}

/// How long a piece of work took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Took {
    /// Wall seconds.
    pub wall_s: f64,
    /// Reference seconds: `wall_s` at the speed of [`SPIN_UNIT_S`].
    pub ref_s: f64,
}

/// Times back-to-back pieces of work, sampling the box's speed between
/// them.
#[derive(Debug)]
pub struct Probe {
    threads: usize,
    /// The latest sample, taken when the last piece ended.
    last: f64,
    /// Every sample taken, for the report.
    pub samples: Vec<f64>,
}

impl Probe {
    /// Takes the first sample.
    pub fn start(threads: usize) -> Probe {
        let last = sample(threads);
        Probe {
            threads,
            last,
            samples: vec![last],
        }
    }

    /// Runs `work`, samples the speed again, and scales the work's wall
    /// time by the mean of the samples at its two ends.
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, Took) {
        let before = self.last;
        let t0 = Instant::now();
        let out = work();
        let wall_s = t0.elapsed().as_secs_f64();
        self.last = sample(self.threads);
        self.samples.push(self.last);
        let took = Took {
            wall_s,
            ref_s: wall_s * SPIN_UNIT_S / ((before + self.last) / 2.0),
        };
        (out, took)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_is_scaled_by_the_samples_at_its_ends() {
        let mut probe = Probe::start(2);
        let before = probe.last;
        let (out, took) = probe.time(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(out, 7);
        assert!(took.wall_s >= 0.02);
        let scale = SPIN_UNIT_S / ((before + probe.last) / 2.0);
        assert!((took.ref_s - took.wall_s * scale).abs() < 1e-12);
        assert!(scale > 0.0 && scale.is_finite(), "{scale}");
        assert_eq!(probe.samples, vec![before, probe.last]);
    }
}
