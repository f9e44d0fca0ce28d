//! The host-speed reference: a fixed computation, independent of the
//! engine, timed between statements.
//!
//! The host is a share of a machine whose speed moves by ±20% within
//! seconds and over minutes, which no amount of repetition inside one run
//! averages out.
//! The reference runs on the same thread as the statements, so a slow
//! stretch of the host shows in both, and every reported time is scaled to
//! the speed at which the reference takes [`NOMINAL_MS`]. It is the
//! benchmark's own code, so a change to the engine cannot make it faster or
//! slower.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// The reference's median time, rounded, on the 2-CPU host the benchmark
/// was sized on: times are reported at that host's speed.
pub const NOMINAL_MS: f64 = 0.65;

/// The factor that scales times measured alongside `reference_ms` to the
/// nominal host speed: `NOMINAL_MS` over their median, or `1.0` when the
/// reference did not run.
pub fn scale(reference_ms: &[f64]) -> f64 {
    let m = median(reference_ms);
    if m > 0.0 {
        NOMINAL_MS / m
    } else {
        1.0
    }
}

/// Size of the reference's kernel matrix.
const N: usize = 160;

/// The reference computation, with its matrix allocated once: a fresh
/// 200 KB allocation per run would put page faults, and the host's memory
/// pressure, into every timing.
pub struct Reference {
    k: Vec<f64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            k: vec![0.0; N * N],
        }
    }
}

impl Reference {
    /// Time one run of the reference, in milliseconds: fill an `N × N`
    /// squared-exponential kernel matrix and Cholesky-factor it, the dense
    /// floating-point work Gaussian-process emulation is made of.
    pub fn time_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let k = &mut self.k;
        for i in 0..N {
            for j in 0..N {
                let d = black_box((i as f64 - j as f64) / N as f64);
                k[i * N + j] = (-0.5 * d * d / 0.01).exp() + if i == j { 1e-3 } else { 0.0 };
            }
        }
        cholesky(k);
        black_box(&k);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// In-place lower Cholesky factor of a symmetric positive-definite
/// row-major `N × N` matrix.
fn cholesky(a: &mut [f64]) {
    for j in 0..N {
        let mut d = a[j * N + j];
        for p in 0..j {
            d -= a[j * N + p] * a[j * N + p];
        }
        let d = d.sqrt();
        a[j * N + j] = d;
        for i in j + 1..N {
            let mut s = a[i * N + j];
            for p in 0..j {
                s -= a[i * N + p] * a[j * N + p];
            }
            a[i * N + j] = s / d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cholesky_reconstructs_its_input() {
        let mut a = vec![0.0; N * N];
        for i in 0..N {
            for j in 0..N {
                a[i * N + j] =
                    1.0 / (1.0 + (i as f64 - j as f64).abs()) + if i == j { N as f64 } else { 0.0 };
            }
        }
        let orig = a.clone();
        cholesky(&mut a);
        for i in 0..N {
            for j in 0..=i {
                let s: f64 = (0..=j).map(|p| a[i * N + p] * a[j * N + p]).sum();
                assert!((s - orig[i * N + j]).abs() < 1e-9, "({i}, {j}): {s}");
            }
        }
    }

    #[test]
    fn scale_is_nominal_over_the_median() {
        let v = [1.0, 3.0, 2.0];
        assert!((scale(&v) - NOMINAL_MS / 2.0).abs() < 1e-12);
        assert_eq!(scale(&[]), 1.0);
        assert!(Reference::default().time_ms() > 0.0);
    }
}
