//! Error bounds on GP output distributions (§4.2–§4.3).
//!
//! Given the three empirical CDFs produced by sampling the GP posterior —
//! Ŷ′ (mean function), Y′_S (lower envelope `f̂ − z_α σ`), Y′_L (upper
//! envelope `f̂ + z_α σ`) — the GP share of the error is
//!
//! `ε_GP = sup_{[a,b]: b−a≥λ} max(ρ′_U − ρ̂′, ρ̂′ − ρ′_L)`
//!
//! with `ρ′_U = F_S(b) − F_L(a)` and `ρ′_L = max(0, F_L(b) − F_S(a))`
//! (Eqs. 3–4). This module implements the paper's **Algorithm 3**: a
//! sweep that precomputes suffix maxima of the envelope gaps and locates
//! the case split of `ρ′_L`, instead of the naive O(m²) enumeration of
//! interval endpoints. Once the three ECDFs are sorted (O(m log m), done by
//! [`Ecdf::new`]) the sweep is linear: a 3-way merge of their value arrays
//! gives the candidate endpoints, and every search the sweep needs moves
//! monotonically with the left endpoint, so two-pointer scans replace
//! binary searches.
//!
//! Interval convention: probabilities are CDF differences (`(a, b]`
//! half-open), consistent across all three CDFs, matching Algorithm 3's use
//! of `Pr[Y ≤ ·]` everywhere; the supremum over the enumerated endpoints
//! equals the two-sided-interval supremum for continuous outputs.

use udf_prob::metrics::ks;
use udf_prob::Ecdf;

/// The λ-discrepancy GP error bound ε_GP (Algorithm 3).
///
/// `y_hat`, `y_s`, `y_l` are the empirical CDFs of the mean and of the
/// lower/upper envelope functions; the envelope CDF ordering
/// `F_S ≥ F̂ ≥ F_L` holds by construction (each sample's envelope values
/// bracket its mean value).
pub fn lambda_discrepancy_bound(y_hat: &Ecdf, y_s: &Ecdf, y_l: &Ecdf, lambda: f64) -> f64 {
    debug_assert!(lambda >= 0.0);
    // Merged support + sentinels (below: all CDFs 0; above: all CDFs 1),
    // by a 3-way merge of the sorted value arrays that emits each distinct
    // value once. Once the merge has consumed every copy of a value `x`,
    // its position in each array is that ECDF's count of values ≤ x, so
    // the step arrays fall out of the same pass.
    let srcs = [y_hat.values(), y_s.values(), y_l.values()];
    let lo = srcs.iter().map(|v| v[0]).fold(f64::INFINITY, f64::min);
    let hi = srcs
        .iter()
        .map(|v| v[v.len() - 1])
        .fold(f64::NEG_INFINITY, f64::max);
    let hi_sent = hi + lambda + 1.0;
    let cap = srcs.iter().map(|v| v.len()).sum::<usize>() + 2;
    let mut vals = Vec::with_capacity(cap);
    let mut steps: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(cap));
    vals.push(lo - lambda - 1.0);
    steps.iter_mut().for_each(|f| f.push(0.0));
    let mut pos = [0usize; 3];
    while let Some(x) = srcs
        .iter()
        .zip(&pos)
        .filter_map(|(v, &p)| v.get(p).copied())
        .reduce(f64::min)
    {
        vals.push(x);
        for ((v, p), f) in srcs.iter().zip(&mut pos).zip(&mut steps) {
            while v.get(*p) == Some(&x) {
                *p += 1;
            }
            f.push(*p as f64 / v.len() as f64);
        }
    }
    vals.push(hi_sent);
    steps.iter_mut().for_each(|f| f.push(1.0));
    let [f_hat, f_s, f_l] = steps;
    let k = vals.len();

    // Suffix maxima (Algorithm 3 Step 2):
    //   sm_su[j] = max_{i ≥ j} (F_S − F̂)(v_i)   — for ρ′_U − ρ̂′
    //   sm_hl[j] = max_{i ≥ j} (F̂ − F_L)(v_i)   — for ρ̂′ − ρ′_L, case B
    let mut sm_su = vec![f64::NEG_INFINITY; k + 1];
    let mut sm_hl = vec![f64::NEG_INFINITY; k + 1];
    for j in (0..k).rev() {
        sm_su[j] = sm_su[j + 1].max(f_s[j] - f_hat[j]);
        sm_hl[j] = sm_hl[j + 1].max(f_hat[j] - f_l[j]);
    }

    // Largest index with vals[idx] <= t, by advancing `p`: every query
    // below is monotone in the left endpoint, and lo_sent <= t always.
    fn floor_idx(vals: &[f64], p: &mut usize, t: f64) -> usize {
        while *p + 1 < vals.len() && vals[*p + 1] <= t {
            *p += 1;
        }
        *p
    }

    // Sup of a right-continuous step function over { b ≥ t } combines the
    // value on t's flat segment (index floor_idx(t)) with the suffix over
    // later jump points.
    let (mut p_t, mut p_t2, mut k1) = (0usize, 0usize, 0usize);
    let mut best = 0.0f64;
    for (ai, &a) in vals.iter().enumerate() {
        let t = a + lambda; // b must satisfy b ≥ t; t grows with a
        if t > hi_sent {
            break;
        }
        let ft = floor_idx(&vals, &mut p_t, t);

        // --- ρ′_U − ρ̂′ = (F_S − F̂)(b) + (F̂ − F_L)(a), b ≥ t.
        let su_b = (f_s[ft] - f_hat[ft]).max(sm_su[ft + 1]);
        best = best.max(su_b + (f_hat[ai] - f_l[ai]));

        // --- ρ̂′ − ρ′_L = F̂(b) − F̂(a) − max(0, F_L(b) − F_S(a)), b ≥ t.
        let c = f_s[ai];
        // Case A: F_L(b) ≤ c. F_L(b) ≤ c holds for b < vals[k1] where k1 is
        // the first index with F_L > c (c grows with a, so k1 only moves
        // forward); on that region F̂ is maximized just below vals[k1]
        // (i.e. at index k1-1), subject to b ≥ t.
        while k1 < k && f_l[k1] <= c {
            k1 += 1;
        }
        if k1 > 0 {
            let b_region_top = k1 - 1; // largest index with F_L ≤ c
            if vals[b_region_top] >= t {
                best = best.max(f_hat[b_region_top] - f_hat[ai]);
            } else if k1 < k && t < vals[k1] {
                // b ∈ [t, vals[k1]) nonempty; F̂ there equals F̂(floor(t)).
                best = best.max(f_hat[ft] - f_hat[ai]);
            }
        }
        // Case B: F_L(b) > c, i.e. b ≥ vals[k1] (if any); also b ≥ t.
        if k1 < k {
            let t2 = t.max(vals[k1]);
            let f2 = floor_idx(&vals, &mut p_t2, t2);
            let hl_b = (f_hat[f2] - f_l[f2]).max(sm_hl[f2 + 1]);
            best = best.max(hl_b + (c - f_hat[ai]));
        }
    }
    best.max(0.0)
}

/// Naive O(k²) reference implementation (used by tests and available for
/// cross-checking): enumerate all candidate endpoint pairs.
pub fn lambda_discrepancy_bound_naive(y_hat: &Ecdf, y_s: &Ecdf, y_l: &Ecdf, lambda: f64) -> f64 {
    let mut v: Vec<f64> = y_hat
        .values()
        .iter()
        .chain(y_s.values())
        .chain(y_l.values())
        .copied()
        .collect();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite"));
    v.dedup();
    let lo = v[0] - lambda - 1.0;
    let hi = v[v.len() - 1] + lambda + 1.0;
    let mut vals = vec![lo];
    vals.extend_from_slice(&v);
    vals.push(hi);

    let mut best = 0.0f64;
    for (i, &a) in vals.iter().enumerate() {
        // Candidate right endpoints: later support values plus b = a + λ
        // exactly (the supremum can fall between support points when the
        // length constraint binds).
        let candidates = vals[i..].iter().copied().chain(std::iter::once(a + lambda));
        for b in candidates {
            if b - a < lambda {
                continue;
            }
            let rho_hat = y_hat.cdf(b) - y_hat.cdf(a);
            let rho_u = y_s.cdf(b) - y_l.cdf(a);
            let rho_l = (y_l.cdf(b) - y_s.cdf(a)).max(0.0);
            best = best.max(rho_u - rho_hat).max(rho_hat - rho_l);
        }
    }
    best.max(0.0)
}

/// The KS-metric GP error bound (Proposition 4.2): the KS distance between
/// Ŷ′ and each envelope output, maximized.
pub fn ks_bound(y_hat: &Ecdf, y_s: &Ecdf, y_l: &Ecdf) -> f64 {
    ks(y_hat, y_s).max(ks(y_hat, y_l))
}

/// Build the three empirical CDFs from per-sample posterior predictions.
///
/// `means[i]` and `sds[i]` are the GP posterior mean/standard deviation at
/// input sample `i`; the envelopes are `mean ∓ z·sd` (Y_S from the lower
/// envelope, Y_L from the upper).
pub fn envelope_ecdfs(means: &[f64], sds: &[f64], z: f64) -> udf_prob::Result<(Ecdf, Ecdf, Ecdf)> {
    debug_assert_eq!(means.len(), sds.len());
    let y_hat = Ecdf::new(means.to_vec())?;
    let y_s = Ecdf::new(
        means
            .iter()
            .zip(sds)
            .map(|(m, s)| m - z * s)
            .collect::<Vec<_>>(),
    )?;
    let y_l = Ecdf::new(
        means
            .iter()
            .zip(sds)
            .map(|(m, s)| m + z * s)
            .collect::<Vec<_>>(),
    )?;
    Ok((y_hat, y_s, y_l))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_triple(seed: u64, m: usize) -> (Ecdf, Ecdf, Ecdf) {
        let mut rng = StdRng::seed_from_u64(seed);
        let means: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let sds: Vec<f64> = (0..m).map(|_| rng.gen_range(0.0..1.0)).collect();
        envelope_ecdfs(&means, &sds, 2.0).unwrap()
    }

    /// Deterministic bound inputs exercising the sweep's corner cases:
    /// `m = 1`, cross-ECDF ties (grid-valued means and envelope widths),
    /// zero standard deviations, and λ = 0.
    fn recorded_case(case: u64) -> (Ecdf, Ecdf, Ecdf, f64) {
        let mut rng = StdRng::seed_from_u64(1000 + case);
        let m = [1usize, 2, 3, 5, 17, 64, 203][(case % 7) as usize];
        let grid = case.is_multiple_of(3);
        let means: Vec<f64> = (0..m)
            .map(|_| {
                let x: f64 = rng.gen_range(-3.0..3.0);
                if grid {
                    (x * 2.0).round() / 2.0
                } else {
                    x
                }
            })
            .collect();
        let sds: Vec<f64> = (0..m)
            .map(|i| {
                if case % 4 == 1 || i % 3 == 0 {
                    0.0
                } else if grid {
                    0.25 * rng.gen_range(0..3) as f64
                } else {
                    rng.gen_range(0.0..1.5)
                }
            })
            .collect();
        let lambda = [0.0, 0.1, 0.5, 0.0, 1.0, 3.0][(case % 6) as usize];
        let (h, s, l) = envelope_ecdfs(&means, &sds, 2.0).unwrap();
        (h, s, l, lambda)
    }

    /// `recorded_case(0..48)` bounds as computed by the binary-search form
    /// of Algorithm 3 this sweep replaced, as raw `f64` bits.
    const RECORDED_BOUNDS: [u64; 48] = [
        0x0000000000000000,
        0x0000000000000000,
        0x3fe5555555555555,
        0x3fd9999999999999,
        0x3fe6969696969697,
        0x0000000000000000,
        0x3fc2ea8fc377cd8e,
        0x0000000000000000,
        0x3fe0000000000000,
        0x0000000000000000,
        0x3fe3333333333334,
        0x3fe4b4b4b4b4b4b4,
        0x3fc6000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x3fe0000000000000,
        0x3fe5555555555555,
        0x0000000000000000,
        0x3fce1e1e1e1e1e20,
        0x3fd6000000000000,
        0x3fda2ae0791064e4,
        0x0000000000000000,
        0x3fe0000000000000,
        0x3fe5555555555556,
        0x3fd999999999999b,
        0x0000000000000000,
        0x3fe0800000000000,
        0x3fc38bfaf4a6768a,
        0x0000000000000000,
        0x0000000000000000,
        0x3fd5555555555555,
        0x3ff0000000000000,
        0x3fe4b4b4b4b4b4b4,
        0x0000000000000000,
        0x3fdc0f220c9c5fd7,
        0x0000000000000000,
        0x3fe0000000000000,
        0x0000000000000000,
        0x3fe999999999999a,
        0x3fd6969696969698,
        0x3fde000000000000,
        0x0000000000000000,
        0x0000000000000000,
        0x3ff0000000000000,
        0x3fe5555555555556,
        0x0000000000000000,
        0x3fde1e1e1e1e1e1f,
        0x3fe0800000000000,
    ];

    #[test]
    fn linear_sweep_reproduces_recorded_bounds_bitwise() {
        for (case, &want) in RECORDED_BOUNDS.iter().enumerate() {
            let (h, s, l, lambda) = recorded_case(case as u64);
            let got = lambda_discrepancy_bound(&h, &s, &l, lambda);
            assert_eq!(
                got.to_bits(),
                want,
                "case {case} (m={}, λ={lambda}): {got} vs recorded {}",
                h.len(),
                f64::from_bits(want)
            );
        }
    }

    #[test]
    fn zero_envelope_gives_zero_bound() {
        let means = vec![1.0, 2.0, 3.0, 4.0];
        let sds = vec![0.0; 4];
        let (h, s, l) = envelope_ecdfs(&means, &sds, 3.0).unwrap();
        assert_eq!(lambda_discrepancy_bound(&h, &s, &l, 0.0), 0.0);
        assert_eq!(ks_bound(&h, &s, &l), 0.0);
    }

    #[test]
    fn fast_matches_naive_on_random_inputs() {
        for seed in 0..20 {
            let (h, s, l) = random_triple(seed, 40);
            for &lambda in &[0.0, 0.1, 0.5, 2.0, 10.0] {
                let fast = lambda_discrepancy_bound(&h, &s, &l, lambda);
                let naive = lambda_discrepancy_bound_naive(&h, &s, &l, lambda);
                assert!(
                    (fast - naive).abs() < 1e-12,
                    "seed={seed} λ={lambda}: fast={fast} naive={naive}"
                );
            }
        }
    }

    #[test]
    fn bound_shrinks_with_lambda() {
        let (h, s, l) = random_triple(7, 60);
        let b0 = lambda_discrepancy_bound(&h, &s, &l, 0.0);
        let b1 = lambda_discrepancy_bound(&h, &s, &l, 1.0);
        let b5 = lambda_discrepancy_bound(&h, &s, &l, 5.0);
        assert!(b1 <= b0 + 1e-12);
        assert!(b5 <= b1 + 1e-12);
    }

    #[test]
    fn bound_shrinks_with_tighter_envelope() {
        let mut rng = StdRng::seed_from_u64(3);
        let means: Vec<f64> = (0..50).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let sds: Vec<f64> = (0..50).map(|_| rng.gen_range(0.1..0.5)).collect();
        let (h1, s1, l1) = envelope_ecdfs(&means, &sds, 1.0).unwrap();
        let (h3, s3, l3) = envelope_ecdfs(&means, &sds, 3.0).unwrap();
        assert!(
            lambda_discrepancy_bound(&h1, &s1, &l1, 0.1)
                <= lambda_discrepancy_bound(&h3, &s3, &l3, 0.1) + 1e-12
        );
        assert!(ks_bound(&h1, &s1, &l1) <= ks_bound(&h3, &s3, &l3) + 1e-12);
    }

    #[test]
    fn bound_dominates_any_envelope_member_discrepancy() {
        // Any Ỹ′ built from per-sample values inside [mean−zσ, mean+zσ] must
        // have λ-discrepancy from Ŷ′ within the bound (Proposition 4.1).
        let mut rng = StdRng::seed_from_u64(11);
        let means: Vec<f64> = (0..80).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let sds: Vec<f64> = (0..80).map(|_| rng.gen_range(0.05..0.6)).collect();
        let z = 2.0;
        let (h, s, l) = envelope_ecdfs(&means, &sds, z).unwrap();
        for lambda in [0.0, 0.5] {
            let bound = lambda_discrepancy_bound(&h, &s, &l, lambda);
            for trial in 0..10 {
                let mut trial_rng = StdRng::seed_from_u64(100 + trial);
                let tilde: Vec<f64> = means
                    .iter()
                    .zip(&sds)
                    .map(|(m, sd)| m + trial_rng.gen_range(-1.0..1.0) * z * sd)
                    .collect();
                let y_tilde = Ecdf::new(tilde).unwrap();
                let d = udf_prob::metrics::lambda_discrepancy(&y_tilde, &h, lambda);
                assert!(
                    d <= bound + 1e-9,
                    "λ={lambda} trial={trial}: D = {d} exceeds bound {bound}"
                );
            }
        }
    }

    #[test]
    fn ks_bound_dominates_envelope_members() {
        let (h, s, l) = random_triple(21, 60);
        let bound = ks_bound(&h, &s, &l);
        // The extreme members are the envelopes themselves (Prop. 4.2).
        assert!(udf_prob::metrics::ks(&h, &s) <= bound + 1e-15);
        assert!(udf_prob::metrics::ks(&h, &l) <= bound + 1e-15);
    }

    #[test]
    fn wide_envelope_saturates_near_one() {
        let means = vec![0.0; 30];
        let sds = vec![100.0; 30];
        let (h, s, l) = envelope_ecdfs(&means, &sds, 3.0).unwrap();
        let b = lambda_discrepancy_bound(&h, &s, &l, 0.0);
        assert!(b > 0.9, "bound = {b}");
    }
}
