//! Blocked batch inference (the warm fast path, §5.1).
//!
//! Per-tuple inference evaluates all `m` Monte Carlo samples against the
//! same (local or global) model. Doing that one sample at a time costs one
//! kernel-vector build and one `O(l²)` triangular solve *per sample*, plus a
//! handful of allocations per call. This module evaluates the whole tuple as
//! one blocked operation:
//!
//! 1. build the `l x m` kernel matrix `K` once (row `r` = selected training
//!    point `r` against every sample);
//! 2. accumulate all `m` posterior means as `Kᵀ α` via lane-unrolled axpy
//!    over rows;
//! 3. run one column-blocked multi-RHS forward substitution `V = L⁻¹ K`
//!    ([`Cholesky::solve_lower_in_place`]) and accumulate all `m` squared
//!    norms `‖v_c‖²` row-wise for the variances.
//!
//! **Bit-identity contract.** Every per-sample reduction preserves the
//! scalar path's order exactly: means and squared norms accumulate over
//! training rows in ascending order (the same order `dot` walks them), and
//! the multi-RHS solve performs the scalar `solve_lower` op sequence per
//! column (`k` ascending, true division by the diagonal). SIMD-style
//! unrolling happens only *across* samples, which are independent outputs.
//! So `predict_batch(xs)[c] == predict(xs[c])` bit for bit — the property
//! the digest-pinning test suites rely on.
//!
//! The contract extends to the online-tuning loop's [`PosteriorPanel`]:
//! appending a new training point to a tuple's panel (one factor row, one
//! kernel row, one `V` row, one squared-norm term, then the means again)
//! runs, for every new entry, the operation sequence a fresh build runs
//! for it, so an appended panel equals `predict_batch` on the grown
//! selection bit for bit. The panel appends only under the conditions
//! listed on the type, and rebuilds otherwise.
//!
//! [`LocalPredictorCache`] additionally skips the `O(l³)` subset
//! refactorization when consecutive tuples select the same training subset
//! from the same model state — common under clustered workloads where
//! neighboring tuples share a local neighborhood.

use crate::kernel::Kernel;
use crate::local::LocalPredictor;
use crate::model::{GpModel, Prediction};
use crate::Result;
use std::sync::Arc;
use udf_linalg::{lanes, Cholesky};

/// Reusable buffers for blocked batch prediction. One instance per worker
/// (or per sequential caller) makes steady-state inference allocation-free.
#[derive(Debug, Default, Clone)]
pub struct PredictScratch {
    /// Row-major `l x m` kernel matrix, overwritten in place by `V = L⁻¹ K`.
    kv: Vec<f64>,
    /// Per-sample mean accumulators (`m`).
    means: Vec<f64>,
    /// Per-sample squared-norm accumulators (`m`).
    sq: Vec<f64>,
    /// Per-sample prior variances `k(q, q)` (`m`).
    kqq: Vec<f64>,
}

/// Shared core of [`GpModel::predict_batch_with`] and
/// [`LocalPredictor::predict_batch_with`].
///
/// `indices: None` selects every training row (global inference);
/// `Some(idx)` restricts rows and weights to the subset, in subset order —
/// exactly the rows/weights the scalar paths walk. `chol` must be the
/// factor over the chosen rows. When `kernel_rows` is given, the raw kernel
/// matrix `K` is copied into it before the solve overwrites it. Dimension
/// checks are the caller's job.
#[allow(clippy::too_many_arguments)] // internal seam shared by two thin wrappers
pub(crate) fn batch_predict_core(
    kernel: &dyn Kernel,
    xs: &[Vec<f64>],
    indices: Option<&[usize]>,
    alpha: &[f64],
    chol: &Cholesky,
    queries: &[Vec<f64>],
    scratch: &mut PredictScratch,
    kernel_rows: Option<&mut Vec<f64>>,
    out: &mut Vec<Prediction>,
) -> Result<()> {
    let l = chol.dim();
    let m = queries.len();
    out.clear();
    if m == 0 {
        return Ok(());
    }

    // 1. Kernel matrix K (l x m): row r = training point r vs every sample.
    scratch.kv.clear();
    scratch.kv.resize(l * m, 0.0);
    for r in 0..l {
        let xi = match indices {
            Some(idx) => &xs[idx[r]],
            None => &xs[r],
        };
        // One virtual call per row; `eval_row` is bit-identical to the
        // per-entry `eval` loop it replaces (trait contract).
        kernel.eval_row(xi, queries, &mut scratch.kv[r * m..(r + 1) * m]);
    }
    if let Some(raw) = kernel_rows {
        raw.clear();
        raw.extend_from_slice(&scratch.kv);
    }

    // 2. Means: Kᵀ α.
    accumulate_means(&scratch.kv, m, indices, alpha, &mut scratch.means);

    // 3. Variances: V = L⁻¹ K in place, then ‖v_c‖² accumulated row-by-row.
    chol.solve_lower_in_place(&mut scratch.kv, m)?;
    scratch.sq.clear();
    scratch.sq.resize(m, -0.0); // same fold identity as `dot(v, v)`
    for r in 0..l {
        lanes::sq_accum(&scratch.kv[r * m..(r + 1) * m], &mut scratch.sq);
    }

    scratch.kqq.clear();
    scratch
        .kqq
        .extend(queries.iter().map(|q| kernel.eval(q, q)));
    emit_predictions(scratch, out);
    Ok(())
}

/// Means `Kᵀ α` from the row-major `l x m` kernel panel `k`, accumulated
/// row-by-row (training index ascending — the same reduction order as the
/// scalar `dot(k, α)`). Accumulators start at -0.0, the additive identity
/// `Iterator::sum` folds floats from: a far query whose kernel row
/// underflows to zero against a negative weight sums to -0.0 on the scalar
/// path, and +0.0 + -0.0 = +0.0 would break bit-identity exactly there.
fn accumulate_means(
    k: &[f64],
    m: usize,
    indices: Option<&[usize]>,
    alpha: &[f64],
    means: &mut Vec<f64>,
) {
    means.clear();
    means.resize(m, -0.0);
    for (r, row) in k.chunks_exact(m).enumerate() {
        let a = match indices {
            Some(idx) => alpha[idx[r]],
            None => alpha[r],
        };
        lanes::axpy(a, row, means);
    }
}

/// Posterior `(mean, var)` per sample from the scratch accumulators.
fn emit_predictions(scratch: &PredictScratch, out: &mut Vec<Prediction>) {
    out.clear();
    out.extend(scratch.means.iter().zip(&scratch.sq).zip(&scratch.kqq).map(
        |((&mean, &sq), &kqq)| Prediction {
            mean,
            var: (kqq - sq).max(0.0),
        },
    ));
}

/// How [`PosteriorPanel::predict_local`] produced its predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelStep {
    /// The new training point was appended to the panel in O(l·m).
    Appended,
    /// The panel was rebuilt; `cache_hit` reports whether the subset factor
    /// came from the [`LocalPredictorCache`].
    Rebuilt {
        /// The subset factor was reused from the cache.
        cache_hit: bool,
    },
}

/// Tuple-scoped posterior panel for the online-tuning loop (§5.2).
///
/// Online tuning predicts the same `m` samples again after every training
/// point it adds. When the point's arrival grows the local selection by
/// just that point, everything but the means extends by one row: the
/// subset factor by one [`Cholesky::push_row`], the kernel panel by one
/// `eval_row`, `V = L⁻¹ K` by one forward-substitution row
/// ([`Cholesky::solve_lower_tail_in_place`]) and each `‖v_c‖²` by one
/// square. The means are recomputed from the stored kernel panel with the
/// new weights. An append costs O(l·m) instead of the O(l²·m) solve plus
/// `l·m` kernel evaluations of a rebuild.
///
/// **Bit-identity contract.** An append happens only when its result equals
/// a fresh [`LocalPredictor::predict_batch`] bit for bit:
///
/// * the model is the same instance, grown by exactly one
///   [`GpModel::add_point`] since the panel was computed (no eviction,
///   hyperparameter or jitter change);
/// * the sample block is the same (the caller calls
///   [`PosteriorPanel::reset`] whenever it draws new samples);
/// * the new selection is the old one plus the new (last) index;
/// * the subset factor was built at the model's base jitter, and the new
///   pivot is positive (otherwise a fresh factorization would escalate the
///   jitter).
///
/// Factor rows, kernel rows and `V` rows depend only on earlier rows, and
/// each appended row runs the operation sequence a fresh build runs for
/// it; the squared norms and means accumulate over rows in the same
/// ascending order. In every other case the panel rebuilds: the subset
/// factor comes through the [`LocalPredictorCache`] and the prediction runs
/// the [`LocalPredictor::predict_batch_with`] code, keeping a copy of the
/// kernel panel. `V` lives in the panel's own [`PredictScratch`];
/// the raw kernel panel is the one extra `l x m` buffer.
#[derive(Debug, Default, Clone)]
pub struct PosteriorPanel {
    /// Fingerprint of the model state the panel was computed against.
    model_id: u64,
    epoch: u64,
    /// Selected training indices, in subset order.
    indices: Vec<usize>,
    /// Subset factor over `indices`; `None` when the panel cannot be
    /// extended (reset, escalated jitter, or lent out).
    chol: Option<Arc<Cholesky>>,
    /// Raw row-major `l x m` kernel panel `K`.
    kernel_rows: Vec<f64>,
    /// `V = L⁻¹ K`, means, `‖v‖²` and `k(q, q)` of the current panel.
    scratch: PredictScratch,
}

impl PosteriorPanel {
    /// Empty panel; the first prediction rebuilds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget the panel so the next prediction rebuilds. Call whenever the
    /// sample block changes.
    pub fn reset(&mut self) {
        self.chol = None;
    }

    /// Lend the panel's buffers to a one-shot prediction
    /// ([`GpModel::predict_batch_with`],
    /// [`LocalPredictor::predict_batch_with`]), which overwrites them; the
    /// panel is reset.
    pub fn scratch_mut(&mut self) -> &mut PredictScratch {
        self.reset();
        &mut self.scratch
    }

    /// Predict `queries` against the training subset `indices` of `model`,
    /// appending the model's newest point to the panel when that is
    /// bit-identical to a rebuild (see the type docs) and rebuilding through
    /// `cache` otherwise. Clears `out` and fills it with one prediction per
    /// query; identical to [`LocalPredictor::predict_batch_with`] either way.
    pub fn predict_local(
        &mut self,
        model: &GpModel,
        indices: &[usize],
        queries: &[Vec<f64>],
        cache: &mut LocalPredictorCache,
        out: &mut Vec<Prediction>,
    ) -> Result<PanelStep> {
        if self.try_append(model, indices, queries, out) {
            return Ok(PanelStep::Appended);
        }
        self.reset();
        let (lp, cache_hit) = cache.get_or_build(model, indices)?;
        lp.predict_batch_keeping(queries, &mut self.scratch, Some(&mut self.kernel_rows), out)?;
        self.model_id = model.model_id();
        self.epoch = model.epoch();
        self.indices.clear();
        self.indices.extend_from_slice(indices);
        self.chol = (lp.factor_jitter() == model.jitter()).then(|| Arc::clone(lp.factor_arc()));
        Ok(PanelStep::Rebuilt { cache_hit })
    }

    /// The O(l·m) append; `false` when its preconditions do not hold.
    fn try_append(
        &mut self,
        model: &GpModel,
        indices: &[usize],
        queries: &[Vec<f64>],
        out: &mut Vec<Prediction>,
    ) -> bool {
        let Some(chol) = self.chol.as_mut() else {
            return false;
        };
        let l = self.indices.len();
        let n = model.len();
        let m = queries.len();
        if self.model_id != model.model_id()
            || !model.grew_from(self.epoch)
            || m != self.scratch.kqq.len()
            || indices.len() != l + 1
            || indices[..l] != self.indices[..]
            || indices[l] != n - 1
        {
            return false;
        }
        let (xs, kernel) = (model.inputs(), model.kernel());
        let x_new = &xs[n - 1];
        // Row l of the subset covariance exactly as `LocalPredictor::new`
        // assembles it (`from_symmetric_fn` evaluates the lower triangle,
        // `factor_with_jitter` adds a positive jitter to the diagonal).
        let mut a_row: Vec<f64> = self
            .indices
            .iter()
            .map(|&j| kernel.eval(x_new, &xs[j]))
            .collect();
        let mut kss = kernel.eval(x_new, x_new);
        if model.jitter() > 0.0 {
            kss += model.jitter();
        }
        a_row.push(kss);
        let chol = Arc::make_mut(chol);
        if chol.push_row(&a_row).is_err() {
            return false;
        }

        debug_assert_eq!(self.kernel_rows.len(), l * m);
        debug_assert_eq!(self.scratch.kv.len(), l * m);
        self.kernel_rows.resize((l + 1) * m, 0.0);
        let k_new = &mut self.kernel_rows[l * m..];
        kernel.eval_row(x_new, queries, k_new);
        self.scratch.kv.extend_from_slice(k_new);
        chol.solve_lower_tail_in_place(&mut self.scratch.kv, m, l)
            .expect("V has one solved row per factor row before the new one");
        lanes::sq_accum(&self.scratch.kv[l * m..], &mut self.scratch.sq);

        self.indices.push(n - 1);
        self.epoch = model.epoch();
        accumulate_means(
            &self.kernel_rows,
            m,
            Some(&self.indices),
            model.alpha(),
            &mut self.scratch.means,
        );
        emit_predictions(&self.scratch, out);
        true
    }
}

/// One-entry cache of the last subset factorization, keyed by
/// `(model_id, epoch, indices)`.
///
/// Consecutive tuples whose sample boxes select the same training subset —
/// the common case on clustered or slowly-drifting inputs once the model
/// stops growing — reuse the `O(l³)` Cholesky factor instead of rebuilding
/// it. The `(model_id, epoch)` fingerprint makes a stale hit impossible:
/// any model mutation bumps the epoch, and distinct models never share an
/// id, so cross-model or post-update reuse misses by construction.
#[derive(Debug, Default, Clone)]
pub struct LocalPredictorCache {
    model_id: u64,
    epoch: u64,
    indices: Vec<usize>,
    chol: Option<Arc<Cholesky>>,
    jitter: f64,
    hits: u64,
    misses: u64,
}

impl LocalPredictorCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Return a predictor for `indices` on `model`, reusing the cached
    /// factor when the selection and model state match. The boolean is
    /// `true` on a cache hit.
    pub fn get_or_build<'m>(
        &mut self,
        model: &'m GpModel,
        indices: &[usize],
    ) -> Result<(LocalPredictor<'m>, bool)> {
        if let Some(chol) = &self.chol {
            if self.model_id == model.model_id()
                && self.epoch == model.epoch()
                && self.indices == indices
            {
                self.hits += 1;
                return Ok((
                    LocalPredictor::from_cached(
                        model,
                        indices.to_vec(),
                        Arc::clone(chol),
                        self.jitter,
                    ),
                    true,
                ));
            }
        }
        self.misses += 1;
        let lp = LocalPredictor::new(model, indices.to_vec())?;
        self.model_id = model.model_id();
        self.epoch = model.epoch();
        self.indices.clear();
        self.indices.extend_from_slice(indices);
        self.chol = Some(Arc::clone(lp.factor_arc()));
        self.jitter = lp.factor_jitter();
        Ok((lp, false))
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::SquaredExponential;
    use crate::local::select_local;
    use udf_spatial::BoundingBox;

    fn model(n: usize) -> GpModel {
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 0.6)), 1);
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 * 0.31]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] * 1.3).sin()).collect();
        m.fit(xs, ys).unwrap();
        m
    }

    #[test]
    fn global_batch_bit_identical_to_scalar() {
        let m = model(40);
        let queries: Vec<Vec<f64>> = (0..97).map(|i| vec![i as f64 * 0.13 - 1.0]).collect();
        let batch = m.predict_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, b) in queries.iter().zip(&batch) {
            let s = m.predict(q).unwrap();
            assert_eq!(s.mean.to_bits(), b.mean.to_bits());
            assert_eq!(s.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    fn local_batch_bit_identical_to_scalar() {
        let m = model(60);
        let qbox = BoundingBox::new(vec![2.0], vec![4.0]);
        let sel = select_local(&m, &qbox, 1e-5).unwrap();
        let lp = LocalPredictor::new(&m, sel.indices).unwrap();
        let queries: Vec<Vec<f64>> = (0..64).map(|i| vec![2.0 + i as f64 * 2.0 / 63.0]).collect();
        let batch = lp.predict_batch(&queries).unwrap();
        for (q, b) in queries.iter().zip(&batch) {
            let s = lp.predict(q).unwrap();
            assert_eq!(s.mean.to_bits(), b.mean.to_bits());
            assert_eq!(s.var.to_bits(), b.var.to_bits());
        }
    }

    #[test]
    fn empty_query_batch_is_empty() {
        let m = model(8);
        assert!(m.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn cache_hits_on_repeat_and_invalidates_on_mutation() {
        let m0 = model(30);
        let indices: Vec<usize> = (5..20).collect();
        let other: Vec<usize> = (0..12).collect();
        let mut cache = LocalPredictorCache::new();

        let (_, hit) = cache.get_or_build(&m0, &indices).unwrap();
        assert!(!hit);
        let (lp, hit) = cache.get_or_build(&m0, &indices).unwrap();
        assert!(hit, "same model+selection must hit");
        // A hit must produce the same factor bit-for-bit.
        let fresh = LocalPredictor::new(&m0, indices.clone()).unwrap();
        for (a, b) in lp
            .factor_arc()
            .lower()
            .as_slice()
            .iter()
            .zip(fresh.factor_arc().lower().as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        // Different selection misses.
        let (_, hit) = cache.get_or_build(&m0, &other).unwrap();
        assert!(!hit);

        // Model mutation bumps the epoch and invalidates.
        let mut m1 = model(30);
        let (_, hit) = cache.get_or_build(&m1, &other).unwrap();
        assert!(!hit, "different model id must miss");
        let (_, hit) = cache.get_or_build(&m1, &other).unwrap();
        assert!(hit);
        m1.add_point(vec![50.0], 0.3).unwrap();
        let (_, hit) = cache.get_or_build(&m1, &other).unwrap();
        assert!(!hit, "mutated model must miss");
        assert_eq!(cache.stats(), (2, 4));
    }

    fn bits(preds: &[Prediction]) -> Vec<(u64, u64)> {
        preds
            .iter()
            .map(|p| (p.mean.to_bits(), p.var.to_bits()))
            .collect()
    }

    /// Predict through the panel and check the result against a fresh
    /// `LocalPredictor::predict_batch`, bit for bit.
    fn panel_step(
        panel: &mut PosteriorPanel,
        cache: &mut LocalPredictorCache,
        m: &GpModel,
        sel: &[usize],
        queries: &[Vec<f64>],
    ) -> PanelStep {
        let mut out = Vec::new();
        let step = panel
            .predict_local(m, sel, queries, cache, &mut out)
            .unwrap();
        let fresh = LocalPredictor::new(m, sel.to_vec())
            .unwrap()
            .predict_batch(queries)
            .unwrap();
        assert_eq!(
            bits(&out),
            bits(&fresh),
            "{step:?} differs from a fresh build"
        );
        step
    }

    #[test]
    fn panel_appends_match_fresh_batch_bitwise() {
        let mut m = model(12);
        // 150 samples: partial 64-column solve panels and 4-lane remainders.
        let queries: Vec<Vec<f64>> = (0..150).map(|i| vec![0.5 + i as f64 * 0.021]).collect();
        let (mut panel, mut cache) = (PosteriorPanel::new(), LocalPredictorCache::new());
        let mut sel: Vec<usize> = (2..9).collect();
        let rebuilt = PanelStep::Rebuilt { cache_hit: false };
        assert_eq!(
            panel_step(&mut panel, &mut cache, &m, &sel, &queries),
            rebuilt
        );
        for k in 0..8 {
            let x = 0.55 + 0.37 * k as f64;
            m.add_point(vec![x], (x * 1.3).sin()).unwrap();
            sel.push(m.len() - 1);
            let step = panel_step(&mut panel, &mut cache, &m, &sel, &queries);
            assert_eq!(step, PanelStep::Appended, "append {k}");
        }

        // A selection that is not old + newest rebuilds.
        m.add_point(vec![1.01], 0.2).unwrap();
        sel.remove(0);
        sel.push(m.len() - 1);
        assert_eq!(
            panel_step(&mut panel, &mut cache, &m, &sel, &queries),
            rebuilt
        );
        // Eviction (then growth) rebuilds.
        m.remove_oldest().unwrap();
        m.add_point(vec![2.02], 0.3).unwrap();
        let mut sel: Vec<usize> = (3..m.len() - 1).collect();
        assert_eq!(
            panel_step(&mut panel, &mut cache, &m, &sel, &queries),
            rebuilt
        );
        m.add_point(vec![2.71], 0.1).unwrap();
        sel.push(m.len() - 1);
        let step = panel_step(&mut panel, &mut cache, &m, &sel, &queries);
        assert_eq!(step, PanelStep::Appended);
        // A hyperparameter change (then growth) rebuilds.
        let mut theta = m.kernel().params();
        theta[1] += 0.1;
        m.set_hyperparams(&theta).unwrap();
        m.add_point(vec![0.77], 0.4).unwrap();
        sel.push(m.len() - 1);
        assert_eq!(
            panel_step(&mut panel, &mut cache, &m, &sel, &queries),
            rebuilt
        );
        // A new sample block after `reset` rebuilds; the cache still serves
        // the factor.
        panel.reset();
        let step = panel_step(&mut panel, &mut cache, &m, &sel, &queries[..77]);
        assert_eq!(step, PanelStep::Rebuilt { cache_hit: true });
        // Lending the buffers to a one-shot prediction resets the panel.
        m.add_point(vec![1.5], 0.0).unwrap();
        sel.push(m.len() - 1);
        let mut out = Vec::new();
        m.predict_batch_with(&queries[..77], panel.scratch_mut(), &mut out)
            .unwrap();
        assert_eq!(
            panel_step(&mut panel, &mut cache, &m, &sel, &queries[..77]),
            rebuilt
        );
    }

    #[test]
    fn panel_rebuilds_when_jitter_would_escalate() {
        // Zero base jitter and σ_f = 1: a duplicate of the only selected
        // point has pivot 1 − 1·1 = 0 exactly, so a fresh subset factor
        // escalates the jitter and the panel must not append.
        let mut m = GpModel::new(Box::new(SquaredExponential::new(1.0, 0.6)), 1)
            .with_jitter(0.0)
            .unwrap();
        m.fit(vec![vec![0.0], vec![3.0]], vec![0.1, -0.2]).unwrap();
        let queries: Vec<Vec<f64>> = (0..9).map(|i| vec![2.5 + i as f64 * 0.1]).collect();
        let (mut panel, mut cache) = (PosteriorPanel::new(), LocalPredictorCache::new());
        let rebuilt = PanelStep::Rebuilt { cache_hit: false };
        let mut sel = vec![1];
        assert_eq!(
            panel_step(&mut panel, &mut cache, &m, &sel, &queries),
            rebuilt
        );
        m.add_point(vec![3.0], -0.2).unwrap();
        sel.push(m.len() - 1);
        assert_eq!(
            panel_step(&mut panel, &mut cache, &m, &sel, &queries),
            rebuilt
        );
        // The escalated factor is not at the base jitter: the next point
        // rebuilds too, even though its pivot would be positive.
        m.add_point(vec![3.3], 0.05).unwrap();
        sel.push(m.len() - 1);
        assert_eq!(
            panel_step(&mut panel, &mut cache, &m, &sel, &queries),
            rebuilt
        );
    }

    #[test]
    fn grew_from_tracks_single_appends_only() {
        let mut m = model(5);
        let e = m.epoch();
        m.add_point(vec![7.0], 0.1).unwrap();
        assert!(m.grew_from(e));
        let e = m.epoch();
        m.add_point(vec![7.5], 0.1).unwrap();
        m.add_point(vec![8.0], 0.1).unwrap();
        assert!(!m.grew_from(e), "two appends");
        let e = m.epoch();
        m.remove_oldest().unwrap();
        assert!(!m.grew_from(e));
        let xs = m.inputs().to_vec();
        let ys = m.targets().to_vec();
        let e = m.epoch();
        m.fit(xs, ys).unwrap();
        assert!(!m.grew_from(e), "a refit is not an append");
    }

    #[test]
    fn epoch_tracks_all_mutations() {
        let mut m = model(10);
        let e0 = m.epoch();
        m.add_point(vec![9.9], 0.1).unwrap();
        let e1 = m.epoch();
        assert!(e1 > e0);
        m.remove_oldest().unwrap();
        let e2 = m.epoch();
        assert!(e2 > e1);
        let theta = m.kernel().params();
        m.set_hyperparams(&theta).unwrap();
        assert!(m.epoch() > e2);
        // Distinct models never share an id.
        assert_ne!(model(3).model_id(), model(3).model_id());
    }

    #[test]
    fn half_value_distance_cached_and_invalidated() {
        let mut m = model(10);
        let d0 = m.half_value_distance().expect("isotropic");
        assert_eq!(
            d0.to_bits(),
            m.half_value_distance().unwrap().to_bits(),
            "cached value must be stable"
        );
        // Doubling the lengthscale doubles the half-value distance.
        let mut theta = m.kernel().params();
        theta[1] += std::f64::consts::LN_2; // params are log-scale
        m.set_hyperparams(&theta).unwrap();
        let d1 = m.half_value_distance().unwrap();
        assert!(
            (d1 / d0 - 2.0).abs() < 1e-9,
            "expected ~2x after doubling lengthscale, got {}",
            d1 / d0
        );
    }
}
