//! Query execution: UDF projection and UDF selection over relations.
//!
//! Two execution modes share one evaluation substrate:
//!
//! * the original tuple-at-a-time mode ([`Executor::project`] /
//!   [`Executor::select`]), driven by a caller-supplied RNG;
//! * a **batch-parallel** mode ([`Executor::project_batch`] /
//!   [`Executor::select_batch`]) built on the shared two-phase core
//!   [`udf_core::sched::BatchScheduler`]: read-only GP inference (or MC
//!   sampling) fans out across the persistent worker pool, and only tuples
//!   that miss the ε_GP budget take the sequential model-mutating path.
//!   Per-tuple RNGs derive from [`mix_seed`]`(seed, 0, i)`, so results are
//!   byte-identical for any worker count. On the MC path (and on the GP
//!   path once the model is warm) they are also identical to a sequential
//!   evaluation with the same per-tuple seeds; while the model is still
//!   being tuned, accepted fast-path rows are inferred against the
//!   batch-start model rather than each predecessor's tuning, exactly like
//!   [`udf_core::parallel::ParallelOlgapro`].

use crate::relation::{Relation, Tuple, UdfCall};
use crate::Result;
use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_core::config::{AccuracyRequirement, ModelBudget, OlgaproConfig};
use udf_core::filtering::{gp_filtered, mc_eval_tuple, mc_filtered, FilterDecision, Predicate};
use udf_core::olgapro::{InferScratch, Olgapro, OlgaproMetrics};
use udf_core::output::{GpOutput, OutputDistribution};
use udf_core::sched::{mix_seed, BatchOps, BatchScheduler, BatchStats, Verdict};
use udf_core::McEvaluator;
use udf_prob::InputDistribution;

/// How UDF outputs are computed per tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalStrategy {
    /// Direct Monte Carlo sampling (Algorithm 1).
    Mc,
    /// OLGAPRO (Algorithm 5). State (the GP model) persists across tuples,
    /// which is where the online speedup comes from.
    Gp,
}

/// Execution counters for reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Tuples examined.
    pub tuples_in: u64,
    /// Tuples emitted (survived filters).
    pub tuples_out: u64,
    /// UDF invocations across all tuples.
    pub udf_calls: u64,
    /// Tuples evaluated at a degraded (achieved) error bound because the
    /// GP model cap blocked further online tuning — nonzero only when a
    /// cap is set via [`Executor::with_model_cap`].
    pub cap_hits: u64,
    /// Tuples fully served by the parallel read-only fast path (batch
    /// modes; fed from [`BatchStats`]).
    pub fast_path: u64,
    /// Tuples that took the sequential model-mutating slow path —
    /// rerouted batch tuples plus every tuple of the tuple-at-a-time
    /// modes ([`Executor::project`] / [`Executor::select`] /
    /// [`Executor::select_seeded`], which always run the full path).
    pub slow_path: u64,
}

/// One output row of a UDF projection.
#[derive(Debug, Clone)]
pub struct ProjectedTuple {
    /// Index of the source tuple in the input relation.
    pub source: usize,
    /// The UDF output distribution.
    pub output: OutputDistribution,
    /// Tuple-existence probability (1 unless a predicate truncated it).
    pub tep: f64,
}

/// Executes UDF operators over relations with a chosen strategy.
///
/// The executor owns one OLGAPRO instance per query (the model warms up
/// across tuples); construct a fresh executor per (query, UDF) pair. The
/// UDF is captured at construction and is what every method evaluates —
/// the `call` passed to the relation-level methods must be the one the
/// executor was built for (it contributes the argument/column bindings;
/// its UDF handle is the same shared black box).
///
/// Cloning snapshots the executor — including its warmed GP evaluator, if
/// any — so a post-warmup state can be captured once and restored per
/// execution (the prepared-statement warm-reuse path).
#[derive(Clone, Debug)]
pub struct Executor {
    strategy: EvalStrategy,
    accuracy: AccuracyRequirement,
    udf: udf_core::udf::BlackBoxUdf,
    olgapro: Option<Olgapro>,
    stats: QueryStats,
}

impl Executor {
    /// Build an executor for one UDF call.
    ///
    /// `output_range` is the caller's estimate of the UDF output spread
    /// (used to scale Γ and λ for the GP path).
    pub fn new(
        strategy: EvalStrategy,
        accuracy: AccuracyRequirement,
        call: &UdfCall,
        output_range: f64,
    ) -> Result<Self> {
        let olgapro = match strategy {
            EvalStrategy::Mc => None,
            EvalStrategy::Gp => {
                let cfg = OlgaproConfig::new(accuracy, output_range)?;
                Some(Olgapro::new(call.udf.clone(), cfg))
            }
        };
        Ok(Executor {
            strategy,
            accuracy,
            udf: call.udf.clone(),
            olgapro,
            stats: QueryStats::default(),
        })
    }

    /// Cap the GP model at `n` training points under the given budget
    /// policy. **`0` is the uncapped sentinel (the default)** — on long
    /// relations an uncapped model makes per-tuple inference O(m²) and
    /// retraining O(m³) in the model size m. Nonzero caps below the GP
    /// bootstrap size are rejected; the MC strategy ignores the cap.
    ///
    /// Capped runs accept over-budget tuples at their *achieved* error
    /// bound (attached to every output row) and count them in
    /// [`QueryStats::cap_hits`].
    pub fn with_model_cap(mut self, n: usize, budget: ModelBudget) -> Result<Self> {
        if let Some(olga) = &mut self.olgapro {
            olga.set_model_cap(n, budget)?;
        }
        Ok(self)
    }

    /// Cap the GP online-tuning budget at `n` training points per tuple
    /// (engine default 10; see [`Olgapro::set_tuning_budget`]). Small
    /// budgets spread model growth evenly across a batch instead of
    /// letting the first fresh-region tuples exhaust the model cap — the
    /// knob udf-join's strided warmup uses. Rejects 0; the MC strategy
    /// ignores it.
    pub fn with_tuning_budget(mut self, n: usize) -> Result<Self> {
        if let Some(olga) = &mut self.olgapro {
            olga.set_tuning_budget(n)?;
        }
        Ok(self)
    }

    /// Wire observability: the executor's OLGAPRO instance (if any)
    /// registers its `olgapro.*` handles in `reg`. Purely observational —
    /// results are byte-identical wired or not. The MC strategy has no
    /// per-executor timers and ignores this.
    pub fn with_metrics(mut self, reg: &udf_obs::MetricsRegistry) -> Self {
        if let Some(olga) = &mut self.olgapro {
            olga.set_metrics(OlgaproMetrics::register(reg));
        }
        self
    }

    /// Wire structured tracing: the executor's OLGAPRO instance (if any)
    /// emits model-lifecycle events (`ModelGrow`/`ModelEvict`/`CapHit`)
    /// into `tracer`'s rings. Purely observational — results are
    /// byte-identical wired or not. The MC strategy has no model and
    /// ignores this.
    pub fn with_tracer(mut self, tracer: &udf_obs::TraceBuffer) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// In-place variant of [`with_tracer`](Self::with_tracer).
    pub fn set_tracer(&mut self, tracer: &udf_obs::TraceBuffer) {
        if let Some(olga) = &mut self.olgapro {
            olga.set_tracer(tracer.clone());
        }
    }

    /// The GP evaluator, when the strategy is [`EvalStrategy::Gp`] —
    /// exposes model size and core statistics for observability.
    pub fn olgapro(&self) -> Option<&Olgapro> {
        self.olgapro.as_ref()
    }

    /// Execution counters so far.
    pub fn stats(&self) -> QueryStats {
        self.stats
    }

    /// `SELECT udf(args) FROM rel` — compute the UDF output distribution
    /// for every tuple (query Q1).
    pub fn project(
        &mut self,
        rel: &Relation,
        call: &UdfCall,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Vec<ProjectedTuple>> {
        let mut out = Vec::with_capacity(rel.len());
        for (i, t) in rel.tuples().iter().enumerate() {
            self.stats.tuples_in += 1;
            self.stats.slow_path += 1;
            let output = self.eval_tuple(t, call, rng)?;
            self.stats.udf_calls += output.udf_calls;
            self.stats.tuples_out += 1;
            out.push(ProjectedTuple {
                source: i,
                output,
                tep: 1.0,
            });
        }
        Ok(out)
    }

    /// `SELECT udf(args) FROM rel WHERE udf(args) ∈ [lo, hi]` with TEP
    /// threshold θ (query Q2's selection) — tuples whose existence
    /// probability upper bound falls below θ are dropped early.
    pub fn select(
        &mut self,
        rel: &Relation,
        call: &UdfCall,
        predicate: &Predicate,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Vec<ProjectedTuple>> {
        let mut out = Vec::new();
        for (i, t) in rel.tuples().iter().enumerate() {
            self.stats.tuples_in += 1;
            self.stats.slow_path += 1;
            let input = call.input_distribution(t)?;
            match self.strategy {
                EvalStrategy::Mc => {
                    let d = mc_filtered(&call.udf, &input, &self.accuracy, predicate, rng)?;
                    match d {
                        FilterDecision::Filtered { udf_calls, .. } => {
                            self.stats.udf_calls += udf_calls;
                        }
                        FilterDecision::Kept { output, tep } => {
                            self.stats.udf_calls += output.udf_calls;
                            self.stats.tuples_out += 1;
                            out.push(ProjectedTuple {
                                source: i,
                                output,
                                tep,
                            });
                        }
                    }
                }
                EvalStrategy::Gp => {
                    let olga = self.olgapro.as_mut().expect("GP strategy has model");
                    let cap_before = olga.stats().cap_hits;
                    let d = gp_filtered(olga, &input, predicate, rng)?;
                    let cap_delta = olga.stats().cap_hits - cap_before;
                    self.stats.cap_hits += cap_delta;
                    match d {
                        FilterDecision::Filtered { udf_calls, .. } => {
                            self.stats.udf_calls += udf_calls;
                        }
                        FilterDecision::Kept { output, tep } => {
                            self.stats.udf_calls += output.udf_calls;
                            self.stats.tuples_out += 1;
                            out.push(ProjectedTuple {
                                source: i,
                                output: output.into_distribution(),
                                tep,
                            });
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// Sequential, fully-seeded evaluation of an explicit `(original
    /// index, input)` list through the complete model-mutating path —
    /// tuple `idx` runs under [`mix_seed`]`(seed, 0, idx)`, exactly the
    /// RNG a batch would hand it. Unlike a batch's fast phase (which
    /// judges every tuple against the frozen batch-start model), each
    /// tuple here tunes the model *before* the next one is judged, so
    /// cold-model verdicts never poison downstream decisions. This is
    /// `udf_join`'s GP warmup round; results are trivially independent of
    /// worker count (nothing runs concurrently).
    pub fn select_seeded(
        &mut self,
        inputs: &[(usize, InputDistribution)],
        predicate: Option<&Predicate>,
        seed: u64,
    ) -> Result<Vec<ProjectedTuple>> {
        let mut out = Vec::new();
        for (idx, input) in inputs {
            self.stats.tuples_in += 1;
            self.stats.slow_path += 1;
            let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0, *idx as u64));
            let decision = match self.strategy {
                EvalStrategy::Mc => {
                    mc_eval_tuple(&self.udf, input, &self.accuracy, predicate, &mut rng)?
                }
                EvalStrategy::Gp => {
                    let olga = self.olgapro.as_mut().expect("GP strategy has model");
                    let cap_before = olga.stats().cap_hits;
                    let d = match predicate {
                        Some(pred) => match gp_filtered(olga, input, pred, &mut rng)? {
                            FilterDecision::Kept { output, tep } => FilterDecision::Kept {
                                output: output.into_distribution(),
                                tep,
                            },
                            FilterDecision::Filtered {
                                rho_upper,
                                udf_calls,
                            } => FilterDecision::Filtered {
                                rho_upper,
                                udf_calls,
                            },
                        },
                        None => {
                            let o = olga.process(input, &mut rng)?;
                            FilterDecision::Kept {
                                output: o.into_distribution(),
                                tep: 1.0,
                            }
                        }
                    };
                    self.stats.cap_hits += olga.stats().cap_hits - cap_before;
                    d
                }
            };
            match decision {
                FilterDecision::Kept { output, tep } => {
                    self.stats.udf_calls += output.udf_calls;
                    self.stats.tuples_out += 1;
                    out.push(ProjectedTuple {
                        source: *idx,
                        output,
                        tep,
                    });
                }
                FilterDecision::Filtered { udf_calls, .. } => {
                    self.stats.udf_calls += udf_calls;
                }
            }
        }
        Ok(out)
    }

    /// Batch-parallel Q1 projection: like [`project`](Executor::project),
    /// but the whole relation is one batch on `sched`'s worker pool.
    ///
    /// Tuple `i` is evaluated with an RNG seeded
    /// [`mix_seed`]`(seed, 0, i)`, so the rows are byte-identical for any
    /// worker count — and, once the GP model is warm (MC: always),
    /// identical to processing the tuples sequentially in order with the
    /// same per-tuple seeds.
    pub fn project_batch(
        &mut self,
        rel: &Relation,
        call: &UdfCall,
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<Vec<ProjectedTuple>> {
        self.run_batch(rel, call, None, sched, seed)
    }

    /// Batch-parallel Q2 selection: like [`select`](Executor::select), but
    /// the whole relation is one batch on `sched`'s worker pool. On the GP
    /// path, tuples are filtered from the fast-path envelope bounds (§5.5)
    /// before any model-mutating work is scheduled.
    pub fn select_batch(
        &mut self,
        rel: &Relation,
        call: &UdfCall,
        predicate: &Predicate,
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<Vec<ProjectedTuple>> {
        self.run_batch(rel, call, Some(*predicate), sched, seed)
    }

    /// Batch-parallel selection over an *explicit, possibly sparse* list of
    /// `(original_index, input_distribution)` tuples. Seeds, emitted
    /// `source` ids, and slow-path fold order all come from the original
    /// index, so evaluating a subset is bit-identical to the corresponding
    /// tuples of a full [`select_batch`](Executor::select_batch) run —
    /// provided the skipped tuples are ones the accept hook would have
    /// filtered (they mutate nothing and emit nothing). This is the
    /// contract `udf_join`'s envelope pruning relies on; the returned
    /// [`BatchStats`] expose the fast/slow/filtered split.
    pub fn select_batch_indexed(
        &mut self,
        inputs: &[(usize, InputDistribution)],
        predicate: &Predicate,
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<(Vec<ProjectedTuple>, BatchStats)> {
        self.run_batch_indexed(inputs, Some(*predicate), sched, seed)
    }

    /// [`select_batch_indexed`](Executor::select_batch_indexed) without a
    /// predicate: indexed batch-parallel projection. Multi-round callers
    /// (udf-join's warmup + main split) use this for Q1-style pair
    /// projections.
    pub fn project_batch_indexed(
        &mut self,
        inputs: &[(usize, InputDistribution)],
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<(Vec<ProjectedTuple>, BatchStats)> {
        self.run_batch_indexed(inputs, None, sched, seed)
    }

    /// Shared batch driver for projection (`predicate = None`) and
    /// selection (`Some`).
    fn run_batch(
        &mut self,
        rel: &Relation,
        call: &UdfCall,
        predicate: Option<Predicate>,
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<Vec<ProjectedTuple>> {
        let inputs: Vec<(usize, InputDistribution)> = rel
            .tuples()
            .iter()
            .map(|t| call.input_distribution(t))
            .enumerate()
            .map(|(i, d)| d.map(|d| (i, d)))
            .collect::<Result<_>>()?;
        Ok(self.run_batch_indexed(&inputs, predicate, sched, seed)?.0)
    }

    /// The indexed core behind [`run_batch`](Executor::run_batch) and
    /// [`select_batch_indexed`](Executor::select_batch_indexed).
    fn run_batch_indexed(
        &mut self,
        inputs: &[(usize, InputDistribution)],
        predicate: Option<Predicate>,
        sched: &BatchScheduler,
        seed: u64,
    ) -> Result<(Vec<ProjectedTuple>, BatchStats)> {
        let n = inputs.len();
        self.stats.tuples_in += n as u64;
        let mut rows = Vec::with_capacity(n);
        let mut batch_stats = BatchStats::default();
        match self.strategy {
            EvalStrategy::Mc => {
                // MC never mutates shared state: the whole batch is one
                // parallel map (mc_eval_tuple forks the UDF's call counter
                // so per-tuple accounting stays exact under concurrency).
                let accuracy = self.accuracy;
                let udf = &self.udf;
                let results: Vec<udf_core::Result<FilterDecision<OutputDistribution>>> = sched
                    .fast_phase(|| {
                        sched.try_map(n, |i| {
                            let (orig, input) = &inputs[i];
                            let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0, *orig as u64));
                            mc_eval_tuple(udf, input, &accuracy, predicate.as_ref(), &mut rng)
                        })
                    })?;
                for ((orig, _), res) in inputs.iter().zip(results) {
                    match res? {
                        FilterDecision::Kept { output, tep } => {
                            self.stats.udf_calls += output.udf_calls;
                            self.stats.tuples_out += 1;
                            batch_stats.fast_path += 1;
                            rows.push(ProjectedTuple {
                                source: *orig,
                                output,
                                tep,
                            });
                        }
                        FilterDecision::Filtered { udf_calls, .. } => {
                            self.stats.udf_calls += udf_calls;
                            batch_stats.filtered += 1;
                        }
                    }
                }
            }
            EvalStrategy::Gp => {
                let olga = self.olgapro.as_mut().expect("GP strategy has model");
                let eps_gp_budget = olga.config().split().eps_gp;
                let mut ops = GpRelationOps {
                    olga,
                    inputs,
                    predicate,
                    seed,
                    eps_gp_budget,
                    rows: &mut rows,
                    udf_calls: 0,
                    cap_hits: 0,
                };
                batch_stats = sched.run_two_phase(&mut ops, n)?;
                self.stats.udf_calls += ops.udf_calls;
                self.stats.cap_hits += ops.cap_hits;
                self.stats.tuples_out += rows.len() as u64;
            }
        }
        self.stats.fast_path += batch_stats.fast_path as u64;
        self.stats.slow_path += batch_stats.slow_path as u64;
        Ok((rows, batch_stats))
    }

    fn eval_tuple(
        &mut self,
        tuple: &Tuple,
        call: &UdfCall,
        rng: &mut dyn rand::RngCore,
    ) -> Result<OutputDistribution> {
        let input = call.input_distribution(tuple)?;
        match self.strategy {
            EvalStrategy::Mc => {
                let mc = McEvaluator::new(call.udf.clone());
                Ok(mc.compute(&input, &self.accuracy, rng)?)
            }
            EvalStrategy::Gp => {
                let olga = self.olgapro.as_mut().expect("GP strategy has model");
                let cap_before = olga.stats().cap_hits;
                let out = olga.process(&input, rng)?;
                let cap_delta = olga.stats().cap_hits - cap_before;
                self.stats.cap_hits += cap_delta;
                Ok(out.into_distribution())
            }
        }
    }
}

/// [`BatchOps`] adapter for one GP batch over a relation: fast path =
/// read-only inference, accept hook = optional §5.5 filter + ε_GP budget,
/// slow path = full Algorithm 5 (with filtering when a predicate is
/// attached). Kept rows are pushed in tuple order, so the output relation
/// preserves source order exactly like the sequential executor. Inputs
/// carry their original tuple index (sparse batches evaluate a subset with
/// unchanged seeds — see [`Executor::select_batch_indexed`]).
struct GpRelationOps<'a> {
    olga: &'a mut Olgapro,
    inputs: &'a [(usize, InputDistribution)],
    predicate: Option<Predicate>,
    seed: u64,
    eps_gp_budget: f64,
    rows: &'a mut Vec<ProjectedTuple>,
    udf_calls: u64,
    cap_hits: u64,
}

impl BatchOps for GpRelationOps<'_> {
    fn tuple_seed(&self, idx: usize) -> u64 {
        mix_seed(self.seed, 0, self.inputs[idx].0 as u64)
    }

    fn needs_bootstrap(&self) -> bool {
        self.olga.model().is_empty()
    }

    fn fast(
        &self,
        idx: usize,
        rng: &mut StdRng,
        scratch: &mut InferScratch,
    ) -> udf_core::Result<GpOutput> {
        self.olga.infer_only_with(&self.inputs[idx].1, rng, scratch)
    }

    fn accept(&self, _idx: usize, out: &GpOutput) -> Verdict {
        if let Some(pred) = self.predicate {
            let (_, _, rho_u) = out.tep_bounds(pred.lo, pred.hi);
            if rho_u < pred.theta {
                return Verdict::Filter { rho_upper: rho_u };
            }
        }
        // A full stop-growing model accepts at the achieved bound — the
        // slow path could neither tune nor change the result.
        if out.eps_gp <= self.eps_gp_budget || self.olga.model_full() {
            Verdict::Accept
        } else {
            Verdict::Reroute
        }
    }

    fn emit_fast(&mut self, idx: usize, out: GpOutput) -> udf_core::Result<()> {
        if out.eps_gp > self.eps_gp_budget {
            // Only reachable through the model-full acceptance above.
            self.olga.note_cap_hit();
            self.cap_hits += 1;
        }
        let tep = self
            .predicate
            .map(|p| out.tep_bounds(p.lo, p.hi).1)
            .unwrap_or(1.0);
        self.rows.push(ProjectedTuple {
            source: self.inputs[idx].0,
            output: out.into_distribution(),
            tep,
        });
        Ok(())
    }

    fn slow(&mut self, idx: usize, rng: &mut StdRng) -> udf_core::Result<()> {
        let (source, input) = &self.inputs[idx];
        let cap_before = self.olga.stats().cap_hits;
        match self.predicate {
            Some(pred) => match gp_filtered(self.olga, input, &pred, rng)? {
                FilterDecision::Kept { output, tep } => {
                    self.udf_calls += output.udf_calls;
                    self.rows.push(ProjectedTuple {
                        source: *source,
                        output: output.into_distribution(),
                        tep,
                    });
                }
                FilterDecision::Filtered { udf_calls, .. } => {
                    self.udf_calls += udf_calls;
                }
            },
            None => {
                let out = self.olga.process(input, rng)?;
                self.udf_calls += out.udf_calls;
                self.rows.push(ProjectedTuple {
                    source: *source,
                    output: out.into_distribution(),
                    tep: 1.0,
                });
            }
        }
        // A reroute that crossed the cap mid-tuple is a degraded
        // acceptance too (Algorithm 5 counted it in the core stats).
        self.cap_hits += self.olga.stats().cap_hits - cap_before;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::{Schema, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use udf_core::config::Metric;
    use udf_core::udf::BlackBoxUdf;

    fn rel(n: usize) -> Relation {
        let schema = Schema::new(&["objID", "z"]);
        let tuples = (0..n)
            .map(|i| {
                Tuple::new(vec![
                    Value::Det(i as f64),
                    Value::Gaussian {
                        mu: 1.0 + i as f64 * 0.5,
                        sigma: 0.1,
                    },
                ])
            })
            .collect();
        Relation::new(schema, tuples).unwrap()
    }

    fn acc(metric: Metric) -> AccuracyRequirement {
        AccuracyRequirement::new(0.2, 0.05, 0.02, metric).unwrap()
    }

    #[test]
    fn q1_style_projection_mc() {
        let r = rel(4);
        let udf = BlackBoxUdf::from_fn("sq", 1, |x| x[0] * x[0]);
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let mut ex = Executor::new(EvalStrategy::Mc, acc(Metric::Ks), &call, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let rows = ex.project(&r, &call, &mut rng).unwrap();
        assert_eq!(rows.len(), 4);
        // Output medians should track (1 + 0.5 i)².
        for (i, row) in rows.iter().enumerate() {
            let want = (1.0 + 0.5 * i as f64).powi(2);
            let got = row.output.ecdf.quantile(0.5);
            assert!((got - want).abs() < 0.3, "row {i}: {got} vs {want}");
        }
        assert_eq!(ex.stats().tuples_out, 4);
    }

    #[test]
    fn q1_style_projection_gp_reuses_model() {
        let r = rel(6);
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let mut ex = Executor::new(EvalStrategy::Gp, acc(Metric::Discrepancy), &call, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let rows = ex.project(&r, &call, &mut rng).unwrap();
        assert_eq!(rows.len(), 6);
        // GP reuse: far fewer UDF calls than MC would need.
        let mc_calls = acc(Metric::Discrepancy).mc_samples() as u64 * 6;
        assert!(
            ex.stats().udf_calls < mc_calls / 10,
            "GP used {} calls, MC would use {}",
            ex.stats().udf_calls,
            mc_calls
        );
    }

    #[test]
    fn q2_style_selection_filters() {
        let r = rel(5);
        let udf = BlackBoxUdf::from_fn("id", 1, |x| x[0]);
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let mut ex = Executor::new(EvalStrategy::Mc, acc(Metric::Ks), &call, 10.0).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // Keep tuples whose z is likely in [2.4, 3.6]: rows with mu 2.5, 3.0 (+3.5 partially).
        let pred = Predicate::new(2.4, 3.6, 0.5).unwrap();
        let rows = ex.select(&r, &call, &pred, &mut rng).unwrap();
        let kept: Vec<usize> = rows.iter().map(|r| r.source).collect();
        assert!(kept.contains(&3), "mu = 2.5 row should survive");
        assert!(!kept.contains(&0), "mu = 1.0 row should be filtered");
        assert!(ex.stats().tuples_out < ex.stats().tuples_in);
        for row in &rows {
            assert!(row.tep >= 0.5 - 0.1, "kept tuple TEP {}", row.tep);
        }
    }

    #[test]
    fn q2_style_selection_gp() {
        let r = rel(5);
        let udf = BlackBoxUdf::from_fn("sin", 1, |x| (x[0] * 0.8).sin());
        let call = UdfCall::resolve(udf, r.schema(), &["z"]).unwrap();
        let mut ex = Executor::new(EvalStrategy::Gp, acc(Metric::Discrepancy), &call, 2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // sin output lives in [-1, 1]; ask for an impossible interval.
        let pred = Predicate::new(5.0, 6.0, 0.1).unwrap();
        let rows = ex.select(&r, &call, &pred, &mut rng).unwrap();
        assert!(
            rows.is_empty(),
            "impossible predicate must filter everything"
        );
        assert_eq!(ex.stats().tuples_out, 0);
    }
}
