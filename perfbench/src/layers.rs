//! The per-layer breakdown of a traced phase, built from outside the
//! program: the benchmark's own span around each `run_uql` call, with the
//! call's registry delta attached as child spans. Layers are named after
//! the crates that record them.

use crate::run::{Kind, Outcome};
use crate::stats::ratio;
use std::collections::BTreeMap;
use std::time::Duration;
use udf_obs::{HistogramSnapshot, Snapshot};

/// One span: a named interval, or a layer's summed time inside its parent.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub dur_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn push(&mut self, name: &'static str, parent: Option<usize>, dur_ns: u64) -> usize {
        self.spans.push(Span {
            name,
            parent,
            dur_ns,
        });
        self.spans.len() - 1
    }

    /// Total and self time per span name, sorted by name. A span's self
    /// time is its duration minus what its children cover; children
    /// recorded on several workers can sum past their parent, so it floors
    /// at 0.
    pub fn by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns;
            e.1 += s.dur_ns.saturating_sub(c);
        }
        out
    }
}

fn hist_sum(d: &Snapshot, name: &str) -> u64 {
    d.histograms.get(name).map_or(0, |h| h.sum)
}

fn hist_count(d: &Snapshot, name: &str) -> u64 {
    d.histograms.get(name).map_or(0, |h| h.count)
}

fn counter(d: &Snapshot, name: &str) -> u64 {
    d.counters.get(name).copied().unwrap_or(0)
}

/// The layers directly under `lang.exec`, which together should cover it:
/// the scheduler's two phases for a relation, warm-up and main round for a
/// join, and micro-batches for a stream (ingest runs concurrently on its
/// own thread, so it is not on the statement's critical path).
fn exec_children(kind: Kind) -> &'static [(&'static str, &'static str)] {
    match kind {
        Kind::Relation => &[
            ("core.sched.fast_phase", "sched.fast_phase_ns"),
            ("core.sched.slow_phase", "sched.slow_phase_ns"),
        ],
        Kind::Join => &[
            ("join.warmup", "join.warmup_ns"),
            ("join.main", "join.main_ns"),
        ],
        Kind::Stream => &[("stream.batch", "stream.batch_ns")],
    }
}

/// Per-layer totals of a traced phase, accumulated statement by statement.
#[derive(Debug, Default)]
pub struct Layers {
    /// Summed registry deltas (counters and histogram counts and sums).
    total: Snapshot,
    statements: u64,
    /// Model size after each statement, summed.
    model_points: u64,
    /// Join totals: pairs pruned, certificate attempts, pairs evaluated,
    /// candidate pairs generated.
    join: [u64; 4],
    /// One `bench.statement` span per statement with its layers below.
    pub trace: Trace,
    /// Statement wall time, and the part of it named layers account for.
    covered_ns: u64,
    wall_ns: u64,
}

impl Layers {
    /// Add one statement: a `bench.statement` span of its wall time, with
    /// `lang.parse`, `lang.bind` and `lang.exec` below it and the
    /// execution layers below `lang.exec`, all from the call's delta.
    pub fn record(&mut self, d: &Snapshot, out: &Outcome, wall: Duration, model_points: u64) {
        self.statements += 1;
        self.model_points += model_points;
        for (k, v) in &d.counters {
            *self.total.counters.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &d.histograms {
            let e = self
                .total
                .histograms
                .entry(k.clone())
                .or_insert_with(|| HistogramSnapshot {
                    count: 0,
                    sum: 0,
                    max: 0,
                    buckets: Vec::new(),
                });
            e.count += h.count;
            e.sum += h.sum;
        }
        if let Some(j) = &out.join {
            self.join[0] += j.pairs_pruned;
            self.join[1] += j.prune_attempts;
            self.join[2] += j.pairs_evaluated();
            self.join[3] += j.pairs_generated;
        }
        let stmt_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
        let stmt = self.trace.push("bench.statement", None, stmt_ns);
        let parse = hist_sum(d, "uql.parse_ns");
        let bind = hist_sum(d, "uql.bind_ns") + hist_sum(d, "uql.execute_bind_ns");
        let exec = hist_sum(d, "uql.exec_ns");
        self.trace.push("lang.parse", Some(stmt), parse);
        self.trace.push("lang.bind", Some(stmt), bind);
        let exec_span = self.trace.push("lang.exec", Some(stmt), exec);
        let mut under_exec = 0;
        for (layer, metric) in exec_children(out.kind) {
            let ns = hist_sum(d, metric);
            self.trace.push(layer, Some(exec_span), ns);
            under_exec += ns;
        }
        self.covered_ns += (parse + bind + under_exec.min(exec)).min(stmt_ns);
        self.wall_ns += stmt_ns;
    }

    /// The per-layer metrics, per statement where a metric is a time or a
    /// count. Every ratio's base is named beside it.
    pub fn metrics(&self, overhead_pct: f64) -> Vec<(&'static str, f64, &'static str)> {
        let total = &self.total;
        let per = |v: u64| ratio(v as f64, self.statements as f64);
        let ms = |name: &str| per(hist_sum(total, name)) / 1e6;
        let count = |name: &str| per(hist_count(total, name));
        let c = |name: &str| counter(total, name) as f64;
        let verdicts =
            c("sched.verdict.accept") + c("sched.verdict.filter") + c("sched.verdict.reroute");
        let exec_self_ns = self.trace.by_name().get("lang.exec").map_or(0, |t| t.1);
        vec![
            ("lang.parse_ms", ms("uql.parse_ns"), "ms"),
            (
                "lang.bind_ms",
                ms("uql.bind_ns") + ms("uql.execute_bind_ns"),
                "ms",
            ),
            ("lang.exec_self_ms", per(exec_self_ns) / 1e6, "ms"),
            // Base: EXECUTE statements (hits + misses of the warm binding).
            (
                "lang.plan_cache_hit_ratio",
                ratio(
                    c("uql.prepared_cache.hits"),
                    c("uql.prepared_cache.hits") + c("uql.prepared_cache.misses"),
                ),
                "ratio",
            ),
            ("core.sched.queue_wait_ms", ms("sched.queue_wait_ns"), "ms"),
            ("core.sched.fast_phase_ms", ms("sched.fast_phase_ns"), "ms"),
            ("core.sched.slow_phase_ms", ms("sched.slow_phase_ns"), "ms"),
            // Base: fast-phase verdicts (accept + filter + reroute).
            (
                "core.sched.reroute_ratio",
                ratio(c("sched.verdict.reroute"), verdicts),
                "ratio",
            ),
            (
                "core.sched.filter_ratio",
                ratio(c("sched.verdict.filter"), verdicts),
                "ratio",
            ),
            ("core.olgapro.tuning_ms", ms("olgapro.tuning_ns"), "ms"),
            (
                "core.olgapro.tuning_count",
                count("olgapro.tuning_ns"),
                "count",
            ),
            ("core.olgapro.retrain_ms", ms("olgapro.retrain_ns"), "ms"),
            (
                "core.olgapro.retrain_count",
                count("olgapro.retrain_ns"),
                "count",
            ),
            (
                "core.olgapro.model_points",
                per(self.model_points),
                "points",
            ),
            ("core.olgapro.fastpath_ms", ms("olgapro.fastpath_ns"), "ms"),
            (
                "core.olgapro.cap_hits",
                per(counter(total, "olgapro.cap_hits")),
                "count",
            ),
            // Base: local-predictor lookups (hits + misses).
            (
                "gp.lp_cache_hit_ratio",
                ratio(
                    c("olgapro.lp_cache.hits"),
                    c("olgapro.lp_cache.hits") + c("olgapro.lp_cache.misses"),
                ),
                "ratio",
            ),
            ("join.warmup_ms", ms("join.warmup_ns"), "ms"),
            ("join.main_ms", ms("join.main_ns"), "ms"),
            ("join.screen_ms", ms("join.screen_ns"), "ms"),
            ("join.certify_ms", ms("join.certify_ns"), "ms"),
            ("join.certify_attempts", count("join.certify_ns"), "count"),
            // Base: certificate attempts.
            (
                "join.prune_yield",
                ratio(self.join[0] as f64, self.join[1] as f64),
                "ratio",
            ),
            // Base: candidate pairs generated.
            (
                "join.pairs_evaluated_ratio",
                ratio(self.join[2] as f64, self.join[3] as f64),
                "ratio",
            ),
            ("stream.batch_ms", ms("stream.batch_ns"), "ms"),
            ("stream.ingest_wait_ms", ms("stream.ingest_wait_ns"), "ms"),
            ("stream.batches", count("stream.batch_ns"), "count"),
            // Base: statement wall time in the traced phase.
            (
                "obs.layer_coverage",
                ratio(self.covered_ns as f64, self.wall_ns as f64),
                "ratio",
            ),
            // Base: the same statements' wall time with tracing off.
            ("obs.tracing_overhead_pct", overhead_pct, "%"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_floors_at_zero() {
        let mut t = Trace::default();
        let root = t.push("stmt", None, 100);
        let exec = t.push("lang.exec", Some(root), 70);
        t.push("lang.parse", Some(root), 10);
        t.push("core.sched.fast_phase", Some(exec), 50);
        t.push("core.sched.slow_phase", Some(exec), 40);
        let by = t.by_name();
        assert_eq!(by["stmt"], (100, 20));
        // Children on two workers overlap: 90 > 70.
        assert_eq!(by["lang.exec"], (70, 0));
        assert_eq!(by["core.sched.fast_phase"], (50, 50));
    }
}
