//! The closed-loop client: runs a workload's statements through
//! `udf_lang::run_uql`, times each call, and keeps what the metrics, the
//! correctness checks and the accuracy audit need.

use crate::host;
use crate::layers::Layers;
use crate::stats::{median, modelled_ms, TAIL_BEYOND};
use crate::workload::{batch_latencies_ms, Setup, Stmt, Workload};
use std::time::{Duration, Instant};
use udf_join::JoinStats;
use udf_lang::{run_uql, QueryOutput};
use udf_prob::Ecdf;

/// What one executed statement produced, reduced to what is measured.
pub struct Outcome {
    pub kind: Kind,
    /// Input tuples completed (candidate pairs for a join).
    pub tuples: u64,
    /// UDF calls the statement reported.
    pub udf_calls: u64,
    /// Answers emitted, and how many carry a bound looser than requested.
    pub answers: u64,
    pub capped: u64,
    /// Answers kept for the audit (first-round runs only).
    pub kept: Vec<Answer>,
    /// Byte-level hash of every emitted row, pair or stream digest.
    pub fingerprint: u64,
    pub join: Option<JoinStats>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Relation,
    Join,
    Stream,
}

/// One emitted answer and where its input came from.
pub struct Answer {
    pub input: AnswerInput,
    /// The emitted distribution (streams only report a median).
    pub ecdf: Option<Ecdf>,
    pub median: f64,
    pub error_bound: f64,
}

pub enum AnswerInput {
    /// Tuple `index` of the relation the statement read.
    Tuple(usize),
    /// Left and right tuple of a self-join.
    Pair(usize, usize),
    /// Global tuple index of a stream run.
    Stream(u64),
}

impl Outcome {
    /// Reduce a statement's output, keeping `keep` evenly spaced answers
    /// for the audit.
    fn from_output(out: QueryOutput, eps: f64, keep: usize) -> Result<Outcome, String> {
        let capped = |bound: f64| bound > eps * (1.0 + 1e-9);
        let mut h = Fnv::new();
        Ok(match out {
            QueryOutput::Rows(r) => {
                let mut kept = Vec::new();
                let pick = spaced(r.rows.len(), keep);
                for (i, row) in r.rows.iter().enumerate() {
                    h.u64(row.source as u64);
                    h.distribution(row.tep, row.output.error_bound, row.output.ecdf.values());
                    if pick(i) {
                        kept.push(Answer {
                            input: AnswerInput::Tuple(row.source),
                            median: row.output.ecdf.quantile(0.5),
                            ecdf: Some(row.output.ecdf.clone()),
                            error_bound: row.output.error_bound,
                        });
                    }
                }
                Outcome {
                    kind: Kind::Relation,
                    tuples: r.stats.tuples_in,
                    udf_calls: r.stats.udf_calls,
                    answers: r.rows.len() as u64,
                    capped: r
                        .rows
                        .iter()
                        .filter(|x| capped(x.output.error_bound))
                        .count() as u64,
                    kept,
                    fingerprint: h.finish(),
                    join: None,
                }
            }
            QueryOutput::Join(j) => {
                let mut kept = Vec::new();
                let pick = spaced(j.rows.len(), keep);
                for (i, row) in j.rows.iter().enumerate() {
                    h.u64(row.pair as u64);
                    h.u64(row.left as u64);
                    h.u64(row.right as u64);
                    h.distribution(row.tep, row.output.error_bound, row.output.ecdf.values());
                    if pick(i) {
                        kept.push(Answer {
                            input: AnswerInput::Pair(row.left, row.right),
                            median: row.output.ecdf.quantile(0.5),
                            ecdf: Some(row.output.ecdf.clone()),
                            error_bound: row.output.error_bound,
                        });
                    }
                }
                Outcome {
                    kind: Kind::Join,
                    tuples: j.stats.pairs_generated,
                    udf_calls: j.stats.udf_calls,
                    answers: j.rows.len() as u64,
                    capped: j
                        .rows
                        .iter()
                        .filter(|x| capped(x.output.error_bound))
                        .count() as u64,
                    kept,
                    fingerprint: h.finish(),
                    join: Some(j.stats),
                }
            }
            QueryOutput::Stream(o) => {
                h.u64(o.digest);
                let pick = spaced(o.recent.len(), keep);
                let kept = o
                    .recent
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| pick(*i))
                    .map(|(_, k)| Answer {
                        input: AnswerInput::Stream(k.tuple),
                        ecdf: None,
                        median: k.median,
                        error_bound: k.error_bound,
                    })
                    .collect();
                Outcome {
                    kind: Kind::Stream,
                    tuples: o.engine.tuples,
                    udf_calls: o.stats.udf_calls,
                    answers: o.stats.kept,
                    capped: o.stats.cap_hits,
                    kept,
                    fingerprint: h.finish(),
                    join: None,
                }
            }
            other => return Err(format!("unexpected statement output: {}", other.report())),
        })
    }
}

/// The `TAIL_BEYOND + 1` largest latencies seen, ascending: the smallest
/// of them is the tail over every request.
#[derive(Debug, Default)]
pub struct Slowest(Vec<f64>);

impl Slowest {
    pub fn offer(&mut self, ms: f64) {
        if self.0.len() <= TAIL_BEYOND || ms > self.0[0] {
            let at = self.0.partition_point(|&x| x < ms);
            self.0.insert(at, ms);
            if self.0.len() > TAIL_BEYOND + 1 {
                self.0.remove(0);
            }
        }
    }

    /// The latency with exactly `TAIL_BEYOND` requests above it, once more
    /// than `TAIL_BEYOND` were offered.
    pub fn tail(&self) -> Option<f64> {
        (self.0.len() > TAIL_BEYOND).then(|| self.0[0])
    }
}

/// How often a set-up is timed during a measurement window.
const SETUP_EVERY: Duration = Duration::from_millis(250);

/// How often the host-speed reference runs between statements.
const REFERENCE_EVERY: Duration = Duration::from_millis(20);

/// Rounds of the statement list every phase runs, however short the
/// window: each statement's latency is then a median of at least this many
/// runs.
pub const MIN_ROUNDS: usize = 3;

/// A first-round statement kept for the checks (statement 0) or the audit.
pub struct Record {
    pub index: usize,
    pub outcome: Outcome,
}

/// Totals over the first run of every statement of the list.
#[derive(Debug, Default)]
pub struct FirstRound {
    pub udf_calls: u64,
    pub tuples: u64,
    pub answers: u64,
    pub capped: u64,
    /// Σ `udf_calls` × the UDF's nominal per-call cost, in milliseconds.
    pub charged_ms: f64,
}

/// Rounds whose runs are kept per statement, so that memory stays the
/// same however many rounds a fast engine completes.
pub const KEPT_ROUNDS: usize = 32;

/// The runs of one statement of the list, each scaled to the nominal host
/// speed by the reference times of its own round.
#[derive(Debug, Clone, Default)]
pub struct Runs {
    pub wall_ms: Vec<f64>,
    /// Per request position: one for a one-shot statement, one per
    /// micro-batch for a stream.
    pub requests_ms: Vec<Vec<f64>>,
}

impl Runs {
    fn push(&mut self, scale: f64, wall_ms: f64, requests_ms: &[f64]) {
        if self.wall_ms.len() >= KEPT_ROUNDS {
            return;
        }
        self.wall_ms.push(wall_ms * scale);
        for (j, ms) in requests_ms.iter().enumerate() {
            if j == self.requests_ms.len() {
                self.requests_ms.push(Vec::new());
            }
            self.requests_ms[j].push(ms * scale);
        }
    }
}

/// A run of the current round, kept until the round's reference times
/// are all in.
struct Pending {
    index: usize,
    wall_ms: f64,
    requests_ms: Vec<f64>,
}

/// Scale a finished round's runs by its reference times and add them to
/// each statement's runs.
fn close_round(runs: &mut [Runs], pending: &mut Vec<Pending>, reference_ms: &[f64]) {
    let scale = host::scale(reference_ms);
    for p in pending.drain(..) {
        runs[p.index].push(scale, p.wall_ms, &p.requests_ms);
    }
}

/// Everything one measurement phase produced. Memory does not grow with
/// the rounds a run completes, so peak memory does not depend on how fast
/// the engine is.
pub struct Phase {
    pub records: Vec<Record>,
    pub first: FirstRound,
    /// The runs of each statement of the list, by index.
    pub runs: Vec<Runs>,
    /// Requests timed in every round, and the slowest of all of them.
    pub requests: u64,
    pub slowest: Slowest,
    /// Statements sent, complete rounds of the list, and UDF calls made.
    pub statements: u64,
    pub rounds: u64,
    pub udf_calls: u64,
    pub failures: Vec<String>,
    /// Modelled time of the first run of the statements that have a
    /// `USING mc` twin, and the twins' own.
    pub twinned_ms: f64,
    pub twins_ms: f64,
    pub twins: u64,
    /// UDF calls MC statements reported, and what the shared catalog
    /// handle counted meanwhile (MC batch paths count on forked handles).
    pub stats_calls_mc: u64,
    pub handle_calls_mc: u64,
    /// The per-layer breakdown (traced phases only).
    pub layers: Option<Layers>,
    /// Set-up times sampled across the window, in seconds.
    pub setup_s: Vec<f64>,
    /// Times of the host-speed reference, run between statements.
    pub reference_ms: Vec<f64>,
}

impl Phase {
    /// Per-request latencies: each request position of each statement at
    /// its median over the rounds.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.runs
            .iter()
            .flat_map(|r| r.requests_ms.iter().map(|v| median(v)))
            .collect()
    }

    /// Wall time of one pass over the list, each statement at its median
    /// over the rounds, in seconds.
    pub fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| median(&r.wall_ms)).sum::<f64>() / 1e3
    }
}

/// Send the workload's statement list round after round until
/// `MIN_ROUNDS` rounds are done and `seconds` have passed.
///
/// The host is shared, and its speed shifts by ±20% within seconds and
/// over minutes. Each run of a statement is scaled to the nominal host
/// speed by the median of the reference times of its round (see `host`),
/// and each statement is reported at its median over the first
/// `KEPT_ROUNDS` rounds. Counts, answers, the audit's records and the `USING mc`
/// twins come from the first round; every later run of a statement must
/// reproduce its first run's output byte for byte. With `traced`, the
/// registry and trace buffer are on and each call's registry delta feeds
/// the layer breakdown.
pub fn measure(
    workload: Workload,
    seed: u64,
    setup: &mut Setup,
    seconds: f64,
    traced: bool,
) -> Phase {
    let ctx = &mut setup.ctx;
    ctx.metrics().set_enabled(traced);
    ctx.trace().set_enabled(traced);
    let n = workload.statements();
    let mut phase = Phase {
        records: Vec::new(),
        first: FirstRound::default(),
        runs: vec![Runs::default(); n],
        requests: 0,
        slowest: Slowest::default(),
        statements: 0,
        rounds: 0,
        udf_calls: 0,
        failures: Vec::new(),
        twinned_ms: 0.0,
        twins_ms: 0.0,
        twins: 0,
        stats_calls_mc: 0,
        handle_calls_mc: 0,
        layers: traced.then(Layers::default),
        setup_s: Vec::new(),
        reference_ms: Vec::new(),
    };
    let mut reference = host::Reference::default();
    let mut last_reference: Option<Instant> = None;
    let mut pending = Vec::with_capacity(n);
    let mut round_start = 0;
    let mut fingerprints: Vec<Option<u64>> = vec![None; n];
    let mut last_setup = Instant::now();
    let start = Instant::now();
    let mut sent = 0;
    while sent < MIN_ROUNDS * n || start.elapsed().as_secs_f64() < seconds {
        let (i, round) = (sent % n, sent / n);
        sent += 1;
        if i == 0 && round > 0 {
            close_round(
                &mut phase.runs,
                &mut pending,
                &phase.reference_ms[round_start..],
            );
            round_start = phase.reference_ms.len();
        }
        if last_reference.is_none_or(|t| t.elapsed() >= REFERENCE_EVERY) {
            phase.reference_ms.push(reference.time_ms());
            last_reference = Some(Instant::now());
        }
        let stmt = workload.statement(seed, i);
        let sql = stmt.sql(stmt.workers);
        if let Some(p) = &setup.pulls {
            p.lock().expect("pull log").clear();
        }
        let handle = ctx
            .udfs()
            .get(stmt.udf)
            .expect("workload UDFs are registered")
            .udf
            .clone();
        let per_call = handle.cost_model().per_call();
        let before = traced.then(|| ctx.metrics().snapshot());
        let calls_before = handle.calls();
        let t0 = Instant::now();
        let res = run_uql(&sql, ctx);
        let wall = t0.elapsed();
        let handle_calls = handle.calls() - calls_before;
        phase.statements += 1;
        let keep = if round == 0 {
            workload.audit_plan().keep(i)
        } else {
            0
        };
        let outcome = res
            .map_err(|e| e.to_string())
            .and_then(|out| Outcome::from_output(out, stmt.eps, keep));
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                phase
                    .failures
                    .push(format!("statement {i} round {round} failed: {e}"));
                continue;
            }
        };
        match fingerprints[i] {
            None => fingerprints[i] = Some(outcome.fingerprint),
            Some(f) if f != outcome.fingerprint => phase.failures.push(format!(
                "statement {i} round {round}: fingerprint {:016x} != first run's {f:016x}",
                outcome.fingerprint
            )),
            Some(_) => {}
        }
        if let (Some(layers), Some(before)) = (&mut phase.layers, before) {
            let delta = ctx.metrics().snapshot().delta(&before);
            let points = ctx.metrics().gauge("olgapro.model_points").get();
            layers.record(&delta, &outcome, wall, points);
        }
        // GP statements evaluate through the shared catalog handle, so its
        // counter must agree with the statement's own count.
        if stmt.gp && handle_calls != outcome.udf_calls {
            phase.failures.push(format!(
                "statement {i} round {round}: catalog handle counted {handle_calls} UDF \
                 calls, the statement reported {}",
                outcome.udf_calls
            ));
        }
        if !stmt.gp {
            phase.handle_calls_mc += handle_calls;
            phase.stats_calls_mc += outcome.udf_calls;
        }
        let requests = match &setup.pulls {
            Some(p) => batch_latencies_ms(&p.lock().expect("pull log")),
            None => vec![wall.as_secs_f64() * 1e3],
        };
        phase.requests += requests.len() as u64;
        for &ms in &requests {
            phase.slowest.offer(ms);
        }
        pending.push(Pending {
            index: i,
            wall_ms: wall.as_secs_f64() * 1e3,
            requests_ms: requests,
        });
        phase.udf_calls += outcome.udf_calls;
        if round == 0 {
            let modelled = modelled_ms(wall, outcome.udf_calls, per_call);
            if let Some(twin) = stmt.mc_twin() {
                let t0 = Instant::now();
                let out = run_uql(&twin, ctx);
                let wall = t0.elapsed();
                match out
                    .map_err(|e| e.to_string())
                    .and_then(|o| Outcome::from_output(o, stmt.eps, 0))
                {
                    Ok(o) => {
                        phase.twins += 1;
                        phase.twins_ms += modelled_ms(wall, o.udf_calls, per_call);
                        phase.twinned_ms += modelled;
                    }
                    Err(e) => phase
                        .failures
                        .push(format!("mc twin of statement {i} failed: {e}")),
                }
            }
            let f = &mut phase.first;
            f.udf_calls += outcome.udf_calls;
            f.tuples += outcome.tuples;
            f.answers += outcome.answers;
            f.capped += outcome.capped;
            f.charged_ms += modelled_ms(Duration::ZERO, outcome.udf_calls, per_call);
            if i == 0 || !outcome.kept.is_empty() {
                phase.records.push(Record { index: i, outcome });
            }
        }
        // Set-up is sampled across the whole window rather than in one
        // burst, so that a slow or fast stretch of the host weighs on it
        // as it does on the statements.
        if last_setup.elapsed() >= SETUP_EVERY {
            let t0 = Instant::now();
            match workload.setup(seed) {
                Ok(s) => {
                    phase.setup_s.push(t0.elapsed().as_secs_f64());
                    drop(s);
                }
                Err(e) => phase.failures.push(format!("set-up failed: {e}")),
            }
            last_setup = Instant::now();
        }
    }
    // A last, partial round may have ended before the reference ran in it.
    let last = match &phase.reference_ms[round_start..] {
        [] => &phase.reference_ms[..],
        r => r,
    };
    close_round(&mut phase.runs, &mut pending, last);
    phase.rounds = (sent / n) as u64;
    let missing = phase.runs.iter().filter(|r| r.wall_ms.is_empty()).count();
    if missing > 0 {
        phase
            .failures
            .push(format!("{missing} of {n} statements never completed"));
    }
    ctx.metrics().set_enabled(false);
    ctx.trace().set_enabled(false);
    phase
}

/// Re-run statement 0 at its own and at the other worker count; both must
/// reproduce the timed run's fingerprint byte for byte. Returns the number
/// of checks made and the failures.
pub fn determinism_checks(
    workload: Workload,
    seed: u64,
    setup: &mut Setup,
    phase: &Phase,
) -> (u64, Vec<String>) {
    let stmt: Stmt = workload.statement(seed, 0);
    debug_assert!(stmt.one_shot());
    let Some(expected) = phase
        .records
        .iter()
        .find(|r| r.index == 0)
        .map(|r| r.outcome.fingerprint)
    else {
        return (2, vec!["statement 0 has no output to compare".into()]);
    };
    let other = if stmt.workers == 1 { 2 } else { 1 };
    let mut failures = Vec::new();
    for workers in [stmt.workers, other] {
        let got = run_uql(&stmt.sql(workers), &mut setup.ctx)
            .map_err(|e| e.to_string())
            .and_then(|o| Outcome::from_output(o, stmt.eps, 0));
        match got {
            Ok(o) if o.fingerprint == expected => {}
            Ok(o) => failures.push(format!(
                "statement 0 at WORKERS {workers}: fingerprint {:016x} != {expected:016x}",
                o.fingerprint
            )),
            Err(e) => failures.push(format!("statement 0 at WORKERS {workers} failed: {e}")),
        }
    }
    (2, failures)
}

/// Whether index `i` of `n` is one of `k` evenly spaced picks.
fn spaced(n: usize, k: usize) -> impl Fn(usize) -> bool {
    let k = k.min(n);
    move |i| k > 0 && (0..k).any(|j| j * n / k == i)
}

/// 64-bit FNV-1a over the exact bits of every emitted value.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn distribution(&mut self, tep: f64, bound: f64, values: &[f64]) {
        self.u64(tep.to_bits());
        self.u64(bound.to_bits());
        self.u64(values.len() as u64);
        for v in values {
            self.u64(v.to_bits());
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tail;

    #[test]
    fn slowest_tracks_the_tail_of_every_request() {
        let v: Vec<f64> = (0..500).map(|i| ((i * 7919) % 500) as f64).collect();
        let mut s = Slowest::default();
        for (i, &x) in v.iter().enumerate() {
            s.offer(x);
            if i < TAIL_BEYOND {
                assert_eq!(s.tail(), None);
            }
        }
        assert_eq!(s.tail(), tail(&v).map(|t| t.value));
        assert_eq!(s.tail(), Some(489.0));
    }

    #[test]
    fn runs_are_scaled_by_their_round_and_capped() {
        let mut runs = vec![Runs::default(); 2];
        let mut pending = vec![
            Pending {
                index: 1,
                wall_ms: 30.0,
                requests_ms: vec![10.0, 20.0],
            },
            Pending {
                index: 0,
                wall_ms: 5.0,
                requests_ms: vec![5.0],
            },
        ];
        // A round whose reference took twice the nominal time ran at half
        // the nominal speed.
        let slow = [2.0 * host::NOMINAL_MS; 3];
        close_round(&mut runs, &mut pending, &slow);
        assert!(pending.is_empty());
        assert_eq!(runs[1].wall_ms, vec![15.0]);
        assert_eq!(runs[1].requests_ms, vec![vec![5.0], vec![10.0]]);
        assert_eq!(runs[0].requests_ms, vec![vec![2.5]]);
        for _ in 0..KEPT_ROUNDS {
            runs[0].push(1.0, 1.0, &[1.0]);
        }
        assert_eq!(runs[0].wall_ms.len(), KEPT_ROUNDS);
        assert_eq!(runs[0].requests_ms[0].len(), KEPT_ROUNDS);
    }

    #[test]
    fn spaced_picks_are_even_and_bounded() {
        let picked: Vec<usize> = (0..10).filter(|&i| spaced(10, 3)(i)).collect();
        assert_eq!(picked, vec![0, 3, 6]);
        assert_eq!((0..2).filter(|&i| spaced(2, 5)(i)).count(), 2);
        assert_eq!((0..4).filter(|&i| spaced(4, 0)(i)).count(), 0);
    }
}
