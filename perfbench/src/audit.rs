//! The accuracy audit: compare audited answers with a high-sample Monte
//! Carlo evaluation of the raw UDF, outside every timed region.
//!
//! An answer violates its promise when the realized distance to the
//! reference exceeds the `error_bound` it reported. Capped answers report
//! their achieved bound, so they are judged at it. Stream answers carry
//! only a median `m`; the half-lines `(-∞, m)` and `(-∞, m]` are intervals
//! every λ admits, so `max(0.5 − F(m), F(m⁻) − 0.5)` under the reference
//! is a lower bound on the realized distance and is judged the same way.

use crate::run::{AnswerInput, Phase};
use crate::workload::{mix, Setup, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;
use udf_core::config::Metric;
use udf_prob::metrics::{ks, lambda_discrepancy};
use udf_prob::{Ecdf, InputDistribution};

/// Reference samples per audited answer.
const REFERENCE_SAMPLES: usize = 20_000;

/// Audit totals for one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Audit {
    pub audited: u64,
    pub violations: u64,
    /// Largest realized distance as a share of the reported bound.
    pub worst_ratio: f64,
}

/// Audit the answers the workload's audit plan kept.
pub fn audit(workload: Workload, seed: u64, setup: &Setup, phase: &Phase) -> Result<Audit, String> {
    let mut total = Audit::default();
    for rec in &phase.records {
        let stmt = workload.statement(seed, rec.index);
        let entry = setup
            .ctx
            .udfs()
            .get(stmt.udf)
            .ok_or_else(|| format!("UDF {} is not registered", stmt.udf))?;
        // A private counter: the audit must not show up in any count.
        let udf = entry.udf.fork_counter();
        let lambda = entry.default_lambda();
        for (j, answer) in rec.outcome.kept.iter().enumerate() {
            let input = audit_input(setup, stmt.relation.as_deref(), &answer.input)?;
            let mut rng = StdRng::seed_from_u64(mix(seed, 0xa0d1, (rec.index * 1000 + j) as u64));
            let samples = input
                .sample_n(&mut rng, REFERENCE_SAMPLES)
                .iter()
                .map(|x| udf.eval(x))
                .collect();
            let reference = Ecdf::new(samples).map_err(|e| e.to_string())?;
            let realized = match (&answer.ecdf, stmt.metric) {
                (Some(e), Metric::Ks) => ks(e, &reference),
                (Some(e), Metric::Discrepancy) => lambda_discrepancy(e, &reference, lambda),
                (None, _) => {
                    let m = answer.median;
                    let below = reference.values().partition_point(|&v| v < m);
                    let below = below as f64 / reference.len() as f64;
                    (0.5 - reference.cdf(m)).max(below - 0.5)
                }
            };
            total.audited += 1;
            if realized > answer.error_bound {
                total.violations += 1;
            }
            total.worst_ratio = total.worst_ratio.max(realized / answer.error_bound);
        }
    }
    Ok(total)
}

fn audit_input(
    setup: &Setup,
    relation: Option<&str>,
    input: &AnswerInput,
) -> Result<InputDistribution, String> {
    let rel = || {
        relation
            .and_then(|name| setup.ctx.relation(name))
            .ok_or_else(|| format!("relation {relation:?} is not registered"))
    };
    let marginals = match *input {
        // Column 0 is the object id; the rest are the UDF's arguments.
        AnswerInput::Tuple(i) => rel()?.tuples()[i].values()[1..]
            .iter()
            .map(|v| v.marginal())
            .collect::<Result<Vec<_>, _>>(),
        AnswerInput::Pair(l, r) => {
            let t = rel()?.tuples();
            [&t[l], &t[r]]
                .iter()
                .map(|t| t.value(1).marginal())
                .collect::<Result<Vec<_>, _>>()
        }
        AnswerInput::Stream(t) => {
            return relation
                .and_then(|name| setup.stream_input(name, t))
                .ok_or_else(|| "stream answer without a stream catalog".to_string())
        }
    }
    .map_err(|e| e.to_string())?;
    InputDistribution::independent(marginals).map_err(|e| e.to_string())
}
