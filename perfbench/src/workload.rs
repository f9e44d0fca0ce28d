//! The four workloads: how each builds its inputs from the workload seed
//! and which UQL statements its single closed-loop client sends.
//!
//! Every input comes from the `udf-workloads` generators, seeded here; the
//! engine only ever receives relations, a stream source and statement text.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use udf_core::config::Metric;
use udf_lang::{run_uql, Context};
use udf_prob::InputDistribution;
use udf_query::{Relation, Schema, Tuple, Value};
use udf_stream::{AstroSource, EngineConfig, Source};
use udf_workloads::astro::GalaxyCatalog;
use udf_workloads::synthetic::{generate_inputs, InputKind};
use udf_workloads::UdfCatalog;

/// Tuples in each of `q1_select`'s redshift-shell relations (one relation
/// per statement).
const SHELL_TUPLES: usize = 4;
/// Stars in each of `q2_join`'s relations (one relation per statement).
const STARS: usize = 16;
/// Galaxies each `stream_warm` source cycles (one source per statement),
/// tuples per statement, and the micro-batch size (one latency sample per
/// batch).
const STREAM_GALAXIES: usize = 64;
const STREAM_LIMIT: usize = 256;
const STREAM_BATCH: usize = 16;
/// Tuples in the `short_mc` relation, and the §6.1-B input spread.
const MC_TUPLES: usize = 16;
const MC_SIGMA: f64 = 0.5;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Q1Select,
    StreamWarm,
    Q2Join,
    ShortMc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Q1Select,
        Workload::StreamWarm,
        Workload::Q2Join,
        Workload::ShortMc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Q1Select => "q1_select",
            Workload::StreamWarm => "stream_warm",
            Workload::Q2Join => "q2_join",
            Workload::ShortMc => "short_mc",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Statements in the workload's list. A run sends the list round
    /// after round; each statement's latency is its median over the rounds
    /// (see `run::measure`). Sized so that a round takes 0.2–5 s on a 2-CPU host
    /// and a 25-second window holds at least four rounds.
    pub fn statements(self) -> usize {
        match self {
            Workload::Q1Select => 48,
            Workload::StreamWarm => 32,
            Workload::Q2Join => 40,
            Workload::ShortMc => 4096,
        }
    }

    /// The audit takes `answers` evenly spaced answers from the first run of
    /// every `every`-th statement of the list: 32 to 80 answers a run.
    pub fn audit_plan(self) -> AuditPlan {
        let (every, answers) = match self {
            Workload::Q1Select => (2, 2),
            Workload::StreamWarm => (1, 2),
            Workload::Q2Join => (2, 4),
            Workload::ShortMc => (64, 1),
        };
        AuditPlan { every, answers }
    }

    /// Build the context and register this workload's inputs.
    pub fn setup(self, seed: u64) -> Result<Setup, String> {
        let mut ctx = Context::standard();
        let mut rng = StdRng::seed_from_u64(mix(seed, self as u64, u64::MAX));
        let mut pulls = None;
        let mut streams = BTreeMap::new();
        match self {
            Workload::Q1Select => {
                for k in 0..self.statements() {
                    ctx.register_relation(format!("shells{k}"), shells(&mut rng));
                }
            }
            Workload::Q2Join => {
                for k in 0..self.statements() {
                    let cat = GalaxyCatalog::generate(STARS, &mut rng);
                    ctx.register_relation(format!("stars{k}"), redshifts(&cat));
                }
            }
            Workload::ShortMc => {
                let inputs = generate_inputs(InputKind::Gaussian, 1, MC_TUPLES, MC_SIGMA, &mut rng);
                let tuples = inputs
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        Tuple::new(vec![
                            Value::Det(i as f64),
                            Value::Gaussian {
                                mu: d.mean()[0],
                                sigma: MC_SIGMA,
                            },
                        ])
                    })
                    .collect();
                let rel =
                    Relation::new(Schema::new(&["id", "x"]), tuples).map_err(|e| e.to_string())?;
                ctx.register_relation("pts", rel);
                for f in 1..=4 {
                    run_uql(
                        &format!(
                            "PREPARE p{f} AS SELECT F{f}(x) WITH ACCURACY 0.3 0.05 METRIC ks \
                             FROM pts WHERE PR(F{f}(x) IN [$1, $2]) >= 0.5 \
                             USING mc WORKERS 2 SEED {f}"
                        ),
                        &mut ctx,
                    )
                    .map_err(|e| e.to_string())?;
                }
            }
            Workload::StreamWarm => {
                let log = Arc::new(Mutex::new(Vec::new()));
                for k in 0..self.statements() {
                    let cat = GalaxyCatalog::generate(STREAM_GALAXIES, &mut rng);
                    let (c, l) = (cat.clone(), log.clone());
                    ctx.register_stream(format!("sky_stream{k}"), 1, move || {
                        Box::new(TimedSource {
                            inner: AstroSource::galage(c.clone()),
                            pulls: l.clone(),
                        })
                    });
                    streams.insert(format!("sky_stream{k}"), cat);
                }
                pulls = Some(log);
            }
        }
        Ok(Setup {
            ctx,
            pulls,
            streams,
        })
    }

    /// Statement `i` of the workload's list for `seed`. Statement 0 is
    /// always a one-shot statement, so it can be re-run at other worker
    /// counts for the parity check.
    pub fn statement(self, seed: u64, i: usize) -> Stmt {
        let mut rng = StdRng::seed_from_u64(mix(seed, self as u64, i as u64));
        let s: u32 = rng.gen();
        match self {
            Workload::Q1Select => {
                // A broad band and a low θ keep almost every shell: each
                // statement then tunes all of its tuples, so statement times
                // do not split into modes by how many tuples were filtered.
                let (lo, hi) = interval(&mut rng, "ComoveVol", 0.02, 0.9..1.0);
                let theta = rng.gen_range(0.05..0.15);
                let body = |strategy: &str| {
                    format!(
                        "SELECT ComoveVol(z1, z2) FROM shells{i} \
                         WHERE PR(ComoveVol(z1, z2) IN [{lo}, {hi}]) >= {theta} \
                         USING {strategy} WORKERS @W@ SEED {s}"
                    )
                };
                Stmt {
                    text: body("gp"),
                    workers: 1,
                    mc_twin: Some(body("mc")),
                    udf: "ComoveVol",
                    relation: Some(format!("shells{i}")),
                    eps: 0.1,
                    metric: Metric::Discrepancy,
                    gp: true,
                }
            }
            Workload::Q2Join => {
                let (lo, hi) = interval(&mut rng, "AngDist", 0.3, 0.2..0.5);
                let theta = rng.gen_range(0.3..0.6);
                let body = |using: &str| {
                    format!(
                        "SELECT AngDist(a.z, b.z) WITH ACCURACY 0.2 0.05 \
                         FROM stars{i} a JOIN stars{i} b ON a.objID < b.objID \
                         WHERE PR(AngDist(a.z, b.z) IN [{lo}, {hi}]) >= {theta} \
                         USING {using} WORKERS @W@ SEED {s}"
                    )
                };
                Stmt {
                    text: body("gp PRUNE MODEL CAP 64"),
                    workers: 2,
                    mc_twin: Some(body("mc")),
                    udf: "AngDist",
                    relation: Some(format!("stars{i}")),
                    eps: 0.2,
                    metric: Metric::Discrepancy,
                    gp: true,
                }
            }
            Workload::StreamWarm => Stmt {
                text: format!(
                    "SELECT GalAge(z) WITH ACCURACY 0.2 0.05 FROM STREAM sky_stream{i} \
                     USING gp MODEL CAP 32 LIMIT {STREAM_LIMIT} BATCH {STREAM_BATCH} \
                     WORKERS @W@ SEED {s}"
                ),
                workers: 1,
                mc_twin: None,
                udf: "GalAge",
                relation: Some(format!("sky_stream{i}")),
                eps: 0.2,
                metric: Metric::Discrepancy,
                gp: true,
            },
            Workload::ShortMc => {
                let f = 1 + i % 4;
                let name = ["F1", "F2", "F3", "F4"][f - 1];
                let (lo, hi) = interval(&mut rng, name, 0.3, 0.2..0.5);
                // Odd statements EXECUTE a prepared plan; one in four of
                // those repeats the plan's previous arguments exactly.
                let text = if i.is_multiple_of(2) {
                    format!(
                        "SELECT F{f}(x) WITH ACCURACY 0.3 0.05 METRIC ks FROM pts \
                         WHERE PR(F{f}(x) IN [{lo}, {hi}]) >= 0.5 \
                         USING mc WORKERS @W@ SEED {s}"
                    )
                } else if i >= 8 && rng.gen_range(0..4) == 0 {
                    return Workload::ShortMc.statement(seed, i - 4);
                } else {
                    format!("EXECUTE p{f} ({lo}, {hi})")
                };
                Stmt {
                    text,
                    workers: 2,
                    mc_twin: None,
                    udf: name,
                    relation: Some("pts".to_string()),
                    eps: 0.3,
                    metric: Metric::Ks,
                    gp: false,
                }
            }
        }
    }
}

/// Which answers of the first round the accuracy audit checks.
#[derive(Debug, Clone, Copy)]
pub struct AuditPlan {
    pub every: usize,
    pub answers: usize,
}

impl AuditPlan {
    /// How many answers of the first run of statement `i` to keep for the
    /// audit.
    pub fn keep(self, i: usize) -> usize {
        if i.is_multiple_of(self.every) {
            self.answers
        } else {
            0
        }
    }
}

/// A workload's context plus what the benchmark keeps to audit answers
/// and time stream batches from outside the engine.
pub struct Setup {
    pub ctx: Context,
    /// Pull times of the stream source, one per micro-batch.
    pub pulls: Option<Arc<Mutex<Vec<Instant>>>>,
    /// The catalog each stream source cycles, by stream name.
    pub streams: BTreeMap<String, GalaxyCatalog>,
}

impl Setup {
    /// The uncertain input of tuple `t` of stream `name` (the source
    /// cycles its catalog in row order).
    pub fn stream_input(&self, name: &str, t: u64) -> Option<InputDistribution> {
        let cat = self.streams.get(name)?;
        Some(cat.galage_input(t as usize % cat.len()))
    }
}

/// One statement of a workload.
#[derive(Debug, Clone)]
pub struct Stmt {
    /// Statement text with `@W@` standing for the worker count.
    text: String,
    /// The worker count the workload runs it at.
    pub workers: usize,
    /// The same statement `USING mc`, for modelled-time speed-up.
    mc_twin: Option<String>,
    pub udf: &'static str,
    /// The relation or stream source the statement reads.
    pub relation: Option<String>,
    /// Requested ε; an answer with a looser reported bound hit the cap.
    pub eps: f64,
    pub metric: Metric,
    /// Answered by GP emulation (the catalog handle's counter is shared).
    pub gp: bool,
}

impl Stmt {
    pub fn sql(&self, workers: usize) -> String {
        self.text.replace("@W@", &workers.to_string())
    }

    pub fn mc_twin(&self) -> Option<String> {
        let twin = self.mc_twin.as_ref()?;
        Some(twin.replace("@W@", &self.workers.to_string()))
    }

    /// Whether the text is a one-shot statement (not `EXECUTE`).
    pub fn one_shot(&self) -> bool {
        self.text.starts_with("SELECT")
    }
}

/// A stream source that records when the engine pulls each micro-batch.
struct TimedSource {
    inner: AstroSource,
    pulls: Arc<Mutex<Vec<Instant>>>,
}

impl Source for TimedSource {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<InputDistribution>) -> usize {
        self.pulls
            .lock()
            .expect("pull log poisoned by a panicking source")
            .push(Instant::now());
        self.inner.next_batch(max, out)
    }
}

/// Per-batch service times from a statement's pull log. The engine's
/// ingest thread pulls ahead until its bounded queue is full, so the first
/// `queue_depth` intervals measure the queue filling, not the engine; after
/// that each pull waits for one batch to be taken, and the interval between
/// pulls is one batch's service time.
pub fn batch_latencies_ms(pulls: &[Instant]) -> Vec<f64> {
    let skip = EngineConfig::new().queue_depth;
    pulls
        .windows(2)
        .skip(skip)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect()
}

/// A random `[lo, hi]` starting in the first `start` share of the UDF's
/// output range and covering a `width` share of it.
fn interval(rng: &mut StdRng, udf: &str, start: f64, width: Range<f64>) -> (f64, f64) {
    static CATALOG: OnceLock<UdfCatalog> = OnceLock::new();
    let range = CATALOG
        .get_or_init(UdfCatalog::standard)
        .get(udf)
        .expect("workload UDFs are in the standard catalog")
        .output_range;
    let lo = rng.gen_range(0.0..start) * range;
    (lo, lo + rng.gen_range(width) * range)
}

/// `q1_select`'s relation: each tuple is a redshift shell `(z1, z2)` with
/// `z1 < z2`, both Gaussian-uncertain, built from catalog galaxy pairs.
fn shells(rng: &mut StdRng) -> Relation {
    let cat = GalaxyCatalog::generate(2 * SHELL_TUPLES, rng);
    let tuples = cat
        .rows()
        .chunks(2)
        .enumerate()
        .map(|(i, pair)| {
            let (near, far) = if pair[0].z_mean <= pair[1].z_mean {
                (&pair[0], &pair[1])
            } else {
                (&pair[1], &pair[0])
            };
            Tuple::new(vec![
                Value::Det(i as f64),
                Value::Gaussian {
                    mu: near.z_mean,
                    sigma: near.z_sigma,
                },
                Value::Gaussian {
                    mu: far.z_mean,
                    sigma: far.z_sigma,
                },
            ])
        })
        .collect();
    Relation::new(Schema::new(&["objID", "z1", "z2"]), tuples).expect("three columns per tuple")
}

/// One `(objID, z)` tuple per catalog galaxy.
fn redshifts(cat: &GalaxyCatalog) -> Relation {
    let tuples = cat
        .rows()
        .iter()
        .map(|r| {
            Tuple::new(vec![
                Value::Det(r.obj_id as f64),
                Value::Gaussian {
                    mu: r.z_mean,
                    sigma: r.z_sigma,
                },
            ])
        })
        .collect();
    Relation::new(Schema::new(&["objID", "z"]), tuples).expect("two columns per tuple")
}

/// SplitMix64 over `(seed, stream, index)`: independent, reproducible RNG
/// seeds per workload and statement.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
