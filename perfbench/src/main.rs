//! The repository benchmark: one of four UQL workloads, driven through
//! `udf_lang::run_uql` by a single closed-loop client.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload q1_select --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures with the metrics registry and trace buffer off and
//! reports the end-to-end metrics; `--trace 1` runs the same statements
//! once untraced and once traced and reports the per-layer metrics. Every
//! metric is printed by name with its unit; the last line of standard
//! output is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for the workloads and metrics.

mod audit;
mod host;
mod layers;
mod run;
mod stats;
mod workload;

use run::Phase;
use stats::{binomial_upper_tail, median, ratio, tail};
use std::process::ExitCode;
use std::time::Instant;
use udf_obs::json::JsonObj;
use workload::{Setup, Workload};

/// Failure probability δ every workload requests.
const DELTA: f64 = 0.05;
/// The audit fails when its violation count is this unlikely under δ.
const AUDIT_ALPHA: f64 = 1e-3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (expected one of {names:?})")
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Correctness bookkeeping: statements and checks attempted, failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn phase(&mut self, p: &Phase) {
        self.attempted += p.statements;
        self.failures.extend(p.failures.iter().cloned());
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let t_setup = Instant::now();
    let mut setup = w.setup(args.seed)?;
    let first_setup_s = t_setup.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    println!(
        "workload {} seed {} seconds {} trace {} (available parallelism {})",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let metrics = if !args.trace {
        let phase = run::measure(w, args.seed, &mut setup, args.seconds, false);
        tally.phase(&phase);
        check_determinism(w, args.seed, &mut setup, &phase, &mut tally);
        let audit = check_audit(w, args.seed, &setup, &phase, &mut tally)?;
        report_extras(&phase, &audit, &tally);
        let mut samples = phase.setup_s.clone();
        samples.push(first_setup_s);
        end_to_end(&phase, median(&samples))?
    } else {
        let untraced = run::measure(w, args.seed, &mut setup, args.seconds / 2.0, false);
        tally.phase(&untraced);
        // A fresh context over the same inputs, so both phases start cold.
        let mut setup = w.setup(args.seed)?;
        let traced = run::measure(w, args.seed, &mut setup, args.seconds / 2.0, true);
        tally.phase(&traced);
        let fp = |p: &Phase| p.records.first().map(|r| (r.index, r.outcome.fingerprint));
        tally.check(fp(&untraced) == fp(&traced), || {
            "statement 0 differs with tracing on (tracing must be output-blind)".to_string()
        });
        let t_audit = Instant::now();
        check_audit(w, args.seed, &setup, &traced, &mut tally)?;
        let audit_ns = t_audit.elapsed().as_nanos() as u64;

        // Overhead over the list both phases ran (same statements, same
        // work) at the nominal host speed: traced against untraced.
        let overhead_pct = 100.0 * (ratio(traced.wall_s(), untraced.wall_s()) - 1.0);
        let mut layers = traced.layers.expect("a traced phase has layers");
        let trace = &mut layers.trace;
        trace.push("bench.setup", None, (first_setup_s * 1e9) as u64);
        trace.push("bench.audit", None, audit_ns);
        println!("{:<28} {:>12} {:>12}", "span", "total_ms", "self_ms");
        for (name, (total, own)) in trace.by_name() {
            println!(
                "{name:<28} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        layers.metrics(overhead_pct)
    };
    for f in &tally.failures {
        println!("FAILED: {f}");
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let mut m = JsonObj::new();
    for (name, value, unit) in &metrics {
        let mut v = JsonObj::new();
        v.f64("value", *value).str("unit", unit);
        m.raw(name, &v.finish());
    }
    let mut out = JsonObj::new();
    out.bool("correct", tally.failures.is_empty())
        .u64("attempted", tally.attempted)
        .u64("failed", tally.failures.len() as u64)
        .raw("metrics", &m.finish());
    println!("{}", out.finish());
    Ok(())
}

fn check_determinism(w: Workload, seed: u64, setup: &mut Setup, phase: &Phase, tally: &mut Tally) {
    let (made, failures) = run::determinism_checks(w, seed, setup, phase);
    tally.attempted += made;
    tally.failures.extend(failures);
}

/// Run the accuracy audit and count it as one check: it fails when the
/// violations are too many to be chance at the requested δ.
fn check_audit(
    w: Workload,
    seed: u64,
    setup: &Setup,
    phase: &Phase,
    tally: &mut Tally,
) -> Result<audit::Audit, String> {
    let a = audit::audit(w, seed, setup, phase)?;
    let p = binomial_upper_tail(a.audited, a.violations, DELTA);
    tally.check(a.audited > 0 && p >= AUDIT_ALPHA, || {
        format!(
            "accuracy audit: {} of {} answers exceed their reported bound \
             (P = {p:.2e} at δ = {DELTA})",
            a.violations, a.audited
        )
    });
    Ok(a)
}

fn end_to_end(
    phase: &Phase,
    setup_s: f64,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let latencies = phase.latencies_ms();
    let tail = tail(&latencies).ok_or_else(|| {
        format!(
            "{} latency samples: too few for a tail with {} beyond",
            latencies.len(),
            stats::TAIL_BEYOND
        )
    })?;
    let f = &phase.first;
    let wall_s = phase.wall_s();
    println!(
        "latency_tail is p{:.2} of {} samples; over all {} requests of {} rounds, unscaled, \
         the tail is {:.4} ms; {} statements, {} UDF calls; a round is {} tuples, {} UDF \
         calls, {:.4} s",
        tail.percentile,
        tail.samples,
        phase.requests,
        phase.rounds,
        phase.slowest.tail().unwrap_or(f64::NAN),
        phase.statements,
        phase.udf_calls,
        f.tuples,
        f.udf_calls,
        wall_s
    );
    let host = host::scale(&phase.reference_ms);
    println!(
        "host speed: reference median {:.4} ms over {} runs (nominal {} ms), so set-up \
         times are scaled by {host:.4}; unscaled set-up {setup_s:.6} s",
        median(&phase.reference_ms),
        phase.reference_ms.len(),
        host::NOMINAL_MS,
    );
    Ok(vec![
        ("latency_p50_ms", median(&latencies), "ms"),
        ("latency_tail_ms", tail.value, "ms"),
        ("tuples_per_s", ratio(f.tuples as f64, wall_s), "1/s"),
        (
            "modelled_ms_per_tuple",
            ratio(wall_s * 1e3 + f.charged_ms, f.tuples as f64),
            "ms",
        ),
        // Over the first round, so it repeats exactly for a seed.
        (
            "udf_calls_per_tuple",
            ratio(f.udf_calls as f64, f.tuples as f64),
            "count",
        ),
        ("setup_s", setup_s * host, "s"),
        ("peak_rss_mb", peak_rss_mb()?, "MB"),
    ])
}

/// Metrics printed for the reader but not gated: they are zero on some
/// workloads, or only defined on one.
fn report_extras(phase: &Phase, audit: &audit::Audit, tally: &Tally) {
    let p = &phase.first;
    println!(
        "metric cap_hit_frac = {} ratio",
        ratio(p.capped as f64, p.answers as f64)
    );
    println!(
        "metric accuracy_violation_frac = {} ratio ({} of {} audited; worst realized/bound {:.3})",
        ratio(audit.violations as f64, audit.audited as f64),
        audit.violations,
        audit.audited,
        audit.worst_ratio
    );
    println!(
        "metric failed_frac = {} ratio",
        ratio(tally.failures.len() as f64, tally.attempted as f64)
    );
    if phase.twins > 0 {
        println!(
            "metric speedup_vs_mc = {} x ({} statements; modelled {:.1} ms by MC, {:.1} ms by GP)",
            ratio(phase.twins_ms, phase.twinned_ms),
            phase.twins,
            phase.twins_ms,
            phase.twinned_ms
        );
    }
    if phase.stats_calls_mc > 0 {
        println!(
            "MC statements: {} UDF calls reported, {} counted on the catalog handles",
            phase.stats_calls_mc, phase.handle_calls_mc,
        );
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
