//! The rascad benchmark: one seeded command that runs a workload for a
//! fixed time, checks every output, and prints its metrics by name and
//! unit. See `perfbench/README.md`.
//!
//! ```text
//! perfbench-harness --workload <paper_mix|large_pool|serve_mix> --seed <n>
//!                   --seconds <s> --trace <0|1> --rascad <path to rascad>
//! perfbench-harness --self-test
//! ```

mod calib;
mod inproc;
mod inputs;
mod layers;
mod mttf;
mod rng;
mod serve;
mod stats;

use stats::Metrics;

pub const WORKLOADS: [&str; 3] = ["paper_mix", "large_pool", "serve_mix"];

/// `(name, unit)` of every end-to-end metric (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_ops_s", "1/s"),
    ("deadline_overshoot_p50", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric (`--trace 1`).
pub const PER_LAYER: [(&str, &str); 22] = [
    ("trace.op_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("spec.from_dsl_us", "us"),
    ("lint.lint_spec_us", "us"),
    ("core.generate_us", "us"),
    ("core.states", "count"),
    ("core.steady_us", "us"),
    ("core.interval_us", "us"),
    ("markov.transient.vec_mul_steps", "count"),
    ("core.reliability_us", "us"),
    ("core.engine_us", "us"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.report_us", "us"),
    ("serve.parse_body_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.dispatch_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.shed_ratio", "ratio"),
    ("obs.scrape_ms_first", "ms"),
    ("obs.scrape_ms_last", "ms"),
    ("unattributed_us", "us"),
    ("failed_ratio", "ratio"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub rascad: Option<String>,
}

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check failures; any makes the run incorrect.
    pub wrong: Vec<String>,
    pub metrics: Metrics,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench-harness --workload <{}> --seed <n> --seconds <s> --trace <0|1> --rascad <path>\n       perfbench-harness --self-test",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Option<Args> {
    let mut args =
        Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false, rascad: None };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            return None;
        }
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = format!("bad value for {flag}: `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage(&bad)),
            "--seconds" => {
                args.seconds =
                    value.parse::<f64>().ok().filter(|s| *s > 0.0).unwrap_or_else(|| usage(&bad));
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&bad),
                };
            }
            "--rascad" => args.rascad = Some(value.clone()),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    Some(args)
}

/// The self-test for one workload: the same seed regenerates
/// byte-identical inputs, another seed different ones.
fn self_test_inputs(workload: &str) -> Result<(), String> {
    let gen = |seed| {
        if workload == "serve_mix" {
            serve::fingerprint_schedule(seed, 3.0)
        } else {
            inproc::fingerprint_inputs(workload, seed, 6)
        }
    };
    let (a, b, c) = (gen(7), gen(7), gen(8));
    if a != b {
        return Err(format!("{workload}: seed 7 generated different inputs twice"));
    }
    if a == c {
        return Err(format!("{workload}: seeds 7 and 8 generated the same inputs"));
    }
    Ok(())
}

/// The exact MTTF reference agrees with the program's solver on a pool
/// small enough for it to be well conditioned (20 units, 15 needed),
/// and is finite for the `large_pool` block.
fn self_test_mttf() -> Result<String, String> {
    let exact = |dsl: &str| {
        let spec = rascad_spec::SystemSpec::from_dsl(dsl).map_err(|e| e.to_string())?;
        let mut out = Err("no block".to_string());
        spec.root.walk(&mut |_, _, b| {
            out = rascad_core::generator::generate_block(&b.params, &spec.globals)
                .map_err(|e| e.to_string())
                .map(|model| (mttf::ln_mttf(&model.chain), model, spec.globals.mission_time.0));
        });
        out
    };
    let (ln, model, mission) = exact(&inputs::sized_pool_dsl(20, 15, 20_000.0))?;
    let ln = ln.ok_or("the 20-unit pool is not a birth-death chain")?;
    let got = rascad_core::measures::reliability_measures(&model, mission)
        .map_err(|e| e.to_string())?
        .mttf_hours;
    if !mttf::matches(ln, got) {
        return Err(format!("20-unit pool: solver MTTF {got} h, exact {} h", ln.exp()));
    }
    let mid = (inputs::POOL_MTBF_RANGE.0 + inputs::POOL_MTBF_RANGE.1) / 2.0;
    let (ln_pool, ..) = exact(&inputs::pool_dsl(mid))?;
    let ln_pool = ln_pool.ok_or("the large pool is not a birth-death chain")?;
    Ok(format!(
        "20-unit pool MTTF {got:.6e} h matches the exact value; the large pool's is 10^{:.1} h",
        ln_pool / std::f64::consts::LN_10
    ))
}

/// Every metric of the run's set, once each, in order, with its unit.
fn self_test_metrics(trace: bool, m: &Metrics) -> Result<(), String> {
    let want: Vec<(&str, &str)> = if trace { PER_LAYER.to_vec() } else { END_TO_END.to_vec() };
    let have: Vec<(&str, &str)> = m.0.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
    if have == want {
        Ok(())
    } else {
        Err(format!("metric set {have:?} is not the declared {want:?}"))
    }
}

fn main() {
    let Some(args) = parse_args() else {
        let mut ok = true;
        for w in WORKLOADS {
            match self_test_inputs(w) {
                Ok(()) => println!("self-test {w}: inputs reproduce and vary with the seed"),
                Err(e) => {
                    println!("self-test FAILED: {e}");
                    ok = false;
                }
            }
        }
        match self_test_mttf() {
            Ok(msg) => println!("self-test mttf: {msg}"),
            Err(e) => {
                println!("self-test FAILED: mttf: {e}");
                ok = false;
            }
        }
        std::process::exit(i32::from(!ok));
    };
    let mut result =
        if args.workload == "serve_mix" { serve::run(&args) } else { inproc::run(&args) };
    let mut checks =
        vec![self_test_inputs(&args.workload), self_test_metrics(args.trace, &result.metrics)];
    if args.trace {
        checks.push(sum_check(&args.workload, &result.metrics));
    }
    for check in checks {
        if let Err(e) = check {
            result.wrong.push(format!("self-test: {e}"));
        }
    }
    for w in &result.wrong {
        eprintln!("perfbench: incorrect: {w}");
    }
    stats::print_result(result.wrong.is_empty(), result.attempted, result.failed, &result.metrics);
}

/// The rows that add up to the traced operation time on each workload.
/// Rows off a workload's path are reported but not summed: the serve
/// rows on the in-process workloads (a side probe of the same inputs),
/// and the text report on `serve_mix`.
fn summed_rows(workload: &str) -> &'static [&'static str] {
    if workload == "serve_mix" {
        &[
            "serve.transport_ms",
            "serve.parse_body_us",
            "spec.from_dsl_us",
            "lint.lint_spec_us",
            "core.generate_us",
            "core.steady_us",
            "core.interval_us",
            "core.reliability_us",
            "core.engine_us",
            "serve.encode_us",
            "unattributed_us",
        ]
    } else {
        &[
            "spec.from_dsl_us",
            "lint.lint_spec_us",
            "core.generate_us",
            "core.steady_us",
            "core.interval_us",
            "core.reliability_us",
            "core.engine_us",
            "core.report_us",
            "unattributed_us",
        ]
    }
}

/// The largest share of `trace.op_us` that `unattributed_us` may hold,
/// either way, before the run counts as incorrect. In-process, the rows
/// tile the replay window, so only the walking and stamping between
/// them is left. On `serve_mix` it is the daemon's dispatch time minus
/// the same requests replayed in-process: one computation measured
/// twice, in two processes at different moments.
fn unattributed_limit(workload: &str) -> f64 {
    if workload == "serve_mix" {
        UNATTRIBUTED_LIMIT_SERVE
    } else {
        UNATTRIBUTED_LIMIT_INPROC
    }
}

const UNATTRIBUTED_LIMIT_INPROC: f64 = 0.01;
const UNATTRIBUTED_LIMIT_SERVE: f64 = 0.25;

/// Checks that `unattributed_us` is within its share of `trace.op_us`
/// and names the largest row. The rows plus `unattributed_us` add up to
/// `trace.op_us` by definition; that sum is printed for reference.
fn sum_check(workload: &str, m: &Metrics) -> Result<(), String> {
    let get = |name: &str| {
        m.0.iter().find(|(n, ..)| n == name).map_or(f64::NAN, |(_, v, unit)| {
            if *unit == "ms" {
                v * 1e3
            } else {
                *v
            }
        })
    };
    let rows: Vec<(&str, f64)> = summed_rows(workload).iter().map(|&r| (r, get(r))).collect();
    let sum: f64 = rows.iter().map(|r| r.1).sum();
    let op = get("trace.op_us");
    let share = get("unattributed_us") / op;
    let largest = rows
        .iter()
        .filter(|r| r.0 != "unattributed_us")
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |r| r.0);
    println!(
        "{workload} traced: rows sum to {sum:.3} us of {op:.3} us per operation; unattributed {:.4} % of it; largest row {largest}",
        share * 100.0
    );
    let limit = unattributed_limit(workload);
    if share.abs() <= limit {
        Ok(())
    } else {
        Err(format!(
            "unattributed_us is {:.2} % of the traced operation, beyond the {:.0} % limit",
            share * 100.0,
            limit * 100.0
        ))
    }
}
