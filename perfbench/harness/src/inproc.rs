//! The in-process workloads, `paper_mix` and `large_pool`: a closed
//! loop of one caller, each operation the CLI `solve` path
//! (`SystemSpec::from_dsl` → `lint_spec` → `Engine::solve_spec` →
//! `system_report`) on one long-lived engine.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rascad_core::{report, CoreError, Engine, SystemSolution, Verdict};
use rascad_markov::{CancelToken, MarkovError, SolveOptions, SteadyStateMethod};
use rascad_spec::SystemSpec;

use crate::calib::Clock;
use crate::inputs::{self, OpInput};
use crate::layers::{self, us, vec_mul_steps, Rows};
use crate::mttf;
use crate::rng::Rng;
use crate::stats::{self, Metrics};
use crate::{serve, Args, RunResult};

/// How an operation ended: the causes it counts in `failed` under
/// (none for a success), and any correctness failure, which also makes
/// the run incorrect.
#[derive(Debug, Clone, Default)]
struct Outcome {
    causes: Vec<&'static str>,
    wrong: Option<String>,
}

/// The system figures the sequential cross-check compares bit for bit.
type Figures = (u64, u64, u64);

fn figures(sol: &SystemSolution) -> Figures {
    let s = &sol.system;
    (s.availability.to_bits(), s.interval_availability.to_bits(), s.mttf_hours.to_bits())
}

fn cause(e: &CoreError) -> &'static str {
    match e {
        CoreError::Markov { source: MarkovError::Singular, .. } => "singular LU",
        CoreError::Markov {
            source: MarkovError::Timeout { .. } | MarkovError::Cancelled { .. },
            ..
        } => DEADLINE_ERROR,
        CoreError::Spec(_) => "spec error",
        _ => "solver error",
    }
}

const DEADLINE_ERROR: &str = "deadline error";

fn options(deadline_ms: Option<u64>) -> SolveOptions {
    let mut opts = SolveOptions::default();
    if let Some(ms) = deadline_ms {
        let budget = Duration::from_millis(ms);
        opts.wall_clock = Some(budget);
        opts.cancel = Some(CancelToken::with_deadline(Instant::now() + budget));
    }
    opts
}

fn parse_and_lint(dsl: &str) -> Result<SystemSpec, CoreError> {
    let spec = SystemSpec::from_dsl(dsl).map_err(CoreError::Spec)?;
    let lint = rascad_lint::lint_spec(&spec);
    if lint.has_errors() {
        return Err(CoreError::InvalidRequest { what: "spec has blocking lint errors".into() });
    }
    Ok(spec)
}

/// One operation of the CLI `solve` path; the caller times it.
fn operation(engine: &Engine, input: &OpInput) -> Result<SystemSolution, CoreError> {
    let spec = parse_and_lint(&input.dsl)?;
    let sol = engine.solve_spec_with_options(
        &spec,
        SteadyStateMethod::Gth,
        &options(input.deadline_ms),
    )?;
    black_box(report::system_report(&spec.root.name, &sol));
    Ok(sol)
}

/// Classifies a returned operation. Certificates are checked on every
/// success, a one-block spec's MTTF against the exact birth–death
/// value, and the deadline rule on every deadline-bounded answer.
fn classify(input: &OpInput, result: &Result<SystemSolution, CoreError>, ms: f64) -> Outcome {
    let mut o = Outcome::default();
    let sol = match result {
        Err(e) => {
            o.causes.push(cause(e));
            return o;
        }
        Ok(sol) => sol,
    };
    if let Some(b) = sol.blocks.iter().find(|b| b.certificate.verdict != Verdict::Ok) {
        o.wrong = Some(format!(
            "{}: block `{}` certificate {}",
            input.label, b.path, b.certificate.verdict
        ));
    }
    if let [b] = sol.blocks.as_slice() {
        if let Some(ln) = mttf::ln_mttf(&b.model.chain) {
            if !mttf::matches(ln, sol.system.mttf_hours) {
                o.causes.push("MTTF off the exact value");
            }
        }
    }
    if input.deadline_ms.is_some_and(|d| ms > 2.0 * d as f64) {
        o.causes.push("deadline overshoot (> 2x)");
    }
    o
}

/// What a measured pass collected.
struct Pass {
    latencies_ms: Vec<f64>,
    outcomes: Vec<Outcome>,
    /// Elapsed over deadline, per deadline-bounded operation.
    deadline_ratios: Vec<f64>,
    /// `(op index, input, figures or error text)` of the sampled ops.
    samples: Vec<(usize, OpInput, Result<Figures, String>)>,
    /// The loop's time without the kernel samples, s.
    wall_s: f64,
    peak_rss_mb: f64,
}

/// Ops per cross-checked sample: about 30 samples a run on `paper_mix`,
/// two on `large_pool` (each reference solve costs a full second there).
fn sample_period(workload: &str) -> usize {
    if workload == "paper_mix" {
        64
    } else {
        13
    }
}

/// How often the closed loop times the machine-speed kernel: after
/// every `large_pool` operation.
const KERNEL_EVERY: Duration = Duration::from_millis(500);

/// The machine-speed reference of a workload whose times are scaled by
/// it: `large_pool`'s, as the kernel is its own hot loop. `paper_mix`
/// solves small chains on the engine's workers, which the kernel does
/// not model, so its times are reported as measured.
fn clock_for(workload: &str) -> Option<Clock> {
    (workload == "large_pool").then(Clock::new)
}

/// Runs the closed loop for `seconds`, from the run's first operation,
/// timing the machine-speed kernel between operations.
fn measure(
    args: &Args,
    bases: &[SystemSpec],
    engine: &Engine,
    seconds: f64,
    clock: &mut Option<Clock>,
) -> Pass {
    let period = sample_period(&args.workload);
    let offset = Rng::new(args.seed).fork(0xC4EC).index(period);
    let mut pass = Pass {
        latencies_ms: Vec::new(),
        outcomes: Vec::new(),
        deadline_ratios: Vec::new(),
        samples: Vec::new(),
        wall_s: 0.0,
        peak_rss_mb: 0.0,
    };
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut kernel_time = Duration::ZERO;
    let mut i = 0;
    while Instant::now() < end {
        if let Some(c) = clock {
            kernel_time += c.tick(KERNEL_EVERY);
        }
        let input = inputs::op_input(&args.workload, args.seed, i, bases);
        let t = Instant::now();
        let result = operation(engine, &input);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        pass.latencies_ms.push(ms);
        if let Some(d) = input.deadline_ms {
            pass.deadline_ratios.push(ms / d as f64);
        }
        pass.outcomes.push(classify(&input, &result, ms));
        if (i + offset).is_multiple_of(period) {
            let fig = result.as_ref().map(figures).map_err(|e| e.to_string());
            pass.samples.push((i, input, fig));
        }
        i += 1;
    }
    pass.wall_s = (start.elapsed() - kernel_time).as_secs_f64();
    pass.peak_rss_mb = stats::peak_rss_mb("self");
    pass
}

/// Re-solves each sampled op on `Engine::sequential()`: the engine's
/// determinism contract makes every figure bit-identical. Ops whose
/// deadline tripped are skipped (the reference runs unbounded).
fn cross_check(pass: &mut Pass) {
    let reference = Engine::sequential();
    for (i, input, got) in &pass.samples {
        if pass.outcomes[*i].causes.contains(&DEADLINE_ERROR) {
            continue;
        }
        let want = parse_and_lint(&input.dsl)
            .and_then(|spec| reference.solve_spec(&spec))
            .map(|sol| figures(&sol))
            .map_err(|e| e.to_string());
        if &want != got {
            pass.outcomes[*i].wrong = Some(format!(
                "{} op {i}: {got:?} differs from the sequential engine's {want:?}",
                input.label
            ));
        }
    }
}

/// Tallies outcomes: `(attempted, failed, wrong, operations per cause)`.
fn tally(outcomes: &[Outcome]) -> (u64, u64, Vec<String>, BTreeMap<&'static str, u64>) {
    let mut failed = 0;
    let mut wrong = Vec::new();
    let mut causes = BTreeMap::new();
    for o in outcomes {
        if let Some(why) = &o.wrong {
            wrong.push(why.clone());
            *causes.entry("wrong result").or_insert(0) += 1;
        }
        for c in &o.causes {
            *causes.entry(*c).or_insert(0) += 1;
        }
        failed += u64::from(o.wrong.is_some() || !o.causes.is_empty());
    }
    (outcomes.len() as u64, failed, wrong, causes)
}

/// Set-up rounds; the median is reported.
const SETUP_ROUNDS: usize = 5;

/// Set-up, [`SETUP_ROUNDS`] times over, each after a kernel sample:
/// build the base inputs and the engine, then let lazy set-up finish by
/// running each unperturbed base spec once through the operation path.
/// Perturbed operations still miss the cache afterwards.
fn setup(args: &Args, clock: &mut Option<Clock>) -> (f64, Vec<SystemSpec>, Engine) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_ROUNDS {
        if let Some(c) = clock {
            c.tick(Duration::ZERO);
        }
        let t = Instant::now();
        let (bases, warm) = if args.workload == "paper_mix" {
            let bases = inputs::paper_bases();
            let warm = bases.iter().map(SystemSpec::to_dsl).collect();
            (bases, warm)
        } else {
            let mid = (inputs::POOL_MTBF_RANGE.0 + inputs::POOL_MTBF_RANGE.1) / 2.0;
            (Vec::new(), vec![inputs::pool_dsl(mid)])
        };
        let engine = Engine::new();
        for dsl in warm {
            let _ = black_box(operation(
                &engine,
                &OpInput { label: "warm-up", dsl, deadline_ms: None },
            ));
        }
        times.push(t.elapsed().as_secs_f64());
        last = Some((bases, engine));
    }
    let (bases, engine) = last.expect("at least one round");
    (stats::median(&times), bases, engine)
}

pub fn run(args: &Args) -> RunResult {
    let mut clock = clock_for(&args.workload);
    let (setup_s, bases, engine) = setup(args, &mut clock);
    if args.trace {
        return traced(args, &bases, &engine);
    }
    let mut pass = measure(args, &bases, &engine, args.seconds, &mut clock);
    cross_check(&mut pass);
    let (attempted, failed, wrong, causes) = tally(&pass.outcomes);
    let answered = pass.latencies_ms.len() as f64;
    let (tail, pct) = stats::tail(&pass.latencies_ms);
    let p50 = stats::median(&pass.latencies_ms);
    let ratio = if pass.deadline_ratios.is_empty() {
        // Without explicit deadlines every solve runs under the
        // solver's default wall-clock budget.
        let budget_ms =
            SolveOptions::default().wall_clock.map_or(f64::NAN, |d| d.as_secs_f64() * 1e3);
        p50 / budget_ms
    } else {
        stats::median(&pass.deadline_ratios)
    };
    let f = clock.as_ref().map_or(1.0, Clock::factor);
    println!(
        "{}: {} ops in {:.3} s on {} engine threads; tail is p{pct:.2} (n = {}); failed_ratio {:.4}; causes {causes:?}",
        args.workload,
        attempted,
        pass.wall_s,
        engine.threads(),
        pass.latencies_ms.len(),
        failed as f64 / attempted.max(1) as f64
    );
    if let Some(c) = &clock {
        println!(
            "{}: kernel median {:.3} ms over {} samples, so times below are x{f:.4} of those measured: setup {setup_s:.4} s, p50 {p50:.3} ms, tail {tail:.3} ms",
            args.workload,
            c.median_ms(),
            c.samples()
        );
    }
    let mut m = Metrics::default();
    m.put("setup_s", setup_s * f, "s");
    m.put("latency_ms_p50", p50 * f, "ms");
    m.put("latency_ms_tail", tail * f, "ms");
    m.put("throughput_ops_s", answered / (pass.wall_s * f), "1/s");
    m.put("deadline_overshoot_p50", ratio * f, "ratio");
    m.put("peak_rss_mb", pass.peak_rss_mb, "MB");
    RunResult { attempted, failed, wrong, metrics: m }
}

// ------------------------------------------------------------------ traced

/// Replays one operation on this thread through each layer's public
/// calls, with every row timed inside the operation window.
///
/// Outside the window the operation first runs as in the end-to-end
/// pass, on the run's engine: that solve is the one classified, and it
/// caches every block. The window then covers parse, lint, each block's
/// generate, steady, interval and reliability calls in walk order, the
/// engine's own time and the report, stamped back to back, so the rows
/// tile the window and `unattributed_us` is only the walking and
/// stamping between them. The engine's own time is the engine's second
/// solve of the spec, with every block cached: batch spawn, roll-up,
/// cache lookups, and the chain generation the lookups are keyed by. A
/// failed operation has no roll-up or report, as the engine returns the
/// error first.
fn replay_op(
    engine: &Engine,
    input: &OpInput,
    traced: bool,
    hits: &mut (u64, u64),
) -> (Rows, Outcome) {
    let before = engine.cache_stats();
    let t = Instant::now();
    let cold = parse_and_lint(&input.dsl).and_then(|spec| {
        engine.solve_spec_with_options(&spec, SteadyStateMethod::Gth, &options(input.deadline_ms))
    });
    let mut outcome = classify(input, &cold, t.elapsed().as_secs_f64() * 1e3);
    let after = engine.cache_stats();
    hits.0 += after.hits - before.hits;
    hits.1 += after.hits + after.misses - before.hits - before.misses;

    if traced {
        rascad_obs::install(Vec::new());
    }
    let steps0 = vec_mul_steps();
    let mut r = Rows::default();
    let t0 = Instant::now();
    let spec = SystemSpec::from_dsl(&input.dsl).expect("generated inputs parse");
    let t1 = Instant::now();
    black_box(rascad_lint::lint_spec(&spec));
    let t2 = Instant::now();
    let availability = layers::per_block(&spec, |_| true, &mut r);
    let t3 = Instant::now();
    let warm = cold.as_ref().ok().map(|_| {
        engine.solve_spec_with_options(&spec, SteadyStateMethod::Gth, &options(input.deadline_ms))
    });
    let t4 = Instant::now();
    if let Some(Ok(sol)) = &warm {
        black_box(report::system_report(&spec.root.name, sol));
    }
    let t5 = Instant::now();
    r.vec_mul_steps = vec_mul_steps() - steps0;
    if traced {
        rascad_obs::uninstall();
    }
    r.op = us(t5 - t0);
    r.from_dsl = us(t1 - t0);
    r.lint = us(t2 - t1);
    r.engine = us(t4 - t3);
    r.report = us(t5 - t4);

    // The replayed calls must compute what the engine computed.
    if let Ok(sol) = &cold {
        let engine_bits: Vec<Option<u64>> =
            sol.blocks.iter().map(|b| Some(b.measures.availability.to_bits())).collect();
        if engine_bits != availability {
            outcome.wrong = Some(format!(
                "{}: replayed block availabilities {availability:?} differ from the engine's {engine_bits:?}",
                input.label
            ));
        }
    }
    if let Some(Err(e)) = &warm {
        outcome.wrong = Some(format!("{}: cached re-solve failed: {e}", input.label));
    }
    (r, outcome)
}

/// The traced run: operations replayed through the layers' public
/// calls ([`replay_op`]), with telemetry installed for every other pair
/// of operations. The rows are the traced operations' means; the
/// tracing overhead is the traced windows' median minus the untraced
/// ones'. Then a short probe of the same inputs through the daemon.
fn traced(args: &Args, bases: &[SystemSpec], engine: &Engine) -> RunResult {
    let end = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rows: Vec<Rows> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut outcomes = Vec::new();
    let mut hits = (0, 0);
    let mut probe_inputs = Vec::new();
    let mut i = 0;
    while Instant::now() < end || rows.len() < 2 || untraced_ms.len() < 2 {
        let input = inputs::op_input(&args.workload, args.seed, i, bases);
        // Pairs, so each half holds both of large_pool's operation kinds.
        let on = (i / 2) % 2 == 1;
        let (r, outcome) = replay_op(engine, &input, on, &mut hits);
        if on {
            rows.push(r);
        } else {
            untraced_ms.push(r.op / 1e3);
        }
        outcomes.push(outcome);
        if probe_inputs.len() < 4 {
            probe_inputs.push(input);
        }
        i += 1;
    }
    let mean = Rows::mean(&rows);
    let attributed = mean.from_dsl + mean.lint + mean.blocks() + mean.engine + mean.report;
    let traced_ms: Vec<f64> = rows.iter().map(|r| r.op / 1e3).collect();
    let (attempted, failed, wrong, causes) = tally(&outcomes);
    println!(
        "{} traced: {} operations, {} with telemetry; failed {causes:?}",
        args.workload,
        attempted,
        rows.len()
    );
    let bodies: Vec<String> =
        probe_inputs.iter().map(|inp| serve::solve_body(&inp.dsl, inp.deadline_ms)).collect();
    let probe = serve::probe(args, &bodies);
    let hit_ratio = if hits.1 == 0 { 0.0 } else { hits.0 as f64 / hits.1 as f64 };
    let mut m = Metrics::default();
    m.put("trace.op_us", mean.op, "us");
    m.put("trace.overhead_ms", stats::median(&traced_ms) - stats::median(&untraced_ms), "ms");
    mean.put_core(hit_ratio, &mut m);
    probe.put_rows(&mut m);
    m.put("unattributed_us", mean.op - attributed, "us");
    m.put("failed_ratio", failed as f64 / attempted.max(1) as f64, "ratio");
    RunResult { attempted, failed, wrong, metrics: m }
}

/// The byte-level inputs of the first `n` operations, for the self-test.
pub fn fingerprint_inputs(workload: &str, seed: u64, n: usize) -> String {
    let bases = if workload == "paper_mix" { inputs::paper_bases() } else { Vec::new() };
    (0..n)
        .map(|i| {
            let inp = inputs::op_input(workload, seed, i, &bases);
            format!("{}|{:?}|{}\n", inp.label, inp.deadline_ms, inp.dsl)
        })
        .collect()
}
