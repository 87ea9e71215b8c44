//! `bench` — deterministic benchmark suite with versioned
//! `BENCH_*.json` baselines and regression comparison.
//!
//! Runs the whole generate-and-solve pipeline as a fixed workload suite
//! (spec parse, MG generation for all five chain types, GTH/LU/power
//! stationary solves, transient and interval analysis, hierarchy
//! roll-up, parametric sweep, bounded simulation), captures per-stage
//! wall-clock plus the span/metric telemetry aggregated by
//! `rascad-obs`, and emits a machine-readable document that a later run
//! can be compared against (`--compare`). A comparison breaching the
//! failure threshold exits with code 6 so CI can gate on it.

use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rascad_bench::workloads::{self, BenchProfile};
use rascad_core::generator::generate_block;
use rascad_core::hierarchy::{interval_availability_exact, solve_spec};
use rascad_core::sweep::{lin_space, log_space, sweep};
use rascad_core::{certify_steady, certify_transient, CoreError, Engine, SolutionCertificate};
use rascad_markov::transient::{self, TransientOptions};
use rascad_markov::{Ctmc, MarkovError, SteadyStateMethod};
use rascad_obs::json::{self, Value};
use rascad_obs::{Event, MetricsSummary, Sink, SpanTreeAgg};
use rascad_sim::system_sim::{simulate_system, SystemSimOptions};
use rascad_spec::units::Hours;
use rascad_spec::SystemSpec;

use super::CliError;

/// Version tag of the emitted document; bump on breaking layout
/// changes so stale baselines are rejected instead of mis-compared.
const SCHEMA: &str = "rascad-bench/v2";

/// Accuracy gate: `--compare` fails (exit 6) when a stage's certified
/// residual grew by at least this factor over the baseline.
const ACCURACY_FAIL_RATIO: f64 = 10.0;

/// Residual growth at or past this factor (but under
/// [`ACCURACY_FAIL_RATIO`]) is reported as a warning.
const ACCURACY_WARN_RATIO: f64 = 3.0;

/// Default `--residual-floor`: a current residual at or below it always
/// passes the accuracy gate, so near-machine-precision residuals (which
/// legitimately wobble across architectures and libm versions) cannot
/// flake a cross-machine comparison.
const DEFAULT_RESIDUAL_FLOOR: f64 = 1e-13;

/// Parsed `bench` options.
struct BenchArgs {
    profile: BenchProfile,
    label: String,
    out: Option<String>,
    json: bool,
    compare: Option<String>,
    warn_ratio: f64,
    fail_ratio: f64,
    floor_us: f64,
    residual_floor: f64,
    workload: Workload,
}

/// The workload a `bench` run times. Each has its own gate table
/// ([`Workload::gates`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// The default pipeline suite.
    Suite,
    /// `--sweep`: the cached/parallel sweep engine against the
    /// sequential reference.
    Sweep,
    /// `--large`: the sparse rung, the occupancy expansion, and a lump
    /// proof.
    Large,
    /// `--serve`: an in-process daemon under load over real sockets.
    Serve,
}

impl Workload {
    const ALL: [Workload; 4] = [Workload::Suite, Workload::Sweep, Workload::Large, Workload::Serve];

    /// The name the document records under `workload`.
    fn name(self) -> &'static str {
        match self {
            Workload::Suite => "suite",
            Workload::Sweep => "sweep",
            Workload::Large => "large",
            Workload::Serve => "serve",
        }
    }

    /// The default label, so `bench --sweep` writes the committed
    /// baseline name `BENCH_sweep.json` out of the box.
    fn default_label(self) -> &'static str {
        match self {
            Workload::Suite => "local",
            other => other.name(),
        }
    }
}

/// Runs `bench [--quick|--full] [--sweep|--large|--serve] [--label L] [--out F]
/// [--json] [--compare BASE] [--warn-ratio R] [--fail-ratio R]
/// [--floor-us US]` or `bench --validate <file>`.
pub fn bench(args: &[&str]) -> Result<String, CliError> {
    if let Some(i) = args.iter().position(|a| *a == "--validate") {
        if args.len() != 2 || i != 0 {
            return Err(CliError::usage("usage: rascad bench --validate <bench.json>"));
        }
        return validate_file(args[1]);
    }
    run_suite(&parse_args(args)?)
}

fn parse_args(args: &[&str]) -> Result<BenchArgs, CliError> {
    let mut parsed = BenchArgs {
        profile: BenchProfile::quick(),
        label: String::new(),
        out: None,
        json: false,
        compare: None,
        warn_ratio: 1.25,
        fail_ratio: 2.0,
        floor_us: 50.0,
        residual_floor: DEFAULT_RESIDUAL_FLOOR,
        workload: Workload::Suite,
    };
    let mut workloads = Vec::new();
    let mut it = args.iter().copied();
    while let Some(arg) = it.next() {
        match arg {
            "--quick" => parsed.profile = BenchProfile::quick(),
            "--full" => parsed.profile = BenchProfile::full(),
            "--sweep" => workloads.push(Workload::Sweep),
            "--large" => workloads.push(Workload::Large),
            "--serve" => workloads.push(Workload::Serve),
            "--json" => parsed.json = true,
            "--label" => parsed.label = flag_value(&mut it, "--label")?.to_string(),
            "--out" => parsed.out = Some(flag_value(&mut it, "--out")?.to_string()),
            "--compare" => parsed.compare = Some(flag_value(&mut it, "--compare")?.to_string()),
            "--warn-ratio" => parsed.warn_ratio = flag_num(&mut it, "--warn-ratio")?,
            "--fail-ratio" => parsed.fail_ratio = flag_num(&mut it, "--fail-ratio")?,
            "--floor-us" => parsed.floor_us = flag_num(&mut it, "--floor-us")?,
            "--residual-floor" => parsed.residual_floor = flag_num(&mut it, "--residual-floor")?,
            other => {
                return Err(CliError::usage(format!("unknown bench option `{other}`")));
            }
        }
    }
    if let Some(&first) = workloads.first() {
        if workloads.iter().any(|w| *w != first) {
            return Err(CliError::usage(
                "--sweep, --large, and --serve are separate workloads; pick one",
            ));
        }
        parsed.workload = first;
    }
    if parsed.label.is_empty() {
        parsed.label = parsed.workload.default_label().to_string();
    }
    if !parsed.label.chars().all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_') {
        return Err(CliError::usage(format!(
            "bench label `{}` must be non-empty [A-Za-z0-9_-]",
            parsed.label
        )));
    }
    let ratios_ok = parsed.warn_ratio >= 1.0 && parsed.fail_ratio >= parsed.warn_ratio;
    if !ratios_ok {
        return Err(CliError::usage(format!(
            "need 1 <= warn-ratio <= fail-ratio, got {} and {}",
            parsed.warn_ratio, parsed.fail_ratio
        )));
    }
    if parsed.floor_us.is_nan() || parsed.floor_us < 0.0 {
        return Err(CliError::usage(format!("floor-us {} must be >= 0", parsed.floor_us)));
    }
    if parsed.residual_floor.is_nan() || parsed.residual_floor < 0.0 {
        return Err(CliError::usage(format!(
            "residual-floor {} must be >= 0",
            parsed.residual_floor
        )));
    }
    Ok(parsed)
}

fn flag_value<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, CliError> {
    it.next().ok_or_else(|| CliError::usage(format!("{flag} needs an argument")))
}

fn flag_num<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<f64, CliError> {
    let s = flag_value(it, flag)?;
    s.parse().map_err(|_| CliError::usage(format!("bad {flag} value: `{s}`")))
}

// ---------------------------------------------------------------------------
// Suite execution
// ---------------------------------------------------------------------------

/// Wall-clock summary of one benchmark stage.
struct StageResult {
    name: &'static str,
    runs: usize,
    min_us: f64,
    mean_us: f64,
    max_us: f64,
    /// Accuracy certificate of the solves this stage runs, when it
    /// solves anything (timing-only stages carry `None`).
    cert: Option<StageCert>,
}

/// The worst certificate (highest verdict, then highest residual)
/// among a stage's solves — what the baseline pins and the accuracy
/// gate compares.
#[derive(Clone)]
struct StageCert {
    method: String,
    verdict: &'static str,
    residual: f64,
    prob_mass_error: f64,
}

/// Reduces a stage's certificates to the worst one. `Verdict` orders
/// ok < warn < fail and `total_cmp` ranks NaN above every number, so a
/// poisoned residual can never hide behind a clean sibling.
fn worst_certificate(certs: impl IntoIterator<Item = SolutionCertificate>) -> Option<StageCert> {
    certs
        .into_iter()
        .max_by(|a, b| a.verdict.cmp(&b.verdict).then(a.residual_inf.total_cmp(&b.residual_inf)))
        .map(|c| StageCert {
            method: c.method,
            verdict: c.verdict.as_str(),
            residual: c.residual_inf,
            prob_mass_error: c.prob_mass_error,
        })
}

/// Numerical spot checks recorded alongside the timings so a baseline
/// also pins the *answers*, not just the speed.
struct Checks {
    availability: f64,
    yearly_downtime_minutes: f64,
    /// The simulator's estimate; only the suite runs a simulation.
    sim_availability: Option<f64>,
}

impl Checks {
    /// Checks for a workload that measures only an availability.
    fn from_availability(availability: f64) -> Checks {
        Checks {
            availability,
            yearly_downtime_minutes: (1.0 - availability) * Hours::PER_YEAR * 60.0,
            sim_availability: None,
        }
    }
}

/// What one workload run produced: per-stage timings, the spot checks,
/// and the value of every claim its gate table bounds, in table order.
struct WorkloadRun {
    stages: Vec<StageResult>,
    checks: Checks,
    claims: Vec<(&'static str, Value)>,
}

/// Forwards span events into a [`SpanTreeAgg`] and keeps the final
/// drain-time metrics summary.
struct BenchCapture {
    tree: Arc<Mutex<SpanTreeAgg>>,
    metrics: Arc<Mutex<Option<MetricsSummary>>>,
}

impl Sink for BenchCapture {
    fn event(&mut self, event: &Event) {
        if let Event::Metrics { counters, gauges, values } = event {
            if let Ok(mut slot) = self.metrics.lock() {
                *slot = Some(MetricsSummary {
                    counters: counters.clone(),
                    gauges: gauges.clone(),
                    values: values.clone(),
                });
            }
        } else if let Ok(mut tree) = self.tree.lock() {
            tree.observe(event);
        }
    }
}

/// Disables tracing again if `bench` was the one to enable it, even on
/// an early error return.
struct CaptureGuard {
    active: bool,
}

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        if self.active {
            rascad_obs::uninstall();
        }
    }
}

/// Times `iterations` runs of `work` after one untimed warm-up run.
fn time_stage<T>(
    name: &'static str,
    iterations: usize,
    mut work: impl FnMut() -> Result<T, CliError>,
) -> Result<StageResult, CliError> {
    black_box(work()?);
    let runs = iterations.max(1);
    let mut min_us = f64::INFINITY;
    let mut max_us: f64 = 0.0;
    let mut sum_us = 0.0;
    for _ in 0..runs {
        let t = Instant::now();
        black_box(work()?);
        let us = t.elapsed().as_secs_f64() * 1e6;
        min_us = min_us.min(us);
        max_us = max_us.max(us);
        sum_us += us;
    }
    #[allow(clippy::cast_precision_loss)] // benchmark run counts stay far below 2^52
    let mean_us = sum_us / runs as f64;
    Ok(StageResult { name, runs, min_us, mean_us, max_us, cert: None })
}

/// Certifies one untimed solve of every chain with the given method —
/// the certificate a solve stage attaches to its timings.
fn steady_stage_cert(
    chains: &[Ctmc],
    method: SteadyStateMethod,
    name: &'static str,
) -> Result<Option<StageCert>, CliError> {
    let mut certs = Vec::with_capacity(chains.len());
    for chain in chains {
        let pi = chain.steady_state(method).map_err(markov_err(name))?;
        certs.push(certify_steady(chain, &pi, name, Vec::new()));
    }
    Ok(worst_certificate(certs))
}

fn markov_err(stage: &'static str) -> impl Fn(MarkovError) -> CliError {
    move |source| CliError::Solver(CoreError::Markov { block: stage.to_string(), source })
}

fn run_stages(profile: &BenchProfile) -> Result<WorkloadRun, CliError> {
    let globals = rascad_bench::globals();
    let blocks = workloads::chain_type_blocks();
    let hierarchy = workloads::hierarchy_spec();
    let sweep_base = workloads::sweep_spec();
    let power = workloads::power_chain();
    let reps = profile.iterations;

    let mut stages = Vec::new();

    stages.push(time_stage("parse_dsl", reps, || {
        for _ in 0..16 {
            black_box(SystemSpec::from_dsl(workloads::HIERARCHY_DSL).map_err(CliError::Spec)?);
        }
        Ok(())
    })?);

    for (ty, params) in &blocks {
        let name = GENERATE_STAGES[usize::from(*ty)];
        stages.push(time_stage(name, reps, || {
            for _ in 0..8 {
                black_box(generate_block(params, &globals)?);
            }
            Ok(())
        })?);
    }

    let chains: Vec<Ctmc> = blocks
        .iter()
        .map(|(_, p)| generate_block(p, &globals).map(|m| m.chain))
        .collect::<Result<_, _>>()?;

    let mut stage = time_stage("solve_gth", reps, || {
        for chain in &chains {
            black_box(chain.steady_state(SteadyStateMethod::Gth).map_err(markov_err("gth"))?);
        }
        Ok(())
    })?;
    stage.cert = steady_stage_cert(&chains, SteadyStateMethod::Gth, "gth")?;
    stages.push(stage);

    let mut stage = time_stage("solve_lu", reps, || {
        for chain in &chains {
            black_box(chain.steady_state(SteadyStateMethod::Lu).map_err(markov_err("lu"))?);
        }
        Ok(())
    })?;
    stage.cert = steady_stage_cert(&chains, SteadyStateMethod::Lu, "lu")?;
    stages.push(stage);

    let mut stage = time_stage("solve_power", reps, || {
        black_box(power.steady_state(SteadyStateMethod::Power).map_err(markov_err("power"))?);
        Ok(())
    })?;
    stage.cert =
        steady_stage_cert(std::slice::from_ref(&power), SteadyStateMethod::Power, "power")?;
    stages.push(stage);

    // Type 3 is the paper's diagrammed template; start in the
    // everything-working state.
    let transient_chain = &chains[3];
    let mut p0 = vec![0.0; transient_chain.len()];
    p0[0] = 1.0;
    let mut stage = time_stage("transient", reps, || {
        black_box(
            transient::solve(
                transient_chain,
                &p0,
                profile.transient_hours,
                TransientOptions::default(),
            )
            .map_err(markov_err("transient"))?,
        );
        Ok(())
    })?;
    let tsol = transient::solve(
        transient_chain,
        &p0,
        profile.transient_hours,
        TransientOptions::default(),
    )
    .map_err(markov_err("transient"))?;
    stage.cert = worst_certificate([certify_transient(&tsol)]);
    stages.push(stage);

    stages.push(time_stage("interval_exact", reps, || {
        black_box(interval_availability_exact(
            &hierarchy,
            profile.interval_horizon_hours,
            profile.interval_grid_points,
        )?);
        Ok(())
    })?);

    let mut availability = f64::NAN;
    let mut yearly_downtime_minutes = f64::NAN;
    let mut hier_certs: Vec<SolutionCertificate> = Vec::new();
    let mut stage = time_stage("hierarchy", reps, || {
        let solution = solve_spec(&hierarchy)?;
        availability = solution.system.availability;
        yearly_downtime_minutes = solution.system.yearly_downtime_minutes;
        hier_certs = solution.blocks.iter().map(|b| b.certificate.clone()).collect();
        black_box(solution);
        Ok(())
    })?;
    stage.cert = worst_certificate(hier_certs);
    stages.push(stage);

    let sweep_values = log_space(1.0, 8.0, profile.sweep_points)?;
    let sweep_apply = |spec: &mut SystemSpec, v: f64| {
        if let Some(block) = spec.root.find_mut(workloads::SWEEP_BLOCK) {
            block.params.service_response = Hours(v);
        }
    };
    let mut stage = time_stage("sweep", reps, || {
        black_box(sweep(&sweep_base, &sweep_values, sweep_apply)?);
        Ok(())
    })?;
    let points = sweep(&sweep_base, &sweep_values, sweep_apply)?;
    stage.cert = worst_certificate(
        points.iter().flat_map(|p| p.solution.blocks.iter().map(|b| b.certificate.clone())),
    );
    stages.push(stage);

    let mut sim_availability = f64::NAN;
    stages.push(time_stage("simulate", reps, || {
        let result = simulate_system(
            &hierarchy,
            &SystemSimOptions {
                horizon_hours: profile.sim_horizon_hours,
                replications: profile.sim_replications,
                seed: 0xbead,
                deterministic_repairs: false,
            },
        )?;
        sim_availability = result.availability.mean;
        black_box(result);
        Ok(())
    })?);

    let checks =
        Checks { availability, yearly_downtime_minutes, sim_availability: Some(sim_availability) };
    Ok(WorkloadRun { stages, checks, claims: Vec::new() })
}

/// Stage names of the five chain-template generations, by type.
const GENERATE_STAGES: [&str; 5] =
    ["generate_type0", "generate_type1", "generate_type2", "generate_type3", "generate_type4"];

// ---------------------------------------------------------------------------
// Sweep-scaling workload (`--sweep`)
// ---------------------------------------------------------------------------

/// Contender thread count for the sweep-scaling workload.
const SWEEP_THREADS: usize = 4;

/// Times the sweep-scaling workload: the pre-engine behavior
/// (sequential, cache-free) against the solve engine at one and
/// [`SWEEP_THREADS`] workers, plus the cache statistics of one
/// instrumented run and a bit-identity verdict against the reference.
/// Every timed run builds a fresh engine so its cache starts cold; the
/// hits measured are the ones a single sweep earns for itself by
/// reusing unchanged blocks across points.
fn run_sweep_stages(profile: &BenchProfile) -> Result<WorkloadRun, CliError> {
    let base = workloads::sweep_scaling_spec();
    let blocks = base.root.blocks.len();
    let points = workloads::SWEEP_SCALING_POINTS;
    let values = lin_space(0.5, 48.0, points)?;
    let apply = |spec: &mut SystemSpec, v: f64| {
        if let Some(block) = spec.root.find_mut(workloads::SWEEP_SCALING_BLOCK) {
            block.params.service_response = Hours(v);
        }
    };
    let reps = profile.iterations;

    let mut stages = Vec::new();
    stages.push(time_stage("sweep_baseline_seq", reps, || {
        black_box(Engine::sequential().sweep(&base, &values, apply)?);
        Ok(())
    })?);
    stages.push(time_stage("sweep_engine_t1", reps, || {
        black_box(Engine::with_threads(1).sweep(&base, &values, apply)?);
        Ok(())
    })?);
    stages.push(time_stage("sweep_engine_tn", reps, || {
        black_box(Engine::with_threads(SWEEP_THREADS).sweep(&base, &values, apply)?);
        Ok(())
    })?);

    // One instrumented run for the cache statistics and the
    // bit-identity check against the sequential reference.
    let reference = Engine::sequential().sweep(&base, &values, apply)?;
    // All three stages time the same workload, so they share the
    // reference run's worst block certificate.
    let cert = worst_certificate(
        reference.iter().flat_map(|p| p.solution.blocks.iter().map(|b| b.certificate.clone())),
    );
    for stage in &mut stages {
        stage.cert = cert.clone();
    }
    let engine = Engine::with_threads(SWEEP_THREADS);
    let contender = engine.sweep(&base, &values, apply)?;
    let stats = engine.cache_stats();
    let bit_identical = reference.len() == contender.len()
        && reference.iter().zip(&contender).all(|(r, c)| {
            r.value.to_bits() == c.value.to_bits()
                && r.solution.system.availability.to_bits()
                    == c.solution.system.availability.to_bits()
                && r.solution.system.yearly_downtime_minutes.to_bits()
                    == c.solution.system.yearly_downtime_minutes.to_bits()
                && r.solution == c.solution
        });

    let (baseline_us, engine_t1_us, engine_tn_us) =
        (stages[0].min_us, stages[1].min_us, stages[2].min_us);
    let first = &reference[0].solution.system;
    let checks = Checks {
        availability: first.availability,
        yearly_downtime_minutes: first.yearly_downtime_minutes,
        sim_availability: None,
    };
    let claims = vec![
        ("points", Value::from(points)),
        ("blocks", Value::from(blocks)),
        ("threads", Value::from(SWEEP_THREADS)),
        // What the engine buys end to end.
        ("speedup_vs_baseline", Value::Num(baseline_us / engine_tn_us.max(1e-9))),
        // Thread scaling alone, which stays near 1.0 on single-core
        // machines where the gain is all cache.
        ("thread_scaling", Value::Num(engine_t1_us / engine_tn_us.max(1e-9))),
        ("cache_hits", Value::from(stats.hits)),
        ("cache_misses", Value::from(stats.misses)),
        ("cache_hit_rate", Value::Num(stats.hit_rate())),
        ("bit_identical", Value::from(bit_identical)),
    ];
    Ok(WorkloadRun { stages, checks, claims })
}

// ---------------------------------------------------------------------------
// Large-state-space workload (`--large`)
// ---------------------------------------------------------------------------

/// Times the large-state-space workload: the sparse iterative rung on
/// a 10^4–10^5-state birth–death chain, the generator's occupancy
/// expansion of a thousand-unit k-out-of-n block, and a brute-force
/// proof that exact lumping preserves the stationary vector on a
/// `2^8`-state product space.
fn run_large_stages(profile: &BenchProfile) -> Result<WorkloadRun, CliError> {
    use rascad_markov::{identical_units_product, lump, occupancy_partition};

    let reps = profile.iterations;
    let mut stages = Vec::new();

    // The headline chain: big enough that the core ladder routes it to
    // the sparse rung on state count alone.
    let chain = workloads::large_birth_death(profile.large_sparse_states);
    let method = rascad_core::select_method(chain.len(), SteadyStateMethod::Gth);
    let mut stage = time_stage("large_sparse", reps, || {
        black_box(chain.steady_state(method).map_err(markov_err("large_sparse"))?);
        Ok(())
    })?;
    stage.cert = steady_stage_cert(std::slice::from_ref(&chain), method, "sparse")?;
    let (sparse_verdict_ok, sparse_residual) =
        stage.cert.as_ref().map_or((false, f64::NAN), |c| (c.verdict == "ok", c.residual));
    stages.push(stage);

    // Repeated sparse solves of the same chain must agree bit for bit
    // (the sweep order is fixed).
    let first = chain.steady_state(method).map_err(markov_err("large_sparse"))?;
    let second = chain.steady_state(method).map_err(markov_err("large_sparse"))?;
    let bit_identical = first.len() == second.len()
        && first.iter().zip(&second).all(|(a, b)| a.to_bits() == b.to_bits());

    // The generator's birth–death template: a thousand-unit block is
    // 2^1000 product states on paper, N + 1 occupancy states in the
    // emitted chain.
    let globals = rascad_bench::globals();
    let params = workloads::large_block();
    stages.push(time_stage("large_block_generate", reps, || {
        black_box(generate_block(&params, &globals)?);
        Ok(())
    })?);
    let model = generate_block(&params, &globals)?;
    let block_method = rascad_core::select_method(model.chain.len(), SteadyStateMethod::Gth);
    let mut stage = time_stage("large_block_solve", reps, || {
        black_box(model.chain.steady_state(block_method).map_err(markov_err("large_block_solve"))?);
        Ok(())
    })?;
    stage.cert = steady_stage_cert(std::slice::from_ref(&model.chain), block_method, "sparse")?;
    stages.push(stage);
    let pi = model.chain.steady_state(block_method).map_err(markov_err("large_block_solve"))?;
    let block_availability: f64 =
        model.chain.states().iter().zip(&pi).map(|(s, p)| s.reward * p).sum();

    // Brute-force lump proof: the full 2^8 product space against its
    // 9-state occupancy lump.
    let (lam, mu) = (1.0 / 20_000.0, 1.0 / 5.0);
    let units = workloads::LUMP_PROOF_UNITS;
    let full = identical_units_product(units, workloads::LUMP_PROOF_MIN, lam, mu)
        .map_err(markov_err("lump_proof"))?;
    let partition = occupancy_partition(units).map_err(markov_err("lump_proof"))?;
    stages.push(time_stage("lump_proof", reps, || {
        let small = lump(&full, &partition).map_err(markov_err("lump_proof"))?;
        black_box(small.steady_state(SteadyStateMethod::Gth).map_err(markov_err("lump_proof"))?);
        Ok(())
    })?);
    let small = lump(&full, &partition).map_err(markov_err("lump_proof"))?;
    let pi_full = full.steady_state(SteadyStateMethod::Gth).map_err(markov_err("lump_proof"))?;
    let pi_small = small.steady_state(SteadyStateMethod::Gth).map_err(markov_err("lump_proof"))?;
    let lump_max_delta = partition
        .aggregate(&pi_full)
        .iter()
        .zip(&pi_small)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    let claims = vec![
        ("sparse_states", Value::from(chain.len())),
        ("sparse_rung", Value::from(method == SteadyStateMethod::Sparse)),
        ("sparse_verdict_ok", Value::from(sparse_verdict_ok)),
        ("sparse_residual", Value::Num(sparse_residual)),
        ("bit_identical", Value::from(bit_identical)),
        ("block_units", Value::from(workloads::LARGE_BLOCK_UNITS)),
        ("block_states", Value::from(model.chain.len())),
        ("block_availability", Value::Num(block_availability)),
        ("lump_proof_units", Value::from(units)),
        ("lump_full_states", Value::from(full.len())),
        ("lump_states", Value::from(small.len())),
        // Worst classwise difference between the aggregated
        // product-space stationary vector and the lumped chain's.
        ("lump_max_delta", Value::Num(lump_max_delta)),
    ];
    Ok(WorkloadRun { stages, checks: Checks::from_availability(block_availability), claims })
}

// ---------------------------------------------------------------------------
// Service load workload (`--serve`)
// ---------------------------------------------------------------------------

/// One blocking HTTP exchange against the in-process daemon.
fn serve_request(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), CliError> {
    use std::io::{Read as _, Write as _};
    let err = |e: std::io::Error| CliError::Serve(format!("bench client: {e}"));
    let mut stream = std::net::TcpStream::connect(addr).map_err(err)?;
    stream.set_read_timeout(Some(std::time::Duration::from_secs(60))).map_err(err)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).map_err(err)?;
    stream.write_all(body.as_bytes()).map_err(err)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(err)?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| CliError::Serve("bench client: truncated response".to_string()))?;
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| CliError::Serve(format!("bench client: bad status line `{head}`")))?;
    Ok((status, body.to_string()))
}

/// JSON-string-escapes a DSL payload for embedding in a request body.
fn json_escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// The throughput-phase spec: small, so the warm cross-request solve
/// cache is what the phase measures.
fn serve_small_spec() -> String {
    use rascad_spec::{BlockParams, Diagram, GlobalParams};
    let mut root = Diagram::new("BenchServe");
    root.push(BlockParams::new("A", 2, 1).with_mtbf(Hours(10_000.0)));
    root.push(BlockParams::new("B", 1, 1).with_mtbf(Hours(50_000.0)));
    SystemSpec::new(root, GlobalParams::default()).to_dsl()
}

/// The deadline-probe spec: a redundant 100 000-unit block expands
/// birth–death style to a ~10^5-state chain, far beyond a 50 ms budget.
fn serve_big_spec() -> String {
    use rascad_spec::{BlockParams, Diagram, GlobalParams};
    let mut root = Diagram::new("BenchServeBig");
    root.push(BlockParams::new("A", 100_000, 1).with_mtbf(Hours(10_000.0)));
    SystemSpec::new(root, GlobalParams::default()).to_dsl()
}

/// A stage summarizing latency samples (milliseconds, sorted ascending)
/// taken outside [`time_stage`].
#[allow(clippy::cast_precision_loss)] // sample counts stay far below 2^52
fn latency_stage(name: &'static str, sorted_ms: &[f64]) -> StageResult {
    let mean_ms = sorted_ms.iter().sum::<f64>() / sorted_ms.len().max(1) as f64;
    StageResult {
        name,
        runs: sorted_ms.len(),
        min_us: sorted_ms.first().map_or(f64::NAN, |ms| ms * 1e3),
        mean_us: mean_ms * 1e3,
        max_us: sorted_ms.last().map_or(f64::NAN, |ms| ms * 1e3),
        cert: None,
    }
}

/// Latency percentile over a sorted sample, nearest-rank.
fn percentile_ms(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
    #[allow(clippy::cast_sign_loss)]
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives an in-process daemon over real sockets: a >= 1000-solve
/// throughput phase with a latency histogram, a capacity-saturating
/// burst that must shed, a 50 ms deadline probe on a 10^5-state chain
/// that must abort typed, a metrics scrape, and a graceful drain.
#[allow(clippy::cast_precision_loss)] // request counts stay far below 2^52
#[allow(clippy::too_many_lines)]
fn run_serve_stages(profile: &BenchProfile) -> Result<WorkloadRun, CliError> {
    use rascad_serve::{AdmissionConfig, ServeConfig, Server};

    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        admission: AdmissionConfig { max_inflight: 8, max_per_tenant: 4, retry_after_secs: 1 },
        ..ServeConfig::default()
    })
    .map_err(|e| CliError::Serve(format!("bench cannot bind: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError::Serve(format!("bench cannot read bound address: {e}")))?;
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());

    let small = json_escape(&serve_small_spec());
    let big = json_escape(&serve_big_spec());
    let mut stages = Vec::new();

    // Throughput phase: four tenants, each storing the spec once and
    // then solving it by name until the pooled target is reached. All
    // requests go over real sockets, one connection per request.
    const CLIENTS: usize = 4;
    let target_solves = 500 * profile.iterations.max(2);
    let per_client = target_solves.div_ceil(CLIENTS);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(per_client * CLIENTS);
    let mut solves = 0usize;
    std::thread::scope(|scope| -> Result<(), CliError> {
        let mut workers = Vec::new();
        for client in 0..CLIENTS {
            let small = &small;
            workers.push(scope.spawn(move || -> Result<Vec<f64>, CliError> {
                let tenant = format!("bench-{client}");
                let put = format!(r#"{{"tenant":"{tenant}","name":"wl","spec":"{small}"}}"#);
                let (status, body) = serve_request(addr, "POST", "/v1/specs", &put)?;
                if status != 201 {
                    return Err(CliError::Serve(format!("spec store answered {status}: {body}")));
                }
                let solve = format!(r#"{{"tenant":"{tenant}","spec_name":"wl"}}"#);
                let mut lat = Vec::with_capacity(per_client);
                for _ in 0..per_client {
                    let t = Instant::now();
                    let (status, body) = serve_request(addr, "POST", "/v1/solve", &solve)?;
                    if status != 200 {
                        return Err(CliError::Serve(format!("solve answered {status}: {body}")));
                    }
                    lat.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Ok(lat)
            }));
        }
        for w in workers {
            let lat = w
                .join()
                .map_err(|_| CliError::Serve("bench client thread panicked".to_string()))??;
            solves += lat.len();
            latencies_ms.extend(lat);
        }
        Ok(())
    })?;
    latencies_ms.sort_by(f64::total_cmp);
    stages.push(latency_stage("serve_solve", &latencies_ms));

    // Availability spot check + response bit-identity, on the warm cache.
    let solve_body = r#"{"tenant":"bench-0","spec_name":"wl"}"#.to_string();
    let (s1, b1) = serve_request(addr, "POST", "/v1/solve", &solve_body)?;
    let (s2, b2) = serve_request(addr, "POST", "/v1/solve", &solve_body)?;
    let bit_identical = s1 == 200 && s2 == 200 && b1 == b2;
    let availability = json::parse(&b1)
        .ok()
        .and_then(|v| v.get("system")?.get("availability")?.as_f64())
        .unwrap_or(f64::NAN);

    // Burst phase: fill the whole admission capacity with deadline-
    // bounded big-chain solves (they hold their slots for ~1.5 s), then
    // hammer the gate — every burst attempt while saturated must shed.
    let mut shed = 0u64;
    let mut burst_attempts = 0u64;
    let mut burst_latencies: Vec<f64> = Vec::new();
    std::thread::scope(|scope| -> Result<(), CliError> {
        let mut holders = Vec::new();
        for h in 0..8 {
            let big = &big;
            holders.push(scope.spawn(move || {
                let tenant = format!("holder-{}", h % 2);
                let body = format!(r#"{{"tenant":"{tenant}","spec":"{big}","deadline_ms":1500}}"#);
                serve_request(addr, "POST", "/v1/solve", &body)
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(400));
        let probe = format!(r#"{{"tenant":"burst","spec":"{small}"}}"#);
        for _ in 0..40 {
            let t = Instant::now();
            let (status, _body) = serve_request(addr, "POST", "/v1/solve", &probe)?;
            burst_latencies.push(t.elapsed().as_secs_f64() * 1e3);
            burst_attempts += 1;
            if status == 429 {
                shed += 1;
            }
        }
        for h in holders {
            // Holders end typed (504 deadline after ~1.5 s, or 200 if
            // this machine somehow solved 10^5 states in time).
            let _ = h
                .join()
                .map_err(|_| CliError::Serve("bench holder thread panicked".to_string()))??;
        }
        Ok(())
    })?;
    let shed_rate = shed as f64 / burst_attempts.max(1) as f64;
    burst_latencies.sort_by(f64::total_cmp);
    stages.push(latency_stage("serve_shed_burst", &burst_latencies));

    // Deadline probe: the big chain under a 50 ms budget must abort
    // with the typed deadline family, promptly.
    let probe_body = format!(r#"{{"spec":"{big}","deadline_ms":50}}"#);
    let t = Instant::now();
    let (probe_status, probe_text) = serve_request(addr, "POST", "/v1/solve", &probe_body)?;
    let deadline_probe_ms = t.elapsed().as_secs_f64() * 1e3;
    let deadline_typed = probe_status == 504
        && json::parse(&probe_text)
            .ok()
            .and_then(|v| Some(v.get("error")?.get("kind")?.as_str()? == "deadline"))
            .unwrap_or(false);
    stages.push(latency_stage("serve_deadline_probe", &[deadline_probe_ms]));

    // Scrape phase: the exposition page must validate.
    let mut metrics_page_valid = false;
    stages.push(time_stage("serve_metrics_scrape", profile.iterations, || {
        let (status, page) = serve_request(addr, "GET", "/metrics", "")?;
        metrics_page_valid = status == 200 && rascad_obs::prometheus::validate(&page).is_ok();
        Ok(())
    })?);

    // Graceful drain: stop the daemon and collect its run summary.
    handle.shutdown();
    let summary =
        runner.join().map_err(|_| CliError::Serve("server thread panicked".to_string()))?;

    let claims = vec![
        // Successful (200) solves in the throughput phase.
        ("solves", Value::from(solves)),
        // Every request the server answered across all phases.
        ("requests", Value::from(summary.requests)),
        // 429 responses during the burst, and their share of it.
        ("shed", Value::from(shed)),
        ("shed_rate", Value::Num(shed_rate)),
        ("p50_ms", Value::Num(percentile_ms(&latencies_ms, 50.0))),
        ("p90_ms", Value::Num(percentile_ms(&latencies_ms, 90.0))),
        ("p99_ms", Value::Num(percentile_ms(&latencies_ms, 99.0))),
        // The probe answered 504 with the typed `deadline` error kind.
        ("deadline_typed", Value::from(deadline_typed)),
        // `/metrics` passed the Prometheus exposition validator.
        ("metrics_page_valid", Value::from(metrics_page_valid)),
        // Two identical solve requests returned byte-identical bodies.
        ("bit_identical", Value::from(bit_identical)),
        // The shutdown drain finished inside the timeout.
        ("drained_clean", Value::from(summary.drained_clean)),
        // System availability parsed back out of a solve response.
        ("availability", Value::Num(availability)),
    ];
    Ok(WorkloadRun { stages, checks: Checks::from_availability(availability), claims })
}

fn run_suite(args: &BenchArgs) -> Result<String, CliError> {
    // Capture telemetry through the obs layer unless the user already
    // routed it elsewhere with --trace/--timings (then the document's
    // spans/counters/values sections stay empty).
    let tree = Arc::new(Mutex::new(SpanTreeAgg::new()));
    let metrics: Arc<Mutex<Option<MetricsSummary>>> = Arc::new(Mutex::new(None));
    let own_subscriber = !rascad_obs::enabled();
    if own_subscriber {
        rascad_obs::install(vec![Box::new(BenchCapture {
            tree: Arc::clone(&tree),
            metrics: Arc::clone(&metrics),
        })]);
    }
    let guard = CaptureGuard { active: own_subscriber };

    let run = match args.workload {
        Workload::Suite => run_stages(&args.profile)?,
        Workload::Sweep => run_sweep_stages(&args.profile)?,
        Workload::Large => run_large_stages(&args.profile)?,
        Workload::Serve => run_serve_stages(&args.profile)?,
    };

    if own_subscriber {
        rascad_obs::drain();
    }
    drop(guard);

    let mut doc = document(args, &run, &tree, &metrics);

    let mut compare_report = None;
    if let Some(base_path) = &args.compare {
        let text = std::fs::read_to_string(base_path)
            .map_err(|source| CliError::Io { path: base_path.clone(), source })?;
        let baseline = json::parse(&text).map_err(|e| {
            CliError::usage(format!("baseline `{base_path}` is not valid JSON: {e}"))
        })?;
        check_document(&baseline)
            .map_err(|why| CliError::usage(format!("baseline `{base_path}`: {why}")))?;
        let outcome = compare_docs(&doc, &baseline, args);
        let report = render_compare(&outcome, base_path, args);
        if let Value::Obj(fields) = &mut doc {
            fields.push(("compare".to_string(), compare_json(&outcome, base_path, args)));
        }
        if outcome.fails > 0 {
            return Err(CliError::Regression(report));
        }
        compare_report = Some(report);
    }

    let out_path = match (&args.out, args.json) {
        (Some(path), _) => Some(path.clone()),
        (None, false) => Some(format!("BENCH_{}.json", args.label)),
        (None, true) => None,
    };
    if let Some(path) = &out_path {
        std::fs::write(path, doc.to_string_pretty())
            .map_err(|source| CliError::Io { path: path.clone(), source })?;
    }

    if args.json {
        let mut out = doc.to_string_pretty();
        out.push('\n');
        return Ok(out);
    }
    Ok(render_human(args, &run, compare_report.as_deref(), out_path.as_deref()))
}

// ---------------------------------------------------------------------------
// Claims and their gates
// ---------------------------------------------------------------------------

/// A gate on one claim's value. Every numeric bound also requires a
/// finite number.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Bound {
    /// `value >= x`.
    AtLeast(f64),
    /// `value <= x`.
    AtMost(f64),
    /// `value < x`.
    Below(f64),
    /// An exact count (matched to within 0.5).
    Equals(f64),
    /// `lo < value <= hi`.
    Within(f64, f64),
    /// A flag that must be `true`.
    True,
    /// At least the value of the named claim in the same document.
    AtLeastClaim(&'static str),
}

/// The bound on claims recorded for the reader but not gated — timings,
/// ratios and counts that vary across hosts: finite and non-negative.
const RECORDED: Bound = Bound::AtLeast(0.0);

impl Bound {
    /// The bound as a document records it, e.g. `>= 10000` or `< 1e-9`.
    fn describe(self) -> String {
        let num = |x: f64| if x.fract() == 0.0 { format!("{x}") } else { format!("{x:e}") };
        match self {
            Bound::AtLeast(x) => format!(">= {}", num(x)),
            Bound::AtMost(x) => format!("<= {}", num(x)),
            Bound::Below(x) => format!("< {}", num(x)),
            Bound::Equals(x) => format!("== {}", num(x)),
            Bound::Within(lo, hi) => format!("in ({}, {}]", num(lo), num(hi)),
            Bound::True => "== true".to_string(),
            Bound::AtLeastClaim(other) => format!(">= {other}"),
        }
    }

    /// Whether `value` meets the bound; `claim` looks up the numeric
    /// value of another claim for [`Bound::AtLeastClaim`].
    fn holds(self, value: &Value, claim: impl Fn(&str) -> Option<f64>) -> bool {
        let num = value.as_f64().filter(|v| v.is_finite());
        match self {
            Bound::AtLeast(x) => num.is_some_and(|v| v >= x),
            Bound::AtMost(x) => num.is_some_and(|v| v <= x),
            Bound::Below(x) => num.is_some_and(|v| v < x),
            Bound::Equals(x) => num.is_some_and(|v| (v - x).abs() < 0.5),
            Bound::Within(lo, hi) => num.is_some_and(|v| v > lo && v <= hi),
            Bound::True => value.as_bool() == Some(true),
            Bound::AtLeastClaim(other) => num.zip(claim(other)).is_some_and(|(v, o)| v >= o),
        }
    }
}

/// A workload's gate table: the stages its document must contain, and
/// every claim it must make with the bound that claim must meet.
struct Gates {
    stages: &'static [&'static str],
    claims: &'static [(&'static str, Bound)],
}

impl Gates {
    fn bound(&self, claim: &str) -> Option<Bound> {
        self.claims.iter().find(|(name, _)| *name == claim).map(|&(_, bound)| bound)
    }
}

const LARGE_BLOCK_STATES: f64 = workloads::LARGE_BLOCK_UNITS as f64 + 1.0;
const LUMP_STATES: f64 = workloads::LUMP_PROOF_UNITS as f64 + 1.0;

/// The suite's answers are pinned by `checks` and `--compare`; it makes
/// no claims.
const SUITE_GATES: Gates = Gates { stages: &[], claims: &[] };

/// Timing ratios are host-dependent and only recorded; the engine's
/// results must match the sequential reference bit for bit.
const SWEEP_GATES: Gates = Gates {
    stages: &[],
    claims: &[
        ("points", RECORDED),
        ("blocks", RECORDED),
        ("threads", RECORDED),
        ("speedup_vs_baseline", RECORDED),
        ("thread_scaling", RECORDED),
        ("cache_hits", RECORDED),
        ("cache_misses", RECORDED),
        ("cache_hit_rate", RECORDED),
        ("bit_identical", Bound::True),
    ],
};

/// The state counts and exactness the workload exists to show: a chain
/// of at least 10^4 states certified on the sparse rung, occupancy
/// lumps to units + 1 states, and a lump proof exact to 1e-9.
const LARGE_GATES: Gates = Gates {
    stages: &["large_sparse"],
    claims: &[
        ("sparse_states", Bound::AtLeast(10_000.0)),
        ("sparse_rung", Bound::True),
        ("sparse_verdict_ok", Bound::True),
        ("sparse_residual", Bound::Below(1e-9)),
        ("bit_identical", Bound::True),
        ("block_units", RECORDED),
        ("block_states", Bound::Equals(LARGE_BLOCK_STATES)),
        ("block_availability", RECORDED),
        ("lump_proof_units", RECORDED),
        ("lump_full_states", RECORDED),
        ("lump_states", Bound::Equals(LUMP_STATES)),
        ("lump_max_delta", Bound::AtMost(1e-9)),
    ],
};

/// Scale, shedding, typed deadlines and a clean drain are
/// machine-independent; latencies are only required to be ordered.
const SERVE_GATES: Gates = Gates {
    stages: &["serve_solve", "serve_shed_burst", "serve_deadline_probe"],
    claims: &[
        ("solves", Bound::AtLeast(1000.0)),
        ("requests", Bound::AtLeastClaim("solves")),
        ("shed", Bound::AtLeast(1.0)),
        ("shed_rate", Bound::Within(0.0, 1.0)),
        ("p50_ms", RECORDED),
        ("p90_ms", Bound::AtLeastClaim("p50_ms")),
        ("p99_ms", Bound::AtLeastClaim("p90_ms")),
        ("deadline_typed", Bound::True),
        ("metrics_page_valid", Bound::True),
        ("bit_identical", Bound::True),
        ("drained_clean", Bound::True),
        ("availability", Bound::Within(0.0, 1.0)),
    ],
};

impl Workload {
    /// The workload's gate table. The validator checks every claim
    /// against this table, never against the bound a document records,
    /// so an edited document cannot loosen its own gate.
    fn gates(self) -> &'static Gates {
        match self {
            Workload::Suite => &SUITE_GATES,
            Workload::Sweep => &SWEEP_GATES,
            Workload::Large => &LARGE_GATES,
            Workload::Serve => &SERVE_GATES,
        }
    }
}

/// Checks a document's `claims` against its workload's gate table:
/// every stage the table requires is present, and every claim it names
/// appears exactly once, records the table's bound and meets it. A
/// claim the table does not name is rejected.
fn check_claims(doc: &Value, stages: &[Value]) -> Result<(), String> {
    let name = doc.get("workload").and_then(Value::as_str).ok_or("missing `workload`")?;
    let gates = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?
        .gates();
    for stage in gates.stages {
        if !stages.iter().any(|s| s.get("name").and_then(Value::as_str) == Some(stage)) {
            return Err(format!("{name} document has no `{stage}` stage"));
        }
    }
    let claims = doc.get("claims").and_then(Value::as_array).ok_or("missing `claims` array")?;
    let mut entries: Vec<(&str, &Value)> = Vec::with_capacity(claims.len());
    for c in claims {
        let claim = c.get("name").and_then(Value::as_str).ok_or("claim without `name`")?;
        if gates.bound(claim).is_none() {
            return Err(format!("claim `{claim}` is not in the {name} gate table"));
        }
        if entries.iter().any(|(n, _)| *n == claim) {
            return Err(format!("claim `{claim}` appears more than once"));
        }
        entries.push((claim, c));
    }
    let entry = |claim: &str| entries.iter().find(|(n, _)| *n == claim).map(|&(_, c)| c);
    let value_of = |claim: &str| entry(claim)?.get("value")?.as_f64();
    for &(claim, bound) in gates.claims {
        let entry = entry(claim).ok_or_else(|| format!("{name} document lacks claim `{claim}`"))?;
        let gate = bound.describe();
        let recorded = entry.get("bound").and_then(Value::as_str).unwrap_or("");
        if recorded != gate {
            return Err(format!(
                "claim `{claim}` records bound `{recorded}`; its gate is `{gate}`"
            ));
        }
        let value = entry.get("value").unwrap_or(&Value::Null);
        if !bound.holds(value, value_of) {
            return Err(format!(
                "claim `{claim}` = {} breaks its gate `{gate}`",
                value.to_string_compact()
            ));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Document
// ---------------------------------------------------------------------------

fn document(
    args: &BenchArgs,
    run: &WorkloadRun,
    tree: &Arc<Mutex<SpanTreeAgg>>,
    metrics: &Arc<Mutex<Option<MetricsSummary>>>,
) -> Value {
    let created_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let env = Value::Obj(vec![
        ("os".to_string(), Value::from(std::env::consts::OS)),
        ("arch".to_string(), Value::from(std::env::consts::ARCH)),
        ("family".to_string(), Value::from(std::env::consts::FAMILY)),
        ("threads".to_string(), Value::from(threads)),
        ("debug_assertions".to_string(), Value::from(cfg!(debug_assertions))),
        ("pkg_version".to_string(), Value::from(env!("CARGO_PKG_VERSION"))),
    ]);
    let stages_json = Value::Arr(
        run.stages
            .iter()
            .map(|s| {
                let mut fields = vec![
                    ("name".to_string(), Value::from(s.name)),
                    ("runs".to_string(), Value::from(s.runs)),
                    ("min_us".to_string(), Value::Num(s.min_us)),
                    ("mean_us".to_string(), Value::Num(s.mean_us)),
                    ("max_us".to_string(), Value::Num(s.max_us)),
                ];
                if let Some(c) = &s.cert {
                    // Non-finite residuals serialize as null (JSON has
                    // no NaN); the fail verdict still records why.
                    fields.push((
                        "certificate".to_string(),
                        Value::Obj(vec![
                            ("method".to_string(), Value::from(c.method.as_str())),
                            ("verdict".to_string(), Value::from(c.verdict)),
                            ("residual".to_string(), Value::Num(c.residual)),
                            ("prob_mass_error".to_string(), Value::Num(c.prob_mass_error)),
                        ]),
                    ));
                }
                Value::Obj(fields)
            })
            .collect(),
    );
    let spans = tree.lock().map_or(Value::Arr(Vec::new()), |t| t.to_json());
    let (counters, gauges, values) =
        metrics.lock().ok().and_then(|mut slot| slot.take()).map_or_else(
            || (Value::Obj(Vec::new()), Value::Obj(Vec::new()), Value::Obj(Vec::new())),
            |m| {
                (
                    Value::Obj(
                        m.counters.iter().map(|(k, v)| (k.clone(), Value::from(*v))).collect(),
                    ),
                    Value::Obj(m.gauges.iter().map(|(k, v)| (k.clone(), Value::Num(*v))).collect()),
                    Value::Obj(m.values.iter().map(|(k, s)| (k.clone(), s.to_json())).collect()),
                )
            },
        );
    let mut checks = vec![
        ("availability".to_string(), Value::Num(run.checks.availability)),
        ("yearly_downtime_minutes".to_string(), Value::Num(run.checks.yearly_downtime_minutes)),
    ];
    if let Some(sim) = run.checks.sim_availability {
        checks.push(("sim_availability".to_string(), Value::Num(sim)));
    }
    let gates = args.workload.gates();
    let claims = run
        .claims
        .iter()
        .map(|(name, value)| {
            let bound = gates.bound(name).map_or_else(|| "none".to_string(), Bound::describe);
            Value::Obj(vec![
                ("name".to_string(), Value::from(*name)),
                ("value".to_string(), value.clone()),
                ("bound".to_string(), Value::from(bound)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".to_string(), Value::from(SCHEMA)),
        ("workload".to_string(), Value::from(args.workload.name())),
        ("label".to_string(), Value::from(args.label.as_str())),
        ("profile".to_string(), Value::from(args.profile.name)),
        ("created_unix".to_string(), Value::from(created_unix)),
        ("env".to_string(), env),
        ("stages".to_string(), stages_json),
        ("spans".to_string(), spans),
        ("counters".to_string(), counters),
        ("gauges".to_string(), gauges),
        ("values".to_string(), values),
        ("checks".to_string(), Value::Obj(checks)),
        ("claims".to_string(), Value::Arr(claims)),
    ])
}

/// Structural validation shared by `--validate` and `--compare`.
/// Returns `(label, profile, stage count)`.
fn check_document(doc: &Value) -> Result<(String, String, usize), String> {
    let schema = doc.get("schema").and_then(Value::as_str).ok_or("missing `schema` key")?;
    if schema != SCHEMA {
        return Err(format!("schema `{schema}` is not `{SCHEMA}`"));
    }
    let label = doc.get("label").and_then(Value::as_str).ok_or("missing `label`")?;
    let profile = doc.get("profile").and_then(Value::as_str).ok_or("missing `profile`")?;
    doc.get("created_unix").and_then(Value::as_f64).ok_or("missing `created_unix`")?;
    let env = doc.get("env").and_then(Value::as_object).ok_or("missing `env` object")?;
    for key in ["os", "arch", "threads", "debug_assertions", "pkg_version"] {
        if !env.iter().any(|(k, _)| k == key) {
            return Err(format!("env is missing `{key}`"));
        }
    }
    let stages = doc.get("stages").and_then(Value::as_array).ok_or("missing `stages` array")?;
    if stages.is_empty() {
        return Err("`stages` is empty".to_string());
    }
    for stage in stages {
        let name = stage.get("name").and_then(Value::as_str).ok_or("stage without `name`")?;
        for key in ["runs", "min_us", "mean_us", "max_us"] {
            let v = stage
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("stage `{name}` missing numeric `{key}`"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("stage `{name}` has bad `{key}`: {v}"));
            }
        }
        // Timing-only stages carry no certificate, but when present it
        // must be well-formed.
        if let Some(cert) = stage.get("certificate") {
            let verdict = cert
                .get("verdict")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("stage `{name}` certificate missing `verdict`"))?;
            if !["ok", "warn", "fail"].contains(&verdict) {
                return Err(format!("stage `{name}` has bad certificate verdict `{verdict}`"));
            }
            cert.get("method")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("stage `{name}` certificate missing `method`"))?;
            for key in ["residual", "prob_mass_error"] {
                let v = cert
                    .get(key)
                    .ok_or_else(|| format!("stage `{name}` certificate missing `{key}`"))?;
                // `null` is the JSON spelling of a non-finite residual
                // (which certifies as a fail verdict).
                if !(v.is_null() || v.as_f64().is_some()) {
                    return Err(format!("stage `{name}` certificate `{key}` is not a number"));
                }
                if v.as_f64().is_some_and(|x| x < 0.0) {
                    return Err(format!("stage `{name}` certificate has negative `{key}`"));
                }
            }
        }
    }
    doc.get("spans").and_then(Value::as_array).ok_or("missing `spans` array")?;
    doc.get("counters").and_then(Value::as_object).ok_or("missing `counters` object")?;
    doc.get("gauges").and_then(Value::as_object).ok_or("missing `gauges` object")?;
    doc.get("values").and_then(Value::as_object).ok_or("missing `values` object")?;
    doc.get("checks").and_then(Value::as_object).ok_or("missing `checks` object")?;
    check_claims(doc, stages)?;
    Ok((label.to_string(), profile.to_string(), stages.len()))
}

fn validate_file(path: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_string(), source })?;
    let doc = json::parse(&text)
        .map_err(|e| CliError::usage(format!("`{path}` is not valid JSON: {e}")))?;
    let (label, profile, n) =
        check_document(&doc).map_err(|why| CliError::usage(format!("`{path}`: {why}")))?;
    Ok(format!("ok: {path}: label \"{label}\", profile {profile}, {n} stages\n"))
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Ok,
    Warn,
    Fail,
    New,
    Missing,
}

impl Status {
    fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Warn => "warn",
            Status::Fail => "FAIL",
            Status::New => "new",
            Status::Missing => "missing",
        }
    }
}

#[derive(Debug)]
struct CompareRow {
    name: String,
    status: Status,
    base: f64,
    current: f64,
    ratio: f64,
}

#[derive(Debug)]
struct CompareOutcome {
    rows: Vec<CompareRow>,
    warns: usize,
    fails: usize,
}

fn stage_mins(doc: &Value) -> Vec<(String, f64)> {
    doc.get("stages")
        .and_then(Value::as_array)
        .map(|stages| {
            stages
                .iter()
                .filter_map(|s| {
                    let name = s.get("name")?.as_str()?;
                    let min = s.get("min_us")?.as_f64()?;
                    Some((name.to_string(), min))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn doc_counters(doc: &Value) -> Vec<(String, f64)> {
    doc.get("counters")
        .and_then(Value::as_object)
        .map(|obj| obj.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect())
        .unwrap_or_default()
}

/// `(stage name, certified residual, verdict)` for every stage that
/// carries a certificate. A `null` residual reads as NaN.
fn stage_certs(doc: &Value) -> Vec<(String, f64, String)> {
    doc.get("stages")
        .and_then(Value::as_array)
        .map(|stages| {
            stages
                .iter()
                .filter_map(|s| {
                    let name = s.get("name")?.as_str()?;
                    let cert = s.get("certificate")?;
                    let residual = cert.get("residual").and_then(Value::as_f64).unwrap_or(f64::NAN);
                    let verdict = cert.get("verdict")?.as_str()?;
                    Some((name.to_string(), residual, verdict.to_string()))
                })
                .collect()
        })
        .unwrap_or_default()
}

fn verdict_rank(verdict: &str) -> f64 {
    match verdict {
        "ok" => 0.0,
        "warn" => 1.0,
        _ => 2.0,
    }
}

/// Compares the current document against a baseline: stage minimums by
/// ratio against the warn/fail thresholds (stages where both sides are
/// under the noise floor always pass), workload counters for drift
/// (mismatch is a warning — it means the suite itself changed).
fn compare_docs(current: &Value, baseline: &Value, args: &BenchArgs) -> CompareOutcome {
    let cur = stage_mins(current);
    let base = stage_mins(baseline);
    let mut rows = Vec::new();

    for (name, cur_us) in &cur {
        match base.iter().find(|(n, _)| n == name) {
            None => rows.push(CompareRow {
                name: name.clone(),
                status: Status::New,
                base: f64::NAN,
                current: *cur_us,
                ratio: f64::NAN,
            }),
            Some((_, base_us)) => {
                let ratio = cur_us / base_us.max(1e-9);
                let status = if *cur_us < args.floor_us && *base_us < args.floor_us {
                    Status::Ok
                } else if ratio >= args.fail_ratio {
                    Status::Fail
                } else if ratio >= args.warn_ratio {
                    Status::Warn
                } else {
                    Status::Ok
                };
                rows.push(CompareRow {
                    name: name.clone(),
                    status,
                    base: *base_us,
                    current: *cur_us,
                    ratio,
                });
            }
        }
    }
    for (name, base_us) in &base {
        if !cur.iter().any(|(n, _)| n == name) {
            rows.push(CompareRow {
                name: name.clone(),
                status: Status::Missing,
                base: *base_us,
                current: f64::NAN,
                ratio: f64::NAN,
            });
        }
    }

    // Accuracy gate: a certified residual growing by
    // [`ACCURACY_FAIL_RATIO`] over the baseline is a regression even if
    // every timing held — the solver got *less right*, not slower. A
    // current residual at or below the floor always passes (it is still
    // at certification precision); a verdict that worsened is flagged
    // regardless of ratio.
    let cur_certs = stage_certs(current);
    for (name, base_res, base_verdict) in stage_certs(baseline) {
        let Some((_, cur_res, cur_verdict)) = cur_certs.iter().find(|(n, _, _)| *n == name) else {
            continue;
        };
        let (cur_rank, base_rank) = (verdict_rank(cur_verdict), verdict_rank(&base_verdict));
        if cur_rank > base_rank {
            rows.push(CompareRow {
                name: format!("verdict:{name}"),
                status: if cur_verdict == "fail" { Status::Fail } else { Status::Warn },
                base: base_rank,
                current: cur_rank,
                ratio: f64::NAN,
            });
        }
        if cur_res.is_finite() && base_res.is_finite() && *cur_res > args.residual_floor {
            let ratio = cur_res / base_res.max(1e-300);
            let status = if ratio >= ACCURACY_FAIL_RATIO {
                Status::Fail
            } else if ratio >= ACCURACY_WARN_RATIO {
                Status::Warn
            } else {
                Status::Ok
            };
            if status != Status::Ok {
                rows.push(CompareRow {
                    name: format!("residual:{name}"),
                    status,
                    base: base_res,
                    current: *cur_res,
                    ratio,
                });
            }
        }
    }

    let cur_counters = doc_counters(current);
    for (name, base_count) in doc_counters(baseline) {
        if let Some((_, cur_count)) = cur_counters.iter().find(|(n, _)| *n == name) {
            if (cur_count - base_count).abs() > 1e-9 {
                rows.push(CompareRow {
                    name: format!("counter:{name}"),
                    status: Status::Warn,
                    base: base_count,
                    current: *cur_count,
                    ratio: cur_count / base_count.max(1e-9),
                });
            }
        }
    }

    let warns = rows.iter().filter(|r| matches!(r.status, Status::Warn | Status::Missing)).count();
    let fails = rows.iter().filter(|r| r.status == Status::Fail).count();
    CompareOutcome { rows, warns, fails }
}

/// Compare-row value formatting: timings print fixed-point, residuals
/// (tiny by construction) print scientific instead of rounding to 0.0.
fn fmt_compare_value(v: f64) -> String {
    if !v.is_finite() {
        "-".to_string()
    } else if v != 0.0 && v.abs() < 0.1 {
        format!("{v:.2e}")
    } else {
        format!("{v:.1}")
    }
}

fn render_compare(outcome: &CompareOutcome, base_path: &str, args: &BenchArgs) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "comparison against {base_path} (warn x{}, fail x{}, floor {} us, \
         accuracy fail x{ACCURACY_FAIL_RATIO} above residual {:.0e}):",
        args.warn_ratio, args.fail_ratio, args.floor_us, args.residual_floor
    );
    let _ = writeln!(
        out,
        "  {:<24} {:>8} {:>12} {:>12} {:>8}",
        "stage", "status", "base", "current", "ratio"
    );
    for row in &outcome.rows {
        let _ = writeln!(
            out,
            "  {:<24} {:>8} {:>12} {:>12} {:>8}",
            row.name,
            row.status.as_str(),
            fmt_compare_value(row.base),
            fmt_compare_value(row.current),
            if row.ratio.is_finite() { format!("{:.2}x", row.ratio) } else { "-".to_string() },
        );
    }
    let _ =
        writeln!(out, "  result: {} regression(s), {} warning(s)", outcome.fails, outcome.warns);
    out
}

fn compare_json(outcome: &CompareOutcome, base_path: &str, args: &BenchArgs) -> Value {
    Value::Obj(vec![
        ("baseline".to_string(), Value::from(base_path)),
        ("warn_ratio".to_string(), Value::Num(args.warn_ratio)),
        ("fail_ratio".to_string(), Value::Num(args.fail_ratio)),
        ("floor_us".to_string(), Value::Num(args.floor_us)),
        ("residual_floor".to_string(), Value::Num(args.residual_floor)),
        (
            "rows".to_string(),
            Value::Arr(
                outcome
                    .rows
                    .iter()
                    .map(|r| {
                        Value::Obj(vec![
                            ("name".to_string(), Value::from(r.name.as_str())),
                            ("status".to_string(), Value::from(r.status.as_str())),
                            ("base_us".to_string(), Value::Num(r.base)),
                            ("current_us".to_string(), Value::Num(r.current)),
                            ("ratio".to_string(), Value::Num(r.ratio)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("warns".to_string(), Value::from(outcome.warns)),
        ("fails".to_string(), Value::from(outcome.fails)),
    ])
}

// ---------------------------------------------------------------------------
// Human report
// ---------------------------------------------------------------------------

/// Claim value formatting: flags and counts verbatim, tiny values
/// (residuals, lump deltas) scientific, the rest to six decimals.
fn fmt_claim(value: &Value) -> String {
    match value {
        Value::Num(v) if *v != 0.0 && v.abs() < 1e-3 => format!("{v:.2e}"),
        Value::Num(v) => format!("{v:.6}"),
        other => other.to_string_compact(),
    }
}

fn render_human(
    args: &BenchArgs,
    run: &WorkloadRun,
    compare_report: Option<&str>,
    out_path: Option<&str>,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "rascad bench: profile {}, label \"{}\"", args.profile.name, args.label);
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "  {:<20} {:>4} {:>12} {:>12} {:>12}",
        "stage", "runs", "min us", "mean us", "max us"
    );
    for s in &run.stages {
        let _ = writeln!(
            out,
            "  {:<20} {:>4} {:>12.1} {:>12.1} {:>12.1}",
            s.name, s.runs, s.min_us, s.mean_us, s.max_us
        );
    }
    let _ = writeln!(out);
    if !run.claims.is_empty() {
        let gates = args.workload.gates();
        let value_of = |claim: &str| {
            run.claims.iter().find(|(n, _)| *n == claim).and_then(|(_, v)| v.as_f64())
        };
        let _ = writeln!(out, "{} claims:", args.workload.name());
        let _ = writeln!(out, "  {:<20} {:>14}  {:<16} status", "claim", "value", "gate");
        for (name, value) in &run.claims {
            let bound = gates.bound(name);
            let held = bound.is_some_and(|b| b.holds(value, value_of));
            let _ = writeln!(
                out,
                "  {:<20} {:>14}  {:<16} {}",
                name,
                fmt_claim(value),
                bound.map_or_else(|| "none".to_string(), Bound::describe),
                if held { "ok" } else { "BREAKS GATE" }
            );
        }
        let _ = writeln!(out);
    }
    let _ = write!(
        out,
        "checks: availability {:.9} ({:.1} min/y downtime)",
        run.checks.availability, run.checks.yearly_downtime_minutes
    );
    if let Some(sim) = run.checks.sim_availability {
        let _ = write!(out, ", simulated {sim:.6}");
    }
    let _ = writeln!(out);
    if let Some(report) = compare_report {
        let _ = writeln!(out);
        out.push_str(report);
    }
    if let Some(path) = out_path {
        let _ = writeln!(out);
        let _ = writeln!(out, "wrote {path}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::obs_test_lock;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(name)
    }

    /// The entry of the array `doc[list]` whose `name` is `name`.
    fn named<'a>(doc: &'a Value, list: &str, name: &str) -> &'a Value {
        doc.get(list)
            .and_then(Value::as_array)
            .and_then(|l| l.iter().find(|e| e.get("name").and_then(Value::as_str) == Some(name)))
            .unwrap_or_else(|| panic!("no `{name}` in `{list}`"))
    }

    /// The value of the named claim in an emitted document.
    fn claim<'a>(doc: &'a Value, name: &str) -> &'a Value {
        named(doc, "claims", name).get("value").unwrap()
    }

    /// Divides the positive number at `path` inside every stage of the
    /// document at `file` by `factor`, rewrites the file, and returns how
    /// many numbers changed.
    fn shrink_in_stages(file: &std::path::Path, path: &[&str], factor: f64) -> usize {
        fn field<'a>(value: &'a mut Value, key: &str) -> Option<&'a mut Value> {
            match value {
                Value::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        let mut doc = json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        let mut changed = 0;
        if let Some(Value::Arr(stages)) = field(&mut doc, "stages") {
            for stage in stages {
                let target = path.iter().try_fold(stage, |v, key| field(v, key));
                if let Some(Value::Num(x)) = target.filter(|v| v.as_f64().is_some_and(|x| x > 0.0))
                {
                    *x /= factor;
                    changed += 1;
                }
            }
        }
        std::fs::write(file, doc.to_string_pretty()).unwrap();
        changed
    }

    fn stage_names(doc: &Value) -> Vec<&str> {
        doc.get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|s| s.get("name").unwrap().as_str().unwrap())
            .collect()
    }

    #[test]
    fn quick_json_is_schema_valid_with_solver_diagnostics() {
        let _lock = obs_test_lock();
        let out = bench(&["--quick", "--json", "--label", "unit"]).unwrap();
        let doc = json::parse(&out).unwrap();
        let (label, profile, n) = check_document(&doc).unwrap();
        assert_eq!(label, "unit");
        assert_eq!(profile, "quick");
        assert!(n >= 10, "expected >= 10 stages, got {n}");

        let names = stage_names(&doc);
        for stage in [
            "parse_dsl",
            "generate_type0",
            "generate_type4",
            "solve_gth",
            "solve_lu",
            "solve_power",
            "transient",
            "interval_exact",
            "hierarchy",
            "sweep",
            "simulate",
        ] {
            assert!(names.contains(&stage), "missing stage {stage}: {names:?}");
        }

        // Solver numerical-health telemetry captured through rascad-obs.
        let values = doc.get("values").unwrap();
        for key in [
            "markov.gth.min_pivot",
            "markov.residual{method=\"power\"}",
            "markov.iterations{method=\"power\"}",
            "markov.lu.condest",
            "markov.transient.truncation",
        ] {
            let snap = values.get(key).unwrap_or_else(|| panic!("missing value {key}"));
            assert!(snap.get("count").unwrap().as_f64().unwrap() >= 1.0, "{key}");
        }
        let counters = doc.get("counters").unwrap();
        for key in [
            "markov.solves{method=\"gth\"}",
            "markov.transient.solves",
            "sim.replications",
            "solve.certified{verdict=\"ok\"}",
        ] {
            assert!(
                counters.get(key).and_then(Value::as_f64).unwrap_or(0.0) >= 1.0,
                "missing counter {key}"
            );
        }

        // Every solving stage carries an accuracy certificate; the
        // deterministic workload certifies clean.
        for name in ["solve_gth", "solve_lu", "solve_power", "transient", "hierarchy", "sweep"] {
            let cert = named(&doc, "stages", name)
                .get("certificate")
                .unwrap_or_else(|| panic!("stage {name} has no certificate"));
            assert_eq!(cert.get("verdict").and_then(Value::as_str), Some("ok"), "{name}");
            let residual = cert.get("residual").and_then(Value::as_f64).unwrap();
            assert!(residual.is_finite() && residual >= 0.0, "{name}: {residual}");
        }
        // Timing-only stages don't.
        assert!(named(&doc, "stages", "parse_dsl").get("certificate").is_none());

        // Span aggregates are present and depth-sorted.
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert!(!spans.is_empty());
        let depths: Vec<i64> =
            spans.iter().map(|s| s.get("depth").unwrap().as_i64().unwrap()).collect();
        let mut sorted = depths.clone();
        sorted.sort_unstable();
        assert_eq!(depths, sorted);

        // Checks pin the numerical answers.
        let avail = doc.get("checks").unwrap().get("availability").unwrap().as_f64().unwrap();
        assert!(avail > 0.99 && avail < 1.0, "{avail}");
    }

    /// Runs one workload in quick mode and returns its validated
    /// document after checking its label, workload and stage names.
    fn quick_workload(flag: &str, stages: &[&str]) -> Value {
        let doc = json::parse(&bench(&[flag, "--quick", "--json"]).unwrap()).unwrap();
        let (label, profile, _) = check_document(&doc).unwrap();
        assert_eq!((label.as_str(), profile.as_str()), (&flag[2..], "quick"));
        assert_eq!(doc.get("workload").and_then(Value::as_str), Some(&flag[2..]));
        assert_eq!(stage_names(&doc), stages);
        // No simulator stage ran, so the checks omit its key.
        assert!(doc.get("checks").unwrap().get("sim_availability").is_none());
        doc
    }

    #[test]
    fn sweep_mode_emits_claims() {
        let _lock = obs_test_lock();
        let stages = ["sweep_baseline_seq", "sweep_engine_t1", "sweep_engine_tn"];
        let doc = quick_workload("--sweep", &stages);
        assert_eq!(claim(&doc, "points").as_i64(), Some(20));
        assert_eq!(claim(&doc, "blocks").as_i64(), Some(10));
        // The hit rate is a deterministic property of the workload (the
        // nine unswept blocks hit on 19 of 20 points), unlike the
        // timing ratios, which this test deliberately leaves alone.
        let hit_rate = claim(&doc, "cache_hit_rate").as_f64().unwrap();
        assert!(hit_rate > 0.8, "hit rate {hit_rate}");
        assert!(doc.get("checks").unwrap().get("availability").unwrap().as_f64().unwrap() > 0.9);
    }

    #[test]
    fn large_mode_emits_claims() {
        let _lock = obs_test_lock();
        let stages = ["large_sparse", "large_block_generate", "large_block_solve", "lump_proof"];
        let doc = quick_workload("--large", &stages);
        // check_document already gated the structural claims; pin the
        // quick profile's sizes on top.
        for (name, value) in [
            ("sparse_states", 10_000),
            ("block_units", 1000),
            ("block_states", 1001),
            ("lump_full_states", 256),
            ("lump_states", 9),
        ] {
            assert_eq!(claim(&doc, name).as_i64(), Some(value), "{name}");
        }
        assert!(doc.get("checks").unwrap().get("availability").unwrap().as_f64().unwrap() > 0.99);
    }

    #[test]
    fn serve_mode_emits_claims() {
        let _lock = obs_test_lock();
        let stages =
            ["serve_solve", "serve_shed_burst", "serve_deadline_probe", "serve_metrics_scrape"];
        let doc = quick_workload("--serve", &stages);
        // check_document already gated the structural claims (>= 1000
        // solves, shed under burst, typed deadline, valid metrics page,
        // bit-identical responses, clean drain).
        assert!(claim(&doc, "solves").as_i64().unwrap() >= 1000);
        assert!(doc.get("checks").unwrap().get("availability").unwrap().as_f64().unwrap() > 0.9);
    }

    #[test]
    fn workload_flags_are_mutually_exclusive() {
        for combo in [
            &["--sweep", "--large"][..],
            &["--sweep", "--serve"],
            &["--large", "--serve"],
            &["--sweep", "--large", "--serve"],
        ] {
            assert!(matches!(bench(combo), Err(CliError::Usage(_))), "{combo:?}");
        }
    }

    /// A value that sits on the passing side of `bound`. Every claim a
    /// document compares against (`solves`, `p50_ms`, `p90_ms`) passes
    /// with a value in `[0, 1e6]`.
    fn passing(bound: Bound) -> Value {
        match bound {
            Bound::AtLeast(x) | Bound::AtMost(x) | Bound::Equals(x) | Bound::Within(_, x) => {
                Value::Num(x)
            }
            Bound::Below(x) => Value::Num(x / 2.0),
            Bound::True => Value::from(true),
            Bound::AtLeastClaim(_) => Value::Num(1e6),
        }
    }

    /// A value that breaks `bound` in a document built from [`passing`]
    /// values.
    fn failing(bound: Bound) -> Value {
        match bound {
            Bound::AtLeast(x) => Value::Num(x - 1.0),
            Bound::AtMost(x) => Value::Num(x * 2.0 + 1.0),
            Bound::Below(x) | Bound::Within(x, _) => Value::Num(x),
            Bound::Equals(x) => Value::Num(x + 1.0),
            Bound::True => Value::from(false),
            Bound::AtLeastClaim(_) => Value::Num(-1.0),
        }
    }

    /// A minimal v2 document for `workload` with the given stages and
    /// `(name, value, bound)` claims.
    fn gated_doc(workload: Workload, stages: &[&str], claims: &[(&str, Value, String)]) -> Value {
        let stages: Vec<String> = stages
            .iter()
            .map(|s| format!(r#"{{"name":"{s}","runs":1,"min_us":1,"mean_us":1,"max_us":1}}"#))
            .collect();
        let claims: Vec<String> = claims
            .iter()
            .map(|(name, value, bound)| {
                let value = value.to_string_compact();
                format!(r#"{{"name":"{name}","value":{value},"bound":"{bound}"}}"#)
            })
            .collect();
        json::parse(&format!(
            r#"{{"schema":"{SCHEMA}","workload":"{}","label":"t","profile":"quick",
                "created_unix":0,"env":{{"os":"linux","arch":"x86_64","threads":1,
                "debug_assertions":false,"pkg_version":"0"}},"stages":[{}],"spans":[],
                "counters":{{}},"gauges":{{}},"values":{{}},"checks":{{}},"claims":[{}]}}"#,
            workload.name(),
            stages.join(","),
            claims.join(",")
        ))
        .unwrap()
    }

    type Claims = Vec<(&'static str, Value, String)>;

    /// The stages and claims of a document that meets every gate of
    /// `workload`, each claim on the passing side of its bound.
    fn honest(workload: Workload) -> (Vec<&'static str>, Claims) {
        let gates = workload.gates();
        let stages = ["timing"].into_iter().chain(gates.stages.iter().copied()).collect();
        let claims =
            gates.claims.iter().map(|&(n, bound)| (n, passing(bound), bound.describe())).collect();
        (stages, claims)
    }

    /// Each gate the validator enforced before claims existed still
    /// rejects a document that breaks it.
    #[test]
    fn kept_gates_reject_the_documents_that_break_them() {
        use Workload::{Large, Serve, Sweep};
        let (no, num) = (|| Value::from(false), Value::Num);
        let cases = [
            (Large, vec![("sparse_states", num(9_999.0))]),
            (Large, vec![("sparse_rung", no())]),
            (Large, vec![("sparse_verdict_ok", no())]),
            (Large, vec![("sparse_residual", num(1e-9))]),
            (Large, vec![("block_states", num(1000.0))]),
            (Large, vec![("lump_states", num(8.0))]),
            (Large, vec![("lump_max_delta", num(2e-9))]),
            (Sweep, vec![("bit_identical", no())]),
            (Large, vec![("bit_identical", no())]),
            (Serve, vec![("bit_identical", no())]),
            (Serve, vec![("solves", num(999.0))]),
            (Serve, vec![("requests", num(999.0))]),
            (Serve, vec![("shed", num(0.0))]),
            (Serve, vec![("shed_rate", num(0.0))]),
            (Serve, vec![("shed_rate", num(1.5))]),
            (Serve, vec![("p50_ms", num(7.0)), ("p90_ms", num(6.0))]),
            (Serve, vec![("p90_ms", num(6.0)), ("p99_ms", num(5.0))]),
            (Serve, vec![("availability", num(0.0))]),
            (Serve, vec![("availability", num(1.5))]),
            (Serve, vec![("deadline_typed", no())]),
            (Serve, vec![("metrics_page_valid", no())]),
            (Serve, vec![("drained_clean", no())]),
        ];
        for (workload, edits) in cases {
            let (stages, mut claims) = honest(workload);
            for (name, value) in &edits {
                claims.iter_mut().find(|c| c.0 == *name).unwrap().1 = value.clone();
            }
            let doc = gated_doc(workload, &stages, &claims);
            assert!(check_document(&doc).is_err(), "{workload:?} accepted {edits:?}");
        }
    }

    #[test]
    fn corrupt_claims_fail_validation() {
        for workload in [Workload::Sweep, Workload::Large, Workload::Serve] {
            let gates = workload.gates();
            let (stages, honest) = honest(workload);
            check_document(&gated_doc(workload, &stages, &honest)).unwrap();
            let rejects = |stages: &[&str], claims: &[(&str, Value, String)], what: &str| {
                let err = check_document(&gated_doc(workload, stages, claims))
                    .expect_err(&format!("{workload:?}: {what} passed validation"));
                assert!(err.contains(what), "{workload:?} {what}: {err}");
            };

            for (i, &(name, bound)) in gates.claims.iter().enumerate() {
                // A value that breaks the gate, under the table's bound
                // and under a loosened one.
                let mut claims = honest.clone();
                claims[i].1 = failing(bound);
                rejects(&stages, &claims, name);
                claims[i].2 = "none".to_string();
                rejects(&stages, &claims, name);
                // A loosened bound over an honest value.
                let mut claims = honest.clone();
                claims[i].2 = Bound::AtLeast(-1e300).describe();
                rejects(&stages, &claims, name);
                // The claim left out.
                let mut claims = honest.clone();
                claims.remove(i);
                rejects(&stages, &claims, name);
            }
            // A claim the table does not name, and a repeated claim.
            let mut claims = honest.clone();
            claims.push(("bonus", Value::from(true), "== true".to_string()));
            rejects(&stages, &claims, "bonus");
            let mut claims = honest.clone();
            claims.push(honest[0].clone());
            rejects(&stages, &claims, honest[0].0);
            // A required stage left out.
            for stage in gates.stages {
                let fewer: Vec<&str> = stages.iter().copied().filter(|s| s != stage).collect();
                rejects(&fewer, &honest, stage);
            }

            // The same verdict through `--validate`: a usage error.
            let path = tmp(&format!("rascad_bench_broken_{}.json", workload.name()));
            let mut claims = honest.clone();
            claims[0].1 = failing(gates.claims[0].1);
            std::fs::write(&path, gated_doc(workload, &stages, &claims).to_string_pretty())
                .unwrap();
            let err = bench(&["--validate", path.to_str().unwrap()]).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{workload:?}: {err}");
            assert!(err.to_string().contains("breaks its gate"), "{err}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn compare_against_own_baseline_passes() {
        let _lock = obs_test_lock();
        let path = tmp("rascad_bench_base_ok.json");
        bench(&["--quick", "--out", path.to_str().unwrap(), "--json"]).unwrap();
        // Loose thresholds so machine noise can't flake the test; the
        // mechanics (matching, ratio math, exit path) are what's under
        // test here.
        let out = bench(&[
            "--quick",
            "--json",
            "--compare",
            path.to_str().unwrap(),
            "--warn-ratio",
            "50",
            "--fail-ratio",
            "100",
        ])
        .unwrap();
        let doc = json::parse(&out).unwrap();
        let cmp = doc.get("compare").unwrap();
        assert_eq!(cmp.get("fails").unwrap().as_i64(), Some(0));
        assert!(!cmp.get("rows").unwrap().as_array().unwrap().is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_slowdown_trips_regression_exit_code() {
        let _lock = obs_test_lock();
        let path = tmp("rascad_bench_base_slow.json");
        bench(&["--quick", "--out", path.to_str().unwrap(), "--json"]).unwrap();

        // Doctor the baseline: shrink every stage minimum 1000x, which
        // makes the (unchanged) current run look like a huge slowdown.
        assert!(shrink_in_stages(&path, &["min_us"], 1000.0) > 0);

        let err = bench(&["--quick", "--compare", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err:?}");
        let report = err.to_string();
        assert!(report.contains("FAIL"), "{report}");
        assert!(report.contains("regression"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn validate_accepts_emitted_and_rejects_corrupt() {
        let _lock = obs_test_lock();
        let path = tmp("rascad_bench_validate.json");
        bench(&["--quick", "--out", path.to_str().unwrap(), "--json"]).unwrap();
        let out = bench(&["--validate", path.to_str().unwrap()]).unwrap();
        assert!(out.starts_with("ok:"), "{out}");

        std::fs::write(&path, "{\"schema\": \"other/v9\"}").unwrap();
        let err = bench(&["--validate", path.to_str().unwrap()]).unwrap_err();
        assert_eq!(err.exit_code(), 2);

        std::fs::write(&path, "not json").unwrap();
        assert!(bench(&["--validate", path.to_str().unwrap()]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compare_statuses_cover_ok_warn_fail_new_missing() {
        let mk = |stages: &[(&str, f64)], counters: &[(&str, f64)]| {
            let stages: Vec<String> =
                stages.iter().map(|(n, us)| format!(r#"{{"name":"{n}","min_us":{us}}}"#)).collect();
            let counters: Vec<String> =
                counters.iter().map(|(n, v)| format!(r#""{n}":{v}"#)).collect();
            let (stages, counters) = (stages.join(","), counters.join(","));
            json::parse(&format!(r#"{{"stages":[{stages}],"counters":{{{counters}}}}}"#)).unwrap()
        };
        let args = parse_args(&[]).unwrap();
        let baseline = mk(
            &[
                ("steady", 1000.0),
                ("slower", 1000.0),
                ("much_slower", 1000.0),
                ("gone", 500.0),
                ("noise", 10.0),
            ],
            &[("solves", 5.0), ("drift", 7.0)],
        );
        let current = mk(
            &[
                ("steady", 1010.0),
                ("slower", 1500.0),
                ("much_slower", 2500.0),
                ("fresh", 80.0),
                ("noise", 40.0),
            ],
            &[("solves", 5.0), ("drift", 9.0)],
        );
        let outcome = compare_docs(&current, &baseline, &args);
        let status =
            |name: &str| outcome.rows.iter().find(|r| r.name == name).map(|r| r.status).unwrap();
        assert_eq!(status("steady"), Status::Ok);
        assert_eq!(status("slower"), Status::Warn);
        assert_eq!(status("much_slower"), Status::Fail);
        assert_eq!(status("fresh"), Status::New);
        assert_eq!(status("gone"), Status::Missing);
        // Both under the 50 us floor: 4x ratio still passes.
        assert_eq!(status("noise"), Status::Ok);
        assert_eq!(status("counter:drift"), Status::Warn);
        assert_eq!(outcome.fails, 1);
        assert!(outcome.warns >= 3, "{outcome:?}");
    }

    #[test]
    fn accuracy_gate_flags_residual_growth_and_verdict_regression() {
        let mk = |stages: &[(&str, f64, &str)]| {
            let stages: Vec<String> = stages
                .iter()
                .map(|(n, res, verdict)| {
                    // A NaN residual writes as `null`, as in a real document.
                    let res = Value::Num(*res).to_string_compact();
                    format!(
                        r#"{{"name":"{n}","min_us":1000,"certificate":{{"method":"{n}",
                            "verdict":"{verdict}","residual":{res},"prob_mass_error":0}}}}"#
                    )
                })
                .collect();
            json::parse(&format!(r#"{{"stages":[{}],"counters":{{}}}}"#, stages.join(","))).unwrap()
        };
        let args = parse_args(&[]).unwrap();
        let baseline = mk(&[
            ("blown", 1e-12, "ok"),
            ("drifted", 1e-10, "ok"),
            ("tiny", 1e-16, "ok"),
            ("worse_verdict", 1e-12, "ok"),
        ]);
        let current = mk(&[
            // 100x the baseline residual: accuracy regression, exit 6.
            ("blown", 1e-10, "ok"),
            // 4x: warned, not failed.
            ("drifted", 4e-10, "ok"),
            // Grew 100x but stayed under the floor: still pristine.
            ("tiny", 1e-14, "ok"),
            // Verdict regressed to fail (e.g. non-finite residual).
            ("worse_verdict", f64::NAN, "fail"),
        ]);
        let outcome = compare_docs(&current, &baseline, &args);
        let status =
            |name: &str| outcome.rows.iter().find(|r| r.name == name).map(|r| r.status).unwrap();
        assert_eq!(status("residual:blown"), Status::Fail);
        assert_eq!(status("residual:drifted"), Status::Warn);
        assert!(!outcome.rows.iter().any(|r| r.name == "residual:tiny"), "{outcome:?}");
        assert_eq!(status("verdict:worse_verdict"), Status::Fail);
        // Timing rows are untouched (all 1000 us, ratio 1).
        assert_eq!(status("blown"), Status::Ok);
        assert_eq!(outcome.fails, 2);
    }

    #[test]
    fn injected_residual_regression_trips_the_accuracy_gate() {
        let _lock = obs_test_lock();
        let path = tmp("rascad_bench_base_accuracy.json");
        bench(&["--quick", "--out", path.to_str().unwrap(), "--json"]).unwrap();

        // Doctor the baseline: shrink every certified residual a
        // million-fold, which makes the (numerically unchanged) current
        // run look like a huge loss of accuracy.
        let doctored = shrink_in_stages(&path, &["certificate", "residual"], 1e6);
        assert!(doctored > 0, "workload must certify at least one nonzero residual");

        // The same run compared against the doctored baseline: residuals
        // are bit-identical run to run, so the 1e6 ratio is real signal.
        // --residual-floor 0 keeps near-machine-precision residuals in
        // scope for this single-machine check.
        let err = bench(&["--quick", "--compare", path.to_str().unwrap(), "--residual-floor", "0"])
            .unwrap_err();
        assert_eq!(err.exit_code(), 6, "{err:?}");
        let report = err.to_string();
        assert!(report.contains("residual:"), "{report}");
        assert!(report.contains("FAIL"), "{report}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_options_are_usage_errors() {
        assert!(matches!(bench(&["--bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(bench(&["--label"]), Err(CliError::Usage(_))));
        assert!(matches!(bench(&["--label", "no/slash"]), Err(CliError::Usage(_))));
        assert!(matches!(
            bench(&["--warn-ratio", "3", "--fail-ratio", "2"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(bench(&["--validate"]), Err(CliError::Usage(_))));
    }
}
