//! Command dispatch and implementations.
//!
//! Every command is a pure function from parsed arguments to an output
//! string, so the whole CLI is unit-testable without spawning
//! processes.

use std::fmt;

mod bench;
mod fielddata;
mod lint;
mod serve;
mod simulate;
mod solve;
mod stats;
mod sweep;

/// CLI error, classified so `main` can pick an exit code and print the
/// cause chain.
#[derive(Debug)]
pub enum CliError {
    /// Bad arguments: unknown command, missing operand, unparseable
    /// number, unknown block path. Exit code 2.
    Usage(String),
    /// The specification failed to parse or validate. Exit code 3.
    Spec(rascad_spec::SpecError),
    /// Model generation or solving failed. Exit code 4.
    Solver(rascad_core::CoreError),
    /// A file could not be read or written. Exit code 5.
    Io { path: String, source: std::io::Error },
    /// `bench --compare` detected a performance regression past the
    /// failure threshold. Exit code 6. Carries the rendered comparison
    /// report.
    Regression(String),
    /// `lint` found blocking diagnostics (errors, or warnings under
    /// `--deny warnings`). Exit code 7. Carries the rendered report.
    Lint(String),
    /// `solve --best-effort` completed but some blocks failed: the
    /// rendered report is a partial, optimistic result. Exit code 8.
    /// `main` prints the carried report to stdout (it is still the
    /// command's useful output) and the classification to stderr.
    Partial(String),
    /// `serve` could not bind, or shut down without draining every
    /// in-flight request inside the drain timeout. Exit code 9.
    Serve(String),
}

impl CliError {
    /// Shorthand for a usage error.
    pub(crate) fn usage(msg: impl Into<String>) -> CliError {
        CliError::Usage(msg.into())
    }

    /// Process exit code for this error class.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Spec(_) => 3,
            CliError::Solver(_) => 4,
            CliError::Io { .. } => 5,
            CliError::Regression(_) => 6,
            CliError::Lint(_) => 7,
            CliError::Partial(_) => 8,
            CliError::Serve(_) => 9,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => f.write_str(msg),
            CliError::Spec(_) => f.write_str("invalid specification"),
            CliError::Solver(_) => f.write_str("solving failed"),
            CliError::Io { path, .. } => write!(f, "cannot access `{path}`"),
            CliError::Regression(report) => {
                writeln!(f, "performance regression detected")?;
                f.write_str(report)
            }
            CliError::Lint(report) => {
                writeln!(f, "lint found blocking diagnostics")?;
                f.write_str(report)
            }
            CliError::Partial(_) => {
                f.write_str("partial result: some blocks failed to solve (best-effort mode)")
            }
            CliError::Serve(msg) => write!(f, "serve failed: {msg}"),
        }
    }
}

impl std::error::Error for CliError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CliError::Usage(_)
            | CliError::Regression(_)
            | CliError::Lint(_)
            | CliError::Partial(_)
            | CliError::Serve(_) => None,
            CliError::Spec(e) => Some(e),
            CliError::Solver(e) => Some(e),
            CliError::Io { source, .. } => Some(source),
        }
    }
}

impl From<rascad_spec::SpecError> for CliError {
    fn from(e: rascad_spec::SpecError) -> Self {
        CliError::Spec(e)
    }
}

impl From<rascad_core::CoreError> for CliError {
    fn from(e: rascad_core::CoreError) -> Self {
        // A spec-validation failure surfaced through the solver is still
        // a spec error for exit-code purposes.
        match e {
            rascad_core::CoreError::Spec(e) => CliError::Spec(e),
            other => CliError::Solver(other),
        }
    }
}

const USAGE: &str = "\
rascad — automatic generation of availability models (RAScad, DSN 2002)

USAGE:
    rascad [OPTIONS] <COMMAND> [ARGS]

OPTIONS (apply to every command):
    --trace <file|->                    write pipeline trace events as JSON lines to the
                                        file (`-` for stdout)
    --trace-out <file>                  write a Chrome trace-event JSON timeline (loadable
                                        in Perfetto / chrome://tracing; one lane per
                                        worker thread)
    --metrics-out <file>                dump a scrape-ready Prometheus text-format
                                        (exposition 0.0.4) metrics snapshot at exit
    --timings                           print a per-span timing summary to stderr on exit
    --no-lint                           skip the automatic pre-solve lint gate
    --threads <n>                       solver worker threads (default: RASCAD_THREADS env
                                        or the machine's available parallelism); results
                                        are bit-identical at any thread count

A bounded flight recorder is always on: when a run exits with code >= 4,
a worker panics, or --best-effort degrades a solve, the last events per
thread are dumped as JSON lines to rascad-flight-<pid>.jsonl (override
the path with the RASCAD_FLIGHT_PATH environment variable).

COMMANDS:
    check <spec.rascad>                 validate a specification
    lint <spec.rascad|-> [--format human|json|sarif] [--deny warnings]
         [--no-tier-b] [--tier-c] [--max-cut-order N]
                                        static analysis: spec diagnostics (RAS001–RAS021)
                                        plus generated-model diagnostics (RAS101–RAS105);
                                        --tier-c adds structural analyses over the
                                        BDD-compiled structure function (RAS201–RAS205:
                                        cut sets up to order N, SPOFs, importance,
                                        symmetry classes, cut-set bound); `-` reads DSL
                                        from stdin; blocking findings exit 7
    lint --explain <RASxxx>             document one diagnostic code (example and remedy)
    solve <spec.rascad> [--strict|--best-effort] [--explain]
          [--convergence-out FILE] [--inject <plan.toml>]
                                        solve and print the availability report;
                                        --strict (default) fails fast on the first block
                                        that cannot be solved, --best-effort rolls failed
                                        blocks up as explicit availability bounds and
                                        exits 8 with a partial report; --explain appends
                                        per-solver convergence traces and per-block
                                        solution certificates (verdict, residual,
                                        condition estimate); --convergence-out writes the
                                        traces as versioned JSON (rascad-convergence/v1);
                                        --inject installs a deterministic fault plan
                                        (builds with the `fault-inject` feature only)
    stats <spec.rascad> [--prometheus [--out FILE]]
                                        pipeline statistics: blocks per chain type, state
                                        counts, per-stage wall time, solver diagnostics;
                                        --prometheus renders the solve-run metrics as a
                                        Prometheus exposition page instead (to FILE with
                                        --out, else stdout)
    dot <spec.rascad> <block-path>      print the generated Markov chain as Graphviz DOT
    modes <spec.rascad> <block-path>    first-failure mode attribution for one block
    importance <spec.rascad>            rank blocks by system-level importance
    sweep <spec.rascad> <block-path> <param> <from> <to> <points> [--log]
                                        parametric sweep (param: mtbf|tresp|pcd)
    compare <a.rascad> <b.rascad>       solve two candidate architectures and diff the measures
    simulate <spec.rascad> [horizon-hours [replications [seed]]]
                                        Monte-Carlo cross-check of the analytic solution
    fielddata <spec.rascad> [months [servers [seed]]]
                                        generate synthetic field data and compare with the model
    bench [--quick|--full] [--sweep] [--label L] [--out F] [--json] [--compare BASE.json]
          [--warn-ratio R] [--fail-ratio R] [--floor-us US] [--residual-floor R]
                                        run the deterministic benchmark suite and write a
                                        versioned BENCH_<label>.json (per-stage timings, span
                                        aggregates, solver diagnostics, per-stage accuracy
                                        certificates, environment metadata); --compare checks
                                        against a baseline and exits 6 on a timing regression
                                        past the fail threshold OR an accuracy regression (a
                                        certified residual grown 10x past the baseline and
                                        above the residual floor, default 1e-13); --sweep runs
                                        the sweep-scaling workload instead (solve engine vs
                                        the sequential baseline, cache stats, bit-identity)
    bench --validate <file.json>        check that a BENCH document parses, is schema-valid,
                                        and meets every claim gate of its workload
    bench --serve [--validate] [--out F] [--label L]
                                        load-test an in-process daemon (>=1k solves, bursts,
                                        deadline probe) and write BENCH_serve.json with the
                                        latency histogram and shed rate
    serve [--addr HOST:PORT] [--max-inflight N] [--max-per-tenant N] [--retry-after SECS]
          [--max-specs N] [--drain-secs N] [--metrics-final FILE]
                                        run the availability-model daemon: POST /v1/specs
                                        (multi-tenant spec store), /v1/solve (deadline_ms,
                                        best_effort), /v1/sweep, /v1/lint; GET /metrics,
                                        /healthz, /readyz; bounded admission sheds 429 +
                                        Retry-After; SIGTERM drains in-flight solves and
                                        exits 0 (unclean drain or bind failure exits 9)
    library [name]                      print a library model as DSL
                                        (names: datacenter, e10000, cluster, workgroup)
    reference                           print the DSL parameter reference (Markdown)
    help                                show this message

EXIT CODES:
    0 success   2 usage   3 invalid spec   4 solver failure   5 I/O error
    6 performance regression (bench --compare)   7 blocking lint diagnostics
    8 partial result (solve --best-effort with failed blocks)
    9 serve failure (bind error or unclean drain)
";

/// Observability options stripped from the command line before
/// dispatch.
#[derive(Debug, Default)]
struct ObsOptions {
    /// `--trace <file|->`: JSON-lines event destination.
    trace: Option<String>,
    /// `--trace-out <file>`: Chrome trace-event JSON timeline.
    trace_out: Option<String>,
    /// `--metrics-out <file>`: Prometheus snapshot written at exit.
    metrics_out: Option<String>,
    /// `--timings`: human-readable span summary on stderr.
    timings: bool,
    /// `--no-lint`: skip the automatic Tier A gate before
    /// `solve`/`sweep`/`simulate`.
    no_lint: bool,
    /// `--threads <n>`: solver worker-thread override.
    threads: Option<usize>,
}

/// RAII guard: installs the requested sinks on construction and
/// drains + uninstalls tracing when dropped, so every exit path (including
/// `?` early returns) flushes the aggregated metrics.
struct ObsSession {
    active: bool,
    /// Destination for the Prometheus snapshot written on drop.
    metrics_out: Option<String>,
}

impl ObsSession {
    fn start(opts: &ObsOptions) -> Result<ObsSession, CliError> {
        let mut sinks: Vec<Box<dyn rascad_obs::Sink>> = Vec::new();
        if let Some(target) = &opts.trace {
            if target == "-" {
                sinks.push(Box::new(rascad_obs::JsonLinesSink::new(std::io::stdout())));
            } else {
                let file = std::fs::File::create(target)
                    .map_err(|source| CliError::Io { path: target.clone(), source })?;
                sinks.push(Box::new(rascad_obs::JsonLinesSink::new(file)));
            }
        }
        if let Some(target) = &opts.trace_out {
            let file = std::fs::File::create(target)
                .map_err(|source| CliError::Io { path: target.clone(), source })?;
            sinks.push(Box::new(rascad_obs::ChromeTraceSink::new(std::io::BufWriter::new(file))));
        }
        if opts.timings {
            sinks.push(Box::new(rascad_obs::SummarySink::new(std::io::stderr())));
        }
        // `--metrics-out` needs the registry but no sink: an empty
        // install still accumulates metrics for the exit snapshot.
        let active = !sinks.is_empty() || opts.metrics_out.is_some();
        if active {
            rascad_obs::install(sinks);
        }
        Ok(ObsSession { active, metrics_out: opts.metrics_out.clone() })
    }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        // Snapshot before drain: drain resets the registry.
        if let Some(path) = &self.metrics_out {
            let snap = rascad_obs::MetricsRegistry::global().snapshot();
            let page = rascad_obs::prometheus::encode(&snap);
            if let Err(e) = std::fs::write(path, page) {
                eprintln!("warning: cannot write metrics snapshot to `{path}`: {e}");
            }
        }
        rascad_obs::drain();
        rascad_obs::uninstall();
    }
}

/// Splits the global `--trace` / `--timings` flags from the command
/// words.
fn split_global_flags(args: &[String]) -> Result<(Vec<&str>, ObsOptions), CliError> {
    let mut opts = ObsOptions::default();
    let mut rest = Vec::with_capacity(args.len());
    let mut it = args.iter().map(String::as_str);
    while let Some(a) = it.next() {
        match a {
            "--trace" => {
                let target = it
                    .next()
                    .ok_or_else(|| CliError::usage("--trace needs a file argument (or `-`)"))?;
                opts.trace = Some(target.to_string());
            }
            "--trace-out" => {
                let target = it
                    .next()
                    .ok_or_else(|| CliError::usage("--trace-out needs a file argument"))?;
                opts.trace_out = Some(target.to_string());
            }
            "--metrics-out" => {
                let target = it
                    .next()
                    .ok_or_else(|| CliError::usage("--metrics-out needs a file argument"))?;
                opts.metrics_out = Some(target.to_string());
            }
            "--timings" => opts.timings = true,
            "--no-lint" => opts.no_lint = true,
            "--threads" => {
                let n = it
                    .next()
                    .ok_or_else(|| CliError::usage("--threads needs a positive integer"))?;
                let n: usize = n
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or_else(|| CliError::usage(format!("bad thread count `{n}`")))?;
                opts.threads = Some(n);
            }
            other => rest.push(other),
        }
    }
    Ok((rest, opts))
}

/// Runs a command line; returns the text to print.
///
/// # Errors
///
/// Returns [`CliError`] with a user-facing message for bad usage, bad
/// specs, solver failures, or I/O problems; see [`CliError::exit_code`].
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (words, obs) = split_global_flags(args)?;
    if let Some(n) = obs.threads {
        rascad_core::set_thread_override(n);
    }
    // The flight recorder is always on: a bounded per-thread ring that
    // costs one branch per instrumentation call and is only dumped by
    // `main` when the run fails (exit >= 4 or a recorded incident).
    rascad_obs::flight::arm();
    let _session = ObsSession::start(&obs)?;
    dispatch(&words, !obs.no_lint)
}

/// Runs the Tier A lint gate ahead of a pipeline command (when
/// enabled): error findings abort before the generator runs, warnings
/// go to stderr.
fn gate(spec: &rascad_spec::SystemSpec, lint_enabled: bool) -> Result<(), CliError> {
    if lint_enabled {
        lint::tier_a_gate(spec)?;
    }
    Ok(())
}

fn dispatch(args: &[&str], lint_enabled: bool) -> Result<String, CliError> {
    let mut it = args.iter().copied();
    match it.next() {
        None | Some("help" | "--help" | "-h") => Ok(USAGE.to_string()),
        Some("check") => {
            let spec = load(it.next())?;
            spec.validate()?;
            Ok(format!(
                "ok: {} blocks across {} level(s)\n",
                spec.root.total_blocks(),
                spec.root.depth()
            ))
        }
        Some("lint") => {
            let rest: Vec<&str> = it.collect();
            lint::lint(&rest)
        }
        Some("solve") => {
            let spec = load(it.next())?;
            gate(&spec, lint_enabled)?;
            let rest: Vec<&str> = it.collect();
            solve::solve(&spec, &rest)
        }
        Some("stats") => {
            let rest: Vec<&str> = it.collect();
            stats::stats(&rest)
        }
        Some("dot") => {
            let spec = load(it.next())?;
            let path = it.next().ok_or_else(|| CliError::usage("dot needs a block path"))?;
            solve::dot(&spec, path)
        }
        Some("modes") => {
            let spec = load(it.next())?;
            let path = it.next().ok_or_else(|| CliError::usage("modes needs a block path"))?;
            solve::modes(&spec, path)
        }
        Some("importance") => {
            let spec = load(it.next())?;
            solve::importance(&spec)
        }
        Some("compare") => {
            let a = load(it.next())?;
            let b = load(it.next())?;
            let cmp = rascad_core::compare_architectures(
                a.root.name.clone(),
                &a,
                b.root.name.clone(),
                &b,
            )?;
            Ok(format!("{cmp}\n"))
        }
        Some("sweep") => {
            let spec = load(it.next())?;
            gate(&spec, lint_enabled)?;
            let rest: Vec<&str> = it.collect();
            sweep::sweep(&spec, &rest)
        }
        Some("simulate") => {
            let spec = load(it.next())?;
            gate(&spec, lint_enabled)?;
            let rest: Vec<&str> = it.collect();
            simulate::simulate(&spec, &rest)
        }
        Some("fielddata") => {
            let spec = load(it.next())?;
            let rest: Vec<&str> = it.collect();
            fielddata::fielddata(&spec, &rest)
        }
        Some("bench") => {
            let rest: Vec<&str> = it.collect();
            bench::bench(&rest)
        }
        Some("serve") => {
            let rest: Vec<&str> = it.collect();
            serve::serve(&rest)
        }
        Some("library") => {
            let name = it.next().unwrap_or("datacenter");
            library(name)
        }
        Some("reference") => Ok(rascad_spec::dsl::reference::markdown()),
        Some(other) => {
            Err(CliError::usage(format!("unknown command `{other}`; try `rascad help`")))
        }
    }
}

fn load(path: Option<&str>) -> Result<rascad_spec::SystemSpec, CliError> {
    let path = path.ok_or_else(|| CliError::usage("missing spec file argument"))?;
    let text = std::fs::read_to_string(path)
        .map_err(|source| CliError::Io { path: path.to_string(), source })?;
    let spec = if path.ends_with(".json") {
        rascad_spec::SystemSpec::from_json(&text)?
    } else {
        rascad_spec::SystemSpec::from_dsl(&text)?
    };
    Ok(spec)
}

fn library(name: &str) -> Result<String, CliError> {
    let spec = match name {
        "datacenter" => rascad_library::datacenter::data_center(),
        "e10000" => rascad_library::e10000::e10000(),
        "cluster" => rascad_library::cluster::two_node_cluster(
            rascad_library::cluster::ClusterConfig::default(),
        ),
        "workgroup" => rascad_library::workgroup::workgroup(),
        other => {
            return Err(CliError::usage(format!(
                "unknown library model `{other}` (datacenter, e10000, cluster, workgroup)"
            )));
        }
    };
    Ok(spec.to_dsl())
}

/// Parses a positional numeric argument with a default.
pub(crate) fn num_arg<T: std::str::FromStr>(
    args: &[&str],
    index: usize,
    default: T,
    what: &str,
) -> Result<T, CliError> {
    match args.get(index) {
        None => Ok(default),
        Some(s) => s.parse().map_err(|_| CliError::usage(format!("bad {what}: `{s}`"))),
    }
}

/// Serializes tests that install the process-global `rascad-obs`
/// subscriber (`stats`, `bench`): concurrent installs would clobber
/// each other's sinks and cross-drain metrics.
#[cfg(test)]
pub(crate) fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(ToString::to_string).collect();
        run(&v)
    }

    #[test]
    fn help_and_empty() {
        assert!(run_strs(&[]).unwrap().contains("USAGE"));
        assert!(run_strs(&["help"]).unwrap().contains("COMMANDS"));
    }

    #[test]
    fn unknown_command() {
        assert!(run_strs(&["frobnicate"]).is_err());
    }

    #[test]
    fn library_models_print_dsl() {
        for name in ["datacenter", "e10000", "cluster", "workgroup"] {
            let out = run_strs(&["library", name]).unwrap();
            assert!(out.contains("diagram"), "{name}");
            // Output must be parseable again.
            rascad_spec::SystemSpec::from_dsl(&out).unwrap();
        }
        assert!(run_strs(&["library", "nope"]).is_err());
    }

    #[test]
    fn check_solve_dot_roundtrip_via_tempfile() {
        let dir = std::env::temp_dir();
        let path = dir.join("rascad_cli_test.rascad");
        let spec = rascad_library::datacenter::data_center();
        std::fs::write(&path, spec.to_dsl()).unwrap();
        let p = path.to_str().unwrap();

        let out = run_strs(&["check", p]).unwrap();
        assert!(out.contains("ok:"));

        let out = run_strs(&["solve", p]).unwrap();
        assert!(out.contains("Yearly downtime"));

        let out = run_strs(&["dot", p, "Server Box/CPU Module"]).unwrap();
        assert!(out.starts_with("digraph"));

        assert!(run_strs(&["dot", p, "No/Such/Block"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reference_is_markdown() {
        let out = run_strs(&["reference"]).unwrap();
        assert!(out.starts_with("# `.rascad` parameter reference"));
        assert!(out.contains("p_correct_diagnosis"));
    }

    #[test]
    fn compare_two_specs() {
        let dir = std::env::temp_dir();
        let pa = dir.join("rascad_cmp_a.rascad");
        let pb = dir.join("rascad_cmp_b.rascad");
        std::fs::write(&pa, rascad_library::e10000::e10000().to_dsl()).unwrap();
        std::fs::write(&pb, rascad_library::e10000::e10000_no_redundancy().to_dsl()).unwrap();
        let out = run_strs(&["compare", pa.to_str().unwrap(), pb.to_str().unwrap()]).unwrap();
        assert!(out.contains("winner on downtime"));
        assert!(out.contains("E10000 Server"));
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    #[test]
    fn missing_file_reported() {
        assert!(run_strs(&["solve", "/no/such/file.rascad"]).is_err());
        assert!(run_strs(&["solve"]).is_err());
    }

    #[test]
    fn lint_subcommand_dispatches() {
        let dir = std::env::temp_dir();
        let path = dir.join("rascad_cli_lint.rascad");
        std::fs::write(&path, rascad_library::e10000::e10000().to_dsl()).unwrap();
        let out = run_strs(&["lint", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("info(s)") || out.contains("no findings"), "{out}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn presolve_gate_rejects_bad_spec_before_generation() {
        let dir = std::env::temp_dir();
        let path = dir.join("rascad_cli_gate.rascad");
        // min_quantity > quantity: the gate must reject with exit 3.
        std::fs::write(&path, "diagram \"S\" { block \"A\" { quantity = 1\n min_quantity = 2 } }")
            .unwrap();
        let p = path.to_str().unwrap();
        for cmd in [
            vec!["solve", p],
            vec!["sweep", p, "A", "mtbf", "1000", "2000", "2"],
            vec!["simulate", p, "100", "2", "1"],
        ] {
            let err = run_strs(&cmd).unwrap_err();
            assert_eq!(err.exit_code(), 3, "{cmd:?}");
        }
        // --no-lint skips the gate; the error then comes from the
        // solver path instead (still a spec error, but proves the
        // gate is bypassable).
        assert!(run_strs(&["--no-lint", "solve", p]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_lint_flag_accepted_on_clean_spec() {
        let dir = std::env::temp_dir();
        let path = dir.join("rascad_cli_nolint.rascad");
        std::fs::write(&path, rascad_library::workgroup::workgroup().to_dsl()).unwrap();
        let out = run_strs(&["--no-lint", "solve", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("Yearly downtime"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_specs_accepted() {
        let dir = std::env::temp_dir();
        let path = dir.join("rascad_cli_test.json");
        let spec = rascad_library::cluster::two_node_cluster(Default::default());
        std::fs::write(&path, spec.to_json().unwrap()).unwrap();
        let out = run_strs(&["check", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("ok:"));
        std::fs::remove_file(&path).ok();
    }
}
