//! The traced runs' layer rows, shared by the in-process and served
//! workloads: each layer is timed from outside, by calling its public
//! functions.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rascad_core::generator::generate_block;
use rascad_core::measures::{
    interval_measures, reliability_measures, steady_state_measures_with_certificate_opts,
};
use rascad_markov::{SolveOptions, SteadyStateMethod};
use rascad_obs::MetricsRegistry;
use rascad_spec::{Block, SystemSpec};

use crate::stats::Metrics;

/// Layer times (µs) and counts of traced operations: per operation
/// once divided by the operation count.
#[derive(Debug, Default, Clone)]
pub struct Rows {
    pub op: f64,
    pub parse_body: f64,
    pub from_dsl: f64,
    pub lint: f64,
    pub generate: f64,
    pub steady: f64,
    pub interval: f64,
    pub reliability: f64,
    pub engine: f64,
    pub encode: f64,
    pub report: f64,
    pub states: f64,
    pub vec_mul_steps: f64,
}

impl Rows {
    fn fields(&mut self) -> [&mut f64; 13] {
        [
            &mut self.op,
            &mut self.parse_body,
            &mut self.from_dsl,
            &mut self.lint,
            &mut self.generate,
            &mut self.steady,
            &mut self.interval,
            &mut self.reliability,
            &mut self.engine,
            &mut self.encode,
            &mut self.report,
            &mut self.states,
            &mut self.vec_mul_steps,
        ]
    }

    /// The per-operation mean of `rows`.
    pub fn mean(rows: &[Rows]) -> Rows {
        let mut total = Rows::default();
        for r in rows {
            let mut r = r.clone();
            for (t, x) in total.fields().into_iter().zip(r.fields()) {
                *t += *x;
            }
        }
        total.divide(rows.len());
        total
    }

    pub fn divide(&mut self, n: usize) {
        for x in self.fields() {
            *x /= n.max(1) as f64;
        }
    }

    /// The per-block rows' total.
    pub fn blocks(&self) -> f64 {
        self.generate + self.steady + self.interval + self.reliability
    }

    /// Emits the rows from `spec.from_dsl_us` to `core.report_us`.
    pub fn put_core(&self, hit_ratio: f64, m: &mut Metrics) {
        m.put("spec.from_dsl_us", self.from_dsl, "us");
        m.put("lint.lint_spec_us", self.lint, "us");
        m.put("core.generate_us", self.generate, "us");
        m.put("core.states", self.states, "count");
        m.put("core.steady_us", self.steady, "us");
        m.put("core.interval_us", self.interval, "us");
        m.put("markov.transient.vec_mul_steps", self.vec_mul_steps, "count");
        m.put("core.reliability_us", self.reliability, "us");
        m.put("core.engine_us", self.engine, "us");
        m.put("core.cache.hit_ratio", hit_ratio, "ratio");
        m.put("core.report_us", self.report, "us");
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f`, returning its value and its time in µs.
pub fn time_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, us(t.elapsed()))
}

/// The process-wide transient step counter (telemetry must be installed).
pub fn vec_mul_steps() -> f64 {
    MetricsRegistry::global()
        .snapshot()
        .counter_total("markov.transient.vec_mul_steps")
        .unwrap_or(0) as f64
}

/// Times every block of `spec` that `keep` selects through the
/// per-block public calls, in walk order, adding to `r`. Returns the
/// bits of each timed block's steady-state availability (`None` where
/// a call failed), for comparison with the engine's.
pub fn per_block(
    spec: &SystemSpec,
    mut keep: impl FnMut(&Block) -> bool,
    r: &mut Rows,
) -> Vec<Option<u64>> {
    let mission = spec.globals.mission_time.0;
    let mut availability = Vec::new();
    spec.root.walk(&mut |_, _, block| {
        if !keep(block) {
            return;
        }
        let t = Instant::now();
        let Ok(model) = generate_block(&block.params, &spec.globals) else {
            availability.push(None);
            return;
        };
        let a = Instant::now();
        let steady = steady_state_measures_with_certificate_opts(
            &model,
            SteadyStateMethod::Gth,
            &SolveOptions::default(),
        );
        let b = Instant::now();
        let _ = black_box(interval_measures(&model, mission));
        let c = Instant::now();
        let _ = black_box(reliability_measures(&model, mission));
        let d = Instant::now();
        r.states += model.state_count() as f64;
        r.generate += us(a - t);
        r.steady += us(b - a);
        r.interval += us(c - b);
        r.reliability += us(d - c);
        availability.push(steady.ok().map(|(m, _)| m.availability.to_bits()));
    });
    availability
}
