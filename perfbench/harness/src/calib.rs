//! The machine-speed reference of `large_pool`.
//!
//! The speed of a small VM drifts by a third over minutes, and the
//! transient solve that dominates `large_pool` drifts with it: the same
//! 1000-unit solve takes 1.0 s in one minute and 1.8 s a few minutes
//! later. So each `large_pool` run also times a fixed kernel of the
//! benchmark's own between operations, and reports every time scaled to
//! the machine speed at which that kernel takes [`REFERENCE_MS`]. The
//! kernel is the step loop of a uniformization transient solve (two
//! reward accumulations, a sparse vector-matrix product that skips zero
//! entries, a convergence delta) on a fixed 1001-level birth–death
//! chain. It is built here, not by the program, so a change to the
//! program never changes the kernel; it shares the solve's working set
//! and memory pattern, so it slows down when the solve does.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// The kernel's time at the reference speed, ms: a round figure near
/// its median on a 2-vCPU VM (Intel Xeon, 2.0 GHz).
pub const REFERENCE_MS: f64 = 50.0;
/// Levels of the kernel's chain (the `large_pool` block's count).
const LEVELS: usize = 1001;
/// Steps per timed sample.
const STEPS: usize = 8000;

/// The kernel's matrix and vectors. The iterate carries over from one
/// sample to the next, so every sample after the warm-up works on the
/// same near-stationary distribution.
struct Kernel {
    row_start: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    probs: Vec<f64>,
    next: Vec<f64>,
    point: Vec<f64>,
    cumulative: Vec<f64>,
}

impl Kernel {
    /// Failure `(N − j)·λ` and repair `j·μ` between adjacent levels, with
    /// λ = 1/100,000 h and μ = 1/53 h on the up levels (j ≤ 100), 1/5 h
    /// on the down ones, uniformized at 1.02 × the largest exit rate.
    fn new() -> Kernel {
        let n = LEVELS - 1;
        let lambda = 1e-5;
        let mu = |j: usize| if j <= 100 { 1.0 / 53.0 } else { 1.0 / 5.0 };
        let fail = |j: usize| if j < n { (n - j) as f64 * lambda } else { 0.0 };
        let repair = |j: usize| if j > 0 { j as f64 * mu(j) } else { 0.0 };
        let q = (0..LEVELS).map(|j| fail(j) + repair(j)).fold(0.0, f64::max) * 1.02;
        let mut k = Kernel {
            row_start: vec![0],
            cols: Vec::new(),
            vals: Vec::new(),
            probs: vec![0.0; LEVELS],
            next: vec![0.0; LEVELS],
            point: vec![0.0; LEVELS],
            cumulative: vec![0.0; LEVELS],
        };
        for j in 0..LEVELS {
            let mut push = |c: usize, v: f64| {
                k.cols.push(c);
                k.vals.push(v);
            };
            if j > 0 {
                push(j - 1, repair(j) / q);
            }
            push(j, 1.0 - (fail(j) + repair(j)) / q);
            if j < n {
                push(j + 1, fail(j) / q);
            }
            k.row_start.push(k.cols.len());
        }
        k.probs[0] = 1.0;
        k
    }

    fn run(&mut self, steps: usize) {
        for s in 0..steps {
            let w = 1.0 / (s + 2) as f64;
            for i in 0..LEVELS {
                self.point[i] += w * self.probs[i];
                self.cumulative[i] += 0.5 * w * self.probs[i];
            }
            self.next.fill(0.0);
            for i in 0..LEVELS {
                let p = self.probs[i];
                if p == 0.0 {
                    continue;
                }
                for e in self.row_start[i]..self.row_start[i + 1] {
                    self.next[self.cols[e]] += p * self.vals[e];
                }
            }
            let delta: f64 = self.next.iter().zip(&self.probs).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut self.probs, &mut self.next);
            black_box(delta);
        }
        black_box((&self.point, &self.cumulative));
    }
}

/// Kernel samples taken through a run.
pub struct Clock {
    kernel: Kernel,
    samples_ms: Vec<f64>,
    last: Option<Instant>,
}

impl Clock {
    /// Builds the kernel and runs it to its near-stationary regime.
    pub fn new() -> Clock {
        let mut kernel = Kernel::new();
        kernel.run(4 * STEPS);
        Clock { kernel, samples_ms: Vec::new(), last: None }
    }

    /// Times one kernel sample if `every` has passed since the last one
    /// began; returns the time spent.
    pub fn tick(&mut self, every: Duration) -> Duration {
        let t = Instant::now();
        if self.last.is_some_and(|l| t - l < every) {
            return Duration::ZERO;
        }
        self.last = Some(t);
        self.kernel.run(STEPS);
        let spent = t.elapsed();
        self.samples_ms.push(spent.as_secs_f64() * 1e3);
        spent
    }

    /// The median kernel time of the run, ms.
    pub fn median_ms(&self) -> f64 {
        stats::median(&self.samples_ms)
    }

    /// What a time measured in this run is multiplied by to give it at
    /// the reference speed.
    pub fn factor(&self) -> f64 {
        REFERENCE_MS / self.median_ms()
    }

    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}
