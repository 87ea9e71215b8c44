//! Semi-Markov processes.
//!
//! The paper's GMB module offers "graphical Markov, semi-Markov and
//! reliability block diagram modeling". A semi-Markov process relaxes
//! the exponential-sojourn assumption: each state has an arbitrary
//! sojourn-time distribution, and jumps follow an embedded discrete-time
//! chain. Steady-state measures follow from the classic ratio formula
//! `π_i = ν_i·m_i / Σ_j ν_j·m_j`, where `ν` is the stationary vector of
//! the embedded chain and `m_i` the mean sojourn in state `i`.

use crate::dense::DenseMatrix;
use crate::error::MarkovError;
use crate::gth;

/// Sojourn-time distribution of a semi-Markov state.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum SojournDistribution {
    /// Exponential with the given rate (mean `1/rate`).
    Exponential {
        /// Rate parameter (> 0).
        rate: f64,
    },
    /// Deterministic (constant) sojourn.
    Deterministic {
        /// The constant duration (>= 0).
        value: f64,
    },
    /// Uniform on `[low, high]`.
    Uniform {
        /// Lower bound (>= 0).
        low: f64,
        /// Upper bound (>= low).
        high: f64,
    },
    /// Erlang with `k` exponential phases of the given rate.
    Erlang {
        /// Number of phases (>= 1).
        k: u32,
        /// Per-phase rate (> 0).
        rate: f64,
    },
    /// Weibull with shape `k` and scale `lambda`.
    Weibull {
        /// Shape parameter (> 0).
        shape: f64,
        /// Scale parameter (> 0).
        scale: f64,
    },
    /// Lognormal where the underlying normal has mean `mu` and standard
    /// deviation `sigma`.
    Lognormal {
        /// Location of the underlying normal.
        mu: f64,
        /// Scale of the underlying normal (> 0).
        sigma: f64,
    },
}

impl SojournDistribution {
    /// Mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            SojournDistribution::Exponential { rate } => 1.0 / rate,
            SojournDistribution::Deterministic { value } => value,
            SojournDistribution::Uniform { low, high } => 0.5 * (low + high),
            SojournDistribution::Erlang { k, rate } => f64::from(k) / rate,
            SojournDistribution::Weibull { shape, scale } => scale * gamma(1.0 + 1.0 / shape),
            SojournDistribution::Lognormal { mu, sigma } => (mu + 0.5 * sigma * sigma).exp(),
        }
    }

    /// Variance of the distribution.
    #[must_use]
    pub fn variance(&self) -> f64 {
        match *self {
            SojournDistribution::Exponential { rate } => 1.0 / (rate * rate),
            SojournDistribution::Deterministic { .. } => 0.0,
            SojournDistribution::Uniform { low, high } => (high - low).powi(2) / 12.0,
            SojournDistribution::Erlang { k, rate } => f64::from(k) / (rate * rate),
            SojournDistribution::Weibull { shape, scale } => {
                let g1 = gamma(1.0 + 1.0 / shape);
                let g2 = gamma(1.0 + 2.0 / shape);
                scale * scale * (g2 - g1 * g1)
            }
            SojournDistribution::Lognormal { mu, sigma } => {
                let s2 = sigma * sigma;
                (s2.exp() - 1.0) * (2.0 * mu + s2).exp()
            }
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::InvalidOption`] describing the bad
    /// parameter.
    pub fn validate(&self) -> Result<(), MarkovError> {
        let bad = |what: String| Err(MarkovError::InvalidOption { what });
        match *self {
            SojournDistribution::Exponential { rate } => {
                if !(rate > 0.0 && rate.is_finite()) {
                    return bad(format!("exponential rate {rate}"));
                }
            }
            SojournDistribution::Deterministic { value } => {
                if !(value >= 0.0 && value.is_finite()) {
                    return bad(format!("deterministic value {value}"));
                }
            }
            SojournDistribution::Uniform { low, high } => {
                if !(low >= 0.0 && high >= low && high.is_finite()) {
                    return bad(format!("uniform bounds [{low}, {high}]"));
                }
            }
            SojournDistribution::Erlang { k, rate } => {
                if k == 0 || !(rate > 0.0 && rate.is_finite()) {
                    return bad(format!("erlang k={k} rate={rate}"));
                }
            }
            SojournDistribution::Weibull { shape, scale } => {
                if !(shape > 0.0 && scale > 0.0 && shape.is_finite() && scale.is_finite()) {
                    return bad(format!("weibull shape={shape} scale={scale}"));
                }
            }
            SojournDistribution::Lognormal { mu, sigma } => {
                if !(sigma > 0.0 && sigma.is_finite() && mu.is_finite()) {
                    return bad(format!("lognormal mu={mu} sigma={sigma}"));
                }
            }
        }
        Ok(())
    }
}

/// Lanczos approximation of the gamma function (g = 7, n = 9).
fn gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = COEF[0];
        let t = x + G + 0.5;
        for (i, &c) in COEF.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Builds a [`SemiMarkov`] process incrementally.
#[derive(Debug, Clone, Default)]
pub struct SemiMarkovBuilder {
    labels: Vec<String>,
    rewards: Vec<f64>,
    sojourns: Vec<Option<SojournDistribution>>,
    jumps: Vec<(usize, usize, f64)>,
}

impl SemiMarkovBuilder {
    /// Creates an empty builder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state with its reward and sojourn distribution; returns its
    /// id.
    pub fn add_state(
        &mut self,
        label: impl Into<String>,
        reward: f64,
        sojourn: SojournDistribution,
    ) -> usize {
        self.labels.push(label.into());
        self.rewards.push(reward);
        self.sojourns.push(Some(sojourn));
        self.labels.len() - 1
    }

    /// Adds an embedded-chain jump probability `from -> to`.
    pub fn add_jump(&mut self, from: usize, to: usize, probability: f64) -> &mut Self {
        self.jumps.push((from, to, probability));
        self
    }

    /// Validates and finalizes the process.
    ///
    /// # Errors
    ///
    /// * [`MarkovError::EmptyChain`] with no states.
    /// * [`MarkovError::UnknownState`] for bad jump endpoints.
    /// * [`MarkovError::InvalidProbability`] if a jump probability is
    ///   outside `[0, 1]` or some row does not sum to 1.
    /// * [`MarkovError::InvalidOption`] for bad distribution parameters.
    pub fn build(&self) -> Result<SemiMarkov, MarkovError> {
        let n = self.labels.len();
        if n == 0 {
            return Err(MarkovError::EmptyChain);
        }
        for s in self.sojourns.iter().flatten() {
            s.validate()?;
        }
        let mut p = DenseMatrix::zeros(n, n);
        for &(f, t, prob) in &self.jumps {
            if f >= n {
                return Err(MarkovError::UnknownState { id: f, len: n });
            }
            if t >= n {
                return Err(MarkovError::UnknownState { id: t, len: n });
            }
            if !(0.0..=1.0).contains(&prob) || !prob.is_finite() {
                return Err(MarkovError::InvalidProbability {
                    what: format!("jump {f}->{t} probability {prob}"),
                });
            }
            p[(f, t)] += prob;
        }
        for i in 0..n {
            let sum: f64 = p.row(i).iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                return Err(MarkovError::InvalidProbability {
                    what: format!("embedded row {i} sums to {sum}"),
                });
            }
        }
        Ok(SemiMarkov {
            labels: self.labels.clone(),
            rewards: self.rewards.clone(),
            sojourns: self.sojourns.iter().map(|s| s.expect("set in add_state")).collect(),
            embedded: p,
        })
    }
}

/// A validated semi-Markov process.
#[derive(Debug, Clone, PartialEq)]
pub struct SemiMarkov {
    labels: Vec<String>,
    rewards: Vec<f64>,
    sojourns: Vec<SojournDistribution>,
    embedded: DenseMatrix,
}

impl SemiMarkov {
    /// Number of states.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether there are no states (never true for a built process).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// State labels in id order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Mean sojourn time of each state.
    pub fn mean_sojourns(&self) -> Vec<f64> {
        self.sojourns.iter().map(SojournDistribution::mean).collect()
    }

    /// Stationary distribution of the *embedded* jump chain.
    ///
    /// # Errors
    ///
    /// Returns [`MarkovError::Singular`] or [`MarkovError::Reducible`]
    /// when the embedded chain has no unique stationary vector.
    pub fn embedded_stationary(&self) -> Result<Vec<f64>, MarkovError> {
        let n = self.len();
        if n == 1 {
            return Ok(vec![1.0]);
        }
        // Convert the DTMC to a "generator" Q = P - I and run GTH.
        let mut q = self.embedded.clone();
        for i in 0..n {
            q[(i, i)] -= 1.0;
        }
        gth::stationary_gth_dense(&q)
    }

    /// Time-stationary state probabilities (fraction of time in each
    /// state): `π_i = ν_i·m_i / Σ ν_j·m_j`.
    ///
    /// # Errors
    ///
    /// Propagates [`embedded_stationary`](Self::embedded_stationary)
    /// errors, and returns [`MarkovError::Singular`] if all mean sojourns
    /// are zero.
    pub fn steady_state(&self) -> Result<Vec<f64>, MarkovError> {
        let nu = self.embedded_stationary()?;
        let m = self.mean_sojourns();
        let mut pi: Vec<f64> = nu.iter().zip(&m).map(|(a, b)| a * b).collect();
        let z: f64 = pi.iter().sum();
        if !(z.is_finite() && z > 0.0) {
            return Err(MarkovError::Singular);
        }
        for p in &mut pi {
            *p /= z;
        }
        Ok(pi)
    }

    /// Steady-state expected reward (availability for 0/1 rewards).
    ///
    /// # Errors
    ///
    /// Propagates [`steady_state`](Self::steady_state) errors.
    pub fn availability(&self) -> Result<f64, MarkovError> {
        let pi = self.steady_state()?;
        Ok(pi.iter().zip(&self.rewards).map(|(p, r)| p * r).sum())
    }

    /// Approximates the process by a CTMC using Erlang phase expansion:
    /// every state becomes `k_i` sequential exponential phases whose
    /// total matches the state's mean sojourn, with `k_i` chosen from
    /// the state's coefficient of variation (capped at `max_phases`).
    ///
    /// Steady-state measures of the result match the semi-Markov
    /// process *exactly* (they depend only on means); transient measures
    /// become a controllable approximation — the standard trick for
    /// analyzing deterministic repair times with Markov tooling.
    ///
    /// # Errors
    ///
    /// Returns a builder error if the expansion produces an invalid
    /// chain (cannot happen for a validated process).
    pub fn to_ctmc_erlang(&self, max_phases: u32) -> Result<crate::ctmc::Ctmc, MarkovError> {
        use crate::ctmc::CtmcBuilder;
        let max_phases = max_phases.max(1);
        let n = self.len();

        // Choose phase counts: k ≈ 1/cv² (cv² = var/mean²); exponential
        // states get k = 1 exactly, deterministic states get the cap.
        let mut phase_counts = Vec::with_capacity(n);
        for s in &self.sojourns {
            let mean = s.mean();
            let var = s.variance();
            let k = if mean <= 0.0 {
                1
            } else if var <= 0.0 {
                max_phases
            } else {
                let cv2 = var / (mean * mean);
                ((1.0 / cv2).round() as u32).clamp(1, max_phases)
            };
            phase_counts.push(k);
        }

        let mut b = CtmcBuilder::new();
        // first_phase[i] = state id of the first phase of state i.
        let mut first_phase = Vec::with_capacity(n);
        for (i, (label, k)) in self.labels.iter().zip(&phase_counts).enumerate() {
            let ids: Vec<_> = (0..*k)
                .map(|p| {
                    let lbl = if *k == 1 { label.clone() } else { format!("{label}#{p}") };
                    b.add_state(lbl, self.rewards[i])
                })
                .collect();
            first_phase.push(ids);
        }
        for (i, k) in phase_counts.iter().enumerate() {
            let mean = self.sojourns[i].mean();
            // Zero-mean states: route through at a very high rate.
            let rate = if mean > 0.0 { f64::from(*k) / mean } else { 1e12 };
            let phases = &first_phase[i];
            for w in phases.windows(2) {
                b.add_transition(w[0], w[1], rate);
            }
            let last = *phases.last().expect("k >= 1");
            for (j, target) in first_phase.iter().enumerate().take(n) {
                let p = self.embedded[(i, j)];
                if p > 0.0 && target[0] != last {
                    b.add_transition(last, target[0], rate * p);
                }
            }
        }
        b.build()
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    #[test]
    fn gamma_known_values() {
        assert!((gamma(1.0) - 1.0).abs() < 1e-12);
        assert!((gamma(2.0) - 1.0).abs() < 1e-12);
        assert!((gamma(5.0) - 24.0).abs() < 1e-9);
        assert!((gamma(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-10);
    }

    #[test]
    fn distribution_means() {
        assert!((SojournDistribution::Exponential { rate: 4.0 }.mean() - 0.25).abs() < 1e-15);
        assert_eq!(SojournDistribution::Deterministic { value: 3.0 }.mean(), 3.0);
        assert_eq!(SojournDistribution::Uniform { low: 1.0, high: 3.0 }.mean(), 2.0);
        assert!((SojournDistribution::Erlang { k: 3, rate: 6.0 }.mean() - 0.5).abs() < 1e-15);
        // Weibull with shape 1 is exponential with mean = scale.
        assert!(
            (SojournDistribution::Weibull { shape: 1.0, scale: 2.5 }.mean() - 2.5).abs() < 1e-9
        );
        let ln = SojournDistribution::Lognormal { mu: 0.0, sigma: 1.0 };
        assert!((ln.mean() - (0.5f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn distribution_variances() {
        assert!((SojournDistribution::Exponential { rate: 2.0 }.variance() - 0.25).abs() < 1e-15);
        assert_eq!(SojournDistribution::Deterministic { value: 9.0 }.variance(), 0.0);
        assert!(
            (SojournDistribution::Uniform { low: 0.0, high: 6.0 }.variance() - 3.0).abs() < 1e-12
        );
        // Weibull shape 1 variance = scale^2.
        assert!(
            (SojournDistribution::Weibull { shape: 1.0, scale: 3.0 }.variance() - 9.0).abs() < 1e-7
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(SojournDistribution::Exponential { rate: 0.0 }.validate().is_err());
        assert!(SojournDistribution::Deterministic { value: -1.0 }.validate().is_err());
        assert!(SojournDistribution::Uniform { low: 3.0, high: 1.0 }.validate().is_err());
        assert!(SojournDistribution::Erlang { k: 0, rate: 1.0 }.validate().is_err());
        assert!(SojournDistribution::Weibull { shape: -1.0, scale: 1.0 }.validate().is_err());
        assert!(SojournDistribution::Lognormal { mu: 0.0, sigma: 0.0 }.validate().is_err());
    }

    /// An alternating up/down semi-Markov process with deterministic
    /// repair reproduces the renewal-theory availability
    /// `A = m_up / (m_up + m_down)`.
    #[test]
    fn two_state_semi_markov_availability() {
        let mut b = SemiMarkovBuilder::new();
        let up = b.add_state("up", 1.0, SojournDistribution::Exponential { rate: 0.001 });
        let down = b.add_state("down", 0.0, SojournDistribution::Deterministic { value: 4.0 });
        b.add_jump(up, down, 1.0);
        b.add_jump(down, up, 1.0);
        let smp = b.build().unwrap();
        let a = smp.availability().unwrap();
        assert!((a - 1000.0 / 1004.0).abs() < 1e-12);
    }

    /// With all-exponential sojourns, the semi-Markov solution matches
    /// the CTMC solution of the same chain.
    #[test]
    fn exponential_semi_markov_matches_ctmc() {
        use crate::ctmc::{CtmcBuilder, SteadyStateMethod};
        // 3-state cycle, rates r_i.
        let rates = [0.5, 3.0, 7.0];
        let mut sb = SemiMarkovBuilder::new();
        for (i, &r) in rates.iter().enumerate() {
            sb.add_state(format!("s{i}"), 1.0, SojournDistribution::Exponential { rate: r });
        }
        for i in 0..3 {
            sb.add_jump(i, (i + 1) % 3, 1.0);
        }
        let smp = sb.build().unwrap();
        let pi_s = smp.steady_state().unwrap();

        let mut cb = CtmcBuilder::new();
        for i in 0..3 {
            cb.add_state(format!("s{i}"), 1.0);
        }
        for (i, &r) in rates.iter().enumerate() {
            cb.add_transition(i, (i + 1) % 3, r);
        }
        let ctmc = cb.build().unwrap();
        let pi_c = ctmc.steady_state(SteadyStateMethod::Gth).unwrap();
        for (a, b) in pi_s.iter().zip(&pi_c) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn erlang_expansion_preserves_steady_state() {
        use crate::ctmc::SteadyStateMethod;
        let mut b = SemiMarkovBuilder::new();
        let up = b.add_state("up", 1.0, SojournDistribution::Exponential { rate: 0.002 });
        let down = b.add_state("down", 0.0, SojournDistribution::Deterministic { value: 3.0 });
        b.add_jump(up, down, 1.0);
        b.add_jump(down, up, 1.0);
        let smp = b.build().unwrap();
        let a_smp = smp.availability().unwrap();

        for phases in [1, 4, 16] {
            let ctmc = smp.to_ctmc_erlang(phases).unwrap();
            // Exponential up state stays one phase; deterministic down
            // state gets the cap.
            assert_eq!(ctmc.len(), 1 + phases as usize);
            let pi = ctmc.steady_state(SteadyStateMethod::Gth).unwrap();
            let a = ctmc.expected_reward(&pi);
            assert!((a - a_smp).abs() < 1e-12, "phases={phases}: {a} vs {a_smp}");
        }
    }

    #[test]
    fn erlang_expansion_improves_transient_fidelity() {
        use crate::transient::{self, TransientOptions};
        // Deterministic 2h downtime starting from "down": with many
        // phases, P(still down at t = 1h) stays near 1 and P(down at
        // t = 3h) near 0; with one phase both are washed out.
        let mut b = SemiMarkovBuilder::new();
        let up = b.add_state("up", 1.0, SojournDistribution::Exponential { rate: 1e-6 });
        let down = b.add_state("down", 0.0, SojournDistribution::Deterministic { value: 2.0 });
        b.add_jump(up, down, 1.0);
        b.add_jump(down, up, 1.0);
        let smp = b.build().unwrap();

        let sharp = smp.to_ctmc_erlang(64).unwrap();
        let fuzzy = smp.to_ctmc_erlang(1).unwrap();
        let mut p0_sharp = vec![0.0; sharp.len()];
        p0_sharp[sharp.state_by_label("down#0").unwrap()] = 1.0;
        let mut p0_fuzzy = vec![0.0; fuzzy.len()];
        p0_fuzzy[fuzzy.state_by_label("down").unwrap()] = 1.0;

        let at = |chain: &crate::ctmc::Ctmc, p0: &[f64], t: f64| {
            transient::solve(chain, p0, t, TransientOptions::default()).unwrap().point_reward
        };
        // Still down at t=1 with high probability only for the sharp model.
        assert!(at(&sharp, &p0_sharp, 1.0) < 0.05);
        assert!(at(&fuzzy, &p0_fuzzy, 1.0) > 0.3);
        // Recovered by t=4 almost surely for the sharp model.
        assert!(at(&sharp, &p0_sharp, 4.0) > 0.99);
    }

    #[test]
    fn erlang_expansion_handles_self_loops() {
        use crate::ctmc::SteadyStateMethod;
        // Embedded self-loop: staying in "up" with p = 0.5 halves the
        // effective exit rate.
        let mut b = SemiMarkovBuilder::new();
        let up = b.add_state("up", 1.0, SojournDistribution::Exponential { rate: 0.01 });
        let down = b.add_state("down", 0.0, SojournDistribution::Exponential { rate: 1.0 });
        b.add_jump(up, up, 0.5);
        b.add_jump(up, down, 0.5);
        b.add_jump(down, up, 1.0);
        let smp = b.build().unwrap();
        let ctmc = smp.to_ctmc_erlang(8).unwrap();
        let pi = ctmc.steady_state(SteadyStateMethod::Gth).unwrap();
        let a = ctmc.expected_reward(&pi);
        // Mean up stretch = 100/(1-0.5) = 200 h; down = 1 h.
        assert!((a - 200.0 / 201.0).abs() < 1e-12, "{a}");
    }

    #[test]
    fn bad_rows_rejected() {
        let mut b = SemiMarkovBuilder::new();
        let s = b.add_state("a", 1.0, SojournDistribution::Deterministic { value: 1.0 });
        let t = b.add_state("b", 0.0, SojournDistribution::Deterministic { value: 1.0 });
        b.add_jump(s, t, 0.6); // row sums to 0.6
        b.add_jump(t, s, 1.0);
        assert!(matches!(b.build().unwrap_err(), MarkovError::InvalidProbability { .. }));
    }

    #[test]
    fn empty_and_unknown_rejected() {
        assert!(matches!(SemiMarkovBuilder::new().build().unwrap_err(), MarkovError::EmptyChain));
        let mut b = SemiMarkovBuilder::new();
        let s = b.add_state("a", 1.0, SojournDistribution::Deterministic { value: 1.0 });
        b.add_jump(s, 5, 1.0);
        assert!(matches!(b.build().unwrap_err(), MarkovError::UnknownState { .. }));
    }

    #[test]
    fn branching_semi_markov() {
        // up -> down_fast (p=0.9, 1h) or down_slow (p=0.1, 10h).
        let mut b = SemiMarkovBuilder::new();
        let up = b.add_state("up", 1.0, SojournDistribution::Exponential { rate: 0.01 });
        let fast = b.add_state("fast", 0.0, SojournDistribution::Deterministic { value: 1.0 });
        let slow = b.add_state("slow", 0.0, SojournDistribution::Deterministic { value: 10.0 });
        b.add_jump(up, fast, 0.9);
        b.add_jump(up, slow, 0.1);
        b.add_jump(fast, up, 1.0);
        b.add_jump(slow, up, 1.0);
        let smp = b.build().unwrap();
        let a = smp.availability().unwrap();
        // Mean cycle: 100 up + 0.9*1 + 0.1*10 = 101.9; A = 100/101.9.
        assert!((a - 100.0 / 101.9).abs() < 1e-12);
    }
}
