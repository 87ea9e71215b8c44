//! Transient analysis by uniformization (randomization).
//!
//! RAScad reports *interval availability* over `(0, T)` where `T` is the
//! user's Mission Time. Uniformization computes state probabilities
//! `p(t) = p(0) e^{Qt}` as a Poisson mixture of DTMC powers,
//! `p(t) = Σ_k Poisson(Λt; k) · p(0) P^k` with `P = I + Q/Λ`,
//! and the *expected cumulative reward* (the integral availability) with
//! the standard one-extra-term recurrence. All terms are non-negative,
//! so the method is numerically stable for stiff availability chains.

use crate::ctmc::{Ctmc, SolveOptions};
use crate::error::MarkovError;
use crate::matrix::SparseMatrix;

/// Truncation error bound of each time's Poisson series: the total
/// probability mass the series may leave out.
const EPSILON: f64 = 1e-12;

/// Hard cap on the number of series terms per time (guards against
/// absurd `Λt`).
const MAX_TERMS: usize = 10_000_000;

/// Series terms between two cancellation checks. On the 1001-state
/// `k = 900` pool block, 64 terms take about 0.16 ms in a release
/// build and 2 ms in a debug build.
const TERM_CHECK_STRIDE: usize = 64;

/// Poisson weight and tail entries computed between two cancellation
/// checks, before the first series term.
const PRECOMPUTE_CHECK_STRIDE: usize = 1 << 16;

/// Result of a transient solve at one time point.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientSolution {
    /// Time the solution refers to.
    pub time: f64,
    /// State probabilities at `time`.
    pub probabilities: Vec<f64>,
    /// Expected instantaneous reward at `time` (point availability for
    /// 0/1 rewards).
    pub point_reward: f64,
    /// Expected time-averaged cumulative reward over `(0, time)`
    /// (interval availability for 0/1 rewards).
    pub interval_reward: f64,
    /// Probability mass the truncated Poisson series failed to capture
    /// (before renormalization) — the solve's truncation error.
    pub truncation: f64,
}

/// Uniformized DTMC: `P = I + Q/Λ` with `Λ ≥ max_i |q_ii|`.
#[derive(Debug, Clone)]
pub struct Uniformized {
    /// The uniformization rate Λ.
    pub rate: f64,
    /// The DTMC matrix `P` (rows sum to 1).
    pub dtmc: SparseMatrix,
}

/// Builds the uniformized DTMC of a chain.
///
/// The uniformization rate is `1.02 × max |q_ii|` (a small margin keeps
/// every diagonal of `P` strictly positive, which makes the chain
/// aperiodic and the series better behaved). A chain with no transitions
/// gets `Λ = 1` and `P = I`.
#[must_use]
pub fn uniformize(chain: &Ctmc) -> Uniformized {
    let q = chain.generator();
    let maxd = q.max_abs_diagonal();
    let rate = if maxd > 0.0 { maxd * 1.02 } else { 1.0 };
    let n = chain.len();
    let mut trips: Vec<(usize, usize, f64)> = Vec::new();
    let mut diag = vec![1.0; n];
    for t in chain.transitions() {
        trips.push((t.from, t.to, t.rate / rate));
        diag[t.from] -= t.rate / rate;
    }
    for (i, d) in diag.iter().enumerate() {
        trips.push((i, i, *d));
    }
    Uniformized { rate, dtmc: SparseMatrix::from_triplets(n, n, &trips) }
}

/// Solves for state probabilities and rewards at time `t`, starting from
/// the distribution `p0`: the one-point [`solve_grid`].
///
/// # Errors
///
/// As [`solve_grid`].
pub fn solve(
    chain: &Ctmc,
    p0: &[f64],
    t: f64,
    options: &SolveOptions,
) -> Result<TransientSolution, MarkovError> {
    let mut sols = solve_grid(chain, p0, &[t], options)?;
    Ok(sols.pop().expect("one time in, one solution out"))
}

/// Solves at every time of `times` in a *single* uniformization pass.
///
/// The DTMC power sequence `p0 · Pᵏ` is computed once and shared across
/// every requested time; each time only contributes its own Poisson
/// weights `w_k` and tails `W_k = Σ_{j>k} w_j`:
/// `p(t) = Σ_k w_k p0 Pᵏ` and, for the expected cumulative reward,
/// `L(t) = (1/Λ) Σ_k W_k p0 Pᵏ`. Once the iterates stop moving (steady
/// state detected), every still-open series is closed in one step with
/// its own remaining mass. Each time's arithmetic is independent of the
/// other times in the grid, so a time's result is bit-identical whether
/// it is solved alone or in a grid.
///
/// Results are returned in the order of `times` (which need not be
/// sorted). Only `options.cancel` is honoured: the token is checked
/// while the weights are computed, at the first series term and then
/// every 64 terms. The wall-clock budget is the steady-state ladder's
/// per-rung budget and does not apply here.
///
/// # Errors
///
/// * [`MarkovError::InvalidOption`] for a negative or non-finite time,
///   or a series longer than the term cap.
/// * [`MarkovError::InvalidProbability`] if `p0` is not a distribution.
/// * [`MarkovError::Cancelled`] when the caller's token trips.
pub fn solve_grid(
    chain: &Ctmc,
    p0: &[f64],
    times: &[f64],
    options: &SolveOptions,
) -> Result<Vec<TransientSolution>, MarkovError> {
    check_distribution(p0, chain.len())?;
    for &t in times {
        if !t.is_finite() || t < 0.0 {
            return Err(MarkovError::InvalidOption { what: format!("time {t} must be >= 0") });
        }
    }
    let n = chain.len();
    let mut span = rascad_obs::span("markov.transient");
    span.record("states", n);
    span.record("points", times.len());

    let rewards = chain.rewards();
    let uni = uniformize(chain);
    span.record("uniformization_rate", uni.rate);

    // Per-time Poisson weights and tails packed into one ragged buffer:
    // the series of time `i` occupies `weights[offsets[i]..offsets[i+1]]`,
    // and `tails` shares the layout.
    let mut weights: Vec<f64> = Vec::new();
    let mut offsets: Vec<usize> = Vec::with_capacity(times.len() + 1);
    offsets.push(0);
    for &t in times {
        poisson_weights_into(uni.rate * t, options, &mut weights)?;
        offsets.push(weights.len());
    }
    let kmax = offsets.windows(2).map(|w| w[1] - w[0] - 1).max().unwrap_or(0);
    let mut tails = vec![0.0; weights.len()];
    for i in 0..times.len() {
        let mut run = 0.0;
        for k in (offsets[i]..offsets[i + 1]).rev() {
            if k % PRECOMPUTE_CHECK_STRIDE == 0 && options.cancelled() {
                return Err(options.cancelled_error("transient", 0));
            }
            tails[k] = run;
            run += weights[k];
        }
    }

    // Row-major accumulators: time `i` owns `[i * n .. (i+1) * n]`.
    let mut point_acc = vec![0.0; times.len() * n];
    let mut cum_acc = vec![0.0; times.len() * n];
    let mut probs = p0.to_vec();
    // Scratch iterate reused across every SpMV step, so the series
    // allocates nothing per term.
    let mut next = vec![0.0; n];
    let mut steps = 0usize;
    // Truncation-error series: the largest Poisson mass any time has
    // not captured yet after term k.
    let mut trace = rascad_obs::trace::begin("transient", "truncation", n);
    for k in 0..=kmax {
        if k % TERM_CHECK_STRIDE == 0 && options.cancelled() {
            trace.finish("cancelled");
            return Err(options.cancelled_error("transient", k));
        }
        let mut uncaptured = 0.0f64;
        for i in 0..times.len() {
            let (lo, hi) = (offsets[i], offsets[i + 1]);
            if k < hi - lo {
                let (wk, tk) = (weights[lo + k], tails[lo + k]);
                accumulate(&mut point_acc[i * n..(i + 1) * n], wk, &probs);
                accumulate(&mut cum_acc[i * n..(i + 1) * n], tk, &probs);
                uncaptured = uncaptured.max(tk);
            }
        }
        trace.step(k + 1, uncaptured);
        if k == kmax {
            break;
        }
        uni.dtmc.vec_mul_into(&probs, &mut next);
        steps += 1;
        // Steady-state detection: once the DTMC iterates stop moving,
        // all remaining Poisson mass lands on the same vector — close
        // each open series with its own tails in one step.
        let delta: f64 = next.iter().zip(&probs).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut probs, &mut next);
        if delta < EPSILON * 1e-3 {
            for i in 0..times.len() {
                let (lo, hi) = (offsets[i], offsets[i + 1]);
                if k + 1 < hi - lo {
                    // Σ_{j>k} W_j, summed from the far end.
                    let tail_sum = tails[lo + k + 1..hi].iter().rev().fold(0.0, |acc, w| acc + w);
                    accumulate(&mut point_acc[i * n..(i + 1) * n], tails[lo + k], &probs);
                    accumulate(&mut cum_acc[i * n..(i + 1) * n], tail_sum, &probs);
                }
            }
            break;
        }
    }
    span.record("kmax", kmax);
    span.record("steps", steps);
    rascad_obs::record_value("markov.transient.kmax", kmax as f64);
    rascad_obs::counter("markov.transient.vec_mul_steps", steps as u64);
    rascad_obs::counter("markov.transient.solves", times.len() as u64);
    rascad_obs::counter("markov.transient.grid_solves", 1);
    trace.finish("done");

    let max_reward = rewards.iter().cloned().fold(0.0, f64::max);
    Ok(times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            if t == 0.0 {
                let point = dot(p0, &rewards);
                return TransientSolution {
                    time: 0.0,
                    probabilities: p0.to_vec(),
                    point_reward: point,
                    interval_reward: point,
                    truncation: 0.0,
                };
            }
            // Normalize the point distribution against truncation loss.
            let mut p = point_acc[i * n..(i + 1) * n].to_vec();
            let mass: f64 = p.iter().sum();
            let truncation = (1.0 - mass).max(0.0);
            rascad_obs::record_value("markov.transient.truncation", truncation);
            if mass > 0.0 {
                for x in &mut p {
                    *x /= mass;
                }
            }
            let point = dot(&p, &rewards);
            let interval = dot(&cum_acc[i * n..(i + 1) * n], &rewards) / uni.rate / t;
            TransientSolution {
                time: t,
                probabilities: p,
                point_reward: point,
                interval_reward: interval.clamp(0.0, max_reward),
                truncation,
            }
        })
        .collect())
}

/// `acc += weight · probs`, elementwise.
fn accumulate(acc: &mut [f64], weight: f64, probs: &[f64]) {
    for (a, p) in acc.iter_mut().zip(probs) {
        *a += weight * p;
    }
}

/// Appends the Poisson pmf `w_k = e^{-m} m^k / k!` for `k = 0..=kmax`
/// onto `out`, where `kmax` is chosen so the truncated tail mass is
/// below [`EPSILON`]. Grid solves pack every time's series into one
/// contiguous buffer this way.
///
/// Uses left/right truncation with scaling for large `m` (Fox–Glynn
/// style, simplified: start at the mode with weight 1, extend both ways,
/// then normalize by the total). The weights below the left truncation
/// point are exact zeros.
fn poisson_weights_into(
    m: f64,
    options: &SolveOptions,
    out: &mut Vec<f64>,
) -> Result<(), MarkovError> {
    let start = out.len();
    if m <= 0.0 {
        out.push(1.0);
        return Ok(());
    }
    let too_long = || MarkovError::InvalidOption {
        what: format!("poisson series for m={m} exceeded {MAX_TERMS} terms"),
    };
    if m < 400.0 {
        // Direct recurrence is safe: e^{-400} is representable.
        out.reserve(64);
        let mut wk = (-m).exp();
        let mut acc = wk;
        out.push(wk);
        let mut k = 1usize;
        while 1.0 - acc > EPSILON {
            if k > MAX_TERMS {
                out.truncate(start);
                return Err(too_long());
            }
            wk *= m / k as f64;
            out.push(wk);
            acc += wk;
            k += 1;
        }
    } else {
        // Scaled: weights relative to the mode, normalized at the end.
        let mode = m.floor() as usize;
        let spread = (6.0 * m.sqrt()).ceil() as usize + 40;
        let lo = mode.saturating_sub(spread);
        let hi = mode + spread;
        if hi - lo > MAX_TERMS {
            return Err(too_long());
        }
        out.resize(start + hi + 1, 0.0);
        let w = &mut out[start + lo..];
        let mode = mode - lo;
        w[mode] = 1.0;
        for k in (mode + 1)..w.len() {
            if k % PRECOMPUTE_CHECK_STRIDE == 0 && options.cancelled() {
                return Err(options.cancelled_error("transient", 0));
            }
            w[k] = w[k - 1] * m / (k + lo) as f64;
        }
        for k in (0..mode).rev() {
            if k % PRECOMPUTE_CHECK_STRIDE == 0 && options.cancelled() {
                return Err(options.cancelled_error("transient", 0));
            }
            w[k] = w[k + 1] * ((k + lo) as f64 + 1.0) / m;
        }
        let total: f64 = w.iter().sum();
        for x in w.iter_mut() {
            *x /= total;
        }
    }
    Ok(())
}

fn check_distribution(p: &[f64], n: usize) -> Result<(), MarkovError> {
    if p.len() != n {
        return Err(MarkovError::InvalidProbability {
            what: format!("initial vector has {} entries, chain has {n}", p.len()),
        });
    }
    let mut sum = 0.0;
    for &x in p {
        if !(0.0..=1.0 + 1e-12).contains(&x) || !x.is_finite() {
            return Err(MarkovError::InvalidProbability { what: format!("entry {x}") });
        }
        sum += x;
    }
    if (sum - 1.0).abs() > 1e-9 {
        return Err(MarkovError::InvalidProbability { what: format!("sum {sum} != 1") });
    }
    Ok(())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;
    use crate::ctmc::{CtmcBuilder, SteadyStateMethod};

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.add_state("up", 1.0);
        let down = b.add_state("down", 0.0);
        b.add_transition(up, down, lambda);
        b.add_transition(down, up, mu);
        b.build().unwrap()
    }

    /// Closed-form point availability of the 2-state machine:
    /// A(t) = mu/(l+mu) + l/(l+mu) e^{-(l+mu)t}.
    fn a_point(l: f64, mu: f64, t: f64) -> f64 {
        mu / (l + mu) + l / (l + mu) * (-(l + mu) * t).exp()
    }

    /// Closed-form interval availability of the 2-state machine.
    fn a_interval(l: f64, mu: f64, t: f64) -> f64 {
        let s = l + mu;
        mu / s + l / (s * s * t) * (1.0 - (-s * t).exp())
    }

    #[test]
    fn point_availability_matches_closed_form() {
        let (l, mu) = (0.02, 0.4);
        let c = two_state(l, mu);
        for &t in &[0.1, 1.0, 5.0, 20.0, 100.0] {
            let sol = solve(&c, &[1.0, 0.0], t, &SolveOptions::default()).unwrap();
            assert!(
                (sol.point_reward - a_point(l, mu, t)).abs() < 1e-10,
                "t={t}: {} vs {}",
                sol.point_reward,
                a_point(l, mu, t)
            );
        }
    }

    #[test]
    fn interval_availability_matches_closed_form() {
        let (l, mu) = (0.05, 0.8);
        let c = two_state(l, mu);
        for &t in &[0.5, 2.0, 10.0, 50.0] {
            let sol = solve(&c, &[1.0, 0.0], t, &SolveOptions::default()).unwrap();
            assert!(
                (sol.interval_reward - a_interval(l, mu, t)).abs() < 1e-9,
                "t={t}: {} vs {}",
                sol.interval_reward,
                a_interval(l, mu, t)
            );
        }
    }

    #[test]
    fn converges_to_steady_state() {
        let c = two_state(0.1, 0.9);
        let pi = c.steady_state(SteadyStateMethod::Gth).unwrap();
        let sol = solve(&c, &[1.0, 0.0], 500.0, &SolveOptions::default()).unwrap();
        for (p, q) in sol.probabilities.iter().zip(&pi) {
            assert!((p - q).abs() < 1e-9);
        }
    }

    #[test]
    fn time_zero_returns_initial() {
        let c = two_state(0.1, 0.9);
        let sol = solve(&c, &[0.0, 1.0], 0.0, &SolveOptions::default()).unwrap();
        assert_eq!(sol.probabilities, vec![0.0, 1.0]);
        assert_eq!(sol.point_reward, 0.0);
    }

    #[test]
    fn large_lt_uses_scaled_weights() {
        // lt ~ 1000: forces the scaled Poisson branch.
        let c = two_state(1.0, 1.0);
        let sol = solve(&c, &[1.0, 0.0], 500.0, &SolveOptions::default()).unwrap();
        assert!((sol.point_reward - 0.5).abs() < 1e-9);
        let sum: f64 = sol.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bad_inputs_rejected() {
        let c = two_state(0.1, 0.9);
        let opts = SolveOptions::default();
        assert!(solve(&c, &[0.5, 0.4], 1.0, &opts).is_err());
        assert!(solve(&c, &[1.0], 1.0, &opts).is_err());
        assert!(solve(&c, &[1.0, 0.0], -1.0, &opts).is_err());
    }

    #[test]
    fn only_the_cancel_token_bounds_the_series() {
        let c = two_state(1.0, 1.0);
        let token = crate::ctmc::CancelToken::new();
        token.cancel();
        let cancelled = SolveOptions { cancel: Some(token), ..SolveOptions::default() };
        // Both the direct and the scaled Poisson branches stop typed.
        for t in [1.0, 5000.0] {
            let err = solve(&c, &[1.0, 0.0], t, &cancelled).unwrap_err();
            assert!(matches!(err, MarkovError::Cancelled { method: "transient", .. }), "{err}");
        }
        // The wall clock is the steady ladder's per-rung budget: a zero
        // budget leaves the transient answer unchanged.
        let zero =
            SolveOptions { wall_clock: Some(std::time::Duration::ZERO), ..SolveOptions::default() };
        let default = solve(&c, &[1.0, 0.0], 5.0, &SolveOptions::default()).unwrap();
        assert_eq!(solve(&c, &[1.0, 0.0], 5.0, &zero).unwrap(), default);
    }

    #[test]
    fn probabilities_remain_a_distribution() {
        let mut b = CtmcBuilder::new();
        for i in 0..5 {
            b.add_state(format!("s{i}"), (i % 2) as f64);
        }
        for i in 0..5usize {
            for j in 0..5usize {
                if i != j {
                    b.add_transition(i, j, 0.1 + (i * 5 + j) as f64 * 0.05);
                }
            }
        }
        let c = b.build().unwrap();
        let sol = solve(&c, &[0.2; 5], 3.7, &SolveOptions::default()).unwrap();
        let sum: f64 = sol.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        for &p in &sol.probabilities {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn solve_grid_is_bit_identical_to_pointwise_solve() {
        let mut b = CtmcBuilder::new();
        for i in 0..4 {
            b.add_state(format!("s{i}"), (i % 2) as f64);
        }
        for i in 0..4usize {
            b.add_transition(i, (i + 1) % 4, 0.4 + i as f64 * 0.3);
        }
        b.add_transition(2, 0, 1.1);
        let c = b.build().unwrap();
        let p0 = [1.0, 0.0, 0.0, 0.0];
        let opts = SolveOptions::default();
        // A short time next to one long enough for steady-state
        // detection to close the shared series early, a t = 0 point and
        // a time in the scaled Poisson branch.
        for (t1, t2) in [(0.7, 80.0), (0.0, 3.0), (12.0, 500.0)] {
            let grid = solve_grid(&c, &p0, &[t1, t2], &opts).unwrap();
            let one = solve(&c, &p0, t1, &opts).unwrap();
            let two = solve(&c, &p0, t2, &opts).unwrap();
            for (g, s) in grid.iter().zip([&one, &two]) {
                assert_eq!(g.time.to_bits(), s.time.to_bits());
                assert_eq!(g.point_reward.to_bits(), s.point_reward.to_bits());
                assert_eq!(g.interval_reward.to_bits(), s.interval_reward.to_bits());
                assert_eq!(g.truncation.to_bits(), s.truncation.to_bits());
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g.probabilities), bits(&s.probabilities));
            }
        }
    }

    #[test]
    fn solve_grid_unsorted_times_and_errors() {
        let c = two_state(0.1, 0.9);
        let out = solve_grid(&c, &[1.0, 0.0], &[5.0, 1.0], &SolveOptions::default()).unwrap();
        assert_eq!(out[0].time, 5.0);
        assert_eq!(out[1].time, 1.0);
        assert!(solve_grid(&c, &[1.0, 0.0], &[-1.0], &SolveOptions::default()).is_err());
        assert!(solve_grid(&c, &[0.9, 0.0], &[1.0], &SolveOptions::default()).is_err());
    }

    #[test]
    fn poisson_weights_sum_to_one() {
        for &m in &[0.5, 5.0, 50.0, 399.0, 401.0, 5000.0] {
            let mut w = Vec::new();
            poisson_weights_into(m, &SolveOptions::default(), &mut w).unwrap();
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "m={m}, sum={s}");
        }
    }
}
