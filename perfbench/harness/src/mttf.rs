//! The exact mean time to failure of a birth–death chain: the
//! reference `large_pool`'s MTTFs are checked against.
//!
//! For levels `0..=n` with failure rates `λ_j` (`j → j+1`) and repair
//! rates `μ_j` (`j → j−1`), the expected time to first reach level `m`
//! from level 0 is `Σ_{k<m} (Σ_{i≤k} w_i) / (λ_k w_k)` with `w_0 = 1`
//! and `w_i = w_{i−1} λ_{i−1} / μ_i`. The sums run in log space, so the
//! result stays exact where it is far beyond `f64` range (the
//! 1000-unit pool's MTTF is about 10^190 h).

use rascad_markov::Ctmc;

/// `ln(a + b)` from `ln a` and `ln b`.
fn ln_add(a: f64, b: f64) -> f64 {
    let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
    if lo == f64::NEG_INFINITY {
        hi
    } else {
        hi + (lo - hi).exp().ln_1p()
    }
}

/// Natural log of the MTTF, in hours, from state 0 to the first state
/// with reward 0. `None` unless every transition joins adjacent states
/// and state 0 is up: the shape of the birth–death template.
pub fn ln_mttf(chain: &Ctmc) -> Option<f64> {
    let n = chain.len();
    let mut fail = vec![0.0; n];
    let mut repair = vec![0.0; n];
    for t in chain.transitions() {
        if t.to == t.from + 1 {
            fail[t.from] += t.rate;
        } else if t.from == t.to + 1 {
            repair[t.from] += t.rate;
        } else {
            return None;
        }
    }
    let down = chain.states().iter().position(|s| s.reward == 0.0)?;
    if down == 0 {
        return None;
    }
    let mut ln_w = 0.0;
    let mut ln_sum_w = 0.0;
    let mut ln_t = f64::NEG_INFINITY;
    for k in 0..down {
        if k > 0 {
            ln_w += fail[k - 1].ln() - repair[k].ln();
            ln_sum_w = ln_add(ln_sum_w, ln_w);
        }
        ln_t = ln_add(ln_t, ln_sum_w - fail[k].ln() - ln_w);
    }
    ln_t.is_finite().then_some(ln_t)
}

/// Whether `mttf_hours` is the chain's exact MTTF: within a relative
/// 1e-6 of it, or infinite where the exact value is beyond `f64` range.
pub fn matches(ln_exact: f64, mttf_hours: f64) -> bool {
    if ln_exact > f64::MAX.ln() {
        return mttf_hours == f64::INFINITY;
    }
    mttf_hours > 0.0 && (mttf_hours.ln() - ln_exact).abs() <= 1e-6
}
