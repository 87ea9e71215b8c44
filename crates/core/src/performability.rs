//! Performability analysis — capacity-weighted reward models.
//!
//! The paper's reward construction marks states 1 (up) or 0 (down); its
//! bibliography leans on Meyer's performability work and Markov reward
//! models (paper refs 4 and 6). This module implements the natural
//! extension: in a redundant block's degraded states the system is up
//! but delivering *reduced capacity* — level `j` of an `N`-unit block
//! has `N − j` working units, reward `(N − j)/N`. The expected reward is
//! then the steady-state (or interval) *performability* rather than
//! plain availability.

use rascad_markov::{Ctmc, CtmcBuilder, SteadyStateMethod};

use crate::error::CoreError;
use crate::generator::BlockModel;

/// Performability measures of one block model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformabilityMeasures {
    /// Steady-state expected delivered capacity, in `[0, 1]`.
    pub steady_state_capacity: f64,
    /// Plain steady-state availability (for reference).
    pub availability: f64,
    /// Capacity lost to degraded-but-up operation:
    /// `availability − steady_state_capacity`.
    pub degradation_loss: f64,
}

/// Rebuilds a block's chain with capacity rewards.
///
/// Up states are re-weighted by working-unit fraction (parsed from the
/// level structure of the state labels); down states keep reward 0.
/// Non-redundant blocks are returned unchanged (their only up state has
/// full capacity).
#[must_use]
pub fn capacity_chain(model: &BlockModel) -> Ctmc {
    let n = f64::from(model.quantity);
    let mut b = CtmcBuilder::new();
    for s in model.chain.states() {
        let reward = if s.reward > 0.0 {
            let failed = level_of(&s.label);
            ((n - failed as f64) / n).max(0.0)
        } else {
            0.0
        };
        b.add_state(s.label.clone(), reward);
    }
    for t in model.chain.transitions() {
        b.add_transition(t.from, t.to, t.rate);
    }
    b.build().expect("reweighting a valid chain keeps it valid")
}

/// Number of permanently failed units implied by an up-state label
/// (`Ok` = 0, `PF3`/`Latent3` = 3).
fn level_of(label: &str) -> u32 {
    for prefix in ["PF", "Latent"] {
        if let Some(rest) = label.strip_prefix(prefix) {
            if let Ok(j) = rest.parse::<u32>() {
                return j;
            }
        }
    }
    0
}

/// Computes performability measures for one block model.
///
/// # Errors
///
/// Returns [`CoreError::Markov`] if the chain cannot be solved.
pub fn performability(
    model: &BlockModel,
    method: SteadyStateMethod,
) -> Result<PerformabilityMeasures, CoreError> {
    let wrap = |source| CoreError::Markov { block: model.name.clone(), source };
    let cap = capacity_chain(model);
    let pi = cap.steady_state(method).map_err(wrap)?;
    let capacity = cap.expected_reward(&pi);
    let availability = model.chain.expected_reward(&pi);
    Ok(PerformabilityMeasures {
        steady_state_capacity: capacity,
        availability,
        degradation_loss: availability - capacity,
    })
}

/// Expected time-averaged delivered capacity over `(0, horizon)`,
/// starting from `Ok`.
///
/// # Errors
///
/// Returns [`CoreError::Markov`] for bad horizons or solver failures.
pub fn interval_capacity(model: &BlockModel, horizon_hours: f64) -> Result<f64, CoreError> {
    let cap = capacity_chain(model);
    let mut p0 = vec![0.0; cap.len()];
    p0[model.ok_state()] = 1.0;
    let sol = rascad_markov::transient::solve(
        &cap,
        &p0,
        horizon_hours,
        &rascad_markov::SolveOptions::default(),
    )
    .map_err(|source| CoreError::Markov { block: model.name.clone(), source })?;
    Ok(sol.interval_reward)
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;
    use crate::generator::generate_block;
    use rascad_spec::units::{Hours, Minutes};
    use rascad_spec::{BlockParams, GlobalParams};

    fn redundant(n: u32, k: u32) -> BlockModel {
        let p = BlockParams::new("X", n, k)
            .with_mtbf(Hours(5_000.0))
            .with_mttr_parts(Minutes(60.0), Minutes(60.0), Minutes(0.0))
            .with_service_response(Hours(4.0));
        generate_block(&p, &GlobalParams::default()).unwrap()
    }

    #[test]
    fn label_level_parsing() {
        assert_eq!(level_of("Ok"), 0);
        assert_eq!(level_of("PF2"), 2);
        assert_eq!(level_of("Latent1"), 1);
        assert_eq!(level_of("AR1"), 0); // not an up state anyway
    }

    #[test]
    fn capacity_below_availability_for_redundant_blocks() {
        let model = redundant(4, 2);
        let m = performability(&model, SteadyStateMethod::Gth).unwrap();
        assert!(m.steady_state_capacity < m.availability);
        assert!(m.degradation_loss > 0.0);
        // With MTBF 5000 h and a ~54 h scheduled repair cycle, roughly
        // 4λ·54 ≈ 4% of time is spent one unit down (25% capacity loss),
        // so expect capacity ≈ 0.99 but clearly above 0.97.
        assert!(m.steady_state_capacity > 0.97, "{}", m.steady_state_capacity);
    }

    #[test]
    fn non_redundant_block_has_no_degradation() {
        let p = BlockParams::new("X", 1, 1).with_mtbf(Hours(10_000.0));
        let model = generate_block(&p, &GlobalParams::default()).unwrap();
        let m = performability(&model, SteadyStateMethod::Gth).unwrap();
        assert!((m.degradation_loss).abs() < 1e-15);
        assert!((m.steady_state_capacity - m.availability).abs() < 1e-15);
    }

    #[test]
    fn capacity_rewards_are_fractions() {
        let model = redundant(4, 1);
        let cap = capacity_chain(&model);
        let ok = cap.state_by_label("Ok").unwrap();
        assert_eq!(cap.states()[ok].reward, 1.0);
        let pf2 = cap.state_by_label("PF2").unwrap();
        assert_eq!(cap.states()[pf2].reward, 0.5);
        let down = cap.state_by_label("PF4").unwrap();
        assert_eq!(cap.states()[down].reward, 0.0);
    }

    #[test]
    fn interval_capacity_between_steady_state_and_one() {
        let model = redundant(4, 2);
        let ss = performability(&model, SteadyStateMethod::Gth).unwrap();
        let short = interval_capacity(&model, 24.0).unwrap();
        let long = interval_capacity(&model, 500_000.0).unwrap();
        assert!(short >= long - 1e-12);
        assert!(short <= 1.0);
        // The initial all-up transient biases the average up by
        // ~ degradation·tau/T ≈ 1e-6 at this horizon.
        assert!((long - ss.steady_state_capacity).abs() < 1e-5, "{long}");
    }

    #[test]
    fn more_spares_cost_more_capacity_headroom() {
        // A wider margin means more time spent in (mildly) degraded
        // levels, so degradation loss grows with N at fixed K.
        let small = performability(&redundant(3, 2), SteadyStateMethod::Gth).unwrap();
        let large = performability(&redundant(6, 2), SteadyStateMethod::Gth).unwrap();
        assert!(large.degradation_loss > small.degradation_loss);
    }
}
