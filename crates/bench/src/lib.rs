//! Shared fixtures for `rascad bench`.
//!
//! The reference blocks of the paper's experiments and the fixed
//! workloads the benchmark suite times, kept in one place so benchmark
//! and test code agree on exactly which models each experiment uses.

use rascad_spec::units::{Fit, Hours, Minutes};
use rascad_spec::{BlockParams, GlobalParams, RedundancyParams, Scenario};

pub mod workloads;

/// The non-redundant reference block used by the Type 0 (Figure 3)
/// experiment.
#[must_use]
pub fn type0_block() -> BlockParams {
    BlockParams::new("Type0 Reference", 1, 1)
        .with_mtbf(Hours(10_000.0))
        .with_transient_fit(Fit(2_000.0))
        .with_mttr_parts(Minutes(30.0), Minutes(20.0), Minutes(10.0))
        .with_service_response(Hours(4.0))
        .with_p_correct_diagnosis(0.95)
}

/// The redundant reference block (N = 2, K = 1, Type 3) used by the
/// Figure 4 experiment — nontransparent recovery, transparent repair,
/// exactly the scenario combination the paper diagrams.
#[must_use]
pub fn type3_block() -> BlockParams {
    redundant_block(2, 1, Scenario::Nontransparent, Scenario::Transparent)
}

/// A parameterized redundant block for the generation-scaling
/// experiment.
#[must_use]
pub fn redundant_block(n: u32, k: u32, recovery: Scenario, repair: Scenario) -> BlockParams {
    BlockParams::new("Redundant Reference", n, k)
        .with_mtbf(Hours(20_000.0))
        .with_transient_fit(Fit(5_000.0))
        .with_mttr_parts(Minutes(30.0), Minutes(20.0), Minutes(10.0))
        .with_service_response(Hours(4.0))
        .with_p_correct_diagnosis(0.95)
        .with_redundancy(RedundancyParams {
            p_latent_fault: 0.05,
            mttdlf: Hours(24.0),
            recovery,
            failover_time: Minutes(6.0),
            p_spf: 0.02,
            spf_recovery_time: Minutes(12.0),
            repair,
            reintegration_time: Minutes(10.0),
        })
}

/// Globals shared by the reference blocks.
#[must_use]
pub fn globals() -> GlobalParams {
    GlobalParams::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rascad_core::solve_block;

    #[test]
    fn fixtures_solve() {
        let g = globals();
        assert!(solve_block(&type0_block(), &g).is_ok());
        let (model, _) = solve_block(&type3_block(), &g).unwrap();
        assert_eq!(model.model_type, 3);
        assert_eq!(model.state_count(), 9);
    }
}
