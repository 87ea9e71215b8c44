//! MG blocks and their parameter lists (paper Section 3).

use crate::diagram::Diagram;
use crate::units::{Fit, Hours, Minutes};

/// Recovery/repair transparency scenario.
///
/// The paper: "Depending on the redundancy and automatic recovery (AR)
/// capability … the impact of the recovery event on the user
/// applications can be transparent or nontransparent", and likewise for
/// the repair/reintegration event. The four combinations select Markov
/// Model Types 1–4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scenario {
    /// No downtime is associated with the event.
    #[default]
    Transparent,
    /// The event incurs downtime (failover/reboot/reintegration).
    Nontransparent,
}

/// Redundancy-only parameters, "relevant only if Quantity is greater
/// than Minimum Quantity Required" (paper Section 3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundancyParams {
    /// Probability of Latent Fault (`Plf`): a permanent fault that
    /// escapes detection.
    pub p_latent_fault: f64,
    /// MTTDLF: mean time to detect a latent fault.
    pub mttdlf: Hours,
    /// Automatic Recovery scenario (transparent ⇒ no AR downtime).
    pub recovery: Scenario,
    /// AR/Failover Time: downtime associated with a nontransparent AR.
    pub failover_time: Minutes,
    /// Probability of single point of failure during AR (`Pspf`).
    pub p_spf: f64,
    /// SPF State Recovery Time (`Tspf`).
    pub spf_recovery_time: Minutes,
    /// Repair scenario (transparent ⇒ hot-pluggable with dynamic
    /// reconfiguration, no reintegration downtime).
    pub repair: Scenario,
    /// Reintegration Time: downtime associated with a nontransparent
    /// repair/reintegration.
    pub reintegration_time: Minutes,
}

impl Default for RedundancyParams {
    /// Both scenarios default to transparent, so the associated
    /// failover/reintegration durations default to zero — a transparent
    /// event has no downtime, and a nonzero duration on a transparent
    /// scenario would be ignored by the generator (and flagged by
    /// [`crate::validate::analyze`]).
    fn default() -> Self {
        RedundancyParams {
            p_latent_fault: 0.0,
            mttdlf: Hours(24.0),
            recovery: Scenario::Transparent,
            failover_time: Minutes(0.0),
            p_spf: 0.0,
            spf_recovery_time: Minutes(30.0),
            repair: Scenario::Transparent,
            reintegration_time: Minutes(0.0),
        }
    }
}

impl RedundancyParams {
    /// The Markov model type (1–4) this scenario combination selects,
    /// following the paper's numbering:
    ///
    /// 1. transparent recovery, transparent repair
    /// 2. transparent recovery, nontransparent repair
    /// 3. nontransparent recovery, transparent repair
    /// 4. nontransparent recovery, nontransparent repair
    #[must_use]
    pub fn model_type(&self) -> u8 {
        match (self.recovery, self.repair) {
            (Scenario::Transparent, Scenario::Transparent) => 1,
            (Scenario::Transparent, Scenario::Nontransparent) => 2,
            (Scenario::Nontransparent, Scenario::Transparent) => 3,
            (Scenario::Nontransparent, Scenario::Nontransparent) => 4,
        }
    }
}

/// The full per-block parameter list of paper Section 3.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockParams {
    /// Name of this component.
    pub name: String,
    /// Part number (optional bookkeeping).
    pub part_number: Option<String>,
    /// Free-form description.
    pub description: Option<String>,
    /// Quantity of this component (`N`).
    pub quantity: u32,
    /// Minimum quantity required by the system (`K`).
    pub min_quantity: u32,
    /// MTBF: mean time between failures caused by *permanent* faults,
    /// per component.
    pub mtbf: Hours,
    /// Transient failure rate per component, in FIT.
    pub transient_fit: Fit,
    /// MTTR part 1: diagnosis time.
    pub mttr_diagnosis: Minutes,
    /// MTTR part 2: corrective action time.
    pub mttr_corrective: Minutes,
    /// MTTR part 3: verification time.
    pub mttr_verification: Minutes,
    /// Service Response Time (`Tresp`).
    pub service_response: Hours,
    /// Probability of Correct Diagnosis (`Pcd`).
    pub p_correct_diagnosis: f64,
    /// Redundancy-only parameters (present iff `quantity >
    /// min_quantity`).
    pub redundancy: Option<RedundancyParams>,
}

impl BlockParams {
    /// Creates a block with the given name, quantity, and minimum
    /// quantity, and conservative defaults for everything else
    /// (100 000 h MTBF, no transient faults, 30/20/10-minute MTTR parts,
    /// 4-hour service response, perfect diagnosis). Redundant blocks
    /// (`quantity > min_quantity`) get default [`RedundancyParams`].
    pub fn new(name: impl Into<String>, quantity: u32, min_quantity: u32) -> Self {
        let redundancy =
            if quantity > min_quantity { Some(RedundancyParams::default()) } else { None };
        BlockParams {
            name: name.into(),
            part_number: None,
            description: None,
            quantity,
            min_quantity,
            mtbf: Hours(100_000.0),
            transient_fit: Fit(0.0),
            mttr_diagnosis: Minutes(30.0),
            mttr_corrective: Minutes(20.0),
            mttr_verification: Minutes(10.0),
            service_response: Hours(4.0),
            p_correct_diagnosis: 1.0,
            redundancy,
        }
    }

    /// Sets the MTBF (builder style).
    #[must_use]
    pub fn with_mtbf(mut self, mtbf: Hours) -> Self {
        self.mtbf = mtbf;
        self
    }

    /// Sets the transient failure rate in FIT (builder style).
    #[must_use]
    pub fn with_transient_fit(mut self, fit: Fit) -> Self {
        self.transient_fit = fit;
        self
    }

    /// Sets the three MTTR parts (builder style).
    #[must_use]
    pub fn with_mttr_parts(
        mut self,
        diagnosis: Minutes,
        corrective: Minutes,
        verification: Minutes,
    ) -> Self {
        self.mttr_diagnosis = diagnosis;
        self.mttr_corrective = corrective;
        self.mttr_verification = verification;
        self
    }

    /// Sets the service response time (builder style).
    #[must_use]
    pub fn with_service_response(mut self, t: Hours) -> Self {
        self.service_response = t;
        self
    }

    /// Sets the probability of correct diagnosis (builder style).
    #[must_use]
    pub fn with_p_correct_diagnosis(mut self, p: f64) -> Self {
        self.p_correct_diagnosis = p;
        self
    }

    /// Sets the redundancy parameters (builder style).
    #[must_use]
    pub fn with_redundancy(mut self, r: RedundancyParams) -> Self {
        self.redundancy = Some(r);
        self
    }

    /// Sets the part number (builder style).
    #[must_use]
    pub fn with_part_number(mut self, pn: impl Into<String>) -> Self {
        self.part_number = Some(pn.into());
        self
    }

    /// Sets the description (builder style).
    #[must_use]
    pub fn with_description(mut self, d: impl Into<String>) -> Self {
        self.description = Some(d.into());
        self
    }

    /// Whether the block is redundant (`N > K`).
    #[must_use]
    pub fn is_redundant(&self) -> bool {
        self.quantity > self.min_quantity
    }

    /// The redundancy margin `M = N − K`.
    #[must_use]
    pub fn margin(&self) -> u32 {
        self.quantity.saturating_sub(self.min_quantity)
    }

    /// Per-component permanent failure rate, `1/MTBF` (per hour).
    #[must_use]
    pub fn permanent_rate(&self) -> f64 {
        1.0 / self.mtbf.0
    }

    /// Per-component transient failure rate (per hour) from the FIT
    /// value.
    #[must_use]
    pub fn transient_rate(&self) -> f64 {
        self.transient_fit.to_rate_per_hour()
    }

    /// Total MTTR (diagnosis + corrective action + verification), in
    /// hours.
    #[must_use]
    pub fn mttr_total(&self) -> Hours {
        Hours((self.mttr_diagnosis.0 + self.mttr_corrective.0 + self.mttr_verification.0) / 60.0)
    }
}

/// An MG block: a parameter list plus an optional subdiagram modeling
/// the component's internals.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// The engineering parameters of this component.
    pub params: BlockParams,
    /// Subdiagram refining this component (dark-colored blocks in the
    /// paper's Figures 1–2).
    pub subdiagram: Option<Diagram>,
}

impl Block {
    /// Wraps parameters into a leaf block (no subdiagram).
    #[must_use]
    pub fn leaf(params: BlockParams) -> Self {
        Block { params, subdiagram: None }
    }

    /// Wraps parameters with a subdiagram.
    #[must_use]
    pub fn with_subdiagram(params: BlockParams, sub: Diagram) -> Self {
        Block { params, subdiagram: Some(sub) }
    }

    /// Whether this block is refined by a subdiagram.
    #[must_use]
    pub fn has_subdiagram(&self) -> bool {
        self.subdiagram.is_some()
    }
}

impl From<BlockParams> for Block {
    fn from(params: BlockParams) -> Block {
        Block::leaf(params)
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    #[test]
    fn model_type_numbering_matches_paper() {
        let mut r = RedundancyParams {
            recovery: Scenario::Transparent,
            repair: Scenario::Transparent,
            ..Default::default()
        };
        assert_eq!(r.model_type(), 1);
        r.repair = Scenario::Nontransparent;
        assert_eq!(r.model_type(), 2);
        r.recovery = Scenario::Nontransparent;
        r.repair = Scenario::Transparent;
        assert_eq!(r.model_type(), 3);
        r.repair = Scenario::Nontransparent;
        assert_eq!(r.model_type(), 4);
    }

    #[test]
    fn new_block_defaults() {
        let b = BlockParams::new("CPU", 1, 1);
        assert!(!b.is_redundant());
        assert!(b.redundancy.is_none());
        assert_eq!(b.margin(), 0);
        let r = BlockParams::new("PSU", 3, 2);
        assert!(r.is_redundant());
        assert!(r.redundancy.is_some());
        assert_eq!(r.margin(), 1);
    }

    #[test]
    fn derived_rates() {
        let b = BlockParams::new("X", 1, 1)
            .with_mtbf(Hours(50_000.0))
            .with_transient_fit(Fit(2_000.0))
            .with_mttr_parts(Minutes(30.0), Minutes(20.0), Minutes(10.0));
        assert!((b.permanent_rate() - 2e-5).abs() < 1e-18);
        assert!((b.transient_rate() - 2e-6).abs() < 1e-18);
        assert_eq!(b.mttr_total(), Hours(1.0));
    }

    #[test]
    fn builder_chain() {
        let b = BlockParams::new("Disk", 2, 1)
            .with_part_number("540-1234")
            .with_description("boot drive")
            .with_service_response(Hours(2.0))
            .with_p_correct_diagnosis(0.95);
        assert_eq!(b.part_number.as_deref(), Some("540-1234"));
        assert_eq!(b.service_response, Hours(2.0));
        assert_eq!(b.p_correct_diagnosis, 0.95);
    }

    #[test]
    fn block_from_params() {
        let b: Block = BlockParams::new("A", 1, 1).into();
        assert!(!b.has_subdiagram());
    }
}
