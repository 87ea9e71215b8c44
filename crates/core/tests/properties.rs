//! Seeded property loops for the Model Generator: each property runs on
//! [`CASES`] random blocks drawn from the vendored `rand`, and a
//! failure names its case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_core::generator::generate_block;
use rascad_core::measures::steady_state_measures;
use rascad_markov::SteadyStateMethod;
use rascad_spec::units::{Fit, Hours, Minutes};
use rascad_spec::{BlockParams, GlobalParams, RedundancyParams, Scenario};

const CASES: usize = 256;

fn random_scenario(rng: &mut StdRng) -> Scenario {
    if rng.gen_bool(0.5) {
        Scenario::Transparent
    } else {
        Scenario::Nontransparent
    }
}

/// A random block: K in 1..4, up to 3 spares, and every rate,
/// probability and duration drawn across its documented range.
fn random_block(rng: &mut StdRng) -> BlockParams {
    let k: u32 = rng.gen_range(1..4);
    let n = k + rng.gen_range(0..4u32);
    let mut p = BlockParams::new("P", n, k)
        .with_mtbf(Hours(rng.gen_range(1_000.0..1e7)))
        .with_transient_fit(Fit(rng.gen_range(0.0..50_000.0)))
        .with_mttr_parts(
            Minutes(rng.gen_range(0.0..120.0)),
            Minutes(rng.gen_range(1.0..120.0)),
            Minutes(rng.gen_range(0.0..60.0)),
        )
        .with_service_response(Hours(rng.gen_range(0.0..48.0)))
        .with_p_correct_diagnosis(rng.gen_range(0.5..1.0));
    let redundancy = RedundancyParams {
        p_latent_fault: rng.gen_range(0.0..0.5),
        mttdlf: Hours(rng.gen_range(1.0..720.0)),
        recovery: random_scenario(rng),
        failover_time: Minutes(rng.gen_range(0.0..60.0)),
        p_spf: rng.gen_range(0.0..0.2),
        spf_recovery_time: Minutes(rng.gen_range(0.0..120.0)),
        repair: random_scenario(rng),
        reintegration_time: Minutes(rng.gen_range(0.0..60.0)),
    };
    p.redundancy = (n > k).then_some(redundancy);
    p
}

/// A case that once failed, kept as a fixed input: a 2-of-1 block with
/// every optional rate, probability and duration exactly zero and the
/// lowest diagnosis probability.
fn zero_rates_block() -> BlockParams {
    BlockParams::new("P", 2, 1)
        .with_mtbf(Hours(1_000.0))
        .with_mttr_parts(Minutes(0.0), Minutes(1.0), Minutes(0.0))
        .with_service_response(Hours(0.0))
        .with_p_correct_diagnosis(0.5)
        .with_redundancy(RedundancyParams {
            mttdlf: Hours(1.0),
            spf_recovery_time: Minutes(0.0),
            ..RedundancyParams::default()
        })
}

/// The fixed cases first, then [`CASES`] random blocks from `seed`.
fn blocks(seed: u64) -> impl Iterator<Item = BlockParams> {
    let mut rng = StdRng::seed_from_u64(seed);
    std::iter::once(zero_rates_block()).chain((0..CASES).map(move |_| random_block(&mut rng)))
}

/// Every generated chain builds with `Ok` as state 0 and yields an
/// availability in (0, 1] with non-negative failure rate and downtime.
#[test]
fn generated_chain_is_well_formed() {
    for (case, p) in blocks(0xc0e1).enumerate() {
        let model = generate_block(&p, &GlobalParams::default()).unwrap();
        assert_eq!(model.chain.states()[0].label, "Ok", "case {case}: {p:?}");
        let m = steady_state_measures(&model, SteadyStateMethod::Gth).unwrap();
        assert!(
            m.availability > 0.0
                && m.availability <= 1.0
                && m.failure_rate >= 0.0
                && m.yearly_downtime_minutes >= 0.0,
            "case {case}: {m:?}\n{p:?}"
        );
    }
}

/// The two independent steady-state solvers agree far inside the
/// paper's 0.2 % validation threshold.
#[test]
fn gth_and_lu_agree() {
    for (case, p) in blocks(0xc0e2).enumerate() {
        let model = generate_block(&p, &GlobalParams::default()).unwrap();
        let gth = steady_state_measures(&model, SteadyStateMethod::Gth).unwrap();
        let lu = steady_state_measures(&model, SteadyStateMethod::Lu).unwrap();
        let (a, b) = (gth.yearly_downtime_minutes, lu.yearly_downtime_minutes);
        assert!(a <= 1e-9 || (a - b).abs() / a < 0.002, "case {case}: {a} vs {b}\n{p:?}");
    }
}

/// State and transition counts depend only on the block's structure
/// (N, K, scenarios, which probabilities are nonzero), never on the
/// magnitude of its MTBF.
#[test]
fn state_count_is_structural() {
    let mut rng = StdRng::seed_from_u64(0xc0e3);
    let g = GlobalParams::default();
    for case in 0..CASES {
        let p = random_block(&mut rng);
        let q = BlockParams { mtbf: Hours(rng.gen_range(1_000.0..1e7)), ..p.clone() };
        let (a, b) = (generate_block(&p, &g).unwrap(), generate_block(&q, &g).unwrap());
        assert_eq!(
            (a.state_count(), a.transition_count()),
            (b.state_count(), b.transition_count()),
            "case {case}: mtbf {} -> {}\n{p:?}",
            p.mtbf.0,
            q.mtbf.0
        );
    }
}
