//! Seeded property loops for the spec crate: DSL and JSON round-trips
//! over [`CASES`] random specifications drawn from the vendored `rand`;
//! a failure names its case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_spec::units::{Fit, Hours, Minutes};
use rascad_spec::{
    Block, BlockParams, Diagram, GlobalParams, RedundancyParams, Scenario, SystemSpec,
};

const CASES: usize = 256;

fn random_scenario(rng: &mut StdRng) -> Scenario {
    if rng.gen_bool(0.5) {
        Scenario::Transparent
    } else {
        Scenario::Nontransparent
    }
}

/// Random, valid block parameters: K in 1..6, up to 3 spares, every
/// value drawn across its documented range.
fn random_params(rng: &mut StdRng, name: String) -> BlockParams {
    let k: u32 = rng.gen_range(1..6);
    let n = k + rng.gen_range(0..4u32);
    let mut p = BlockParams::new(name, n, k)
        .with_mtbf(Hours(rng.gen_range(100.0..1e7)))
        .with_transient_fit(Fit(rng.gen_range(0.0..10_000.0)))
        .with_mttr_parts(
            Minutes(rng.gen_range(1.0..120.0)),
            Minutes(rng.gen_range(0.0..120.0)),
            Minutes(rng.gen_range(0.0..60.0)),
        )
        .with_service_response(Hours(rng.gen_range(0.0..48.0)))
        .with_p_correct_diagnosis(rng.gen_range(0.5..1.0));
    let redundancy = RedundancyParams {
        p_latent_fault: rng.gen_range(0.0..0.5),
        mttdlf: Hours(rng.gen_range(1.0..1000.0)),
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

/// A random valid two-level spec: 1–4 top blocks, the first carrying a
/// 1–3 block subdiagram.
fn random_spec(rng: &mut StdRng) -> SystemSpec {
    let mut sub = Diagram::new("Subsystem");
    for i in 0..rng.gen_range(1..4usize) {
        sub.push(random_params(rng, format!("Sub{i}")));
    }
    let mut root = Diagram::new("Root");
    root.push_block(Block::with_subdiagram(random_params(rng, "Top0".to_string()), sub));
    for i in 1..rng.gen_range(1..5usize) {
        root.push(random_params(rng, format!("Top{i}")));
    }
    let spec = SystemSpec::new(root, GlobalParams::default());
    spec.validate().unwrap();
    spec
}

/// Cases that once failed, kept as fixed inputs: a 100 h top block over
/// a one-block subdiagram, with a lone nonzero reintegration time (on a
/// 2-of-1 block) or verification time (on a 1-of-1 block).
fn known_specs() -> Vec<SystemSpec> {
    let zeroed = |n: u32| {
        BlockParams::new("Top0", n, 1)
            .with_mtbf(Hours(100.0))
            .with_mttr_parts(Minutes(1.0), Minutes(0.0), Minutes(0.0))
            .with_service_response(Hours(0.0))
            .with_p_correct_diagnosis(0.5)
    };
    let two_level = |top: BlockParams| {
        let mut sub = Diagram::new("Subsystem");
        sub.push(BlockParams { name: "Sub0".to_string(), ..zeroed(1) });
        let mut root = Diagram::new("Root");
        root.push_block(Block::with_subdiagram(top, sub));
        let spec = SystemSpec::new(root, GlobalParams::default());
        spec.validate().unwrap();
        spec
    };
    let reintegration = zeroed(2).with_redundancy(RedundancyParams {
        mttdlf: Hours(1.0),
        spf_recovery_time: Minutes(0.0),
        reintegration_time: Minutes(31.024185018852748),
        ..RedundancyParams::default()
    });
    let verification =
        zeroed(1).with_mttr_parts(Minutes(1.0), Minutes(0.0), Minutes(27.918133237068794));
    vec![two_level(reintegration), two_level(verification)]
}

/// The fixed cases first, then [`CASES`] random specs from `seed`.
fn specs(seed: u64) -> impl Iterator<Item = SystemSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    known_specs().into_iter().chain((0..CASES).map(move |_| random_spec(&mut rng)))
}

/// DSL print -> parse is the identity.
#[test]
fn dsl_roundtrip() {
    for (case, spec) in specs(0x5bec1).enumerate() {
        let text = spec.to_dsl();
        let back = SystemSpec::from_dsl(&text).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, spec, "case {case}:\n{text}");
    }
}

/// JSON write -> read is the identity.
#[test]
fn json_roundtrip() {
    for (case, spec) in specs(0x5bec2).enumerate() {
        let json = spec.to_json().unwrap();
        let back = SystemSpec::from_json(&json).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, spec, "case {case}:\n{json}");
    }
}
