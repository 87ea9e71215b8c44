//! Seeded property loops for the Markov substrate: each property runs
//! on [`CASES`] random irreducible chains drawn from the vendored
//! `rand`, and a failure names its case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_markov::transient;
use rascad_markov::{Ctmc, CtmcBuilder, SolveOptions, SteadyStateMethod};

const CASES: usize = 256;

/// A random irreducible chain of 2–7 states: a ring (guaranteeing
/// irreducibility) plus up to 11 extra edges, rates in `[1e-3, 10)`,
/// 0/1 rewards.
fn random_chain(rng: &mut StdRng) -> Ctmc {
    let n: usize = rng.gen_range(2..8);
    let mut b = CtmcBuilder::new();
    for i in 0..n {
        b.add_state(format!("s{i}"), if rng.gen_bool(0.5) { 1.0 } else { 0.0 });
    }
    for i in 0..n {
        b.add_transition(i, (i + 1) % n, rng.gen_range(1e-3..10.0));
    }
    for _ in 0..rng.gen_range(0..12usize) {
        let (from, to, rate) =
            (rng.gen_range(0..n), rng.gen_range(0..n), rng.gen_range(1e-3..10.0));
        if from != to {
            b.add_transition(from, to, rate);
        }
    }
    b.build().expect("constructed chain is valid")
}

/// Asserts two stationary vectors agree entrywise to 1e-8.
fn assert_close(case: usize, a: &[f64], b: &[f64]) {
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < 1e-8, "case {case}: {x} vs {y}");
    }
}

/// The stationary vector is a distribution and satisfies `pi Q = 0`.
#[test]
fn stationary_solves_balance_equations() {
    let mut rng = StdRng::seed_from_u64(0x6a1a);
    for case in 0..CASES {
        let chain = random_chain(&mut rng);
        let pi = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-10, "case {case}: mass {sum}");
        assert!(pi.iter().all(|p| (-1e-12..=1.0 + 1e-12).contains(p)), "case {case}: {pi:?}");
        for r in chain.generator().vec_mul(&pi) {
            assert!(r.abs() < 1e-9, "case {case}: residual {r}");
        }
    }
}

/// The GTH and LU stationary solvers agree to high precision.
#[test]
fn gth_and_lu_agree() {
    let mut rng = StdRng::seed_from_u64(0x6a1b);
    for case in 0..CASES {
        let chain = random_chain(&mut rng);
        let gth = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        assert_close(case, &gth, &chain.steady_state(SteadyStateMethod::Lu).unwrap());
    }
}

/// Power iteration agrees with GTH on every random chain.
#[test]
fn power_iteration_agrees_with_gth() {
    let mut rng = StdRng::seed_from_u64(0x6a1c);
    for case in 0..CASES {
        let chain = random_chain(&mut rng);
        let gth = chain.steady_state(SteadyStateMethod::Gth).unwrap();
        assert_close(case, &gth, &chain.steady_state(SteadyStateMethod::Power).unwrap());
    }
}

/// Transient probabilities at any `t` in `[0, 20)` form a distribution
/// with point and interval rewards in `[0, 1]`.
#[test]
fn transient_is_distribution() {
    let mut rng = StdRng::seed_from_u64(0x6a1d);
    for case in 0..CASES {
        let chain = random_chain(&mut rng);
        let t = rng.gen_range(0.0..20.0);
        let mut p0 = vec![0.0; chain.len()];
        p0[0] = 1.0;
        let sol = transient::solve(&chain, &p0, t, &SolveOptions::default()).unwrap();
        let sum: f64 = sol.probabilities.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "case {case}: mass {sum} at t = {t}");
        for r in [sol.point_reward, sol.interval_reward] {
            assert!((-1e-12..=1.0 + 1e-12).contains(&r), "case {case}: reward {r} at t = {t}");
        }
    }
}
