//! Seeded property loops for the RBD substrate: each property runs on
//! [`CASES`] random diagrams drawn from the vendored `rand`, and a
//! failure names its case.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rascad_rbd::paths::{esary_proschan_bounds, minimal_cut_sets, minimal_path_sets};
use rascad_rbd::structure;
use rascad_rbd::{ComponentTable, Rbd};

const CASES: usize = 256;

/// A random RBD tree of depth at most 3 over 2–6 distinct components
/// with availabilities in `[0.01, 0.999)`. Each component appears
/// exactly once, so independent evaluation is exact.
fn random_rbd(rng: &mut StdRng) -> (ComponentTable, Rbd) {
    let n: usize = rng.gen_range(2..7);
    let mut table = ComponentTable::new();
    for i in 0..n {
        table.add(format!("c{i}"), rng.gen_range(0.01..0.999));
    }
    (table, random_tree(rng, (0..n).collect(), 3))
}

/// Splits `ids` at a random point and joins the halves in series,
/// parallel or 1-of-2, recursing until single components or depth 0.
fn random_tree(rng: &mut StdRng, mut ids: Vec<usize>, depth: u32) -> Rbd {
    if ids.len() == 1 {
        return Rbd::component(ids[0]);
    }
    if depth == 0 {
        return Rbd::series(ids.into_iter().map(Rbd::component).collect());
    }
    let right = ids.split_off(rng.gen_range(1..ids.len()));
    let halves = vec![random_tree(rng, ids, depth - 1), random_tree(rng, right, depth - 1)];
    match rng.gen_range(0..3u32) {
        0 => Rbd::series(halves),
        1 => Rbd::parallel(halves),
        _ => Rbd::k_of_n(1, halves),
    }
}

/// Exact (Shannon) evaluation agrees with the exhaustive expectation of
/// the structure function over all component states.
#[test]
fn shannon_matches_enumeration() {
    let mut rng = StdRng::seed_from_u64(0x4bd1);
    for case in 0..CASES {
        let (table, rbd) = random_rbd(&mut rng);
        let (comps, avail) = (rbd.components(), table.availabilities());
        let mut expect = 0.0;
        for mask in 0u32..(1 << comps.len()) {
            let mut states = vec![false; table.len()];
            let mut p = 1.0;
            for (bit, &id) in comps.iter().enumerate() {
                states[id] = mask & (1 << bit) != 0;
                p *= if states[id] { avail[id] } else { 1.0 - avail[id] };
            }
            if structure::evaluate(&rbd, &states).unwrap() {
                expect += p;
            }
        }
        let a = rbd.availability(&table).unwrap();
        assert!((a - expect).abs() < 1e-10, "case {case}: {a} vs {expect}\n{rbd:?}");
    }
}

/// The Esary–Proschan bounds bracket the exact availability.
#[test]
fn bounds_bracket_exact() {
    let mut rng = StdRng::seed_from_u64(0x4bd2);
    for case in 0..CASES {
        let (table, rbd) = random_rbd(&mut rng);
        let exact = rbd.availability(&table).unwrap();
        let (paths, cuts) = (minimal_path_sets(&rbd), minimal_cut_sets(&rbd));
        assert!(!paths.is_empty() && !cuts.is_empty(), "case {case}: {rbd:?}");
        let (lo, hi) = esary_proschan_bounds(&paths, &cuts, table.availabilities());
        assert!(lo <= exact + 1e-9 && hi >= exact - 1e-9, "case {case}: [{lo}, {hi}] vs {exact}");
    }
}
