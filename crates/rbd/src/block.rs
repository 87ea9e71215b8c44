//! RBD trees and exact availability evaluation.

use crate::error::RbdError;

/// Identifier of a component in a [`ComponentTable`].
pub type ComponentId = usize;

/// Table of named components with steady-state availabilities.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentTable {
    names: Vec<String>,
    availabilities: Vec<f64>,
}

impl ComponentTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a component and returns its id.
    pub fn add(&mut self, name: impl Into<String>, availability: f64) -> ComponentId {
        self.names.push(name.into());
        self.availabilities.push(availability);
        self.names.len() - 1
    }

    /// Number of components.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The availability of a component.
    #[must_use]
    pub fn availability(&self, id: ComponentId) -> Option<f64> {
        self.availabilities.get(id).copied()
    }

    /// Replaces the availability of a component (for sweeps).
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::UnknownComponent`] for a bad id.
    pub fn set_availability(&mut self, id: ComponentId, a: f64) -> Result<(), RbdError> {
        if id >= self.len() {
            return Err(RbdError::UnknownComponent { id, len: self.len() });
        }
        self.availabilities[id] = a;
        Ok(())
    }

    /// The name of a component.
    pub fn name(&self, id: ComponentId) -> Option<&str> {
        self.names.get(id).map(String::as_str)
    }

    /// Validates that all stored availabilities are probabilities.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::InvalidProbability`] naming the offender.
    pub fn validate(&self) -> Result<(), RbdError> {
        for (i, &a) in self.availabilities.iter().enumerate() {
            if !(0.0..=1.0).contains(&a) || !a.is_finite() {
                return Err(RbdError::InvalidProbability {
                    what: format!("component {} ({}) availability {a}", i, self.names[i]),
                });
            }
        }
        Ok(())
    }

    /// All availabilities, indexed by id.
    #[must_use]
    pub fn availabilities(&self) -> &[f64] {
        &self.availabilities
    }
}

/// A reliability block diagram, as a tree.
///
/// The same [`ComponentId`] may appear in several leaves; evaluation
/// stays exact by pivoting (Shannon decomposition) on each repeated
/// component.
#[derive(Debug, Clone, PartialEq)]
pub enum Rbd {
    /// A basic block backed by a table component.
    Component(ComponentId),
    /// All children must work.
    Series(Vec<Rbd>),
    /// At least one child must work.
    Parallel(Vec<Rbd>),
    /// At least `k` of the children must work.
    KOfN {
        /// Minimum number of working children.
        k: u32,
        /// The children.
        children: Vec<Rbd>,
    },
}

/// Maximum number of *repeated* components the exact evaluator pivots
/// on (cost is `2^count` tree evaluations).
pub const MAX_REPEATED: usize = 24;

impl Rbd {
    /// Leaf constructor.
    #[must_use]
    pub fn component(id: ComponentId) -> Rbd {
        Rbd::Component(id)
    }

    /// Series gate constructor.
    #[must_use]
    pub fn series(children: Vec<Rbd>) -> Rbd {
        Rbd::Series(children)
    }

    /// Parallel gate constructor.
    #[must_use]
    pub fn parallel(children: Vec<Rbd>) -> Rbd {
        Rbd::Parallel(children)
    }

    /// k-of-n gate constructor.
    #[must_use]
    pub fn k_of_n(k: u32, children: Vec<Rbd>) -> Rbd {
        Rbd::KOfN { k, children }
    }

    /// An n-plicated k-of-n over one component (the common homogeneous
    /// redundancy case: `n` copies, `k` required).
    #[must_use]
    pub fn k_of_n_identical(k: u32, n: u32, id: ComponentId) -> Rbd {
        Rbd::KOfN { k, children: (0..n).map(|_| Rbd::Component(id)).collect() }
    }

    /// Validates the tree against a component table.
    ///
    /// # Errors
    ///
    /// * [`RbdError::UnknownComponent`] for out-of-table leaves.
    /// * [`RbdError::EmptyGate`] for a childless gate.
    /// * [`RbdError::InvalidKofN`] when `k` is not in `1..=n`.
    pub fn validate(&self, table: &ComponentTable) -> Result<(), RbdError> {
        match self {
            Rbd::Component(id) => {
                if *id >= table.len() {
                    return Err(RbdError::UnknownComponent { id: *id, len: table.len() });
                }
                Ok(())
            }
            Rbd::Series(ch) | Rbd::Parallel(ch) => {
                if ch.is_empty() {
                    return Err(RbdError::EmptyGate);
                }
                ch.iter().try_for_each(|c| c.validate(table))
            }
            Rbd::KOfN { k, children } => {
                if children.is_empty() {
                    return Err(RbdError::EmptyGate);
                }
                if *k == 0 || *k as usize > children.len() {
                    return Err(RbdError::InvalidKofN { k: *k, n: children.len() });
                }
                children.iter().try_for_each(|c| c.validate(table))
            }
        }
    }

    /// All component ids referenced by the tree, in first-visit order,
    /// deduplicated.
    #[must_use]
    pub fn components(&self) -> Vec<ComponentId> {
        let mut out = Vec::new();
        self.visit_components(&mut |id| {
            if !out.contains(&id) {
                out.push(id);
            }
        });
        out
    }

    /// Component ids that occur in more than one leaf.
    #[must_use]
    pub fn repeated_components(&self) -> Vec<ComponentId> {
        let mut counts: std::collections::BTreeMap<ComponentId, usize> = Default::default();
        self.visit_components(&mut |id| {
            *counts.entry(id).or_default() += 1;
        });
        counts.into_iter().filter(|&(_, c)| c > 1).map(|(id, _)| id).collect()
    }

    fn visit_components(&self, f: &mut impl FnMut(ComponentId)) {
        match self {
            Rbd::Component(id) => f(*id),
            Rbd::Series(ch) | Rbd::Parallel(ch) => ch.iter().for_each(|c| c.visit_components(f)),
            Rbd::KOfN { children, .. } => {
                children.iter().for_each(|c| c.visit_components(f));
            }
        }
    }

    /// Number of leaves in the tree.
    pub fn leaf_count(&self) -> usize {
        match self {
            Rbd::Component(_) => 1,
            Rbd::Series(ch) | Rbd::Parallel(ch) => ch.iter().map(Rbd::leaf_count).sum(),
            Rbd::KOfN { children, .. } => children.iter().map(Rbd::leaf_count).sum(),
        }
    }

    /// Exact system availability given a component table.
    ///
    /// If no component repeats, the tree evaluates directly (children of
    /// every gate are independent). Repeated components are handled by
    /// Shannon decomposition: condition each repeated component on
    /// up/down and weight by its availability.
    ///
    /// # Errors
    ///
    /// * Validation errors from [`validate`](Self::validate) and
    ///   [`ComponentTable::validate`].
    /// * [`RbdError::TooManyRepeated`] if more than [`MAX_REPEATED`]
    ///   distinct components repeat.
    pub fn availability(&self, table: &ComponentTable) -> Result<f64, RbdError> {
        self.validate(table)?;
        table.validate()?;
        let repeated = self.repeated_components();
        if repeated.len() > MAX_REPEATED {
            return Err(RbdError::TooManyRepeated { count: repeated.len(), max: MAX_REPEATED });
        }
        let mut span = rascad_obs::span("rbd.availability");
        span.record("leaves", self.leaf_count());
        span.record("repeated", repeated.len());
        rascad_obs::counter("rbd.evaluations", 1);
        let mut avail = table.availabilities().to_vec();
        Ok(self.shannon_eval(&mut avail, &repeated))
    }

    /// Availability assuming every leaf is independent even if ids
    /// repeat (the fast path used when repetition is known to model
    /// physically distinct units of the same type).
    ///
    /// # Errors
    ///
    /// Validation errors as in [`availability`](Self::availability).
    pub fn availability_independent(&self, table: &ComponentTable) -> Result<f64, RbdError> {
        self.validate(table)?;
        table.validate()?;
        rascad_obs::counter("rbd.evaluations", 1);
        Ok(self.eval(table.availabilities()))
    }

    fn shannon_eval(&self, avail: &mut [f64], repeated: &[ComponentId]) -> f64 {
        match repeated.split_first() {
            None => self.eval(avail),
            Some((&id, rest)) => {
                let a = avail[id];
                avail[id] = 1.0;
                let up = self.shannon_eval(avail, rest);
                avail[id] = 0.0;
                let down = self.shannon_eval(avail, rest);
                avail[id] = a;
                a * up + (1.0 - a) * down
            }
        }
    }

    /// Evaluates the tree treating every leaf as independent with the
    /// given per-component probabilities.
    pub(crate) fn eval(&self, avail: &[f64]) -> f64 {
        match self {
            Rbd::Component(id) => avail[*id],
            Rbd::Series(ch) => ch.iter().map(|c| c.eval(avail)).product(),
            Rbd::Parallel(ch) => 1.0 - ch.iter().map(|c| 1.0 - c.eval(avail)).product::<f64>(),
            Rbd::KOfN { k, children } => {
                // DP over the number of working children (children may be
                // heterogeneous subtrees).
                let probs: Vec<f64> = children.iter().map(|c| c.eval(avail)).collect();
                k_of_n_probability(*k as usize, &probs)
            }
        }
    }
}

/// Probability that at least `k` of the independent events with
/// probabilities `probs` occur (dynamic program, exact).
#[must_use]
pub fn k_of_n_probability(k: usize, probs: &[f64]) -> f64 {
    let n = probs.len();
    if k == 0 {
        return 1.0;
    }
    if k > n {
        return 0.0;
    }
    // dist[j] = P(exactly j working so far).
    let mut dist = vec![0.0; n + 1];
    dist[0] = 1.0;
    for (i, &p) in probs.iter().enumerate() {
        for j in (0..=i + 1).rev() {
            let stay = if j <= i { dist[j] * (1.0 - p) } else { 0.0 };
            let come = if j > 0 { dist[j - 1] * p } else { 0.0 };
            dist[j] = stay + come;
        }
    }
    dist[k..].iter().sum()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    fn table3() -> (ComponentTable, ComponentId, ComponentId, ComponentId) {
        let mut t = ComponentTable::new();
        let a = t.add("a", 0.9);
        let b = t.add("b", 0.8);
        let c = t.add("c", 0.7);
        (t, a, b, c)
    }

    #[test]
    fn series_is_product() {
        let (t, a, b, c) = table3();
        let r = Rbd::series(vec![Rbd::component(a), Rbd::component(b), Rbd::component(c)]);
        assert!((r.availability(&t).unwrap() - 0.9 * 0.8 * 0.7).abs() < 1e-15);
    }

    #[test]
    fn parallel_is_one_minus_product_of_complements() {
        let (t, a, b, _) = table3();
        let r = Rbd::parallel(vec![Rbd::component(a), Rbd::component(b)]);
        assert!((r.availability(&t).unwrap() - (1.0 - 0.1 * 0.2)).abs() < 1e-15);
    }

    #[test]
    fn k_of_n_two_of_three() {
        let (t, a, b, c) = table3();
        let r = Rbd::k_of_n(2, vec![Rbd::component(a), Rbd::component(b), Rbd::component(c)]);
        // P(>=2 of {0.9, 0.8, 0.7}).
        let expect = 0.9 * 0.8 * 0.7 + 0.9 * 0.8 * 0.3 + 0.9 * 0.2 * 0.7 + 0.1 * 0.8 * 0.7;
        assert!((r.availability(&t).unwrap() - expect).abs() < 1e-15);
    }

    #[test]
    fn k_of_n_identical_matches_binomial() {
        let mut t = ComponentTable::new();
        let c = t.add("disk", 0.95);
        let r = Rbd::k_of_n_identical(3, 5, c);
        // Repeated ids are *independent units of the same type* only via
        // availability_independent; binomial closed form.
        let p: f64 = 0.95;
        let q = 1.0 - p;
        let expect: f64 = (3..=5)
            .map(|k| {
                let comb = match k {
                    3 => 10.0,
                    4 => 5.0,
                    _ => 1.0,
                };
                comb * p.powi(k) * q.powi(5 - k)
            })
            .sum();
        assert!((r.availability_independent(&t).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn shared_component_is_not_double_counted() {
        // Parallel of (a series x) and (a series y): exact availability
        // pivots on the shared a.
        let mut t = ComponentTable::new();
        let a = t.add("shared", 0.9);
        let x = t.add("x", 0.8);
        let y = t.add("y", 0.7);
        let r = Rbd::parallel(vec![
            Rbd::series(vec![Rbd::component(a), Rbd::component(x)]),
            Rbd::series(vec![Rbd::component(a), Rbd::component(y)]),
        ]);
        // Exact: a * (1 - 0.2*0.3) = 0.9 * 0.94 = 0.846.
        let exact = r.availability(&t).unwrap();
        assert!((exact - 0.846).abs() < 1e-15);
        // Naive independent evaluation would give a different (wrong)
        // number: 1 - (1-0.72)(1-0.63) = 0.8964.
        let naive = r.availability_independent(&t).unwrap();
        assert!((naive - 0.8964).abs() < 1e-15);
        assert!(exact < naive);
    }

    #[test]
    fn parallel_of_same_component_twice_is_that_component() {
        let mut t = ComponentTable::new();
        let a = t.add("a", 0.6);
        let r = Rbd::parallel(vec![Rbd::component(a), Rbd::component(a)]);
        // Exactly the same physical unit: availability is just 0.6.
        assert!((r.availability(&t).unwrap() - 0.6).abs() < 1e-15);
    }

    #[test]
    fn validation_errors() {
        let (t, a, _, _) = table3();
        assert!(matches!(
            Rbd::component(99).availability(&t),
            Err(RbdError::UnknownComponent { id: 99, .. })
        ));
        assert!(matches!(Rbd::series(vec![]).availability(&t), Err(RbdError::EmptyGate)));
        assert!(matches!(
            Rbd::k_of_n(0, vec![Rbd::component(a)]).availability(&t),
            Err(RbdError::InvalidKofN { .. })
        ));
        assert!(matches!(
            Rbd::k_of_n(3, vec![Rbd::component(a)]).availability(&t),
            Err(RbdError::InvalidKofN { .. })
        ));
        let mut bad = ComponentTable::new();
        bad.add("bad", 1.5);
        assert!(matches!(
            Rbd::component(0).availability(&bad),
            Err(RbdError::InvalidProbability { .. })
        ));
    }

    #[test]
    fn component_enumeration() {
        let (_, a, b, _) = table3();
        let r = Rbd::series(vec![
            Rbd::component(b),
            Rbd::parallel(vec![Rbd::component(a), Rbd::component(b)]),
        ]);
        assert_eq!(r.components(), vec![b, a]);
        assert_eq!(r.repeated_components(), vec![b]);
        assert_eq!(r.leaf_count(), 3);
    }

    #[test]
    fn k_of_n_probability_edges() {
        assert_eq!(k_of_n_probability(0, &[0.5]), 1.0);
        assert_eq!(k_of_n_probability(2, &[0.5]), 0.0);
        assert!((k_of_n_probability(1, &[0.5, 0.5]) - 0.75).abs() < 1e-15);
        assert!((k_of_n_probability(2, &[0.5, 0.5]) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn set_availability_updates_eval() {
        let (mut t, a, b, _) = table3();
        let r = Rbd::series(vec![Rbd::component(a), Rbd::component(b)]);
        t.set_availability(a, 1.0).unwrap();
        assert!((r.availability(&t).unwrap() - 0.8).abs() < 1e-15);
        assert!(t.set_availability(42, 0.5).is_err());
    }
}
