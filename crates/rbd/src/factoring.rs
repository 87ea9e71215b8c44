//! Two-terminal network reliability by factoring.
//!
//! Not every RAS architecture is series-parallel (the classic
//! counterexample is the bridge). This module models a system as an
//! undirected network whose *edges* are components and computes the
//! probability that the source and sink terminals stay connected, using
//! pivotal decomposition ("factoring"):
//!
//! `R(G) = p_e · R(G / e) + (1 − p_e) · R(G − e)`
//!
//! with series/parallel reductions and degree-based cleanup applied at
//! every step.

use crate::error::RbdError;

/// An undirected two-terminal network whose edges carry availabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    node_count: usize,
    source: usize,
    sink: usize,
    /// `(u, v, availability, label)` per edge.
    edges: Vec<(usize, usize, f64, String)>,
}

impl Network {
    /// Creates a network with `node_count` nodes and the given terminal
    /// nodes.
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::InvalidNetwork`] if a terminal is out of range
    /// or the terminals coincide.
    pub fn new(node_count: usize, source: usize, sink: usize) -> Result<Self, RbdError> {
        if source >= node_count || sink >= node_count {
            return Err(RbdError::InvalidNetwork {
                what: format!("terminal out of range (nodes: {node_count})"),
            });
        }
        if source == sink {
            return Err(RbdError::InvalidNetwork { what: "source equals sink".into() });
        }
        Ok(Network { node_count, source, sink, edges: Vec::new() })
    }

    /// Adds an edge component between `u` and `v` with the given
    /// availability.
    ///
    /// # Errors
    ///
    /// * [`RbdError::InvalidNetwork`] for bad endpoints or self-loops.
    /// * [`RbdError::InvalidProbability`] if `availability` is not in
    ///   `[0, 1]`.
    pub fn add_edge(
        &mut self,
        u: usize,
        v: usize,
        availability: f64,
        label: impl Into<String>,
    ) -> Result<(), RbdError> {
        if u >= self.node_count || v >= self.node_count {
            return Err(RbdError::InvalidNetwork { what: format!("edge ({u},{v}) out of range") });
        }
        if u == v {
            return Err(RbdError::InvalidNetwork { what: format!("self-loop on node {u}") });
        }
        if !(0.0..=1.0).contains(&availability) || !availability.is_finite() {
            return Err(RbdError::InvalidProbability {
                what: format!("edge ({u},{v}) availability {availability}"),
            });
        }
        self.edges.push((u, v, availability, label.into()));
        Ok(())
    }

    /// Computes two-terminal reliability (probability source and sink
    /// are connected by working edges).
    ///
    /// # Errors
    ///
    /// Returns [`RbdError::InvalidNetwork`] if the network has more than
    /// 32 edges (the factoring recursion would be too large).
    pub fn reliability(&self) -> Result<f64, RbdError> {
        if self.edges.len() > 32 {
            return Err(RbdError::InvalidNetwork {
                what: format!("factoring limited to 32 edges, got {}", self.edges.len()),
            });
        }
        // Union-find over nodes under edge contraction; recursion clones.
        let g = Graph {
            parent: (0..self.node_count).collect(),
            edges: self.edges.iter().map(|&(u, v, p, _)| (u, v, p)).collect(),
            source: self.source,
            sink: self.sink,
        };
        Ok(factor(g))
    }
}

#[derive(Clone)]
struct Graph {
    parent: Vec<usize>,
    edges: Vec<(usize, usize, f64)>,
    source: usize,
    sink: usize,
}

impl Graph {
    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

fn factor(mut g: Graph) -> f64 {
    // Normalize endpoints to representatives; drop collapsed self-loops;
    // merge parallel edges.
    let s = g.find(g.source);
    let t = g.find(g.sink);
    if s == t {
        return 1.0;
    }
    let mut merged: std::collections::HashMap<(usize, usize), f64> = Default::default();
    let edges = std::mem::take(&mut g.edges);
    for (u, v, p) in edges {
        let (mut ru, mut rv) = (g.find(u), g.find(v));
        if ru == rv {
            continue;
        }
        if ru > rv {
            std::mem::swap(&mut ru, &mut rv);
        }
        // Parallel merge: 1-(1-p1)(1-p2).
        let ent = merged.entry((ru, rv)).or_insert(0.0);
        *ent = 1.0 - (1.0 - *ent) * (1.0 - p);
    }
    g.edges = merged.into_iter().map(|((u, v), p)| (u, v, p)).collect();

    // Connectivity check: if sink unreachable even with all edges, R = 0.
    if !reachable(&mut g, s, t) {
        return 0.0;
    }

    // Series reduction: a degree-2 non-terminal node with two distinct
    // neighbours collapses its two edges into one with p1*p2.
    loop {
        let mut deg: std::collections::HashMap<usize, Vec<usize>> = Default::default();
        for (i, &(u, v, _)) in g.edges.iter().enumerate() {
            deg.entry(u).or_default().push(i);
            deg.entry(v).or_default().push(i);
        }
        let mut reduced = false;
        for (&node, idxs) in &deg {
            if node == s || node == t || idxs.len() != 2 {
                continue;
            }
            let (i, j) = (idxs[0], idxs[1]);
            let (u1, v1, p1) = g.edges[i];
            let (u2, v2, p2) = g.edges[j];
            let a = if u1 == node { v1 } else { u1 };
            let b = if u2 == node { v2 } else { u2 };
            if a == b {
                continue; // would create a parallel pair; handled on recursion
            }
            // Remove edges i and j (larger index first), add (a, b, p1*p2).
            let (hi, lo) = if i > j { (i, j) } else { (j, i) };
            g.edges.swap_remove(hi);
            g.edges.swap_remove(lo);
            g.edges.push((a, b, p1 * p2));
            reduced = true;
            break;
        }
        if !reduced {
            break;
        }
    }

    // Base cases after reduction.
    if g.edges.len() == 1 {
        let (u, v, p) = g.edges[0];
        let connects = (g.find(u) == s && g.find(v) == t) || (g.find(u) == t && g.find(v) == s);
        return if connects { p } else { 0.0 };
    }
    if g.edges.is_empty() {
        return 0.0;
    }

    // Pivot on the first edge: contract (working) or delete (failed).
    let (u, v, p) = g.edges[0];
    let rest: Vec<(usize, usize, f64)> = g.edges[1..].to_vec();

    let mut contracted =
        Graph { parent: g.parent.clone(), edges: rest.clone(), source: s, sink: t };
    contracted.union(u, v);

    let deleted = Graph { parent: g.parent.clone(), edges: rest, source: s, sink: t };

    p * factor(contracted) + (1.0 - p) * factor(deleted)
}

fn reachable(g: &mut Graph, s: usize, t: usize) -> bool {
    let mut adj: std::collections::HashMap<usize, Vec<usize>> = Default::default();
    let edges = g.edges.clone();
    for (u, v, _) in edges {
        let (ru, rv) = (g.find(u), g.find(v));
        adj.entry(ru).or_default().push(rv);
        adj.entry(rv).or_default().push(ru);
    }
    let mut seen = std::collections::HashSet::new();
    let mut stack = vec![s];
    seen.insert(s);
    while let Some(x) = stack.pop() {
        if x == t {
            return true;
        }
        if let Some(ns) = adj.get(&x) {
            for &n in ns {
                if seen.insert(n) {
                    stack.push(n);
                }
            }
        }
    }
    false
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact equality asserts deterministic arithmetic
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut n = Network::new(2, 0, 1).unwrap();
        n.add_edge(0, 1, 0.9, "e").unwrap();
        assert!((n.reliability().unwrap() - 0.9).abs() < 1e-15);
    }

    #[test]
    fn series_chain() {
        let mut n = Network::new(3, 0, 2).unwrap();
        n.add_edge(0, 1, 0.9, "a").unwrap();
        n.add_edge(1, 2, 0.8, "b").unwrap();
        assert!((n.reliability().unwrap() - 0.72).abs() < 1e-15);
    }

    #[test]
    fn parallel_pair() {
        let mut n = Network::new(2, 0, 1).unwrap();
        n.add_edge(0, 1, 0.9, "a").unwrap();
        n.add_edge(0, 1, 0.8, "b").unwrap();
        assert!((n.reliability().unwrap() - (1.0 - 0.1 * 0.2)).abs() < 1e-15);
    }

    #[test]
    fn bridge_network_closed_form() {
        // Classic 5-edge bridge, all edges p. Closed form:
        // R = 2p^2 + 2p^3 - 5p^4 + 2p^5.
        let p = 0.9;
        let mut n = Network::new(4, 0, 3).unwrap();
        n.add_edge(0, 1, p, "a").unwrap();
        n.add_edge(0, 2, p, "b").unwrap();
        n.add_edge(1, 2, p, "bridge").unwrap();
        n.add_edge(1, 3, p, "c").unwrap();
        n.add_edge(2, 3, p, "d").unwrap();
        let expect = 2.0 * p.powi(2) + 2.0 * p.powi(3) - 5.0 * p.powi(4) + 2.0 * p.powi(5);
        assert!(
            (n.reliability().unwrap() - expect).abs() < 1e-12,
            "{} vs {expect}",
            n.reliability().unwrap()
        );
    }

    #[test]
    fn heterogeneous_bridge_vs_enumeration() {
        let probs = [0.9, 0.85, 0.7, 0.95, 0.8];
        let edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)];
        let mut n = Network::new(4, 0, 3).unwrap();
        for (i, &(u, v)) in edges.iter().enumerate() {
            n.add_edge(u, v, probs[i], format!("e{i}")).unwrap();
        }
        // Brute-force enumeration over 2^5 edge states.
        let mut expect = 0.0;
        for mask in 0u32..32 {
            let mut pr = 1.0;
            let mut parent: Vec<usize> = (0..4).collect();
            fn find(p: &mut [usize], mut x: usize) -> usize {
                while p[x] != x {
                    p[x] = p[p[x]];
                    x = p[x];
                }
                x
            }
            for (i, &(u, v)) in edges.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    pr *= probs[i];
                    let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
                    if ru != rv {
                        parent[ru] = rv;
                    }
                } else {
                    pr *= 1.0 - probs[i];
                }
            }
            if find(&mut parent, 0) == find(&mut parent, 3) {
                expect += pr;
            }
        }
        assert!((n.reliability().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn disconnected_network_is_zero() {
        let mut n = Network::new(4, 0, 3).unwrap();
        n.add_edge(0, 1, 0.9, "a").unwrap();
        n.add_edge(2, 3, 0.9, "b").unwrap();
        assert_eq!(n.reliability().unwrap(), 0.0);
    }

    #[test]
    fn dangling_edges_are_irrelevant() {
        let mut n = Network::new(4, 0, 1).unwrap();
        n.add_edge(0, 1, 0.75, "main").unwrap();
        n.add_edge(1, 2, 0.5, "dangle1").unwrap();
        n.add_edge(2, 3, 0.5, "dangle2").unwrap();
        assert!((n.reliability().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn construction_errors() {
        assert!(Network::new(2, 0, 0).is_err());
        assert!(Network::new(2, 0, 5).is_err());
        let mut n = Network::new(2, 0, 1).unwrap();
        assert!(n.add_edge(0, 0, 0.5, "loop").is_err());
        assert!(n.add_edge(0, 5, 0.5, "range").is_err());
        assert!(n.add_edge(0, 1, 1.5, "prob").is_err());
    }

    #[test]
    fn perfect_and_failed_edges() {
        let mut n = Network::new(3, 0, 2).unwrap();
        n.add_edge(0, 1, 1.0, "a").unwrap();
        n.add_edge(1, 2, 0.0, "b").unwrap();
        assert_eq!(n.reliability().unwrap(), 0.0);
        let mut n2 = Network::new(3, 0, 2).unwrap();
        n2.add_edge(0, 1, 1.0, "a").unwrap();
        n2.add_edge(1, 2, 1.0, "b").unwrap();
        assert_eq!(n2.reliability().unwrap(), 1.0);
    }
}
