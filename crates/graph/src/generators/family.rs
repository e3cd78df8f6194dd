//! Serializable descriptors of graph families for the experiment harness.

use crate::generators::{deterministic, random};
use crate::graph::PortGraph;
use crate::topology::Topology;
use std::fmt;

/// A named, parameterized graph family that the experiment harness can
/// instantiate at a requested size.
///
/// `instantiate(n, seed)` produces a graph with **approximately** `n` nodes
/// (exactly `n` for most families; grid/torus/hypercube round to the nearest
/// realizable size ≥ the request where necessary). The realized node count is
/// always `graph.num_nodes()`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphFamily {
    /// Path graph — the Ω(k) time lower-bound instance.
    Line,
    /// Cycle.
    Ring,
    /// Star (one hub of degree n-1).
    Star,
    /// Complete graph.
    Complete,
    /// Complete binary tree.
    BinaryTree,
    /// Uniform random labeled tree.
    RandomTree,
    /// 2-D square grid (no wraparound).
    Grid,
    /// 2-D square torus.
    Torus,
    /// Hypercube (n rounded up to a power of two).
    Hypercube,
    /// Random d-regular graph.
    RandomRegular {
        /// Degree of every node.
        degree: usize,
    },
    /// Connected Erdős–Rényi graph.
    ErdosRenyi {
        /// Expected average degree (p = avg_degree / (n-1)).
        avg_degree: f64,
    },
    /// Two cliques joined by a path (cliques of size n/4, path n/2).
    Barbell,
    /// Clique with a path tail (clique n/2, tail n/2).
    Lollipop,
    /// Caterpillar tree with the given number of legs per spine node.
    Caterpillar {
        /// Leaves attached to each spine node.
        legs: usize,
    },
}

impl GraphFamily {
    /// All families exercised by the reproduction harness, in report order.
    pub fn all() -> Vec<GraphFamily> {
        vec![
            GraphFamily::Line,
            GraphFamily::Ring,
            GraphFamily::Star,
            GraphFamily::BinaryTree,
            GraphFamily::RandomTree,
            GraphFamily::Grid,
            GraphFamily::Torus,
            GraphFamily::Hypercube,
            GraphFamily::RandomRegular { degree: 4 },
            GraphFamily::ErdosRenyi { avg_degree: 6.0 },
            GraphFamily::Complete,
            GraphFamily::Barbell,
            GraphFamily::Lollipop,
            GraphFamily::Caterpillar { legs: 3 },
        ]
    }

    /// A compact subset suitable for quick runs and CI.
    pub fn quick() -> Vec<GraphFamily> {
        vec![
            GraphFamily::Line,
            GraphFamily::Star,
            GraphFamily::RandomTree,
            GraphFamily::ErdosRenyi { avg_degree: 6.0 },
        ]
    }

    /// Instantiate a graph with approximately `n` nodes.
    pub fn instantiate(&self, n: usize, seed: u64) -> PortGraph {
        let n = n.max(4);
        match *self {
            GraphFamily::Line => deterministic::line(n),
            GraphFamily::Ring => deterministic::ring(n.max(3)),
            GraphFamily::Star => deterministic::star(n.max(2)),
            GraphFamily::Complete => deterministic::complete(n),
            GraphFamily::BinaryTree => deterministic::binary_tree(n),
            GraphFamily::RandomTree => random::random_tree(n, seed),
            GraphFamily::Grid => {
                let side = (n as f64).sqrt().ceil() as usize;
                deterministic::grid2d(side, side)
            }
            GraphFamily::Torus => {
                let side = (n as f64).sqrt().ceil().max(3.0) as usize;
                deterministic::torus2d(side, side)
            }
            GraphFamily::Hypercube => {
                let dim = (n.max(2) as f64).log2().ceil() as usize;
                deterministic::hypercube(dim.max(1))
            }
            GraphFamily::RandomRegular { degree } => {
                let d = degree.min(n - 1).max(2);
                // n·d must be even.
                let n = if (n * d).is_multiple_of(2) { n } else { n + 1 };
                random::random_regular(n, d, seed)
            }
            GraphFamily::ErdosRenyi { avg_degree } => {
                let p = (avg_degree / (n.saturating_sub(1)).max(1) as f64).clamp(0.0, 1.0);
                random::erdos_renyi_connected(n, p, seed)
            }
            GraphFamily::Barbell => {
                let clique = (n / 4).max(2);
                let path = n.saturating_sub(2 * clique);
                deterministic::barbell(clique, path)
            }
            GraphFamily::Lollipop => {
                let clique = (n / 2).max(2);
                let path = n.saturating_sub(clique);
                deterministic::lollipop(clique, path)
            }
            GraphFamily::Caterpillar { legs } => {
                let spine = (n / (legs + 1)).max(1);
                deterministic::caterpillar(spine, legs)
            }
        }
    }

    /// Instantiate a [`Topology`] with approximately `n` nodes.
    ///
    /// The dense structured families (complete, hypercube, torus) come back
    /// *implicit* — a few integers instead of `Θ(m)` materialized edge slots
    /// — which is what makes `n ≈ 10^6` runs fit in memory. All other
    /// families materialize through [`GraphFamily::instantiate`]. The sizing
    /// rules are identical to `instantiate`'s, so for every family the two
    /// entry points describe the same graph (checked by
    /// `tests/proptest_csr.rs`).
    pub fn instantiate_topology(&self, n: usize, seed: u64) -> Topology {
        let n = n.max(4);
        match *self {
            GraphFamily::Complete => Topology::complete(n),
            GraphFamily::Hypercube => {
                let dim = (n.max(2) as f64).log2().ceil() as usize;
                Topology::hypercube(dim.max(1))
            }
            GraphFamily::Torus => {
                let side = (n as f64).sqrt().ceil().max(3.0) as usize;
                Topology::torus(side, side)
            }
            _ => Topology::Csr(self.instantiate(n, seed)),
        }
    }

    /// An **upper bound** on the maximum degree a size-`n` instance of this
    /// family can realize (exact for the deterministic families, `n - 1`
    /// for the random ones). Validation uses it to reject runner limits
    /// that are below the placement's trivial lower bound *before* any
    /// trial runs — an upper bound on `Δ` gives a sound (if weaker) lower
    /// bound on the time needed.
    pub fn max_degree_upper_bound(&self, n: usize) -> usize {
        let n = n.max(4);
        match *self {
            GraphFamily::Line | GraphFamily::Ring => 2,
            GraphFamily::BinaryTree => 3,
            GraphFamily::Grid | GraphFamily::Torus => 4,
            GraphFamily::Hypercube => (n.max(2) as f64).log2().ceil() as usize,
            GraphFamily::RandomRegular { degree } => degree.max(2),
            GraphFamily::Caterpillar { legs } => legs + 2,
            GraphFamily::Star
            | GraphFamily::Complete
            | GraphFamily::RandomTree
            | GraphFamily::ErdosRenyi { .. }
            | GraphFamily::Barbell
            | GraphFamily::Lollipop => n.saturating_sub(1),
        }
    }

    /// Inverse of [`GraphFamily::label`]: parse a label back into a family
    /// (used by record ingestion and the campaign CLI). Parameterized labels
    /// carry their parameter inline (`rreg4`, `er6`, `caterpillar3`).
    pub fn from_label(label: &str) -> Option<GraphFamily> {
        let fixed = match label {
            "line" => Some(GraphFamily::Line),
            "ring" => Some(GraphFamily::Ring),
            "star" => Some(GraphFamily::Star),
            "complete" => Some(GraphFamily::Complete),
            "bintree" => Some(GraphFamily::BinaryTree),
            "rtree" => Some(GraphFamily::RandomTree),
            "grid" => Some(GraphFamily::Grid),
            "torus" => Some(GraphFamily::Torus),
            "hypercube" => Some(GraphFamily::Hypercube),
            "barbell" => Some(GraphFamily::Barbell),
            "lollipop" => Some(GraphFamily::Lollipop),
            _ => None,
        };
        if fixed.is_some() {
            return fixed;
        }
        // Parameterized labels must be canonical: re-rendering the parsed
        // family must reproduce the input byte for byte ("rreg04" and
        // "er3." are rejected, not silently normalized), so labels stay a
        // bijection — which downstream scenario labels rely on.
        let parsed = if let Some(rest) = label.strip_prefix("rreg") {
            rest.parse()
                .ok()
                .map(|degree| GraphFamily::RandomRegular { degree })
        } else if let Some(rest) = label.strip_prefix("caterpillar") {
            rest.parse()
                .ok()
                .map(|legs| GraphFamily::Caterpillar { legs })
        } else if let Some(rest) = label.strip_prefix("er") {
            rest.parse()
                .ok()
                .map(|avg_degree| GraphFamily::ErdosRenyi { avg_degree })
        } else {
            None
        };
        parsed.filter(|family| family.label() == label)
    }

    /// Short machine-friendly label (used in CSV headers and bench ids).
    pub fn label(&self) -> String {
        self.to_string()
    }
}

/// Writes the short label ([`GraphFamily::label`]).
impl fmt::Display for GraphFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            GraphFamily::Line => f.write_str("line"),
            GraphFamily::Ring => f.write_str("ring"),
            GraphFamily::Star => f.write_str("star"),
            GraphFamily::Complete => f.write_str("complete"),
            GraphFamily::BinaryTree => f.write_str("bintree"),
            GraphFamily::RandomTree => f.write_str("rtree"),
            GraphFamily::Grid => f.write_str("grid"),
            GraphFamily::Torus => f.write_str("torus"),
            GraphFamily::Hypercube => f.write_str("hypercube"),
            GraphFamily::RandomRegular { degree } => write!(f, "rreg{degree}"),
            GraphFamily::ErdosRenyi { avg_degree } => write!(f, "er{avg_degree}"),
            GraphFamily::Barbell => f.write_str("barbell"),
            GraphFamily::Lollipop => f.write_str("lollipop"),
            GraphFamily::Caterpillar { legs } => write!(f, "caterpillar{legs}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use crate::validate;

    #[test]
    fn every_family_instantiates_a_valid_graph() {
        for fam in GraphFamily::all() {
            for &n in &[8usize, 33, 64] {
                let g = fam.instantiate(n, 7);
                validate::check_port_labeling(&g)
                    .unwrap_or_else(|e| panic!("{fam}: invalid port labeling: {e}"));
                assert!(
                    properties::is_connected(&g),
                    "{fam} at n={n} is disconnected"
                );
                assert!(g.num_nodes() >= 4, "{fam} at n={n} too small");
            }
        }
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for fam in GraphFamily::all() {
            assert_eq!(GraphFamily::from_label(&fam.label()), Some(fam), "{fam}");
        }
        assert_eq!(GraphFamily::from_label("unknown"), None);
        assert_eq!(GraphFamily::from_label("rregx"), None);
    }

    #[test]
    fn non_canonical_parameterized_labels_are_rejected() {
        assert_eq!(GraphFamily::from_label("er3."), None);
        assert_eq!(GraphFamily::from_label("er06"), None);
        assert_eq!(GraphFamily::from_label("rreg04"), None);
        assert_eq!(GraphFamily::from_label("caterpillar+3"), None);
        assert_eq!(
            GraphFamily::from_label("er3.5"),
            Some(GraphFamily::ErdosRenyi { avg_degree: 3.5 })
        );
    }

    #[test]
    fn labels_are_unique() {
        let labels: Vec<_> = GraphFamily::all().iter().map(|f| f.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn quick_is_subset_of_all() {
        let all: Vec<_> = GraphFamily::all().iter().map(|f| f.label()).collect();
        for f in GraphFamily::quick() {
            assert!(all.contains(&f.label()));
        }
    }

    #[test]
    fn line_instantiates_exact_size() {
        let g = GraphFamily::Line.instantiate(57, 0);
        assert_eq!(g.num_nodes(), 57);
    }

    #[test]
    fn hypercube_rounds_up_to_power_of_two() {
        let g = GraphFamily::Hypercube.instantiate(20, 0);
        assert_eq!(g.num_nodes(), 32);
    }
}
