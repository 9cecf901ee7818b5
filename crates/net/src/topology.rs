//! Network topologies.
//!
//! The paper's results use a full mesh; the other shapes exist to reproduce
//! its robustness claim ("we also performed simulations for other structures
//! — but this had no effects on the results").

use oml_core::ids::NodeId;
use serde::{Deserialize, Serialize};

/// The physical interconnection structure of the nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topology {
    /// Every node pair is directly connected (the paper's model).
    FullMesh {
        /// Number of nodes.
        nodes: u32,
    },
    /// All traffic is relayed through hub node 0.
    Star {
        /// Number of nodes (including the hub).
        nodes: u32,
    },
    /// A cycle; routes take the shorter way round.
    Ring {
        /// Number of nodes.
        nodes: u32,
    },
    /// A simple path `0 – 1 – … – n-1`.
    Line {
        /// Number of nodes.
        nodes: u32,
    },
}

impl Topology {
    /// Number of nodes.
    ///
    /// # Example
    ///
    /// ```
    /// use oml_net::Topology;
    /// assert_eq!(Topology::Ring { nodes: 12 }.len(), 12);
    /// ```
    #[must_use]
    pub fn len(&self) -> u32 {
        match *self {
            Topology::FullMesh { nodes }
            | Topology::Star { nodes }
            | Topology::Ring { nodes }
            | Topology::Line { nodes } => nodes,
        }
    }

    /// Whether the topology has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `node` exists in this topology.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        node.as_u32() < self.len()
    }

    /// Length (in hops) of the shortest route from `from` to `to`; `0` iff
    /// the nodes are equal.
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the topology.
    #[must_use]
    pub fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        assert!(
            self.contains(from) && self.contains(to),
            "node out of topology: {from} or {to} vs {} nodes",
            self.len()
        );
        if from == to {
            return 0;
        }
        let (a, b) = (from.as_u32(), to.as_u32());
        match self {
            Topology::FullMesh { .. } => 1,
            Topology::Star { .. } => {
                if a == 0 || b == 0 {
                    1
                } else {
                    2
                }
            }
            &Topology::Ring { nodes } => {
                let d = a.abs_diff(b);
                d.min(nodes - d)
            }
            Topology::Line { .. } => a.abs_diff(b),
        }
    }

    /// Iterates over all node ids of the topology.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId::new)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn full_mesh_is_one_hop() {
        let t = Topology::FullMesh { nodes: 5 };
        assert_eq!(t.hops(n(0), n(4)), 1);
        assert_eq!(t.hops(n(2), n(2)), 0);
    }

    #[test]
    fn star_routes_through_hub() {
        let t = Topology::Star { nodes: 5 };
        assert_eq!(t.hops(n(0), n(3)), 1);
        assert_eq!(t.hops(n(3), n(0)), 1);
        assert_eq!(t.hops(n(1), n(4)), 2);
    }

    #[test]
    fn ring_takes_the_short_way() {
        let t = Topology::Ring { nodes: 6 };
        assert_eq!(t.hops(n(0), n(1)), 1);
        assert_eq!(t.hops(n(0), n(5)), 1);
        assert_eq!(t.hops(n(0), n(3)), 3);
    }

    #[test]
    fn line_is_absolute_distance() {
        let t = Topology::Line { nodes: 10 };
        assert_eq!(t.hops(n(0), n(9)), 9);
        assert_eq!(t.hops(n(4), n(6)), 2);
    }

    #[test]
    fn hops_are_symmetric() {
        let topologies = [
            Topology::FullMesh { nodes: 7 },
            Topology::Star { nodes: 7 },
            Topology::Ring { nodes: 7 },
            Topology::Line { nodes: 7 },
        ];
        for t in topologies {
            for a in 0..t.len() {
                for b in 0..t.len() {
                    assert_eq!(t.hops(n(a), n(b)), t.hops(n(b), n(a)), "{t:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn hops_zero_iff_equal() {
        let t = Topology::Ring { nodes: 9 };
        for a in 0..9 {
            for b in 0..9 {
                assert_eq!(t.hops(n(a), n(b)) == 0, a == b);
            }
        }
    }

    #[test]
    fn contains_and_nodes_agree() {
        let t = Topology::Line { nodes: 6 };
        assert_eq!(t.nodes().count(), 6);
        assert!(t.contains(n(5)));
        assert!(!t.contains(n(6)));
    }

    #[test]
    #[should_panic(expected = "node out of topology")]
    fn out_of_range_node_panics() {
        let _ = Topology::FullMesh { nodes: 3 }.hops(n(0), n(3));
    }
}
