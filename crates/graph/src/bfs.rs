//! Breadth-first search distances.

use crate::graph::Graph;
use crate::scratch::BfsScratch;

/// Unweighted shortest-path distances `z_{s,v}` from `source` to all
/// nodes. Unreachable nodes get `u32::MAX`.
///
/// One-shot convenience over [`BfsScratch`]; kernels that run many
/// BFS passes should hold a scratch and call
/// [`BfsScratch::run`] to avoid the per-call allocation.
///
/// # Panics
///
/// Panics when `source` is out of range.
///
/// # Example
///
/// ```
/// use forumcast_graph::{bfs_distances, Graph};
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2)]);
/// let d = bfs_distances(&g, 0);
/// assert_eq!(&d[..3], &[0, 1, 2]);
/// assert_eq!(d[3], u32::MAX); // isolated
/// ```
pub fn bfs_distances(g: &Graph, source: u32) -> Vec<u32> {
    let mut scratch = BfsScratch::new();
    scratch.run(g, source);
    (0..g.num_nodes() as u32).map(|v| scratch.dist(v)).collect()
}

/// Every node once, component by component in order of each
/// component's lowest-numbered node, each component in BFS order from
/// that node. Nodes close in this order are close in the graph.
pub(crate) fn bfs_order(g: &Graph) -> Vec<u32> {
    let n = g.num_nodes();
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut scratch = BfsScratch::new();
    for root in 0..n as u32 {
        if !placed[root as usize] {
            scratch.run(g, root);
            for &v in scratch.visited() {
                placed[v as usize] = true;
                order.push(v);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_order_walks_each_component_from_its_lowest_node() {
        // Components {0, 3, 4} and {1, 2, 5}; node 4 hangs off 3.
        let g = Graph::from_edges(6, &[(0, 3), (3, 4), (5, 1), (5, 2)]);
        assert_eq!(bfs_order(&g), vec![0, 3, 4, 1, 5, 2]);
    }

    #[test]
    fn distances_on_a_cycle() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 1]);
    }

    #[test]
    fn unreachable_nodes_are_max() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[2], u32::MAX);
    }

    #[test]
    fn single_node_distance_zero() {
        let g = Graph::new(1);
        assert_eq!(bfs_distances(&g, 0), vec![0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_source_panics() {
        bfs_distances(&Graph::new(1), 3);
    }
}
