//! Undirected graph over a dense node population.

use serde::{Deserialize, Serialize};

/// An undirected, unweighted graph on nodes `0 .. num_nodes`.
///
/// Stored in **compressed sparse row** (CSR) form: one flat
/// `neighbors` array holding every node's sorted adjacency back to
/// back, indexed by `offsets` (`offsets[u] .. offsets[u + 1]` is the
/// slice of node `u`). No self-loops, no parallel edges; both SLN
/// graphs of the paper are symmetric binary adjacency matrices, which
/// this mirrors sparsely — and the flat layout keeps BFS-heavy kernels
/// (closeness, betweenness) on two contiguous allocations
/// instead of one heap cell per node.
///
/// # Example
///
/// ```
/// use forumcast_graph::Graph;
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 1)]);
/// assert_eq!(g.num_edges(), 2); // duplicate collapsed
/// assert_eq!(g.neighbors(1), &[0, 2]);
/// assert!(g.has_edge(2, 1));
/// assert_eq!(g.degree(3), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `num_nodes + 1` slice boundaries into `neighbors`.
    pub(crate) offsets: Vec<u32>,
    /// All adjacency lists, concatenated; each node's slice is sorted.
    /// Always `2 * num_edges` long.
    pub(crate) neighbors: Vec<u32>,
    num_edges: usize,
}

impl Graph {
    /// Creates an edgeless graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Graph {
            offsets: vec![0; num_nodes + 1],
            neighbors: Vec::new(),
            num_edges: 0,
        }
    }

    /// Builds a graph from an edge list in one bulk pass (sort +
    /// dedup + counting sort into CSR) — the fast path the SLN
    /// builders use. Self-loops are ignored and duplicate edges
    /// collapsed.
    ///
    /// # Panics
    ///
    /// Panics when an endpoint is `>= num_nodes`.
    pub fn from_edges(num_nodes: usize, edges: &[(u32, u32)]) -> Self {
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            assert!(
                (u as usize) < num_nodes && (v as usize) < num_nodes,
                "edge ({u}, {v}) out of range for {num_nodes} nodes"
            );
            if u == v {
                continue;
            }
            pairs.push((u, v));
            pairs.push((v, u));
        }
        pairs.sort_unstable();
        pairs.dedup();
        assert!(
            u32::try_from(pairs.len()).is_ok(),
            "graph too large for u32 CSR offsets"
        );
        let mut offsets = vec![0u32; num_nodes + 1];
        for &(u, _) in &pairs {
            offsets[u as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let num_edges = pairs.len() / 2;
        let neighbors: Vec<u32> = pairs.into_iter().map(|(_, v)| v).collect();
        Graph {
            offsets,
            neighbors,
            num_edges,
        }
    }

    fn neighbors_of(&self, u: u32) -> &[u32] {
        &self.neighbors[self.offsets[u as usize] as usize..self.offsets[u as usize + 1] as usize]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Sorted neighbors of `u`.
    ///
    /// # Panics
    ///
    /// Panics when `u` is out of range.
    pub fn neighbors(&self, u: u32) -> &[u32] {
        self.neighbors_of(u)
    }

    /// Degree of `u`.
    ///
    /// # Panics
    ///
    /// Panics when `u` is out of range.
    pub fn degree(&self, u: u32) -> usize {
        (self.offsets[u as usize + 1] - self.offsets[u as usize]) as usize
    }

    /// `true` when the edge `{u, v}` exists.
    ///
    /// # Panics
    ///
    /// Panics when `u` is out of range.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        self.neighbors_of(u).binary_search(&v).is_ok()
    }

    /// Mean degree `Σ_u deg(u) / n` (0 for the empty graph). The paper
    /// reports 2.6 for `G_QA` and 3.7 for `G_D`.
    pub fn average_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        2.0 * self.num_edges as f64 / self.num_nodes() as f64
    }

    /// This graph with node `order[i]` renamed `i`.
    ///
    /// # Panics
    ///
    /// Panics when `order` is not a permutation of the nodes.
    pub(crate) fn relabeled(&self, order: &[u32]) -> Graph {
        let n = self.num_nodes();
        let mut rank = vec![u32::MAX; n];
        for (i, &u) in order.iter().enumerate() {
            rank[u as usize] = i as u32;
        }
        assert!(
            order.len() == n && !rank.contains(&u32::MAX),
            "order is not a permutation of {n} nodes"
        );
        let edges: Vec<(u32, u32)> = self
            .edges()
            .map(|(u, v)| (rank[u as usize], rank[v as usize]))
            .collect();
        Graph::from_edges(n, &edges)
    }

    /// Iterates over each undirected edge once, as `(u, v)` with
    /// `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_nodes() as u32).flat_map(move |u| {
            self.neighbors_of(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_bulk_edge_panics() {
        Graph::from_edges(2, &[(0, 5)]);
    }

    #[test]
    fn neighbors_stay_sorted() {
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        assert_eq!(g.neighbors(2), &[0, 1, 3, 4]);
    }

    #[test]
    fn bulk_build_is_symmetric_and_drops_duplicates_and_self_loops() {
        let edges = [(4u32, 1u32), (0, 3), (1, 0), (3, 4), (1, 4), (2, 2), (0, 1)];
        let g = Graph::from_edges(5, &edges);
        // {1,4}, {0,3}, {0,1}, {3,4} — duplicates and the self-loop drop.
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_edge(4, 1) && g.has_edge(1, 4));
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn average_degree_triangle() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn average_degree_empty_graph() {
        assert_eq!(Graph::new(0).average_degree(), 0.0);
        assert_eq!(Graph::new(5).average_degree(), 0.0);
    }

    #[test]
    fn edges_iterates_each_once() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 1), (3, 0)]);
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn relabeled_renames_nodes_and_keeps_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (3, 0)]);
        // Node 2 becomes 0, 0 becomes 1, 3 becomes 2, 1 becomes 3.
        let r = g.relabeled(&[2, 0, 3, 1]);
        let mut edges: Vec<_> = r.edges().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 3), (1, 2), (1, 3)]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabeled_rejects_a_repeated_node() {
        Graph::from_edges(3, &[(0, 1)]).relabeled(&[0, 1, 1]);
    }

    #[test]
    fn serde_roundtrip() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }
}
