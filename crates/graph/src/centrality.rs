//! Closeness and betweenness centralities (paper features xv, xvi,
//! xviii, xix).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::bfs::bfs_order;
use crate::graph::Graph;
use crate::scratch::{BrandesScratch, MsBfsScratch, ScratchPool, MS_BFS_WIDTH};

/// Closeness centrality of every node, per the paper's definition
/// `l_u = (|U| − 1) / Σ_{v ≠ u} z_{u,v}` where unreachable pairs are
/// *removed from the sum* (paper footnote 5).
///
/// A node with no reachable peers (isolated) gets closeness 0.
///
/// # Example
///
/// ```
/// use forumcast_graph::{closeness, Graph};
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let l = closeness(&g);
/// assert!(l[1] > l[0]); // the middle of a path is closest
/// ```
pub fn closeness(g: &Graph) -> Vec<f64> {
    closeness_with_threads(g, forumcast_par::configured_threads())
}

/// [`closeness`] with an explicit worker-thread count (`0` = auto).
///
/// Each [`forumcast_par::CHUNK_SIZE`]-node chunk is one multi-source
/// BFS pass ([`MsBfsScratch`]) that advances all 64 sources at once.
/// The graph is first relabeled in BFS order, so a chunk holds sources
/// that lie close together: they reach each node at nearly the same
/// levels, and a pass visits each node on fewer levels. On the
/// paper-scale SLN graphs that halves the work of chunks taken in user
/// order.
///
/// A source's distance sum is an exact integer however the sources are
/// batched, and each value lands at its source's index, so the output
/// is bitwise-identical for any thread count and to a per-source BFS.
/// Pass state comes from a [`ScratchPool`]: every chunk stream reuses
/// one scratch, so no pass allocates.
pub fn closeness_with_threads(g: &Graph, threads: usize) -> Vec<f64> {
    let _span = forumcast_obs::span("graph.closeness");
    let n = g.num_nodes();
    if n <= 1 {
        return vec![0.0; n];
    }
    const _: () = assert!(forumcast_par::CHUNK_SIZE <= MS_BFS_WIDTH);
    let threads = forumcast_par::resolve_threads(threads);
    let order = bfs_order(g);
    let h = g.relabeled(&order);
    let pool: ScratchPool<MsBfsScratch> = ScratchPool::new();
    let sums = forumcast_par::parallel_chunk_fold(
        n,
        threads,
        |range| {
            let mut scratch = pool.acquire();
            let width = range.len();
            let sums = scratch.distance_sums(&h, range);
            pool.release(scratch);
            sums[..width].to_vec()
        },
        |partials| partials.concat(),
    );
    forumcast_obs::counter_add(
        "graph.bfs.scratch_reuses",
        (n.saturating_sub(pool.created())) as u64,
    );
    let mut out = vec![0.0; n];
    for (&u, sum) in order.iter().zip(sums) {
        // Unreachable pairs add nothing to a sum, per the paper's
        // footnote 5; an isolated node's sum is 0.
        if sum > 0 {
            out[u as usize] = (n as f64 - 1.0) / sum as f64;
        }
    }
    out
}

/// Exact betweenness centrality of every node via Brandes' algorithm:
/// `b_u = Σ_{s ≠ t ≠ u} σ_{s,t}(u) / σ_{s,t}` (paper feature xvi).
///
/// Values are the undirected convention (each unordered `{s, t}` pair
/// counted once).
///
/// # Example
///
/// ```
/// use forumcast_graph::{betweenness, Graph};
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let b = betweenness(&g);
/// assert_eq!(b, vec![0.0, 1.0, 0.0]);
/// ```
pub fn betweenness(g: &Graph) -> Vec<f64> {
    betweenness_with_threads(g, forumcast_par::configured_threads())
}

/// [`betweenness`] with an explicit worker-thread count (`0` = auto).
/// Deterministic: see [`brandes`] for the reduction-tree argument.
pub fn betweenness_with_threads(g: &Graph, threads: usize) -> Vec<f64> {
    let _span = forumcast_obs::span("graph.betweenness");
    let n = g.num_nodes();
    let sources: Vec<u32> = (0..n as u32).collect();
    brandes(g, &sources, 1.0, threads)
}

/// Approximate betweenness using `num_pivots` random BFS sources,
/// scaled by `n / num_pivots` (Brandes–Pich pivot sampling). With
/// `num_pivots >= n` this equals [`betweenness`]. Deterministic given
/// `seed`.
///
/// This keeps the feature computation tractable on forum-scale graphs
/// (the paper's graphs have ~14K nodes).
pub fn betweenness_sampled(g: &Graph, num_pivots: usize, seed: u64) -> Vec<f64> {
    betweenness_sampled_with_threads(g, num_pivots, seed, forumcast_par::configured_threads())
}

/// [`betweenness_sampled`] with an explicit worker-thread count
/// (`0` = auto). The pivot set depends only on `seed`, and the
/// accumulation only on the pivot order, so the result is
/// bitwise-identical for any thread count.
pub fn betweenness_sampled_with_threads(
    g: &Graph,
    num_pivots: usize,
    seed: u64,
    threads: usize,
) -> Vec<f64> {
    let _span = forumcast_obs::span("graph.betweenness_sampled");
    let n = g.num_nodes();
    if num_pivots >= n {
        return betweenness_with_threads(g, threads);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nodes: Vec<u32> = (0..n as u32).collect();
    nodes.shuffle(&mut rng);
    nodes.truncate(num_pivots);
    let scale = n as f64 / num_pivots as f64;
    brandes(g, &nodes, scale, threads)
}

/// Brandes' accumulation from the given BFS sources; contributions are
/// multiplied by `scale`.
///
/// Parallel over sources via [`forumcast_par::parallel_chunk_fold`]:
/// sources are split into fixed-size chunks (independent of the
/// thread count), each chunk accumulates into its own partial `bc`
/// vector in source order, and partials merge in chunk order — so the
/// floating-point reduction tree, and therefore the bitwise result,
/// is identical whether 1 or N workers ran. Per-source state
/// ([`BrandesScratch`]: σ/δ/dist/flat predecessors) comes from a
/// shared [`ScratchPool`], so the source loop allocates nothing.
fn brandes(g: &Graph, sources: &[u32], scale: f64, threads: usize) -> Vec<f64> {
    let n = g.num_nodes();
    let threads = forumcast_par::resolve_threads(threads);
    let pool: ScratchPool<BrandesScratch> = ScratchPool::new();
    let mut bc = forumcast_par::parallel_chunk_fold(
        sources.len(),
        threads,
        |range| {
            let mut scratch = pool.acquire();
            let mut bc = vec![0.0f64; n];
            for &s in &sources[range] {
                scratch.accumulate(g, s, scale, &mut bc);
            }
            pool.release(scratch);
            bc
        },
        |partials| {
            let mut bc = vec![0.0f64; n];
            for partial in partials {
                for (b, p) in bc.iter_mut().zip(&partial) {
                    *b += p;
                }
            }
            bc
        },
    );
    forumcast_obs::counter_add(
        "graph.bfs.scratch_reuses",
        (sources.len().saturating_sub(pool.created())) as u64,
    );
    // Undirected graphs: each pair counted from both endpoints.
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Star with center 0 and 4 leaves.
    fn star() -> Graph {
        Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)])
    }

    #[test]
    fn star_center_betweenness_is_pairs_count() {
        let b = betweenness(&star());
        // 4 leaves → C(4,2) = 6 shortest paths all through the center.
        assert!((b[0] - 6.0).abs() < 1e-9);
        for leaf in &b[1..5] {
            assert!(leaf.abs() < 1e-9);
        }
    }

    #[test]
    fn path_betweenness_known_values() {
        // 0-1-2-3: b(1) = paths {0,2},{0,3} = 2; same for node 2.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = betweenness(&g);
        assert_eq!(b, vec![0.0, 2.0, 2.0, 0.0]);
    }

    #[test]
    fn cycle_betweenness_is_uniform() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let b = betweenness(&g);
        for v in 1..5 {
            assert!((b[v] - b[0]).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn betweenness_splits_among_equal_paths() {
        // Square 0-1-2-3-0: two shortest paths between opposite
        // corners; each intermediate carries 1/2 per opposite pair.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let b = betweenness(&g);
        for v in 0..4 {
            assert!((b[v] - 0.5).abs() < 1e-9, "{b:?}");
        }
    }

    #[test]
    fn closeness_star_values() {
        let l = closeness(&star());
        // Center: (5-1)/4 = 1.0. Leaf: (5-1)/(1 + 2*3) = 4/7.
        assert!((l[0] - 1.0).abs() < 1e-12);
        assert!((l[1] - 4.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn closeness_ignores_unreachable_pairs() {
        // Two components: edge (0,1) and isolated pair (2,3).
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let l = closeness(&g);
        // Paper formula: (n-1)/sum over reachable = 3/1 = 3.
        assert!((l[0] - 3.0).abs() < 1e-12);
        assert!((l[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn isolated_node_has_zero_centralities() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        assert_eq!(closeness(&g)[2], 0.0);
        assert_eq!(betweenness(&g)[2], 0.0);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        assert!(closeness(&Graph::new(0)).is_empty());
        assert_eq!(closeness(&Graph::new(1)), vec![0.0]);
        assert_eq!(betweenness(&Graph::new(1)), vec![0.0]);
    }

    #[test]
    fn sampled_with_all_pivots_equals_exact() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]);
        let exact = betweenness(&g);
        let sampled = betweenness_sampled(&g, 6, 42);
        for (a, b) in exact.iter().zip(&sampled) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sampled_approximates_exact_on_star() {
        let b = betweenness_sampled(&star(), 3, 7);
        // Center must still dominate.
        assert!(b[0] > b[1]);
    }

    /// A graph large enough that chunking and work-stealing actually
    /// engage (several [`forumcast_par::CHUNK_SIZE`] chunks).
    fn dense_test_graph() -> Graph {
        let n = 160;
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            edges.push((i, (i + 1) % n as u32)); // ring
            if i % 3 == 0 {
                edges.push((i, (i * 7 + 5) % n as u32)); // chords
            }
        }
        Graph::from_edges(n, &edges)
    }

    #[test]
    fn betweenness_bitwise_identical_across_thread_counts() {
        let g = dense_test_graph();
        let serial = betweenness_with_threads(&g, 1);
        for threads in [2, 7] {
            let par = betweenness_with_threads(&g, threads);
            assert_eq!(serial.len(), par.len());
            for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "node {i} differs with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn closeness_bitwise_identical_across_thread_counts() {
        let g = dense_test_graph();
        let serial = closeness_with_threads(&g, 1);
        for threads in [2, 7] {
            let par = closeness_with_threads(&g, threads);
            for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "node {i} differs with {threads} threads"
                );
            }
        }
    }

    #[test]
    fn sampled_betweenness_bitwise_identical_across_thread_counts() {
        let g = dense_test_graph();
        let serial = betweenness_sampled_with_threads(&g, 96, 42, 1);
        for threads in [2, 7] {
            let par = betweenness_sampled_with_threads(&g, 96, 42, threads);
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
