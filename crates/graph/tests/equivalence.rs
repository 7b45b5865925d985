//! CSR-vs-adjacency-list equivalence: the CSR [`Graph`] plus scratch
//! kernels must reproduce, bit for bit, what the original
//! `Vec<Vec<u32>>` adjacency-list implementations computed. The
//! reference implementations below are faithful ports of the pre-CSR
//! kernels (fresh per-source allocations, `VecDeque` BFS, per-node
//! predecessor vectors); the floating-point operation order is the
//! contract, so the comparisons are on bits, not epsilons.
//!
//! Betweenness graphs stay under one parallel chunk (`CHUNK_SIZE` =
//! 64 sources) so the serial reference and the chunk-merged production
//! kernel share one FP reduction order. Closeness has no such limit:
//! each source's distance sum is an exact integer, so the production
//! kernel, which batches 64 sources per multi-source BFS pass, is
//! compared bitwise on graphs spanning several 64-source words.

use std::collections::VecDeque;

use proptest::prelude::*;

use forumcast_graph::{betweenness_with_threads, bfs_distances, closeness_with_threads, Graph};

/// Sorted, deduped adjacency lists — the old storage layout.
fn adjacency(g: &Graph) -> Vec<Vec<u32>> {
    (0..g.num_nodes() as u32)
        .map(|u| g.neighbors(u).to_vec())
        .collect()
}

fn ref_bfs(adj: &[Vec<u32>], source: u32) -> Vec<u32> {
    let mut dist = vec![u32::MAX; adj.len()];
    dist[source as usize] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u as usize];
        for &v in &adj[u as usize] {
            if dist[v as usize] == u32::MAX {
                dist[v as usize] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

fn ref_closeness(adj: &[Vec<u32>]) -> Vec<f64> {
    let n = adj.len();
    if n <= 1 {
        return vec![0.0; n];
    }
    (0..n as u32)
        .map(|u| {
            let dist = ref_bfs(adj, u);
            let sum: u64 = dist
                .iter()
                .enumerate()
                .filter(|&(v, &d)| v != u as usize && d != u32::MAX)
                .map(|(_, &d)| d as u64)
                .sum();
            if sum > 0 {
                (n as f64 - 1.0) / sum as f64
            } else {
                0.0
            }
        })
        .collect()
}

fn ref_betweenness(adj: &[Vec<u32>]) -> Vec<f64> {
    let n = adj.len();
    let mut bc = vec![0.0f64; n];
    for s in 0..n as u32 {
        let mut sigma = vec![0.0f64; n];
        let mut dist = vec![i64::MAX; n];
        let mut delta = vec![0.0f64; n];
        let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
        sigma[s as usize] = 1.0;
        dist[s as usize] = 0;
        let mut stack: Vec<u32> = Vec::new();
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            stack.push(v);
            let dv = dist[v as usize];
            for &w in &adj[v as usize] {
                if dist[w as usize] == i64::MAX {
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
                if dist[w as usize] == dv + 1 {
                    sigma[w as usize] += sigma[v as usize];
                    preds[w as usize].push(v);
                }
            }
        }
        while let Some(w) = stack.pop() {
            for &v in &preds[w as usize] {
                delta[v as usize] +=
                    sigma[v as usize] / sigma[w as usize] * (1.0 + delta[w as usize]);
            }
            if w != s {
                bc[w as usize] += delta[w as usize] * 1.0;
            }
        }
    }
    for b in &mut bc {
        *b /= 2.0;
    }
    bc
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..80)
            .prop_map(move |edges| Graph::from_edges(n, &edges))
    })
}

/// Graphs of up to 300 nodes, half of them sized at a 64-source word
/// boundary, with 0 to 1.5 edges per node: sparse draws leave isolated
/// nodes and many components.
fn arb_multiword_graph() -> impl Strategy<Value = Graph> {
    const BOUNDARIES: [usize; 6] = [63, 64, 65, 128, 129, 300];
    (0..2 * BOUNDARIES.len(), 2usize..300)
        .prop_map(|(k, n)| BOUNDARIES.get(k).copied().unwrap_or(n))
        .prop_flat_map(|n| {
            proptest::collection::vec((0..n as u32, 0..n as u32), 0..n * 3 / 2)
                .prop_map(move |edges| Graph::from_edges(n, &edges))
        })
}

/// 300 nodes: a 199-hop path, a ring with chords, a star, and ten
/// isolated nodes.
fn long_path_and_components() -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..199).map(|i| (i, i + 1)).collect();
    for i in 200..250 {
        edges.push((i, if i == 249 { 200 } else { i + 1 }));
        if i % 3 == 0 {
            edges.push((i, 200 + (i * 7 + 5) % 50));
        }
    }
    edges.extend((251..290).map(|leaf| (250, leaf)));
    Graph::from_edges(300, &edges)
}

#[test]
fn closeness_on_long_paths_and_components_matches_reference_at_1_2_7_threads() {
    let g = long_path_and_components();
    let want = bits(&ref_closeness(&adjacency(&g)));
    for threads in [1, 2, 7] {
        assert_eq!(
            bits(&closeness_with_threads(&g, threads)),
            want,
            "{threads} threads"
        );
    }
}

proptest! {
    #[test]
    fn closeness_spanning_several_words_matches_reference_bitwise(g in arb_multiword_graph()) {
        let adj = adjacency(&g);
        prop_assert_eq!(bits(&closeness_with_threads(&g, 1)), bits(&ref_closeness(&adj)));
    }

    #[test]
    fn bfs_matches_adjacency_list_reference(g in arb_graph()) {
        let adj = adjacency(&g);
        for s in 0..g.num_nodes() as u32 {
            prop_assert_eq!(bfs_distances(&g, s), ref_bfs(&adj, s), "source {}", s);
        }
    }

    #[test]
    fn closeness_matches_adjacency_list_reference_bitwise(g in arb_graph()) {
        let adj = adjacency(&g);
        prop_assert_eq!(bits(&closeness_with_threads(&g, 1)), bits(&ref_closeness(&adj)));
    }

    #[test]
    fn betweenness_matches_adjacency_list_reference_bitwise(g in arb_graph()) {
        let adj = adjacency(&g);
        prop_assert_eq!(bits(&betweenness_with_threads(&g, 1)), bits(&ref_betweenness(&adj)));
    }
}
