//! Counter-exactness tests for the graph instrumentation: the
//! scratch-reuse counter must equal the number of BFS sources minus
//! the number of scratches the pool created — the proof that the
//! centrality inner loops perform no per-source allocation.

use forumcast_graph::{betweenness_with_threads, closeness_with_threads, Graph};

fn ring_with_chords(n: usize) -> Graph {
    let mut edges = Vec::new();
    for i in 0..n as u32 {
        edges.push((i, (i + 1) % n as u32));
        if i % 3 == 0 {
            edges.push((i, (i * 7 + 5) % n as u32));
        }
    }
    Graph::from_edges(n, &edges)
}

fn counter(log: &forumcast_obs::TraceLog, name: &str) -> u64 {
    log.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn betweenness_serial_reuses_one_scratch_for_all_sources() {
    let g = ring_with_chords(160);
    let guard = forumcast_obs::arm();
    let _ = betweenness_with_threads(&g, 1);
    let log = forumcast_obs::drain().expect("collector armed");
    drop(guard);
    // One worker drains every chunk with the same pooled scratch:
    // 160 sources, pool of 1 → 159 reuses.
    assert_eq!(counter(&log, "graph.bfs.scratch_reuses"), 159);
}

#[test]
fn closeness_reuse_counter_is_sources_minus_pool_size() {
    let g = ring_with_chords(160);
    for threads in [1usize, 4] {
        let guard = forumcast_obs::arm();
        let _ = closeness_with_threads(&g, threads);
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        let reuses = counter(&log, "graph.bfs.scratch_reuses");
        // The pool never creates more scratches than workers (160
        // nodes / CHUNK_SIZE 64 = 3 chunks), and always at least one.
        assert!(
            (0..160).contains(&reuses),
            "reuses {reuses} out of range for 160 sources"
        );
        if threads == 1 {
            assert_eq!(reuses, 159, "serial run must reuse a single scratch");
        } else {
            assert!(reuses >= 160 - 3, "at most one scratch per chunk stream");
        }
    }
}
