//! Reusable per-thread scratch state for the BFS-based kernels.
//!
//! Betweenness runs one Brandes pass per source node, and closeness
//! one multi-source BFS pass per 64 source nodes. Allocating the
//! distance/σ/δ/predecessor buffers or the BFS masks per pass is the
//! dominant non-traversal cost on forum-scale graphs, so the kernels
//! draw scratch from a [`ScratchPool`] instead: a chunk of sources
//! acquires one scratch, runs every source through it, and releases it
//! for the next chunk. Resets are `O(visited)`, not `O(n)`: a per-node
//! *visit epoch stamp* marks which entries belong to the current run
//! ([`BfsScratch`], [`BrandesScratch`]), or a touched list names the
//! entries to clear (`MsBfsScratch`).
//!
//! The pool reports how often a scratch was reused (`sources −
//! scratches created`), surfaced by the kernels as the
//! `graph.bfs.scratch_reuses` obs counter — on an armed run this
//! equals the number of BFS sources minus the pool size, proving the
//! inner loops allocate nothing per source.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::graph::Graph;

/// Epoch-stamped BFS scratch: distances, the visit queue, and the
/// stamp array marking which `dist` entries are valid this run.
#[derive(Debug, Default)]
pub struct BfsScratch {
    dist: Vec<u32>,
    stamp: Vec<u32>,
    epoch: u32,
    /// Visited nodes in BFS order; doubles as the queue (breadth-first
    /// order is append-only, so a head cursor replaces a deque).
    queue: Vec<u32>,
}

impl BfsScratch {
    /// A fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        BfsScratch::default()
    }

    /// Sizes the buffers for an `n`-node graph and advances the
    /// epoch, wrapping safely (a wrap clears the stamps once).
    fn begin(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, 0);
            self.stamp.resize(n, 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.queue.clear();
    }

    /// Runs BFS from `source`, leaving distances and the visit order
    /// readable via [`dist`](Self::dist) / [`visited`](Self::visited).
    ///
    /// # Panics
    ///
    /// Panics when `source` is out of range.
    pub fn run(&mut self, g: &Graph, source: u32) {
        assert!(
            (source as usize) < g.num_nodes(),
            "source {source} out of range"
        );
        self.begin(g.num_nodes());
        self.stamp[source as usize] = self.epoch;
        self.dist[source as usize] = 0;
        self.queue.push(source);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let du = self.dist[u as usize];
            for &v in g.neighbors(u) {
                if self.stamp[v as usize] != self.epoch {
                    self.stamp[v as usize] = self.epoch;
                    self.dist[v as usize] = du + 1;
                    self.queue.push(v);
                }
            }
        }
    }

    /// Distance to `v` from the last [`run`](Self::run) source;
    /// `u32::MAX` when unreachable.
    pub fn dist(&self, v: u32) -> u32 {
        if self.stamp[v as usize] == self.epoch {
            self.dist[v as usize]
        } else {
            u32::MAX
        }
    }

    /// The nodes reached by the last run, in BFS order (source first).
    pub fn visited(&self) -> &[u32] {
        &self.queue
    }
}

/// Sources one [`MsBfsScratch`] pass advances together: one bit each
/// of a `u64` mask.
pub(crate) const MS_BFS_WIDTH: usize = 64;

/// Multi-source BFS scratch (Then et al., "The More the Merrier",
/// VLDB 2014): up to [`MS_BFS_WIDTH`] sources advance level by level
/// together, source `i` owning bit `i` of every per-node mask, so one
/// scan of a frontier node's neighbors serves every source whose
/// frontier holds it.
///
/// Every mask is zero between passes. A pass only ever visits nodes on
/// the active lists, and `touched` records each node whose `seen` mask
/// went nonzero, so a reset costs `O(reached)`, never `O(n)`.
#[derive(Debug, Default)]
pub(crate) struct MsBfsScratch {
    /// Sources that have reached each node.
    seen: Vec<u64>,
    /// Sources whose current BFS level holds each node.
    frontier: Vec<u64>,
    /// Sources that first reach each node at the next level.
    next: Vec<u64>,
    /// Nodes with a nonzero `frontier` mask.
    active: Vec<u32>,
    /// Nodes with a nonzero `next` mask.
    next_active: Vec<u32>,
    /// Nodes with a nonzero `seen` mask.
    touched: Vec<u32>,
}

impl MsBfsScratch {
    /// Runs BFS from every node of `sources` (at most
    /// [`MS_BFS_WIDTH`] of them) and returns, at index `i`, the sum of
    /// the distances from source `sources.start + i` to every node it
    /// reaches. Unreachable nodes add nothing; entries past the batch
    /// stay 0.
    ///
    /// # Panics
    ///
    /// Panics when the batch is wider than [`MS_BFS_WIDTH`] or runs
    /// past the graph.
    pub(crate) fn distance_sums(
        &mut self,
        g: &Graph,
        sources: std::ops::Range<usize>,
    ) -> [u64; MS_BFS_WIDTH] {
        let n = g.num_nodes();
        assert!(
            sources.len() <= MS_BFS_WIDTH && sources.end <= n,
            "source batch {sources:?} invalid for {n} nodes"
        );
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.frontier.resize(n, 0);
            self.next.resize(n, 0);
        }
        for (bit, s) in sources.enumerate() {
            self.seen[s] = 1 << bit;
            self.frontier[s] = 1 << bit;
            self.active.push(s as u32);
            self.touched.push(s as u32);
        }
        // Bit-sliced per-source counts of the nodes first reached at
        // the current level: bit `b` of `planes[j]` is bit `j` of
        // source `b`'s count. A level reaches fewer than `n ≤ 2^32`
        // nodes, so 32 planes never overflow.
        let mut planes = [0u64; 32];
        let mut sums = [0u64; MS_BFS_WIDTH];
        let mut level = 0u64;
        while !self.active.is_empty() {
            level += 1;
            for &u in &self.active {
                let f = std::mem::take(&mut self.frontier[u as usize]);
                for &v in g.neighbors(u) {
                    let new = f & !self.seen[v as usize];
                    if new != 0 {
                        let next = &mut self.next[v as usize];
                        if *next == 0 {
                            self.next_active.push(v);
                        }
                        *next |= new;
                    }
                }
            }
            self.active.clear();
            for &v in &self.next_active {
                let new = std::mem::take(&mut self.next[v as usize]);
                let seen = &mut self.seen[v as usize];
                if *seen == 0 {
                    self.touched.push(v);
                }
                *seen |= new;
                self.frontier[v as usize] = new;
                // Ripple-carry add of one to every counter in `new`.
                let mut carry = new;
                for plane in &mut planes {
                    if carry == 0 {
                        break;
                    }
                    let p = *plane;
                    *plane = p ^ carry;
                    carry &= p;
                }
            }
            for (j, plane) in planes.iter_mut().enumerate() {
                let mut bits = std::mem::take(plane);
                while bits != 0 {
                    sums[bits.trailing_zeros() as usize] += level << j;
                    bits &= bits - 1;
                }
            }
            std::mem::swap(&mut self.active, &mut self.next_active);
        }
        for &v in &self.touched {
            self.seen[v as usize] = 0;
        }
        self.touched.clear();
        sums
    }
}

/// Epoch-stamped scratch for one Brandes source pass: shortest-path
/// counts `σ`, dependencies `δ`, distances, the visit stack, and a
/// flat predecessor store laid out by the graph's CSR offsets (node
/// `w`'s predecessors are a prefix of its neighbor slot range), so a
/// pass performs no allocation at all.
#[derive(Debug, Default)]
pub struct BrandesScratch {
    sigma: Vec<f64>,
    dist: Vec<u32>,
    delta: Vec<f64>,
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    pred_buf: Vec<u32>,
    pred_count: Vec<u32>,
}

impl BrandesScratch {
    /// A fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        BrandesScratch::default()
    }

    fn begin(&mut self, g: &Graph) {
        let n = g.num_nodes();
        if self.sigma.len() < n {
            self.sigma.resize(n, 0.0);
            self.dist.resize(n, 0);
            self.delta.resize(n, 0.0);
            self.stamp.resize(n, 0);
            self.pred_count.resize(n, 0);
        }
        if self.pred_buf.len() < g.neighbors.len() {
            self.pred_buf.resize(g.neighbors.len(), 0);
        }
        if self.epoch == u32::MAX {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
    }

    /// Runs one Brandes source pass from `s`, adding each visited
    /// node's scaled dependency into `bc`. The floating-point
    /// operation order is identical to the historical per-source
    /// implementation, so accumulated results are bitwise unchanged.
    pub fn accumulate(&mut self, g: &Graph, s: u32, scale: f64, bc: &mut [f64]) {
        self.begin(g);
        let (epoch, s_us) = (self.epoch, s as usize);
        self.stamp[s_us] = epoch;
        self.sigma[s_us] = 1.0;
        self.dist[s_us] = 0;
        self.delta[s_us] = 0.0;
        self.pred_count[s_us] = 0;
        self.stack.push(s);
        let mut head = 0;
        while head < self.stack.len() {
            let v = self.stack[head];
            head += 1;
            let dv = self.dist[v as usize];
            for &w in g.neighbors(v) {
                let w_us = w as usize;
                if self.stamp[w_us] != epoch {
                    self.stamp[w_us] = epoch;
                    self.dist[w_us] = dv + 1;
                    self.sigma[w_us] = 0.0;
                    self.delta[w_us] = 0.0;
                    self.pred_count[w_us] = 0;
                    self.stack.push(w);
                }
                if self.dist[w_us] == dv + 1 {
                    self.sigma[w_us] += self.sigma[v as usize];
                    let slot = g.offsets[w_us] as usize + self.pred_count[w_us] as usize;
                    self.pred_buf[slot] = v;
                    self.pred_count[w_us] += 1;
                }
            }
        }
        for &w in self.stack.iter().rev() {
            let w_us = w as usize;
            let start = g.offsets[w_us] as usize;
            for i in 0..self.pred_count[w_us] as usize {
                let v = self.pred_buf[start + i] as usize;
                self.delta[v] += self.sigma[v] / self.sigma[w_us] * (1.0 + self.delta[w_us]);
            }
            if w != s {
                bc[w_us] += self.delta[w_us] * scale;
            }
        }
    }
}

/// A lock-guarded free list of scratch buffers shared by the parallel
/// kernels: each work chunk acquires one scratch (reusing a released
/// one when available), runs its sources, and releases it. Tracks how
/// many scratches were ever created so callers can report
/// `sources − created` as the reuse count.
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
    created: AtomicUsize,
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
            created: AtomicUsize::new(0),
        }
    }

    /// Pops a released scratch, or creates a fresh one.
    pub fn acquire(&self) -> T {
        let popped = self
            .free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop();
        popped.unwrap_or_else(|| {
            self.created.fetch_add(1, Ordering::Relaxed);
            T::default()
        })
    }

    /// Returns a scratch to the pool for the next chunk.
    pub fn release(&self, item: T) {
        self.free
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(item);
    }

    /// How many scratches this pool ever created.
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_bfs_runs_from_different_sources_are_correct() {
        // Path 0-1-2-3 plus isolated 4: the second run must not see
        // stale distances from the first.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
        let mut scratch = BfsScratch::new();
        scratch.run(&g, 0);
        assert_eq!(
            (0..5).map(|v| scratch.dist(v)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, u32::MAX]
        );
        scratch.run(&g, 3);
        assert_eq!(
            (0..5).map(|v| scratch.dist(v)).collect::<Vec<_>>(),
            vec![3, 2, 1, 0, u32::MAX]
        );
        assert_eq!(scratch.visited(), &[3, 2, 1, 0]);
        // A disconnected source only sees itself.
        scratch.run(&g, 4);
        assert_eq!(scratch.dist(4), 0);
        assert_eq!(scratch.dist(0), u32::MAX);
        assert_eq!(scratch.visited(), &[4]);
    }

    #[test]
    fn scratch_grows_to_larger_graphs() {
        let small = Graph::from_edges(2, &[(0, 1)]);
        let big = Graph::from_edges(6, &[(0, 5), (5, 3)]);
        let mut scratch = BfsScratch::new();
        scratch.run(&small, 1);
        assert_eq!(scratch.dist(0), 1);
        scratch.run(&big, 0);
        assert_eq!(scratch.dist(3), 2);
        assert_eq!(scratch.dist(4), u32::MAX);
    }

    #[test]
    fn epoch_wrap_clears_stamps() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let mut scratch = BfsScratch::new();
        scratch.run(&g, 0);
        scratch.epoch = u32::MAX; // force the wrap path
        scratch.run(&g, 1);
        assert_eq!(scratch.dist(0), 1);
        assert_eq!(scratch.dist(2), u32::MAX);
    }

    #[test]
    fn ms_bfs_sums_match_single_source_bfs_across_reused_batches() {
        // A 150-node path (149 hops, so levels outrun the 64-bit
        // width) plus a triangle and two isolated nodes, swept in
        // three batches through one scratch: no batch may see another
        // batch's masks.
        let mut edges: Vec<(u32, u32)> = (0..149).map(|i| (i, i + 1)).collect();
        edges.extend([(150, 151), (151, 152), (152, 150)]);
        let g = Graph::from_edges(155, &edges);
        let mut single = BfsScratch::new();
        let mut multi = MsBfsScratch::default();
        for batch in [0..64, 64..128, 128..155, 0..64] {
            let sums = multi.distance_sums(&g, batch.clone());
            for (i, s) in batch.clone().enumerate() {
                single.run(&g, s as u32);
                let want: u64 = single
                    .visited()
                    .iter()
                    .map(|&v| single.dist(v) as u64)
                    .sum();
                assert_eq!(sums[i], want, "source {s}");
            }
            assert!(sums[batch.len()..].iter().all(|&s| s == 0));
        }
        assert!(multi.seen.iter().chain(&multi.frontier).all(|&m| m == 0));
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn ms_bfs_rejects_a_batch_wider_than_a_word() {
        MsBfsScratch::default().distance_sums(&Graph::new(100), 0..65);
    }

    #[test]
    fn pool_reuses_released_scratch() {
        let pool: ScratchPool<BfsScratch> = ScratchPool::new();
        let a = pool.acquire();
        assert_eq!(pool.created(), 1);
        pool.release(a);
        let _b = pool.acquire();
        assert_eq!(pool.created(), 1, "released scratch must be reused");
        let _c = pool.acquire();
        assert_eq!(pool.created(), 2);
    }
}
