//! Social Learning Network (SLN) graph substrate for `forumcast`.
//!
//! The paper (Sections II-B, III-A) infers two undirected graphs over
//! forum users from thread co-participation:
//!
//! * **`G_QA`** — the question–answer graph: asker `u` is linked to
//!   every answerer `v` of their question;
//! * **`G_D`** — the denser graph: all participants of a thread
//!   (asker *and* answerers) are pairwise linked.
//!
//! Four of the paper's social features are centralities/indices over
//! these graphs: closeness (xv, xviii), betweenness (xvi, xix), and
//! the resource-allocation index (xvii, xx).
//!
//! This crate provides the graph representation ([`Graph`]), SLN
//! construction from a dataset ([`build::qa_graph`],
//! [`build::dense_graph`]), BFS distances, exact and pivot-sampled
//! Brandes betweenness, the paper's closeness variant, the
//! resource-allocation index, and component/degree statistics
//! (Figure 2 reproduces from [`stats::GraphStats`]).
//!
//! # Example
//!
//! ```
//! use forumcast_graph::Graph;
//!
//! // A path 0 - 1 - 2: node 1 is the broker.
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
//! let bc = forumcast_graph::betweenness(&g);
//! assert!(bc[1] > bc[0]);
//! let cc = forumcast_graph::closeness(&g);
//! assert!(cc[1] > cc[0]);
//! ```

pub mod bfs;
pub mod build;
pub mod centrality;
pub mod graph;
pub mod ra;
pub mod scratch;
pub mod stats;

pub use bfs::bfs_distances;
pub use build::{dense_graph, qa_graph};
pub use centrality::{
    betweenness, betweenness_sampled, betweenness_sampled_with_threads, betweenness_with_threads,
    closeness, closeness_with_threads,
};
pub use graph::Graph;
pub use ra::resource_allocation;
pub use scratch::{BfsScratch, BrandesScratch, ScratchPool};
pub use stats::GraphStats;
