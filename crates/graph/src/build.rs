//! Constructing the SLN graphs `G_QA` and `G_D` from forum threads.

use forumcast_data::Thread;

use crate::graph::Graph;

/// Builds the **question–answer graph** `G_QA` over `num_users` users
/// from the given threads (a partition `Ω ⊆ Q`): `w_{u,v} = 1` iff one
/// of `u, v` asked a question in `Ω` and the other answered it
/// (paper Section II-B).
///
/// # Example
///
/// ```
/// use forumcast_data::{Post, PostBody, Thread, UserId};
/// use forumcast_graph::qa_graph;
/// let t = Thread::new(
///     0,
///     Post::new(UserId(0), 0.0, 0, PostBody::default()),
///     vec![
///         Post::new(UserId(1), 1.0, 0, PostBody::default()),
///         Post::new(UserId(2), 2.0, 0, PostBody::default()),
///     ],
/// );
/// let g = qa_graph(3, std::slice::from_ref(&t));
/// assert!(g.has_edge(0, 1) && g.has_edge(0, 2));
/// assert!(!g.has_edge(1, 2)); // answerers not linked in G_QA
/// ```
pub fn qa_graph(num_users: u32, threads: &[Thread]) -> Graph {
    let mut edges = Vec::new();
    for t in threads {
        let asker = t.asker().0;
        for a in &t.answers {
            edges.push((asker, a.author.0));
        }
    }
    Graph::from_edges(num_users as usize, &edges)
}

/// Builds the **denser graph** `G_D`: all participants of a thread
/// (asker and answerers) are pairwise connected,
/// `w_{u,v} = 1{∃q, i ≥ 0, j ≥ 0 : u(p_{q,i}) = u, u(p_{q,j}) = v}`.
///
/// # Example
///
/// ```
/// use forumcast_data::{Post, PostBody, Thread, UserId};
/// use forumcast_graph::dense_graph;
/// let t = Thread::new(
///     0,
///     Post::new(UserId(0), 0.0, 0, PostBody::default()),
///     vec![
///         Post::new(UserId(1), 1.0, 0, PostBody::default()),
///         Post::new(UserId(2), 2.0, 0, PostBody::default()),
///     ],
/// );
/// let g = dense_graph(3, std::slice::from_ref(&t));
/// assert!(g.has_edge(1, 2)); // co-answerers are linked in G_D
/// ```
pub fn dense_graph(num_users: u32, threads: &[Thread]) -> Graph {
    Graph::from_edges(num_users as usize, &participant_pairs(threads))
}

/// [`dense_graph`] plus the thread co-occurrence count of each of its
/// adjacency entries: how many threads both users took part in,
/// indexed by [`Graph::edge_index`].
pub fn dense_graph_counted(num_users: u32, threads: &[Thread]) -> (Graph, Vec<u32>) {
    Graph::from_edges_counted(num_users as usize, &participant_pairs(threads))
}

/// Every pair of distinct participants of each thread, once per thread.
fn participant_pairs(threads: &[Thread]) -> Vec<(u32, u32)> {
    let mut edges = Vec::new();
    for t in threads {
        let users = t.participants();
        for (i, &u) in users.iter().enumerate() {
            for &v in &users[i + 1..] {
                edges.push((u.0, v.0));
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_data::{Post, PostBody, UserId};

    fn post(u: u32, t: f64) -> Post {
        Post::new(UserId(u), t, 0, PostBody::default())
    }

    fn threads() -> Vec<Thread> {
        vec![
            // q0: asker 0; answerers 1, 2
            Thread::new(0, post(0, 0.0), vec![post(1, 1.0), post(2, 2.0)]),
            // q1: asker 2; answerer 3
            Thread::new(1, post(2, 3.0), vec![post(3, 4.0)]),
            // q2: asker 4; unanswered
            Thread::new(2, post(4, 5.0), vec![]),
        ]
    }

    #[test]
    fn qa_links_asker_to_each_answerer_only() {
        let g = qa_graph(5, &threads());
        assert!(g.has_edge(0, 1) && g.has_edge(0, 2) && g.has_edge(2, 3));
        assert!(!g.has_edge(1, 2));
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree(4), 0);
    }

    #[test]
    fn dense_links_all_thread_participants() {
        let g = dense_graph(5, &threads());
        assert!(g.has_edge(1, 2), "co-answerers linked");
        assert_eq!(g.num_edges(), 4);
    }

    #[test]
    fn dense_is_superset_of_qa() {
        let qa = qa_graph(5, &threads());
        let d = dense_graph(5, &threads());
        for (u, v) in qa.edges() {
            assert!(d.has_edge(u, v), "G_D must contain ({u},{v})");
        }
        assert!(d.average_degree() >= qa.average_degree());
    }

    #[test]
    fn self_answer_creates_no_edge() {
        let t = Thread::new(0, post(1, 0.0), vec![post(1, 1.0)]);
        let g = qa_graph(2, std::slice::from_ref(&t));
        assert_eq!(g.num_edges(), 0);
        let g = dense_graph(2, std::slice::from_ref(&t));
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn empty_threads_give_empty_graphs() {
        assert_eq!(qa_graph(3, &[]).num_edges(), 0);
        assert_eq!(dense_graph(3, &[]).num_edges(), 0);
    }
}
