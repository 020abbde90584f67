//! Graph builders shared by the property tests.

use longtail_graph::{BipartiteGraph, CsrMatrix};

/// A rating as `(user, item, stars, timestamp)`.
pub type Rating = (u32, u32, u32, u32);

/// A graph built from scratch on `ratings`: a repeated `(user, item)` pair
/// sums its weights and keeps its latest timestamp (if `timed`).
pub fn graph(n_users: usize, n_items: usize, ratings: &[Rating], timed: bool) -> BipartiteGraph {
    let weights: Vec<_> = ratings
        .iter()
        .map(|&(u, i, w, _)| (u, i, w as f64))
        .collect();
    let times: Vec<_> = ratings
        .iter()
        .map(|&(u, i, _, t)| (u, i, t as f64))
        .collect();
    BipartiteGraph::from_user_item_matrix_with_times(
        CsrMatrix::from_triplets(n_users, n_items, &weights),
        timed.then(|| CsrMatrix::from_triplets_with(n_users, n_items, &times, f64::max)),
    )
}
