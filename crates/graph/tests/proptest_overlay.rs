//! Property tests: every row of a base + delta overlay equals the row of a
//! graph rebuilt on the union of the ratings, bit for bit.

mod common;

use common::{graph, Rating};
use longtail_graph::{BipartiteGraph, Decayed, EdgeDelta, GraphView, OverlayGraph, RecencyDecay};
use proptest::prelude::*;

const N_USERS: usize = 6;
const N_ITEMS: usize = 8;

type Row = Vec<(usize, u64, u64)>;

/// A node's row as `(neighbor, weight bits, time bits)`, untimed and timed.
fn rows(view: &impl GraphView, node: usize) -> (Row, Row) {
    let mut untimed = Vec::new();
    view.for_each_edge(node, |nbr, w| untimed.push((nbr, w.to_bits(), 0)));
    let mut timed = Vec::new();
    view.for_each_edge_timed(node, |nbr, w, t| {
        timed.push((nbr, w.to_bits(), t.to_bits()))
    });
    (untimed, timed)
}

/// Every row of `base + delta`, bare and decayed, against the graph rebuilt
/// on the `union` of their ratings; and the touched bits against the delta
/// rows.
fn assert_overlay_matches_union(
    base: &BipartiteGraph,
    delta: &EdgeDelta,
    union: &[Rating],
    decay: RecencyDecay,
) -> Result<(), TestCaseError> {
    let overlay = OverlayGraph::new(base, delta);
    let rebuilt = graph(delta.n_users(), delta.n_items(), union, true);
    prop_assert_eq!(overlay.n_nodes(), rebuilt.n_nodes());
    for node in 0..overlay.n_nodes() {
        prop_assert_eq!(rows(&overlay, node), rows(&rebuilt, node), "node {}", node);
        prop_assert_eq!(
            rows(&Decayed::new(&overlay, decay), node),
            rows(&Decayed::new(&rebuilt, decay), node),
            "decayed node {}",
            node
        );
    }
    for u in 0..delta.n_users() as u32 + 2 {
        prop_assert_eq!(
            delta.touches_user(u),
            !delta.user_row(u).is_empty(),
            "user {}",
            u
        );
    }
    for i in 0..delta.n_items() as u32 + 2 {
        prop_assert_eq!(
            delta.touches_item(i),
            !delta.item_row(i).is_empty(),
            "item {}",
            i
        );
    }
    Ok(())
}

proptest! {
    /// Integer stars, so every weight sum is exact in any order. Repeated
    /// pairs in the base, re-rates of base pairs, repeats within the delta, new users and
    /// items past the base's dimensions; a timed or timestamp-less base;
    /// and a delta cloned half-way and extended, which must carry its rows
    /// and touched bits over.
    #[test]
    fn overlay_rows_equal_rows_rebuilt_on_the_union(
        base_ratings in prop::collection::vec(
            (0..N_USERS as u32, 0..N_ITEMS as u32, 1..6u32, 0..100u32),
            1..40,
        ),
        appends in prop::collection::vec((0..9u32, 0..12u32, 1..6u32, 0..150u32), 0..20),
        split in 0..20usize,
        timed in 0..2u32,
        half_life in 1.0f64..80.0,
    ) {
        let timed = timed == 1;
        let base = graph(N_USERS, N_ITEMS, &base_ratings, timed);
        let decay = RecencyDecay::new(half_life, 120.0);
        // A timestamp-less base reads as time 0 in the union.
        let mut union: Vec<Rating> = base_ratings
            .iter()
            .map(|&(u, i, w, t)| (u, i, w, if timed { t } else { 0 }))
            .collect();

        let split = split.min(appends.len());
        let mut delta = EdgeDelta::new(N_USERS, N_ITEMS);
        for &(u, i, w, t) in &appends[..split] {
            delta.insert(u, i, w as f64, t as f64);
        }
        union.extend_from_slice(&appends[..split]);
        assert_overlay_matches_union(&base, &delta, &union, decay)?;

        let mut extended = delta.clone();
        for &(u, i, w, t) in &appends[split..] {
            extended.insert(u, i, w as f64, t as f64);
        }
        union.extend_from_slice(&appends[split..]);
        assert_overlay_matches_union(&base, &extended, &union, decay)?;
    }
}
