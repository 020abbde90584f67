//! Property tests: BFS subgraph extraction invariants.

mod common;

use longtail_graph::{
    BipartiteGraph, Decayed, EdgeDelta, GraphView, OverlayGraph, RecencyDecay, SubgraphScratch,
};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

fn ratings() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..8u32, 0..10u32, 1.0f64..5.0), 1..50)
}

proptest! {
    #[test]
    fn mapping_is_a_bijection(ts in ratings(), seed in 0..8u32, budget in 0..12usize) {
        let g = BipartiteGraph::from_ratings(8, 10, &ts);
        let mut s = SubgraphScratch::new();
        s.grow(&g, &[seed as usize], budget);
        // local -> global -> local round-trips.
        for (local, &global) in s.global_ids().iter().enumerate() {
            prop_assert_eq!(s.local_id(global), Some(local as u32));
        }
        // Globals outside the subgraph have no local id.
        let retained: std::collections::HashSet<usize> = s.global_ids().iter().copied().collect();
        for global in 0..g.n_nodes() {
            if !retained.contains(&global) {
                prop_assert_eq!(s.local_id(global), None);
            }
        }
    }

    #[test]
    fn unlimited_budget_covers_component(ts in ratings(), seed in 0..8u32) {
        let g = BipartiteGraph::from_ratings(8, 10, &ts);
        let mut s = SubgraphScratch::new();
        s.grow(&g, &[seed as usize], usize::MAX);
        // The whole component is retained, so no edge is cut and every
        // local degree matches the global graph.
        for (local, &global) in s.global_ids().iter().enumerate() {
            prop_assert!((s.kernel().degree(local) - g.degree(global)).abs() < 1e-9);
        }
    }

    #[test]
    fn item_count_respects_budget_plus_frontier(ts in ratings(), seed in 0..8u32, budget in 0..10usize) {
        let g = BipartiteGraph::from_ratings(8, 10, &ts);
        let mut s = SubgraphScratch::new();
        s.grow(&g, &[seed as usize], budget);
        // The budget can be overshot only by the frontier of a single node
        // expansion (a user's whole rating list), never by more.
        let max_activity = (0..8u32).map(|u| g.user_activity(u)).max().unwrap_or(0);
        prop_assert!(s.n_items() <= budget + max_activity + 1);
    }
}

/// The induced kernel of a BFS subgraph, built by the definition: a plain
/// queue BFS with the same budget rule, then per node the member neighbors
/// in view order, their weights summed left to right and divided by the sum.
struct ReferenceKernel {
    global_ids: Vec<usize>,
    rows: Vec<(Vec<u32>, Vec<f64>)>,
    degrees: Vec<f64>,
}

fn reference_kernel<G: GraphView>(g: &G, seeds: &[usize], max_items: usize) -> ReferenceKernel {
    let mut local: HashMap<usize, u32> = HashMap::new();
    let mut global_ids = Vec::new();
    let mut queue = VecDeque::new();
    let mut pending = seeds.to_vec();
    loop {
        for node in pending.drain(..) {
            if let Entry::Vacant(slot) = local.entry(node) {
                slot.insert(global_ids.len() as u32);
                global_ids.push(node);
                queue.push_back(node);
            }
        }
        let n_items = global_ids.iter().filter(|&&n| g.is_item_node(n)).count();
        if n_items > max_items {
            break;
        }
        let Some(node) = queue.pop_front() else {
            break;
        };
        g.for_each_edge(node, |nbr, _| pending.push(nbr));
    }
    let mut rows = Vec::new();
    let mut degrees = Vec::new();
    for &global in &global_ids {
        let mut cols = Vec::new();
        let mut probs = Vec::new();
        g.for_each_edge(global, |nbr, w| {
            if let Some(&l) = local.get(&nbr) {
                cols.push(l);
                probs.push(w);
            }
        });
        let mut d = 0.0;
        for &w in &probs {
            d += w;
        }
        if d > 0.0 {
            for p in &mut probs {
                *p /= d;
            }
        }
        rows.push((cols, probs));
        degrees.push(d);
    }
    ReferenceKernel {
        global_ids,
        rows,
        degrees,
    }
}

/// Grow through `scratch` and compare with the reference by `to_bits`.
fn assert_kernel_bit_identical<G: GraphView>(
    scratch: &mut SubgraphScratch,
    g: &G,
    seeds: &[usize],
    max_items: usize,
) -> Result<(), TestCaseError> {
    scratch.grow(g, seeds, max_items);
    let reference = reference_kernel(g, seeds, max_items);
    prop_assert_eq!(scratch.global_ids(), &reference.global_ids[..]);
    let kernel = scratch.kernel();
    prop_assert_eq!(kernel.n_nodes(), reference.global_ids.len());
    let mut nnz = 0;
    for (i, (cols, probs)) in reference.rows.iter().enumerate() {
        let (got_cols, got_probs) = kernel.row(i);
        prop_assert_eq!(got_cols, &cols[..], "row {} targets", i);
        let bits = |ps: &[f64]| ps.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(got_probs), bits(probs), "row {} probabilities", i);
        prop_assert_eq!(
            kernel.degree(i).to_bits(),
            reference.degrees[i].to_bits(),
            "row {} degree",
            i
        );
        nnz += cols.len();
    }
    // nnz is the row lengths summed: no entries left over from an earlier query.
    prop_assert_eq!(kernel.nnz(), nnz);
    Ok(())
}

proptest! {
    /// `SubgraphScratch::grow` builds exactly the by-definition kernel —
    /// same members in the same order, same rows in view order, every
    /// probability and degree bit-identical — over the base graph, a delta
    /// overlay and decayed views of both, with one scratch reused across a
    /// large query and then smaller ones.
    #[test]
    fn scratch_kernel_is_bit_identical_to_the_definition(
        base in prop::collection::vec((0..6u32, 0..8u32, 1..6u32, 0..100u32), 1..40),
        appends in prop::collection::vec((0..8u32, 0..11u32, 1..6u32, 0..120u32), 0..12),
        queries in prop::collection::vec((0..1000usize, 0..1000usize, 0..14usize), 1..5),
        half_life in 1.0f64..50.0,
    ) {
        let g = common::graph(6, 8, &base, true);
        let mut delta = EdgeDelta::new(6, 8);
        for &(u, i, w, t) in &appends {
            delta.insert(u, i, w as f64, t as f64);
        }
        let overlay = OverlayGraph::new(&g, &delta);
        let decay = RecencyDecay::new(half_life, 100.0);
        let decayed_base = Decayed::new(&g, decay);
        let decayed_overlay = Decayed::new(&overlay, decay);

        let mut scratch = SubgraphScratch::new();
        // Largest query first, so later ones reuse buffers longer than they need.
        let mut runs = vec![(0usize, 0usize, usize::MAX)];
        runs.extend(queries.iter().map(|&(a, b, budget)| {
            (a, b, if budget == 13 { usize::MAX } else { budget })
        }));
        for (a, b, budget) in runs {
            let seeds = |n: usize| [a % n, b % n];
            assert_kernel_bit_identical(&mut scratch, &g, &seeds(g.n_nodes()), budget)?;
            assert_kernel_bit_identical(&mut scratch, &overlay, &seeds(overlay.n_nodes()), budget)?;
            assert_kernel_bit_identical(&mut scratch, &decayed_base, &seeds(g.n_nodes()), budget)?;
            assert_kernel_bit_identical(
                &mut scratch,
                &decayed_overlay,
                &seeds(overlay.n_nodes()),
                budget,
            )?;
            // One-seed query with budget 0: the smallest kernel after a big one.
            assert_kernel_bit_identical(&mut scratch, &overlay, &seeds(overlay.n_nodes())[..1], 0)?;
        }
    }
}
