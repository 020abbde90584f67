//! Property tests: random-walk invariants on arbitrary bipartite graphs.

use longtail_graph::{Adjacency, BipartiteGraph, GraphView, SubgraphScratch};
use longtail_markov::{
    parity_chain_costs_into, personalized_pagerank, truncated_costs_into, AbsorbingWalk, CostModel,
    DpBuffers, DpProbe, EarlyExit, PageRankConfig, ParitySides, PerNodeCost, SliceCost, UnitCost,
};
use proptest::prelude::*;

const N_NODES: usize = 13;

fn ratings() -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
    prop::collection::vec((0..6u32, 0..7u32, 1.0f64..5.0), 1..40)
}

/// Build a connected-at-the-seed test fixture: the graph plus a node that is
/// guaranteed to have at least one edge.
fn graph_with_seed(ts: &[(u32, u32, f64)]) -> (Adjacency, usize) {
    let g = BipartiteGraph::from_ratings(6, 7, ts);
    let adj = Adjacency::from_bipartite(&g);
    let seed = g.user_node(ts[0].0);
    (adj, seed)
}

/// A view of the 6×7 test graph in which the nodes flagged in the `cut`
/// bitmask list no edges of their own while their neighbours still list
/// them: the induced kernel gets dangling rows that other rows point into,
/// so the checked sweep runs and the `∞` front spreads.
struct CutView<'a> {
    graph: &'a BipartiteGraph,
    cut: u32,
}

impl GraphView for CutView<'_> {
    fn n_users(&self) -> usize {
        self.graph.n_users()
    }

    fn n_items(&self) -> usize {
        self.graph.n_items()
    }

    fn for_each_edge(&self, node: usize, f: impl FnMut(usize, f64)) {
        if self.cut & (1 << node) == 0 {
            self.graph.for_each_edge(node, f);
        }
    }
}

/// The whole cut graph as one induced subgraph: every node seeded, so local
/// ids equal flat ids and the scratch records the user/item bipartition.
fn whole_graph_scratch(ts: &[(u32, u32, f64)], cut: u32) -> SubgraphScratch {
    let graph = BipartiteGraph::from_ratings(6, 7, ts);
    let all: Vec<usize> = (0..N_NODES).collect();
    let mut scratch = SubgraphScratch::new();
    scratch.grow(&CutView { graph: &graph, cut }, &all, usize::MAX);
    scratch
}

/// Absorbing flags from a bitmask.
fn absorbing_flags(mask: u32) -> Vec<bool> {
    (0..N_NODES).map(|i| mask & (1 << i) != 0).collect()
}

/// The two orientations of the scratch's bipartition: items as the target
/// side (the serving case), then users.
fn orientations(scratch: &SubgraphScratch) -> [ParitySides<'_>; 2] {
    [
        ParitySides {
            target: scratch.item_rows(),
            other: scratch.user_rows(),
        },
        ParitySides {
            target: scratch.user_rows(),
            other: scratch.item_rows(),
        },
    ]
}

/// Run the item-side chain under a never-stopping probe, once with unit
/// costs and once with `costs`, and report the first unsound thing a probe
/// saw: a target value past its fixed-τ value plus `global_bound` (any
/// non-negative cost) or `node_bound` (unit cost), above its fixed-τ value,
/// or finite while it is `∞` at τ (the `∞` front was still spreading).
fn probe_bound_violation(
    scratch: &SubgraphScratch,
    absorbing: &[bool],
    costs: &[f64],
    tau: usize,
) -> Option<String> {
    let kernel = scratch.kernel();
    let sides = orientations(scratch)[0];
    let slice_cost = SliceCost(costs);
    let mut failure: Option<String> = None;
    for (cost, per_node) in [(&UnitCost as &dyn CostModel, true), (&slice_cost, false)] {
        let mut full = DpBuffers::new();
        let exact = truncated_costs_into(kernel, absorbing, cost, tau, &mut full).to_vec();
        let mut probe = |p: &DpProbe<'_>| -> bool {
            let bound = p.global_bound();
            for &i in sides.target {
                let i = i as usize;
                let (v, e) = (p.values[i], exact[i]);
                if !v.is_finite() {
                    continue;
                }
                let slack = 1e-9 * (1.0 + e.abs());
                let node = p.node_bound(i);
                let broken = if !e.is_finite() {
                    Some("finite value turned ∞ after a finite δ2")
                } else if v > e + slack {
                    Some("value above its fixed-τ counterpart")
                } else if e > v + bound + slack {
                    Some("global bound exceeded")
                } else if per_node && e > v + node + slack {
                    Some("per-node bound exceeded")
                } else {
                    None
                };
                if let Some(what) = broken {
                    failure.get_or_insert(format!(
                        "node {i}: {what}: v {v} final {e} bound {bound} node {node}"
                    ));
                }
            }
            false
        };
        let exit = EarlyExit {
            epsilon: -1.0,
            probe: Some(&mut probe),
            cancel: None,
        };
        let mut bufs = DpBuffers::new();
        parity_chain_costs_into(kernel, sides, absorbing, cost, tau, Some(exit), &mut bufs);
    }
    failure
}

/// The random 6×7 graphs are too small for the `∞` front to still be
/// spreading when the probe starts (iteration 6), so pin that case on a
/// path: i0–u0–i1–u1–…–u5–i6 with u2 absorbing and i6 dangling. The front
/// walks from i6 towards u2 one node per iteration and closes at iteration
/// 7; a probe consulted before that would see i3 finite although it is `∞`
/// at τ.
#[test]
fn probe_waits_for_the_infinity_front_to_close() {
    let path: Vec<(u32, u32, f64)> = (0..6)
        .flat_map(|u| [(u, u, 1.0), (u, u + 1, 2.0)])
        .collect();
    let cut = 1 << 12; // flat id of item 6
    let scratch = whole_graph_scratch(&path, cut);
    let mut absorbing = vec![false; N_NODES];
    absorbing[2] = true; // user 2
    let costs: Vec<f64> = (0..N_NODES).map(|i| 0.5 + i as f64 / 4.0).collect();
    for tau in 6..40 {
        let failure = probe_bound_violation(&scratch, &absorbing, &costs, tau);
        assert!(
            failure.is_none(),
            "τ {tau}: {}",
            failure.unwrap_or_default()
        );
    }
}

proptest! {
    /// The chain computes each target-side value with exactly the full
    /// sweep's arithmetic, for fixed and exact-fixed-point-stopped runs.
    #[test]
    fn parity_chain_target_side_is_bit_identical_to_full_sweep(
        ts in ratings(),
        absorbing in 0..(1u32 << N_NODES),
        cut in 0..(1u32 << N_NODES),
        costs in prop::collection::vec(0.0f64..3.0, N_NODES),
        tau in 0..40usize,
    ) {
        let scratch = whole_graph_scratch(&ts, cut);
        let kernel = scratch.kernel();
        let absorbing = absorbing_flags(absorbing);
        let slice_cost = SliceCost(&costs);
        for sides in orientations(&scratch) {
            for cost in [&UnitCost as &dyn CostModel, &slice_cost] {
                for exit in [false, true] {
                    let exit = exit.then_some(EarlyExit { epsilon: -1.0, probe: None, cancel: None });
                    let mut chain = DpBuffers::new();
                    let run = parity_chain_costs_into(
                        kernel, sides, &absorbing, cost, tau, exit, &mut chain,
                    );
                    let mut full = DpBuffers::new();
                    let reference =
                        truncated_costs_into(kernel, &absorbing, cost, run.iterations, &mut full);
                    for &i in sides.target {
                        let (got, want) = (chain.values()[i as usize], reference[i as usize]);
                        prop_assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "τ {} run {:?} node {}: {} vs {}", tau, run, i, got, want
                        );
                    }
                }
            }
        }
    }

    /// Every probe sees sound two-step bounds (see `probe_bound_violation`).
    #[test]
    fn parity_chain_probe_bounds_are_sound(
        ts in ratings(),
        absorbing in 0..(1u32 << N_NODES),
        cut in 0..(1u32 << N_NODES),
        costs in prop::collection::vec(0.0f64..3.0, N_NODES),
        tau in 6..60usize,
    ) {
        let scratch = whole_graph_scratch(&ts, cut);
        let failure = probe_bound_violation(&scratch, &absorbing_flags(absorbing), &costs, tau);
        prop_assert!(failure.is_none(), "τ {}: {}", tau, failure.unwrap_or_default());
    }

    #[test]
    fn truncated_times_monotone_in_tau(ts in ratings()) {
        let (adj, seed) = graph_with_seed(&ts);
        let walk = AbsorbingWalk::new(&adj, &[seed]);
        let t1 = walk.truncated_times(5);
        let t2 = walk.truncated_times(10);
        for i in 0..adj.n_nodes() {
            if t1[i].is_finite() && t2[i].is_finite() {
                prop_assert!(t1[i] <= t2[i] + 1e-9, "node {i}: {} > {}", t1[i], t2[i]);
            }
        }
    }

    #[test]
    fn truncated_bounded_by_exact(ts in ratings()) {
        let (adj, seed) = graph_with_seed(&ts);
        let walk = AbsorbingWalk::new(&adj, &[seed]);
        if let Ok(exact) = walk.exact_times() {
            let approx = walk.truncated_times(50);
            for i in 0..adj.n_nodes() {
                if exact[i].is_finite() {
                    // The truncated DP approaches the exact value from below.
                    prop_assert!(approx[i] <= exact[i] + 1e-6, "node {i}");
                }
            }
        }
    }

    #[test]
    fn absorbing_nodes_always_zero(ts in ratings(), extra in 0..13usize) {
        let g = BipartiteGraph::from_ratings(6, 7, &ts);
        let adj = Adjacency::from_bipartite(&g);
        let seeds = [g.user_node(ts[0].0), extra % adj.n_nodes()];
        let walk = AbsorbingWalk::new(&adj, &seeds);
        let t = walk.truncated_times(20);
        for &s in &seeds {
            prop_assert_eq!(t[s], 0.0);
        }
    }

    #[test]
    fn costs_scale_linearly(ts in ratings(), scale in 0.5f64..4.0) {
        let (adj, seed) = graph_with_seed(&ts);
        let walk = AbsorbingWalk::new(&adj, &[seed]);
        let base = walk.truncated_times(25);
        let cost = PerNodeCost::new(vec![scale; adj.n_nodes()]);
        let scaled = walk.truncated_costs(&cost, 25);
        for i in 0..adj.n_nodes() {
            if base[i].is_finite() {
                prop_assert!((scaled[i] - scale * base[i]).abs() < 1e-6 * (1.0 + base[i]));
            }
        }
    }

    #[test]
    fn pagerank_is_a_distribution(ts in ratings()) {
        let (adj, seed) = graph_with_seed(&ts);
        let rank = personalized_pagerank(&adj, &[seed], &PageRankConfig::default());
        prop_assert!(rank.iter().all(|&r| r >= -1e-12));
        let sum: f64 = rank.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {sum}");
    }

    #[test]
    fn pagerank_mass_concentrates_with_damping(ts in ratings()) {
        let (adj, seed) = graph_with_seed(&ts);
        let tight = personalized_pagerank(&adj, &[seed], &PageRankConfig {
            damping: 0.2,
            ..PageRankConfig::default()
        });
        let loose = personalized_pagerank(&adj, &[seed], &PageRankConfig {
            damping: 0.9,
            ..PageRankConfig::default()
        });
        // Lower damping keeps more mass at the teleport node.
        prop_assert!(tight[seed] >= loose[seed] - 1e-9);
    }
}
