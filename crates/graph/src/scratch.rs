//! BFS subgraph extraction for the query hot path (Algorithm 1, step 2).
//!
//! Computing absorbing times on the global graph is `O(τ·m)` per query and
//! the global graph can be huge, so the paper first grows a subgraph around
//! the query's absorbing set by breadth-first search, stopping once the
//! subgraph holds more than `µ` *item* nodes, and runs the walk on the
//! induced kernel. All quality metrics in Table 4 stabilize for µ around
//! 3k–6k while the cost keeps growing with µ, which is the trade-off the
//! item budget exposes.
//!
//! # BFS and budget semantics
//!
//! The seeds are admitted first, in the order given (duplicates once), and
//! always, whatever the budget. Then nodes are expanded in admission order:
//! expanding a node admits each of its unseen neighbors in the view's
//! neighbor order. Before each expansion the item count is checked; once
//! more than `max_items` item nodes are in, expansion stops and the
//! frontier (admitted but unexpanded nodes) is kept as is, so past the
//! seeds the budget is overshot by at most one node's neighborhood. Local
//! ids are
//! admission order, and the induced kernel keeps exactly the edges whose
//! endpoints are both members, each row renormalized by its induced degree
//! (a row with no member neighbor stays empty, with degree 0).
//!
//! # Reused buffers
//!
//! The global→local map is one epoch-stamped mark array allocated once per
//! context and *never cleared* (a node is a member iff its stamp equals the
//! current epoch), and every other buffer — local id list, side lists,
//! induced transition kernel — is rebuilt in place, retaining capacity
//! across queries, so a query makes no `O(n_nodes)` allocation.
//!
//! # No queue
//!
//! A BFS queue holds exactly the admitted nodes, in admission order — which
//! is what the local id list `global_of_local` already is. `grow` therefore
//! keeps no queue: a head index walks `global_of_local` while expansion
//! appends to it.
//!
//! # Branch-free kernel build
//!
//! Most of the kernel build's edges come from frontier rows — nodes admitted
//! but never expanded, whose neighbors are members or not with no pattern a
//! branch predictor can learn. So the row filter does not branch on
//! membership: every neighbor's `(local id, weight)` is written at a cursor
//! that advances by `(stamp == epoch) as usize`, so a non-member's entry is
//! overwritten by the next neighbor. The kept slice is then summed left to
//! right from `0.0` and divided by that sum — the same additions and the
//! same divisions, in the same order, as the branchy filter, so every
//! probability and degree is bit-identical to it. The cursor may write one
//! row's worth of non-members past the kept entries, so the buffers grow by
//! a fixed step whenever the cursor reaches their end (never zero-filled to
//! capacity) and are truncated to the kept entries once the build is done.
//!
//! Kernel rows keep the *view's* neighbor order (ascending global id)
//! instead of re-sorting by local id; the dynamic programs are
//! order-independent up to the last-ulp rounding of row sums.
//!
//! `grow` also records each side of the bipartition as it admits nodes — the
//! local ids of the user rows and of the item rows, each in admission order
//! — so the walk DP can sweep one side at a time without a pass over the
//! node list.

use crate::transition::TransitionMatrix;
use crate::view::GraphView;

/// Entries the kernel's target and probability buffers grow by when the
/// build cursor reaches their end.
const KERNEL_GROW_STEP: usize = 8192;

/// Epoch stamp and local id of one global node, packed together so a
/// membership probe touches a single cache line.
#[derive(Debug, Clone, Copy, Default)]
struct Mark {
    stamp: u64,
    local: u32,
}

/// Reusable buffers for BFS subgraph extraction and induced-kernel
/// construction (Algorithm 1, step 2).
///
/// Create once per worker thread, call [`SubgraphScratch::grow`] per query,
/// then read the extracted neighborhood through the accessors. After `grow`
/// returns, no buffer holds stale data from previous queries.
#[derive(Debug, Clone)]
pub struct SubgraphScratch {
    /// Membership epoch: `marks[g].stamp == epoch` iff global node `g` is in
    /// the current subgraph.
    epoch: u64,
    marks: Vec<Mark>,
    /// Global ids in local (admission) order; doubles as the BFS queue.
    global_of_local: Vec<usize>,
    /// Local ids of the admitted user nodes, in admission order.
    user_rows: Vec<u32>,
    /// Local ids of the admitted item nodes, in admission order.
    item_rows: Vec<u32>,
    kernel: TransitionMatrix,
}

impl SubgraphScratch {
    /// Empty scratch; buffers size themselves lazily on first use.
    pub fn new() -> Self {
        Self {
            epoch: 0,
            marks: Vec::new(),
            global_of_local: Vec::new(),
            user_rows: Vec::new(),
            item_rows: Vec::new(),
            kernel: TransitionMatrix::empty(),
        }
    }

    /// Grow a BFS subgraph around `seeds` with item budget `max_items` and
    /// build its induced row-stochastic kernel, reusing every buffer.
    ///
    /// Seeds are always admitted; nodes are then expanded in admission
    /// order until more than `max_items` item nodes are in, and the
    /// unexpanded frontier is kept. Edges to non-members are dropped and
    /// rows renormalized locally. See the module docs for the details.
    ///
    /// # Panics
    ///
    /// Panics if any seed id is out of range.
    pub fn grow<G: GraphView>(&mut self, graph: &G, seeds: &[usize], max_items: usize) {
        let n = graph.n_nodes();
        if self.marks.len() < n {
            self.marks.resize(n, Mark::default());
        }
        self.epoch += 1;
        self.global_of_local.clear();
        self.user_rows.clear();
        self.item_rows.clear();

        let n_users = graph.n_users();
        for &seed in seeds {
            assert!(seed < n, "seed node {seed} out of range");
            self.admit(n_users, seed);
        }

        // `global_of_local[head..]` is the BFS queue: admission appends.
        let mut head = 0;
        while head < self.global_of_local.len() {
            if self.item_rows.len() > max_items {
                // Budget exhausted: stop growing, keep what we have.
                break;
            }
            let node = self.global_of_local[head];
            head += 1;
            // BFS needs neighbor ids only; weights are read in build_kernel.
            graph.for_each_edge(node, |nbr, _| self.admit(n_users, nbr));
        }

        self.build_kernel(graph);
    }

    /// Admit `node` if unseen this epoch.
    #[inline]
    fn admit(&mut self, n_users: usize, node: usize) {
        let mark = &mut self.marks[node];
        if mark.stamp == self.epoch {
            return;
        }
        let local = self.global_of_local.len() as u32;
        mark.stamp = self.epoch;
        mark.local = local;
        self.global_of_local.push(node);
        if node >= n_users {
            self.item_rows.push(local);
        } else {
            self.user_rows.push(local);
        }
    }

    /// Build the induced kernel over the admitted nodes: keep edges whose
    /// endpoints are both members, renormalize each row by its induced
    /// degree in place. See the module docs for the cursor filter.
    fn build_kernel<G: GraphView>(&mut self, graph: &G) {
        let epoch = self.epoch;
        let marks = &self.marks;
        let kernel = &mut self.kernel;
        kernel.n = self.global_of_local.len();
        kernel.row_ptr.clear();
        kernel.row_ptr.push(0);
        kernel.degree.clear();
        let (cols, probs) = (&mut kernel.col_idx, &mut kernel.prob);
        let mut pos = 0;
        for &global in &self.global_of_local {
            let start = pos;
            graph.for_each_edge(global, |nbr, w| {
                if pos == cols.len() {
                    cols.resize(pos + KERNEL_GROW_STEP, 0);
                    probs.resize(pos + KERNEL_GROW_STEP, 0.0);
                }
                let mark = marks[nbr];
                cols[pos] = mark.local;
                probs[pos] = w;
                pos += (mark.stamp == epoch) as usize;
            });
            let row = &mut probs[start..pos];
            let d = row.iter().fold(0.0, |d, &w| d + w);
            kernel.degree.push(d);
            if d > 0.0 {
                // Divide (not multiply by a precomputed reciprocal): `w / d`
                // must round exactly like the textbook formulation so kernel
                // walks stay bit-compatible with the unnormalized code.
                for p in row {
                    *p /= d;
                }
            }
            kernel.row_ptr.push(pos);
        }
        // Drop the overshoot so the buffers hold exactly `nnz` transitions.
        cols.truncate(pos);
        probs.truncate(pos);
    }

    /// The induced row-stochastic kernel of the last [`SubgraphScratch::grow`].
    #[inline]
    pub fn kernel(&self) -> &TransitionMatrix {
        &self.kernel
    }

    /// Number of nodes retained by the last `grow`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        self.global_of_local.len()
    }

    /// Number of item nodes retained by the last `grow`.
    #[inline]
    pub fn n_items(&self) -> usize {
        self.item_rows.len()
    }

    /// Local ids of the user nodes retained by the last `grow`, in
    /// admission order: one side of the kernel's bipartition.
    #[inline]
    pub fn user_rows(&self) -> &[u32] {
        &self.user_rows
    }

    /// Local ids of the item nodes retained by the last `grow`, in
    /// admission order: the other side of the kernel's bipartition.
    #[inline]
    pub fn item_rows(&self) -> &[u32] {
        &self.item_rows
    }

    /// Local id of a global node, if retained by the last `grow`.
    #[inline]
    pub fn local_id(&self, global: usize) -> Option<u32> {
        match self.marks.get(global) {
            Some(mark) if mark.stamp == self.epoch => Some(mark.local),
            _ => None,
        }
    }

    /// Global ids in local order for the last `grow`.
    #[inline]
    pub fn global_ids(&self) -> &[usize] {
        &self.global_of_local
    }
}

impl Default for SubgraphScratch {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::BipartiteGraph;

    /// Same example graph as Figure 2 of the paper.
    fn figure2_graph() -> BipartiteGraph {
        let ratings = [
            (0, 0, 5.0),
            (0, 1, 3.0),
            (0, 4, 3.0),
            (0, 5, 5.0),
            (1, 0, 5.0),
            (1, 1, 4.0),
            (1, 2, 5.0),
            (1, 4, 4.0),
            (1, 5, 5.0),
            (2, 0, 4.0),
            (2, 1, 5.0),
            (2, 2, 4.0),
            (3, 2, 5.0),
            (3, 3, 5.0),
            (4, 1, 4.0),
            (4, 2, 5.0),
        ];
        BipartiteGraph::from_ratings(5, 6, &ratings)
    }

    #[test]
    fn unlimited_budget_reaches_the_connected_graph() {
        let g = figure2_graph();
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g, &[g.user_node(4)], usize::MAX);
        // The Figure 2 graph is connected, so everything is reached.
        assert_eq!(scratch.n_nodes(), g.n_nodes());
        assert_eq!(scratch.n_items(), g.n_items());
        // The side lists partition the local ids by node kind.
        assert_eq!(scratch.user_rows().len(), g.n_users());
        for (local, &global) in scratch.global_ids().iter().enumerate() {
            let local = local as u32;
            assert_eq!(scratch.local_id(global), Some(local));
            let side = if g.is_item_node(global) {
                scratch.item_rows()
            } else {
                scratch.user_rows()
            };
            assert!(side.contains(&local), "local {local} missing from its side");
        }
        // Every edge is kept: U5's row is M2 (4) and M3 (5) over degree 9.
        let lu = scratch.local_id(g.user_node(4)).unwrap() as usize;
        let lm = scratch.local_id(g.item_node(2)).unwrap();
        let (cols, probs) = scratch.kernel().row(lu);
        let at = cols.iter().position(|&c| c == lm).unwrap();
        assert_eq!(probs[at], 5.0 / 9.0);
        assert_eq!(scratch.kernel().degree(lu), 9.0);
    }

    #[test]
    fn budget_limits_item_count() {
        let g = figure2_graph();
        let mut scratch = SubgraphScratch::new();
        // Seeding at U5 (rated M2, M3): the first BFS level admits 2 items,
        // which exceeds a budget of 1, so expansion stops there.
        scratch.grow(&g, &[g.user_node(4)], 1);
        assert_eq!(scratch.n_items(), 2);
        assert!(scratch.local_id(g.item_node(1)).is_some());
        assert!(scratch.local_id(g.item_node(2)).is_some());
        assert!(scratch.local_id(g.item_node(5)).is_none());
        // The frontier keeps only its edges to members: M2's row is U5 alone.
        let lm = scratch.local_id(g.item_node(1)).unwrap() as usize;
        assert_eq!(scratch.kernel().degree(lm), 4.0);
        assert!(scratch.kernel().degree(lm) < g.degree(g.item_node(1)));
    }

    #[test]
    fn disconnected_nodes_not_reached() {
        // Item 2 has no ratings: disconnected.
        let g = BipartiteGraph::from_ratings(2, 3, &[(0, 0, 1.0), (1, 1, 2.0)]);
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g, &[g.user_node(0)], usize::MAX);
        assert_eq!(scratch.local_id(g.item_node(2)), None);
        assert_eq!(scratch.local_id(g.user_node(1)), None);
        assert_eq!(scratch.n_nodes(), 2);
    }

    #[test]
    fn seeds_always_included() {
        let g = figure2_graph();
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g, &[g.item_node(3), g.item_node(5)], 0);
        assert_eq!(scratch.n_items(), 2);
        assert_eq!(scratch.n_nodes(), 2);
        // Neither seed neighbors the other: both rows are empty.
        assert_eq!(scratch.kernel().nnz(), 0);
    }

    #[test]
    fn rows_are_stochastic() {
        let g = figure2_graph();
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g, &[g.user_node(0)], 3);
        for i in 0..scratch.n_nodes() {
            let (_, probs) = scratch.kernel().row(i);
            if !probs.is_empty() {
                let sum: f64 = probs.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "row {i} sums to {sum}");
            }
        }
    }

    #[test]
    fn reuse_across_queries_leaves_no_stale_state() {
        let g = figure2_graph();
        let mut scratch = SubgraphScratch::new();
        // A big query first, then a tiny one: stale members of the first
        // must be invisible to the second.
        scratch.grow(&g, &[g.user_node(4)], usize::MAX);
        assert_eq!(scratch.n_nodes(), g.n_nodes());
        scratch.grow(&g, &[g.item_node(3)], 0);
        assert_eq!(scratch.n_nodes(), 1);
        assert_eq!(scratch.local_id(g.item_node(3)), Some(0));
        assert_eq!(scratch.local_id(g.user_node(0)), None);
    }

    #[test]
    fn reused_kernel_equals_a_fresh_one() {
        let g = figure2_graph();
        let mut reused = SubgraphScratch::new();
        reused.grow(&g, &[g.user_node(4)], usize::MAX);
        reused.grow(&g, &[g.item_node(3)], 0);
        let mut fresh = SubgraphScratch::new();
        fresh.grow(&g, &[g.item_node(3)], 0);
        // Equal buffer for buffer: nothing of the big query is left over.
        assert_eq!(reused.kernel(), fresh.kernel());
    }

    #[test]
    fn reuse_across_graphs_of_same_size() {
        let g1 = figure2_graph();
        let g2 = BipartiteGraph::from_ratings(5, 6, &[(0, 0, 1.0), (4, 5, 2.0)]);
        let mut scratch = SubgraphScratch::new();
        scratch.grow(&g1, &[g1.user_node(0)], usize::MAX);
        scratch.grow(&g2, &[g2.user_node(0)], usize::MAX);
        assert_eq!(scratch.n_nodes(), 2);
        assert_eq!(scratch.local_id(g2.item_node(0)), Some(1));
        assert_eq!(scratch.local_id(g2.item_node(5)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_panics() {
        let g = figure2_graph();
        SubgraphScratch::new().grow(&g, &[g.n_nodes()], 10);
    }
}
