//! The traced replay: the load phase's requests run again on one thread,
//! with each layer timed from outside by calling its public functions.
//!
//! For every request the replay first times the model's whole
//! `recommend_into` (the request's own options, so its DP stops where the
//! served request's did), then times the stages separately, right after
//! and on the same seeds: `SubgraphScratch::grow`, the DP sweeps
//! (`truncated_costs_into` for as many iterations as the request ran)
//! and `RecommendOptions::finalize_topk` over the request's candidate
//! pool. `core.self` is what remains of `recommend_into` after grow and
//! DP, so grow + DP + self equals recommend for every request by
//! construction; the rank probe, the top-k collect and the rerank live
//! in it.

use crate::load::Clock;
use crate::trace::SpanLog;
use longtail_core::{EdgeDelta, RecommendOptions, Recommender, ScoredItem, ScoringContext};
use longtail_graph::{GraphView, OverlayGraph, SubgraphScratch};
use longtail_markov::{truncated_costs_into, CostModel, DpBuffers, SliceCost, UnitCost};
use std::time::Instant;

/// How the walk seeds, absorbs and charges, mirroring the model.
#[derive(Clone, Copy)]
pub enum Walk<'a> {
    /// HT: one absorbing node, the query user; unit costs.
    Hitting,
    /// AC: the user's rated items absorb; users cost their entropy, items
    /// a constant.
    AbsorbingCost {
        entropies: &'a [f64],
        item_cost: f64,
    },
}

/// One request's measured stages, nanoseconds.
#[derive(Debug, Clone)]
pub struct Stages {
    pub request: u64,
    pub recommend_ns: u64,
    /// Grow of the graph the request walks (the overlay under ingest).
    pub grow_ns: u64,
    /// Under ingest, the grow of the same seeds over the base graph alone.
    pub base_grow_ns: Option<u64>,
    pub dp_ns: u64,
    pub finalize_ns: u64,
    pub nodes: usize,
    pub nnz: usize,
    /// The list `recommend_into` returned.
    pub list: Vec<ScoredItem>,
    /// The list `finalize_topk` made from the candidate pool; must equal
    /// `list`.
    pub finalized: Vec<ScoredItem>,
}

impl Stages {
    /// recommend − grow − DP: the model's own work around the two stages.
    pub fn self_ns(&self) -> i64 {
        self.recommend_ns as i64 - self.grow_ns as i64 - self.dp_ns as i64
    }
}

/// What the replay serves: a model, its options, and for the rerank its
/// candidate-pool size and pool options.
pub struct Target<'a, R: Recommender> {
    pub model: &'a R,
    pub walk: Walk<'a>,
    pub k: usize,
    pub max_items: usize,
    pub opts: RecommendOptions<'a>,
    /// Options that collect the raw candidate pool (`opts` without the
    /// rerank) and the pool size.
    pub pool: (RecommendOptions<'a>, usize),
    /// The ingest delta the model serves over, if any.
    pub delta: Option<&'a EdgeDelta>,
    /// The base graph the model was built on.
    pub graph: &'a longtail_graph::BipartiteGraph,
}

#[derive(Default)]
pub struct Replayer {
    ctx: ScoringContext,
    scratch: SubgraphScratch,
    bufs: DpBuffers,
    seeds: Vec<usize>,
    absorbing: Vec<bool>,
    costs: Vec<f64>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_nanos() as u64)
}

impl Replayer {
    /// Replay `(request id, user)` pairs, recording one span tree per
    /// request into `trace`.
    pub fn run<R: Recommender>(
        &mut self,
        target: &Target<'_, R>,
        requests: &[(u64, u32)],
        clock: &Clock,
        trace: &mut SpanLog,
    ) -> Vec<Stages> {
        requests
            .iter()
            .map(|&(id, user)| {
                let start_ns = clock.now_ns();
                let stages = self.one(target, id, user);
                record_spans(trace, start_ns, &stages);
                stages
            })
            .collect()
    }

    fn one<R: Recommender>(&mut self, t: &Target<'_, R>, id: u64, user: u32) -> Stages {
        let before = self.ctx.dp_telemetry();
        let mut list = Vec::new();
        let ((), recommend_ns) = timed(|| match t.delta {
            Some(delta) => {
                t.model
                    .recommend_delta_into(delta, user, t.k, &t.opts, &mut self.ctx, &mut list)
            }
            None => t
                .model
                .recommend_into(user, t.k, &t.opts, &mut self.ctx, &mut list),
        });
        let iterations = self.ctx.dp_telemetry().since(&before).iterations_run as usize;

        let (grow_ns, dp_ns, nodes, nnz, base_grow_ns) = match t.delta {
            Some(delta) => {
                let overlay = OverlayGraph::new(t.graph, delta);
                let (grow, dp, nodes, nnz) = self.grow_and_dp(&overlay, t, user, iterations);
                let base = self.grow_only(t.graph, t.walk, user, t.max_items);
                (grow, dp, nodes, nnz, Some(base))
            }
            None => {
                let (grow, dp, nodes, nnz) = self.grow_and_dp(t.graph, t, user, iterations);
                (grow, dp, nodes, nnz, None)
            }
        };

        // The candidate pool the served path collects before finalizing.
        let (pool_opts, pool_size) = &t.pool;
        let mut pool = Vec::new();
        match t.delta {
            Some(delta) => t.model.recommend_delta_into(
                delta,
                user,
                *pool_size,
                pool_opts,
                &mut self.ctx,
                &mut pool,
            ),
            None => t
                .model
                .recommend_into(user, *pool_size, pool_opts, &mut self.ctx, &mut pool),
        }
        let ((), finalize_ns) = timed(|| t.opts.finalize_topk(t.k, &mut self.ctx, &mut pool));
        Stages {
            request: id,
            recommend_ns,
            grow_ns,
            base_grow_ns,
            dp_ns,
            finalize_ns,
            nodes,
            nnz,
            list,
            finalized: pool,
        }
    }

    /// Grow the request's subgraph over `view`; returns the grow time.
    fn grow_only<G: GraphView>(
        &mut self,
        view: &G,
        walk: Walk<'_>,
        user: u32,
        max_items: usize,
    ) -> u64 {
        self.seeds.clear();
        match walk {
            Walk::Hitting => self.seeds.push(view.user_node(user)),
            Walk::AbsorbingCost { .. } => {
                let n_users = view.n_users();
                let seeds = &mut self.seeds;
                view.for_each_rated(user, |i, _| seeds.push(n_users + i as usize));
            }
        }
        let ((), ns) = timed(|| self.scratch.grow(view, &self.seeds, max_items));
        ns
    }

    /// Grow, then run `iterations` DP sweeps on the grown kernel; returns
    /// both times and the subgraph's node and non-zero counts.
    fn grow_and_dp<G: GraphView, R: Recommender>(
        &mut self,
        view: &G,
        t: &Target<'_, R>,
        user: u32,
        iterations: usize,
    ) -> (u64, u64, usize, usize) {
        let grow_ns = self.grow_only(view, t.walk, user, t.max_items);
        let n = self.scratch.n_nodes();
        self.absorbing.clear();
        self.absorbing.resize(n, false);
        for &s in &self.seeds {
            let local = self.scratch.local_id(s).expect("seeds are always admitted");
            self.absorbing[local as usize] = true;
        }
        if let Walk::AbsorbingCost {
            entropies,
            item_cost,
        } = t.walk
        {
            let n_users = view.n_users();
            self.costs.clear();
            self.costs
                .extend(self.scratch.global_ids().iter().map(|&g| {
                    if g < n_users {
                        entropies[g]
                    } else {
                        item_cost
                    }
                }));
        }
        let slice = SliceCost(&self.costs);
        let cost: &dyn CostModel = match t.walk {
            Walk::Hitting => &UnitCost,
            Walk::AbsorbingCost { .. } => &slice,
        };
        let ((), dp_ns) = timed(|| {
            truncated_costs_into(
                self.scratch.kernel(),
                &self.absorbing,
                cost,
                iterations,
                &mut self.bufs,
            );
        });
        let kernel = self.scratch.kernel();
        (grow_ns, dp_ns, kernel.n_nodes(), kernel.nnz())
    }
}

/// One request's span tree. The stage calls ran after `recommend_into`,
/// so their measured durations are laid end to end from the start of the
/// request's `core.recommend_into` span, clipped to it.
fn record_spans(trace: &mut SpanLog, start_ns: u64, s: &Stages) {
    let end_ns = start_ns + s.recommend_ns;
    let root = trace.push("core.recommend_into", start_ns, end_ns, None, s.request);
    let mut at = start_ns;
    for (name, ns) in [
        ("graph.grow", s.grow_ns),
        ("markov.dp", s.dp_ns),
        ("core.finalize_topk", s.finalize_ns),
    ] {
        let from = at.min(end_ns);
        let to = (at + ns).min(end_ns);
        trace.push(name, from, to, Some(root), s.request);
        at += ns;
    }
}
