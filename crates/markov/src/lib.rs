//! Random-walk machinery for long-tail recommendation.
//!
//! Implements the Markov-chain toolkit of §3–4 of *Challenging the Long Tail
//! Recommendation* on top of [`longtail_graph::Adjacency`]:
//!
//! * [`hitting`] — hitting times `H(q|j)` (Definition 1, the HT recommender);
//! * [`absorbing`] — absorbing times and entropy-biased absorbing costs
//!   (Definitions 2–3, Eq. 6–9), each with a truncated `O(τ·m)` dynamic
//!   program and an exact LU-based solver;
//! * [`dp`] — the allocation-free truncated dynamic programs over a
//!   pre-normalized [`longtail_graph::TransitionMatrix`] with caller-owned
//!   [`DpBuffers`]: the full-vector reference ([`truncated_costs_into`])
//!   and the serving form ([`parity_chain_costs_into`]), which sweeps only
//!   the half of a bipartite walk that reaches the target side at τ
//!   (bit-identical there, half the edge work) and can stop early, by
//!   two-step increment bounds, once the remaining iterations provably
//!   cannot matter;
//! * [`cost`] — per-node entry-cost models (unit cost ⇒ absorbing time,
//!   entropy cost ⇒ the AC1/AC2 models);
//! * [`pagerank`] — personalized PageRank power iteration (PPR/DPPR
//!   baselines), also available in a kernel-plus-buffers form.
//!
//! Every iteration kernel walks pre-divided probabilities in raw CSR
//! slices; no per-edge division survives on any query path.

#![warn(missing_docs)]

pub mod absorbing;
pub mod cost;
pub mod dp;
pub mod hitting;
pub mod pagerank;

pub use absorbing::AbsorbingWalk;
pub use cost::{entropy_cost, CostModel, PerNodeCost, SliceCost, UnitCost};
pub use dp::{
    parity_chain_costs_into, truncated_costs_into, DpBuffers, DpProbe, DpRun, EarlyExit,
    ParitySides,
};
pub use hitting::{exact_hitting_times, truncated_hitting_times};
pub use pagerank::{
    personalized_pagerank, personalized_pagerank_into, PageRankBuffers, PageRankConfig,
};
