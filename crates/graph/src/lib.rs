//! Graph substrate for long-tail recommendation.
//!
//! This crate provides the weighted undirected user-item bipartite graph of
//! §3.1 of *Challenging the Long Tail Recommendation* (Yin et al., VLDB
//! 2012) and the sparse-matrix plumbing everything else is built on:
//!
//! * [`CsrMatrix`] — compressed sparse row matrices (the rating matrix and
//!   both adjacency blocks);
//! * [`BipartiteGraph`] — users and items in one flat node id space, with
//!   weighted degrees, popularities and the stationary distribution of Eq. 2;
//! * [`Adjacency`] — a homogeneous symmetric view for random-walk code;
//! * [`TransitionMatrix`] — the row-stochastic kernel `p_ij = w_ij / d_i`,
//!   pre-divided once so walk iterations are multiply-accumulate only;
//! * [`SubgraphScratch`] — BFS neighborhood extraction with an item budget
//!   µ and its induced row-stochastic kernel (Algorithm 1, step 2), in
//!   reusable, epoch-stamped buffers with zero `O(n_nodes)` allocations per
//!   query;
//! * [`GraphView`] — the traversal trait that lets the scratch extractor run
//!   over the frozen base graph, a streamed-delta overlay, or a
//!   recency-decayed wrapper, all monomorphized;
//! * [`EdgeDelta`] / [`OverlayGraph`] — appended ratings merged over the
//!   base CSR at query time without rebuilding ([`Decayed`] /
//!   [`RecencyDecay`] add the temporal weighting on top);
//! * [`stats`] — dataset-level descriptive statistics (Figure 1 shape);
//! * [`snapshot`] — the versioned, checksummed binary snapshot format that
//!   persists trained model state ([`SnapshotWriter`] / [`Snapshot`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod bipartite;
pub mod csr;
pub mod delta;
pub mod scratch;
pub mod snapshot;
pub mod stats;
pub mod transition;
pub mod view;

pub use adjacency::Adjacency;
pub use bipartite::{BipartiteGraph, Node};
pub use csr::CsrMatrix;
pub use delta::{EdgeDelta, OverlayGraph};
pub use scratch::SubgraphScratch;
pub use snapshot::{Snapshot, SnapshotError, SnapshotWriter};
pub use stats::GraphStats;
pub use transition::TransitionMatrix;
pub use view::{Decayed, GraphView, RecencyDecay};
