//! Datasets for long-tail recommendation experiments.
//!
//! Provides everything §5.1 of *Challenging the Long Tail Recommendation*
//! needs on the data side:
//!
//! * [`Dataset`] — validated sparse rating container with graph conversion;
//! * [`synthetic`] — seeded generators reproducing the structural facts of
//!   the paper's MovieLens and Douban corpora (power-law popularity,
//!   genre-coherent tastes, 1–5 star values) with ground truth attached;
//! * [`loader`] — parsers for the public MovieLens file formats;
//! * [`longtail`] — the r%-of-ratings tail/head split of §5.1.2;
//! * [`split`] — the held-out-favourites protocol split behind Recall@N;
//! * [`ontology`] — the Dangdang-style category tree and Eq. 18 similarity;
//! * [`sampling`] — the sampling primitives (Dirichlet, Zipf, power-law)
//!   the generator is built from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod loader;
pub mod longtail;
pub mod ontology;
pub mod sampling;
pub mod split;
pub mod synthetic;

pub use dataset::{Dataset, Rating, TimedRating};
pub use loader::{load_movielens_100k, load_movielens_1m, DataError, LoadedDataset};
pub use longtail::LongTailSplit;
pub use ontology::Ontology;
pub use split::{
    holdout_latest_favorites, holdout_longtail_favorites, ProtocolSplit, SplitConfig, TestCase,
};
pub use synthetic::{SyntheticConfig, SyntheticData};
