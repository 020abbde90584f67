//! Latent topic modelling for long-tail recommendation.
//!
//! Implements §4.2.3 of *Challenging the Long Tail Recommendation*: an LDA
//! model over user-item rating counts trained with collapsed Gibbs sampling
//! (Algorithm 2), the item-based and topic-based user-entropy features
//! (Eq. 10–11) that drive the Absorbing Cost recommenders, and the topic
//! inspection utilities behind Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entropy;
pub mod inspect;
pub mod lda;

pub use entropy::{item_based_entropy, topic_based_entropy};
pub use inspect::{top_items, top_items_per_topic, topic_label_purity};
pub use lda::{LdaConfig, LdaModel};
