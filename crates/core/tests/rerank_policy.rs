//! Re-rank policy contracts: property tests over random bipartite graphs.
//!
//! The long-tail re-rank stage composes with the fused serving path by
//! over-fetching a top-M pool and finalizing it to k. Two pinned contracts
//! across all 9 recommender families:
//!
//! * **a disabled policy is bit-identical to no policy** — attaching a
//!   [`Reranker`] whose [`RerankPolicy`] is all-zeros (the `Default`)
//!   serves exactly the list the plain options serve: same items, same
//!   scores, same order, under both stopping policies. The rerank stage is
//!   a *strict* no-op unless a knob is turned;
//! * **an enabled policy serves a permutation of the over-fetched pool** —
//!   k items (or all that exist), drawn from the top-M candidates, with
//!   their original walk scores and a provenance trace aligned with the
//!   output.
//!
//! A third pins the MMR stage itself: `finalize_topk`, which counts shared
//! raters against epoch marks, serves exactly what greedy MMR over the
//! pairwise definition [`RerankIndex::similarity`] serves. A fourth pins
//! that items a delta overlay added after the index was built rerank as
//! unrated instead of panicking.
//!
//! Case counts honour `PROPTEST_CASES` (see `vendor/proptest`), which CI
//! pins so the suite stays bounded.

use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, AbsorbingTimeRecommender,
    AssociationRuleRecommender, DpStopping, EdgeDelta, GraphRecConfig, HittingTimeRecommender,
    ItemProvenance, KnnRecommender, LdaRecommender, PageRankRecommender, PureSvdRecommender,
    RecommendOptions, Recommender, RerankIndex, RerankPolicy, Reranker, RuleConfig, ScoredItem,
    ScoringContext, UserSimilarity,
};
use longtail_data::{Dataset, Rating};
use longtail_topics::LdaConfig;
use proptest::prelude::*;

const N_USERS: usize = 8;
const N_ITEMS: usize = 10;

fn ratings() -> impl Strategy<Value = Vec<Rating>> {
    prop::collection::vec(
        (0..N_USERS as u32, 0..N_ITEMS as u32, 1.0f64..5.0).prop_map(|(user, item, value)| {
            Rating {
                user,
                item,
                value: value.round().max(1.0),
            }
        }),
        1..60,
    )
}

/// Every family over the same training data, boxed for uniform iteration.
fn roster(d: &Dataset) -> Vec<Box<dyn Recommender>> {
    vec![
        Box::new(HittingTimeRecommender::new(d, GraphRecConfig::default())),
        Box::new(AbsorbingTimeRecommender::new(d, GraphRecConfig::default())),
        Box::new(AbsorbingCostRecommender::item_entropy(
            d,
            AbsorbingCostConfig::default(),
        )),
        Box::new(AbsorbingCostRecommender::topic_entropy_auto(
            d,
            2,
            AbsorbingCostConfig::default(),
        )),
        Box::new(PageRankRecommender::plain(d)),
        Box::new(PageRankRecommender::discounted(d)),
        Box::new(KnnRecommender::train(d, 3, UserSimilarity::Cosine)),
        Box::new(AssociationRuleRecommender::train(
            d,
            &RuleConfig {
                min_support: 1,
                min_confidence: 0.0,
            },
        )),
        Box::new(PureSvdRecommender::train(d, 4)),
        Box::new(LdaRecommender::train_with(
            d,
            &LdaConfig {
                iterations: 15,
                ..LdaConfig::with_topics(2)
            },
        )),
    ]
}

/// Greedy MMR written out over the pairwise [`RerankIndex::similarity`]:
/// the reference `finalize_topk` must reproduce. Same selection rule as the
/// serving stage — `(1 − λ)·rel − λ·max_sim − penalty·percentile`, strict
/// `>` toward the better pool rank, tail-only picks once every remaining
/// slot is owed to the quota — with every similarity recomputed per pair.
fn reference_mmr(
    index: &RerankIndex,
    policy: &RerankPolicy,
    k: usize,
    pool: &[ScoredItem],
) -> (Vec<ScoredItem>, Vec<ItemProvenance>) {
    let target = k.min(pool.len());
    let lo = pool.iter().map(|s| s.score).fold(f64::INFINITY, f64::min);
    let hi = pool
        .iter()
        .map(|s| s.score)
        .fold(f64::NEG_INFINITY, f64::max);
    let rel = |s: &ScoredItem| {
        if hi - lo > 0.0 {
            (s.score - lo) / (hi - lo)
        } else {
            1.0
        }
    };
    let tail = |s: &ScoredItem| index.tail(s.item, policy.tail_cutoff);
    let quota = policy.tail_quota.min(target);
    let lambda = policy.mmr_lambda;
    let mut selected: Vec<usize> = Vec::new();
    while selected.len() < target {
        let tail_selected = selected.iter().filter(|&&i| tail(&pool[i])).count();
        let tail_remaining = (0..pool.len())
            .filter(|i| !selected.contains(i) && tail(&pool[*i]))
            .count();
        let need = quota.saturating_sub(tail_selected);
        let restrict = need >= target - selected.len() && need > 0 && tail_remaining > 0;
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in pool.iter().enumerate() {
            if selected.contains(&i) || (restrict && !tail(cand)) {
                continue;
            }
            // Similarities to picks made while slots remained, as in the
            // serving stage (the last pick updates nothing).
            let max_sim = if lambda > 0.0 {
                selected
                    .iter()
                    .map(|&p| index.similarity(pool[p].item, cand.item))
                    .fold(0.0, f64::max)
            } else {
                0.0
            };
            let score = (1.0 - lambda) * rel(cand)
                - lambda * max_sim
                - policy.popularity_penalty * index.percentile(cand.item);
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((i, score));
            }
        }
        let Some((pick, _)) = best else { break };
        selected.push(pick);
    }
    let items = selected.iter().map(|&i| pool[i]).collect();
    let trace = selected
        .iter()
        .enumerate()
        .map(|(rank, &i)| ItemProvenance {
            popularity_percentile: index.percentile(pool[i].item),
            tail: tail(&pool[i]),
            displacement: i as i64 - rank as i64,
        })
        .collect();
    (items, trace)
}

/// A candidate pool over `n_items` items: distinct items (some past the
/// catalog, as a delta overlay adds them) with descending scores, some
/// tied.
fn candidate_pool(n_items: u32) -> impl Strategy<Value = Vec<ScoredItem>> {
    prop::collection::vec((0..n_items + 3, 0u32..6), 0..(n_items as usize + 4)).prop_map(|draws| {
        let mut seen = Vec::new();
        let mut pool = Vec::new();
        let mut score = 0.0;
        for (item, drop) in draws {
            if seen.contains(&item) {
                continue;
            }
            seen.push(item);
            score -= drop as f64 * 0.25;
            pool.push(ScoredItem { item, score });
        }
        pool
    })
}

proptest! {
    /// The marked-rater MMR of `finalize_topk` serves the same items, at
    /// the same scores, with the same provenance, as greedy MMR over the
    /// pairwise similarity — over random corpora, pools and knobs, with
    /// two reranks back to back on one context so stale marks would show.
    #[test]
    fn marked_mmr_matches_pairwise_reference(
        rs in ratings(),
        pools in prop::collection::vec(candidate_pool(N_ITEMS as u32), 2..4),
        lambda in 0.0f64..1.0,
        penalty in 0usize..3,
        quota in 0usize..4,
        cutoff in 0usize..3,
        k in 1usize..6,
    ) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let index = RerankIndex::from_dataset(&d);
        let policy = RerankPolicy::new()
            .mmr(lambda)
            .popularity_penalty([0.0, 0.2, 0.7][penalty])
            .tail_quota(quota)
            .tail_cutoff([0.3, 0.5, 0.8][cutoff]);
        let opts = RecommendOptions::new().rerank(Reranker::new(&index, policy));
        let mut ctx = ScoringContext::new();
        for pool in &pools {
            let mut out = pool.clone();
            opts.finalize_topk(k, &mut ctx, &mut out);
            if !policy.is_enabled() {
                continue;
            }
            let (items, trace) = reference_mmr(&index, &policy, k, pool);
            prop_assert_eq!(&out, &items);
            prop_assert_eq!(ctx.rerank_trace(), &trace[..]);
        }
    }

    /// A `Default` (disabled) policy attached through the full rerank
    /// plumbing — index, reranker, over-fetch arithmetic, finalize — must
    /// serve bit-identical lists to plain options, for every family, user,
    /// k and stopping policy.
    #[test]
    fn disabled_policy_is_bit_identical_to_no_policy(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let index = RerankIndex::from_dataset(&d);
        let disabled = RerankPolicy::default();
        prop_assert!(!disabled.is_enabled());
        let mut ctx = ScoringContext::new();
        let mut plain_list: Vec<ScoredItem> = Vec::new();
        let mut reranked: Vec<ScoredItem> = Vec::new();
        for rec in &roster(&d) {
            for stopping in [DpStopping::Fixed, DpStopping::adaptive()] {
                let plain = RecommendOptions::with_stopping(stopping);
                let off = RecommendOptions::with_stopping(stopping)
                    .rerank(Reranker::new(&index, disabled));
                prop_assert_eq!(off.fetch(5), 5, "disabled policy must not over-fetch");
                for u in 0..d.n_users() as u32 {
                    for k in [0usize, 1, 3, N_ITEMS + 3] {
                        rec.recommend_into(u, k, &plain, &mut ctx, &mut plain_list);
                        rec.recommend_into(u, k, &off, &mut ctx, &mut reranked);
                        prop_assert_eq!(
                            &reranked,
                            &plain_list,
                            "{} user {} k {} ({:?}): disabled policy changed the list",
                            rec.name(),
                            u,
                            k,
                            stopping
                        );
                        prop_assert!(
                            ctx.rerank_trace().is_empty(),
                            "disabled policy must leave no provenance"
                        );
                    }
                }
            }
        }
    }

    /// An enabled policy serves a permutation of the over-fetched pool:
    /// exactly `min(k, pool)` items, each present in the plain top-M at
    /// its original walk score, with an aligned provenance trace.
    #[test]
    fn enabled_policy_serves_a_pool_permutation(rs in ratings()) {
        let d = Dataset::from_ratings(N_USERS, N_ITEMS, &rs);
        let index = RerankIndex::from_dataset(&d);
        let policy = RerankPolicy::new().mmr(0.4).popularity_penalty(0.3).tail_quota(1);
        let mut ctx = ScoringContext::new();
        let mut pool: Vec<ScoredItem> = Vec::new();
        let mut reranked: Vec<ScoredItem> = Vec::new();
        let k = 3usize;
        let fetch = policy.effective_pool(k);
        for rec in &roster(&d) {
            let plain = RecommendOptions::with_stopping(DpStopping::Fixed);
            let on = RecommendOptions::with_stopping(DpStopping::Fixed)
                .rerank(Reranker::new(&index, policy));
            for u in 0..d.n_users() as u32 {
                rec.recommend_into(u, fetch, &plain, &mut ctx, &mut pool);
                rec.recommend_into(u, k, &on, &mut ctx, &mut reranked);
                prop_assert_eq!(
                    reranked.len(),
                    pool.len().min(k),
                    "{} user {}: wrong list length",
                    rec.name(),
                    u
                );
                for s in &reranked {
                    prop_assert!(
                        pool.iter().any(|p| p.item == s.item && p.score == s.score),
                        "{} user {}: served item {} not in the top-{} pool at its score",
                        rec.name(),
                        u,
                        s.item,
                        fetch
                    );
                }
                let trace = ctx.rerank_trace();
                prop_assert_eq!(trace.len(), reranked.len());
                for (s, p) in reranked.iter().zip(trace) {
                    prop_assert_eq!(p.popularity_percentile, index.percentile(s.item));
                }
            }
        }
    }
}

#[test]
fn rerank_composes_with_adaptive_stopping() {
    // The over-fetched pool is collected under the *adaptive* DP too: the
    // rank-stability probe certifies top-M (not top-k), so the reranked
    // list over adaptive scoring picks from the same item pool as fixed-τ.
    let mut rs = Vec::new();
    for u in 0..8u32 {
        for i in 0..10u32 {
            if u <= 9 - i {
                rs.push(Rating {
                    user: u,
                    item: i,
                    value: 4.0,
                });
            }
        }
    }
    let d = Dataset::from_ratings(8, 10, &rs);
    let index = RerankIndex::from_dataset(&d);
    let policy = RerankPolicy::new().mmr(0.3).popularity_penalty(0.25);
    let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
    let mut ctx = ScoringContext::new();
    let mut adaptive: Vec<ScoredItem> = Vec::new();
    let mut fixed: Vec<ScoredItem> = Vec::new();
    for u in 0..8u32 {
        let on_adaptive = RecommendOptions::new().rerank(Reranker::new(&index, policy));
        let on_fixed = RecommendOptions::with_stopping(DpStopping::Fixed)
            .rerank(Reranker::new(&index, policy));
        rec.recommend_into(u, 4, &on_adaptive, &mut ctx, &mut adaptive);
        rec.recommend_into(u, 4, &on_fixed, &mut ctx, &mut fixed);
        let a: Vec<u32> = adaptive.iter().map(|s| s.item).collect();
        let f: Vec<u32> = fixed.iter().map(|s| s.item).collect();
        assert_eq!(a, f, "user {u}: adaptive rerank diverged from fixed-τ");
    }
}

#[test]
fn delta_only_items_rerank_as_unrated_tail_items() {
    // Item 3 exists only in the delta: the index, built over the 3-item
    // training catalog, must read it as unrated (degree 0, percentile 0,
    // no raters) and serve it instead of indexing past its tables.
    let rs: Vec<Rating> = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
        .iter()
        .map(|&(user, item)| Rating {
            user,
            item,
            value: 4.0,
        })
        .collect();
    let d = Dataset::from_ratings(3, 3, &rs);
    let index = RerankIndex::from_dataset(&d);
    assert_eq!(index.n_items(), 3);
    assert_eq!(index.degree(3), 0);
    assert_eq!(index.percentile(3), 0.0);
    assert!(index.users_of(3).is_empty());
    assert_eq!(index.similarity(0, 3), 0.0);

    let mut delta = EdgeDelta::new(3, 3);
    delta.insert(1, 3, 5.0, 1.0);
    delta.insert(2, 3, 5.0, 2.0);
    let rec = HittingTimeRecommender::new(&d, GraphRecConfig::default());
    let plain = RecommendOptions::with_stopping(DpStopping::Fixed);
    let mut ctx = ScoringContext::new();
    let mut unranked = Vec::new();
    rec.recommend_delta_into(&delta, 0, 2, &plain, &mut ctx, &mut unranked);
    assert!(unranked.iter().any(|s| s.item == 3), "{unranked:?}");

    let policy = RerankPolicy::new()
        .mmr(0.5)
        .popularity_penalty(0.3)
        .tail_quota(1);
    let on = plain.rerank(Reranker::new(&index, policy));
    let mut reranked = Vec::new();
    rec.recommend_delta_into(&delta, 0, 2, &on, &mut ctx, &mut reranked);
    let pos = reranked.iter().position(|s| s.item == 3);
    let pos = pos.expect("the delta-only item is served");
    let provenance = ctx.rerank_trace()[pos];
    assert_eq!(provenance.popularity_percentile, 0.0);
    assert!(provenance.tail);
}
