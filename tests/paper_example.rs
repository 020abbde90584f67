//! Integration test: the paper's Figure 2 worked example through the public
//! API, from rating triples to recommendations.

use longtail::markov::{entropy_cost, AbsorbingWalk};
use longtail::prelude::*;
use longtail_graph::Adjacency;

fn figure2_dataset() -> Dataset {
    let ratings: Vec<Rating> = [
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
    ]
    .into_iter()
    .map(|(user, item, value)| Rating { user, item, value })
    .collect();
    Dataset::from_ratings(5, 6, &ratings)
}

#[test]
fn hitting_times_reproduce_section_3_3() {
    let dataset = figure2_dataset();
    let graph = dataset.to_graph();
    let adj = Adjacency::from_bipartite(&graph);
    let walk = AbsorbingWalk::new(&adj, &[graph.user_node(4)]);
    let h = walk.truncated_times(60);

    // Paper: H(U5|M4)=17.7, H(U5|M1)=19.6, H(U5|M5)=20.2, H(U5|M6)=20.3.
    let cases = [(3u32, 17.7), (0, 19.6), (4, 20.2), (5, 20.3)];
    for (m, expected) in cases {
        let got = h[graph.item_node(m)];
        assert!(
            (got - expected).abs() < 0.1,
            "H(U5|M{}) = {got}, paper says {expected}",
            m + 1
        );
    }
}

#[test]
fn every_walk_recommender_surfaces_the_niche_movie() {
    // §3.3's conclusion generalizes across the walk family: all of HT, AT,
    // AC1, AC2 put the niche Action movie M4 first for U5.
    let dataset = figure2_dataset();
    let config = GraphRecConfig {
        max_items: 6000,
        iterations: 60,
    };
    let ht = HittingTimeRecommender::new(&dataset, config);
    let at = AbsorbingTimeRecommender::new(&dataset, config);
    let ac_config = longtail::core::AbsorbingCostConfig {
        graph: config,
        ..Default::default()
    };
    let ac1 = AbsorbingCostRecommender::item_entropy(&dataset, ac_config);
    let ac2 = AbsorbingCostRecommender::topic_entropy_auto(&dataset, 2, ac_config);

    for rec in [&ht as &dyn Recommender, &at, &ac1, &ac2] {
        let top = rec.recommend(4, 1);
        assert_eq!(
            top[0].item,
            3,
            "{} should recommend M4 to U5, got {:?}",
            rec.name(),
            top
        );
    }
}

#[test]
fn plain_cf_style_baselines_pick_the_popular_movie_instead() {
    // The contrast the paper draws: popularity-blind proximity picks M1.
    let dataset = figure2_dataset();
    let ppr = PageRankRecommender::plain(&dataset);
    let top = ppr.recommend(4, 1);
    assert_eq!(top[0].item, 0, "plain PPR should pick the popular M1");

    // And the paper's DPPR baseline flips back to the tail.
    let dppr = PageRankRecommender::discounted(&dataset);
    let top = dppr.recommend(4, 1);
    assert_eq!(top[0].item, 3, "DPPR should pick the niche M4");
}

#[test]
fn stationary_distribution_tracks_popularity() {
    // Eq. 2-5 foundation: π_j ∝ d_j, so the popular M1 carries more
    // stationary mass than the niche M4 — the bias HT divides away.
    let graph = figure2_dataset().to_graph();
    let pi = graph.stationary_distribution();
    assert!(pi[graph.item_node(0)] > pi[graph.item_node(3)]);
}

/// Assert `got[item] == -values[node]` to 1e-12 relative for every item
/// node the reference walk does not absorb.
fn assert_negated_walk_values(
    got: &[f64],
    values: &[f64],
    graph: &BipartiteGraph,
    walk: &AbsorbingWalk,
    label: &str,
) {
    assert_eq!(got.len(), graph.n_items(), "{label}: length");
    for (item, &score) in got.iter().enumerate() {
        let node = graph.item_node(item as u32);
        if walk.is_absorbing(node) {
            continue;
        }
        let want = -values[node];
        assert!(
            (score - want).abs() <= 1e-12 * want.abs(),
            "{label} item {item}: {score} vs {want}"
        );
    }
}

#[test]
fn walk_scores_match_a_whole_graph_reference_walk() {
    // Figure 2 is connected and its 6 items sit far below the default
    // µ = 6000, so the served subgraph is the whole graph: HT and AC1 must
    // score what an owned walk over the full adjacency computes, up to
    // floating-point rounding.
    let dataset = figure2_dataset();
    let graph = dataset.to_graph();
    let adj = Adjacency::from_bipartite(&graph);
    let config = GraphRecConfig::default();
    let tau = config.iterations;
    let ht = HittingTimeRecommender::new(&dataset, config);
    let ac1 = AbsorbingCostRecommender::item_entropy(
        &dataset,
        longtail::core::AbsorbingCostConfig::default(),
    );
    let cost = entropy_cost(ac1.user_entropies(), dataset.n_items(), 1.0);

    for user in 0..dataset.n_users() as u32 {
        let walk = AbsorbingWalk::new(&adj, &[graph.user_node(user)]);
        assert_negated_walk_values(
            &ht.score_items(user),
            &walk.truncated_times(tau),
            &graph,
            &walk,
            &format!("HT user {user}"),
        );

        let rated: Vec<usize> = dataset
            .rated_items(user)
            .iter()
            .map(|&i| graph.item_node(i))
            .collect();
        let walk = AbsorbingWalk::new(&adj, &rated);
        assert_negated_walk_values(
            &ac1.score_items(user),
            &walk.truncated_costs(&cost, tau),
            &graph,
            &walk,
            &format!("AC1 user {user}"),
        );
    }
}
