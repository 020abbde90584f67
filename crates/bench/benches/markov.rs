//! Criterion bench: the truncated-vs-exact absorbing time ablation, and the
//! serving DP on its own.
//!
//! DESIGN.md ablation #1 — the truncated dynamic program (Algorithm 1) vs
//! the exact LU solve, and the cost of each extra iteration τ.
//!
//! `parity_chain` times the serving program, `parity_chain_costs_into`, at
//! AC1's fixed τ = 240 with per-node entry costs over the same dense
//! subgraph, so the per-row reduction shows without grow, probe or rerank
//! around it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use longtail_data::{SyntheticConfig, SyntheticData};
use longtail_graph::SubgraphScratch;
use longtail_markov::{parity_chain_costs_into, AbsorbingWalk, DpBuffers, ParitySides, SliceCost};

fn setup() -> (SubgraphScratch, Vec<usize>) {
    let data = SyntheticData::generate(&SyntheticConfig {
        n_users: 300,
        n_items: 220,
        ..SyntheticConfig::movielens_like()
    });
    let graph = data.dataset.to_graph();
    let user = 5u32;
    let seeds: Vec<usize> = data
        .dataset
        .rated_items(user)
        .iter()
        .map(|&i| graph.item_node(i))
        .collect();
    let mut scratch = SubgraphScratch::new();
    scratch.grow(&graph, &seeds, usize::MAX);
    let absorbing: Vec<usize> = seeds
        .iter()
        .filter_map(|&s| scratch.local_id(s).map(|l| l as usize))
        .collect();
    (scratch, absorbing)
}

fn bench_absorbing(c: &mut Criterion) {
    let (scratch, absorbing) = setup();
    let walk = AbsorbingWalk::from_kernel(scratch.kernel(), &absorbing);

    let mut group = c.benchmark_group("absorbing_time");
    for tau in [5usize, 15, 30, 60] {
        group.bench_with_input(BenchmarkId::new("truncated", tau), &tau, |b, &tau| {
            b.iter(|| std::hint::black_box(walk.truncated_times(tau)));
        });
    }
    group.bench_function("exact_lu", |b| {
        b.iter(|| std::hint::black_box(walk.exact_times().unwrap()));
    });
    group.finish();
}

fn bench_parity_chain(c: &mut Criterion) {
    let (scratch, absorbing) = setup();
    let kernel = scratch.kernel();
    let mut flags = vec![false; kernel.n_nodes()];
    for &a in &absorbing {
        flags[a] = true;
    }
    // Entry costs varying per node, as AC1's entropy costs do.
    let costs: Vec<f64> = (0..kernel.n_nodes())
        .map(|i| 1.0 + (i % 7) as f64 * 0.25)
        .collect();
    let sides = ParitySides {
        target: scratch.item_rows(),
        other: scratch.user_rows(),
    };
    let mut bufs = DpBuffers::new();
    let mut group = c.benchmark_group("parity_chain");
    group.bench_function(BenchmarkId::new("fixed", 240), |b| {
        b.iter(|| {
            std::hint::black_box(parity_chain_costs_into(
                kernel,
                sides,
                &flags,
                &SliceCost(&costs),
                240,
                None,
                &mut bufs,
            ))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_absorbing, bench_parity_chain
}
criterion_main!(benches);
