//! The three workloads, each seeding its own corpus, users, arrival times
//! and appends from the workload seed.
//!
//! * `douban_ht_open` — HT (μ=300, τ=15, k=10) on the Douban-like serving
//!   corpus under open-loop Poisson arrivals: latency at the nominal rate,
//!   then the rate served when arrivals outrun one worker.
//! * `movielens_ac1_deep` — AC1 (τ=240, adaptive stopping, rerank on) on
//!   the dense MovieLens-like corpus in a closed loop with 2 outstanding.
//! * `douban_ht_ingest` — `douban_ht_open`'s reads plus appends, publishes
//!   and a maintenance thread compacting and redeploying.

use crate::load::{merge, Clock, Event, Generator, Op, PhaseLog};
use crate::replay::{Replayer, Stages, Target, Walk};
use crate::report::Report;
use crate::rng::{even_arrivals, poisson_arrivals, stream, SplitMix64, Weighted};
use crate::stats::{median, Samples};
use crate::trace::SpanLog;
use longtail_core::{
    AbsorbingCostConfig, AbsorbingCostRecommender, GraphRecConfig, HittingTimeRecommender,
    RecommendOptions, Recommender, RerankIndex, RerankPolicy, Reranker, ScoredItem, ScoringContext,
};
use longtail_data::{Dataset, LongTailSplit, SyntheticConfig, SyntheticData, TimedRating};
use longtail_serve::{
    AdmissionPolicy, DeltaConfig, DeltaRating, DeltaStore, Engine, RecommendRequest,
    SharedRecommender,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["douban_ht_open", "movielens_ac1_deep", "douban_ht_ingest"];

/// List length of every request.
const K: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;
/// Engine worker threads on every workload.
const WORKERS: usize = 1;
/// Bounded admission queue of the open-loop engines.
const QUEUE_CAPACITY: usize = 64;
/// Unmeasured load before the first measured phase, seconds.
const WARMUP_S: f64 = 1.0;

const HT_CONFIG: GraphRecConfig = GraphRecConfig {
    max_items: 300,
    iterations: 15,
};
const AC1_CONFIG: AbsorbingCostConfig = AbsorbingCostConfig {
    graph: GraphRecConfig {
        max_items: 300,
        iterations: 240,
    },
    item_entry_cost: 1.0,
};

/// The open-loop rates, requests per second. Latency is reported at the
/// nominal rate, about a quarter of one worker's capacity; the
/// saturation rate, about twice that capacity, measures the highest rate
/// the engine serves, with admission refusing the excess so no backlog
/// can grow.
const NOMINAL_RPS: f64 = 300.0;
const SATURATION_RPS: f64 = 2400.0;
/// A run whose sends started later than this at the median fell behind
/// its schedule and is invalid. (Single sends late by milliseconds at
/// the p99 happen on shared hosts whenever the generator's thread is
/// descheduled; their wait is inside every latency, which is timed from
/// the due time.)
const LATE_LIMIT_US: f64 = 500.0;
/// Shares of `--seconds` spent at the nominal and the saturation rate.
const NOMINAL_SHARE: f64 = 0.4;
const SATURATION_SHARE: f64 = 0.5;

/// Closed-loop depth of `movielens_ac1_deep`.
const OUTSTANDING: usize = 2;
/// Requests replayed stage by stage in a traced run.
const REPLAY_MAX: usize = 1100;

/// Ingest: appends per second, appends per explicit publish, and the
/// compaction period. Appends come at the nominal read rate, the 50/50
/// read/update mix of YCSB's update-heavy workload A ("a session store
/// recording recent actions"; Cooper et al., SoCC 2010), which is what a
/// rating log is.
const APPEND_RPS: f64 = NOMINAL_RPS;
/// Most of the corpus the appends may be taken from.
const HOLDOUT_MAX: f64 = 0.6;
const PUBLISH_EVERY: usize = 64;
const COMPACT_EVERY: Duration = Duration::from_millis(200);
/// Served lists compared against a model rebuilt on the union.
const UNION_SAMPLE: usize = 200;

/// Seed streams: one per kind of input.
const CORPUS: u64 = 1;
const USERS: u64 = 2;
const SCHEDULE: u64 = 3;
const CHECK: u64 = 5;
const SATURATION: u64 = 6;
const WARMUP: u64 = 7;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Run one workload and report its metrics.
pub fn run(args: &Args, clock: Clock) -> Report {
    let mut report = Report::default();
    match args.workload.as_str() {
        "douban_ht_open" => douban_ht_open(args, clock, &mut report),
        "movielens_ac1_deep" => movielens_ac1_deep(args, clock, &mut report),
        "douban_ht_ingest" => douban_ht_ingest(args, clock, &mut report),
        other => unreachable!("workload {other} was validated by the caller"),
    }
    report
}

// ---------------------------------------------------------------------------
// Set-up

/// Times of the set-up stages, one entry per repeat.
#[derive(Default)]
struct SetupTimes {
    generate: Vec<f64>,
    core: Vec<f64>,
    serve: Vec<f64>,
    /// Wall time from the start of set-up to the first served response.
    total: Vec<f64>,
    /// CPU time every thread of the process spent over the same span.
    cpu: Vec<f64>,
}

impl SetupTimes {
    /// Set up [`SETUP_REPEATS`] times and keep the last: `generate` makes
    /// the corpus, `core` builds the models, `serve` builds the engine, and
    /// the first served response ends each set-up.
    fn repeat<D, M, S>(
        &mut self,
        generate: impl Fn() -> D,
        core: impl Fn(&D) -> M,
        serve: impl Fn(&D, &M) -> S,
        first: impl Fn(&S),
    ) -> (D, M, S) {
        let mut kept = None;
        for _ in 0..SETUP_REPEATS {
            drop(kept.take());
            let cpu0 = crate::sys::thread_cpu_ns();
            let t0 = Instant::now();
            let data = generate();
            let t1 = Instant::now();
            let models = core(&data);
            let t2 = Instant::now();
            let engine = serve(&data, &models);
            let t3 = Instant::now();
            first(&engine);
            let t4 = Instant::now();
            let cpu = crate::sys::cpu_since(&cpu0, &crate::sys::thread_cpu_ns(), &[]);
            self.cpu.push(cpu as f64 * 1e-9);
            self.generate.push((t1 - t0).as_secs_f64());
            self.core.push((t2 - t1).as_secs_f64());
            self.serve.push((t3 - t2).as_secs_f64());
            self.total.push((t4 - t0).as_secs_f64());
            kept = Some((data, models, engine));
        }
        kept.expect("at least one set-up")
    }

    /// `setup_s` is the set-up's CPU time, which host preemption does
    /// not inflate; its wall time is printed beside it.
    fn end_to_end(&self, report: &mut Report) {
        let n = self.total.len();
        report.info_value("setup_wall_s", median(&self.total), "s", n);
        report.counted("setup_s", median(&self.cpu), "s", n);
    }

    fn layers(&self, report: &mut Report) {
        let n = self.total.len();
        report.counted("data.generate_s", median(&self.generate), "s", n);
        report.counted("core.build_s", median(&self.core), "s", n);
        report.counted("serve.build_s", median(&self.serve), "s", n);
    }
}

fn douban_corpus(seed: u64) -> Dataset {
    let config = SyntheticConfig {
        n_users: 2200,
        n_items: 24_000,
        seed: stream(seed, CORPUS),
        ..SyntheticConfig::douban_like()
    };
    SyntheticData::generate(&config).dataset
}

fn movielens_corpus(seed: u64) -> Dataset {
    let config = SyntheticConfig {
        seed: stream(seed, CORPUS),
        ..SyntheticConfig::movielens_like()
    };
    SyntheticData::generate(&config).dataset
}

fn open_engine(model: SharedRecommender, store: Option<Arc<DeltaStore>>) -> Engine {
    let builder = Engine::builder()
        .model("HT", model)
        .workers(WORKERS)
        .queue_capacity(QUEUE_CAPACITY)
        .admission(AdmissionPolicy::Reject);
    match store {
        Some(store) => builder.ingest("HT", store),
        None => builder,
    }
    .build()
}

/// The long-tail rerank policy: mild MMR, a popularity penalty and a
/// 3-slot tail quota.
fn rerank_policy() -> RerankPolicy {
    RerankPolicy::new()
        .mmr(0.3)
        .popularity_penalty(0.25)
        .tail_quota(3)
}

fn serve_first(engine: &Engine, model: &str, user: u32) {
    engine
        .submit(RecommendRequest::new(model, user, K))
        .expect("an idle engine admits")
        .wait()
        .expect("the first request is served");
}

// ---------------------------------------------------------------------------
// Inputs

fn read_events(users: &Weighted, seed: u64, rate: f64, span: Duration) -> Vec<Event> {
    let mut arrivals = SplitMix64::new(stream(seed, SCHEDULE));
    let mut draws = SplitMix64::new(stream(seed, USERS));
    poisson_arrivals(&mut arrivals, rate, span)
        .into_iter()
        .map(|due| Event {
            due,
            op: Op::Read(users.sample(&mut draws)),
        })
        .collect()
}

/// Appends an ingest run schedules: warm-up, nominal phase and the
/// saturation phase (a traced run's second nominal phase is shorter).
fn appends_needed(args: &Args) -> usize {
    [
        WARMUP_S,
        NOMINAL_SHARE * args.seconds,
        SATURATION_SHARE * args.seconds,
    ]
    .into_iter()
    .map(|s| even_arrivals(APPEND_RPS, seconds(s)).len())
    .sum()
}

/// Split `data` into the base the engine starts from and up to `n`
/// appends (at most [`HOLDOUT_MAX`] of its ratings). The synthetic
/// generator stamps ratings in generation order, so a user's later stamps
/// are that user's fresher ratings: every user gives up the same share of
/// their newest ratings, rounded so the shares add up to exactly `n`.
/// The appends come back in stamp order.
fn hold_out(data: &Dataset, n: usize) -> (Dataset, Vec<DeltaRating>) {
    let total = data.n_ratings();
    let n = n.min((total as f64 * HOLDOUT_MAX) as usize);
    let mut by_user: Vec<Vec<TimedRating>> = vec![Vec::new(); data.n_users()];
    for r in data.to_timed_ratings() {
        by_user[r.user as usize].push(r);
    }
    let (mut base, mut held) = (Vec::new(), Vec::new());
    let mut seen = 0;
    for mut ratings in by_user {
        ratings.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
        seen += ratings.len();
        let due = (seen * n + total / 2) / total;
        let keep = ratings.len() - (due - held.len()).min(ratings.len());
        held.extend(ratings[keep..].iter().map(|r| DeltaRating {
            user: r.user,
            item: r.item,
            value: r.value,
            timestamp: r.timestamp,
        }));
        ratings.truncate(keep);
        base.extend(ratings);
    }
    held.sort_by(|a, b| a.timestamp.total_cmp(&b.timestamp));
    let base = Dataset::from_timed_ratings(data.n_users(), data.n_items(), &base);
    (base, held)
}

/// The held-out ratings still to append, in stamp order.
struct AppendStream(std::vec::IntoIter<DeltaRating>);

impl AppendStream {
    fn events(&mut self, span: Duration) -> Vec<Event> {
        even_arrivals(APPEND_RPS, span)
            .into_iter()
            .zip(&mut self.0)
            .map(|(due, rating)| Event {
                due,
                op: Op::Append(rating),
            })
            .collect()
    }
}

fn seconds(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

// ---------------------------------------------------------------------------
// Evaluation

fn phase_line(name: &str, log: &PhaseLog) {
    let late = Samples::new(log.late_ns.iter().map(|&n| n as f64 * 1e-3).collect());
    println!(
        "# phase {name}: sent={} succeeded={} failed={} appends={} seconds={:.3} late_p50_us={} late_p99_us={} late_max_us={:.1}",
        log.reads.len(),
        log.served(),
        log.failed(),
        log.append_ns.len(),
        log.seconds(),
        late.percentile(0.5)
            .map_or("n/a".to_string(), |v| format!("{v:.1}")),
        late.percentile(0.99)
            .map_or("n/a".to_string(), |v| format!("{v:.1}")),
        late.max().unwrap_or(0.0),
    );
}

/// Void the run if the generator fell behind its schedule in `log`.
fn check_schedule(name: &str, log: &PhaseLog, report: &mut Report) {
    let late = Samples::new(log.late_ns.iter().map(|&n| n as f64 * 1e-3).collect());
    if let Some(p50) = late.percentile(0.5) {
        if p50 > LATE_LIMIT_US {
            report.invalid.push(format!(
                "generator fell behind schedule in {name}: late p50 {p50:.0} us > {LATE_LIMIT_US} us"
            ));
        }
    }
}

fn latency_samples_ms(log: &PhaseLog) -> Samples {
    Samples::new(
        log.reads
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| r.latency_ns() as f64 * 1e-6)
            .collect(),
    )
}

fn latency_metrics(log: &PhaseLog, report: &mut Report) {
    let lat = latency_samples_ms(log);
    report.info_percentile("latency_p50_ms", &lat, 0.50, "ms");
    report.info_percentile("latency_p99_ms", &lat, 0.99, "ms");
    count_attempts(log, report);
    let failed_ratio = log.failed() as f64 / log.reads.len().max(1) as f64;
    report.info_value("failed_ratio", failed_ratio, "ratio", log.reads.len());
    println!(
        "# failures: refused {}, shed {}, expired {}, failed {} of {} reads",
        log.stats.rejected,
        log.stats.shed,
        log.stats.expired_at_dequeue + log.stats.expired_in_dp,
        log.stats.failed + log.stats.panicked,
        log.reads.len()
    );
}

/// Reads and appends of the measured phase are the run's attempted
/// operations; failed reads (refused, shed, expired or errored) its
/// failures.
fn count_attempts(log: &PhaseLog, report: &mut Report) {
    report.attempted += (log.reads.len() + log.append_ns.len()) as u64;
    report.failed += log.failed() as u64;
}

/// Share of served list slots holding long-tail items.
fn tail_share(log: &PhaseLog, split: &LongTailSplit, report: &mut Report) {
    let (mut tail, mut slots) = (0usize, 0usize);
    for r in log.reads.iter().filter_map(|r| r.served()) {
        slots += r.items.len();
        tail += r.items.iter().filter(|s| split.is_tail(s.item)).count();
    }
    report.info_value(
        "tail_share",
        tail as f64 / slots.max(1) as f64,
        "share",
        slots,
    );
}

/// The saturation phase, where the offered rate exceeds what one worker
/// serves; refusals of the excess are the measurement, not failures of
/// the run. `max_rate_rps` is the rate served per wall-clock second;
/// `capacity_rps` the rate per second of engine CPU time, which host
/// preemption does not dilute.
fn saturation(log: &PhaseLog, span: Duration, report: &mut Report) {
    phase_line("saturation", log);
    check_schedule("saturation", log, report);
    println!(
        "# saturation: offered {SATURATION_RPS} rps, refused {} shed {}",
        log.stats.rejected, log.stats.shed,
    );
    let rate = log.served() as f64 / span.as_secs_f64();
    report.info_value("max_rate_rps", rate, "1/s", log.served());
    capacity(log, report);
}

fn capacity(log: &PhaseLog, report: &mut Report) {
    println!(
        "# engine cpu {:.3} s over {:.3} s wall",
        log.engine_cpu_ns as f64 * 1e-9,
        log.seconds()
    );
    report.counted(
        "capacity_rps",
        log.served_per_cpu_second(),
        "1/s",
        log.served(),
    );
}

/// Reference lists from direct `recommend_into` calls, one per user.
struct References<'a, R: Recommender> {
    model: &'a R,
    opts: RecommendOptions<'a>,
    ctx: ScoringContext,
    lists: HashMap<u32, Vec<ScoredItem>>,
}

impl<'a, R: Recommender> References<'a, R> {
    fn new(model: &'a R, opts: RecommendOptions<'a>) -> Self {
        Self {
            model,
            opts,
            ctx: ScoringContext::new(),
            lists: HashMap::new(),
        }
    }

    /// Every non-degraded response in `log` must equal the direct call
    /// item for item and score bit for bit.
    fn check(&mut self, name: &str, log: &PhaseLog, report: &mut Report) {
        let mut checked = 0;
        for read in &log.reads {
            let Some(resp) = read.served().filter(|r| !r.degraded) else {
                continue;
            };
            let (model, opts, ctx) = (self.model, &self.opts, &mut self.ctx);
            let expected = self.lists.entry(read.user).or_insert_with(|| {
                let mut out = Vec::new();
                model.recommend_into(read.user, K, opts, ctx, &mut out);
                out
            });
            report.check(same_list(&resp.items, expected), || {
                format!(
                    "{name}: request {} for user {} differs from recommend_into",
                    read.id, read.user
                )
            });
            checked += 1;
        }
        println!("# check {name}: {checked} responses compared with direct recommend_into");
    }
}

fn same_list(a: &[ScoredItem], b: &[ScoredItem]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.item == y.item && x.score.to_bits() == y.score.to_bits())
}

// ---------------------------------------------------------------------------
// Per-layer metrics of a traced run

/// What only the ingest workload measures.
struct IngestLayers {
    overlay_grow_us: Samples,
    compact_ms: Samples,
    delta_edges_max: u64,
}

fn us(ns: u64) -> f64 {
    ns as f64 * 1e-3
}

fn layer_metrics(
    report: &mut Report,
    setup: &SetupTimes,
    traced: &PhaseLog,
    stages: &[Stages],
    trace: &SpanLog,
    rerank: bool,
    ingest: Option<IngestLayers>,
) {
    setup.layers(report);
    count_attempts(traced, report);
    let grow = Samples::new(
        stages
            .iter()
            .map(|s| us(s.base_grow_ns.unwrap_or(s.grow_ns)))
            .collect(),
    );
    report.percentile("graph.grow_us_p50", &grow, 0.50, "us");
    report.percentile("graph.grow_us_p99", &grow, 0.99, "us");
    let nodes = Samples::new(stages.iter().map(|s| s.nodes as f64).collect());
    let nnz = Samples::new(stages.iter().map(|s| s.nnz as f64).collect());
    report.percentile("graph.nodes", &nodes, 0.50, "count");
    report.percentile("graph.nnz", &nnz, 0.50, "count");
    match &ingest {
        Some(i) => report.percentile("graph.overlay_grow_us", &i.overlay_grow_us, 0.50, "us"),
        None => report.not_exercised("graph.overlay_grow_us", "us"),
    }

    let dp = Samples::new(stages.iter().map(|s| us(s.dp_ns)).collect());
    report.percentile("markov.dp_us_p50", &dp, 0.50, "us");
    report.percentile("markov.dp_us_p99", &dp, 0.99, "us");
    // Iteration counts from the served responses' own telemetry.
    let (mut run, mut budget, mut frozen, mut queries) = (0u64, 0u64, 0u64, 0u64);
    for r in traced.reads.iter().filter_map(|r| r.served()) {
        run += r.telemetry.iterations_run;
        budget += r.telemetry.iterations_budget;
        frozen += r.telemetry.rank_frozen;
        queries += r.telemetry.queries;
    }
    report.counted(
        "markov.iter_ratio",
        run as f64 / budget.max(1) as f64,
        "ratio",
        queries as usize,
    );
    report.counted(
        "markov.rank_frozen_ratio",
        frozen as f64 / queries.max(1) as f64,
        "ratio",
        queries as usize,
    );

    let recommend = Samples::new(stages.iter().map(|s| us(s.recommend_ns)).collect());
    report.percentile("core.recommend_us_p50", &recommend, 0.50, "us");
    report.percentile("core.recommend_us_p99", &recommend, 0.99, "us");
    let own = Samples::new(stages.iter().map(|s| s.self_ns() as f64 * 1e-3).collect());
    report.percentile("core.self_us", &own, 0.50, "us");
    if rerank {
        let finalize = Samples::new(stages.iter().map(|s| us(s.finalize_ns)).collect());
        report.percentile("core.rerank_us", &finalize, 0.50, "us");
    } else {
        report.not_exercised("core.rerank_us", "us");
    }

    let submit = Samples::new(
        traced
            .reads
            .iter()
            .map(|r| us(r.submit_end_ns - r.submit_start_ns))
            .collect(),
    );
    report.percentile("serve.submit_us_p50", &submit, 0.50, "us");
    report.percentile("serve.submit_us_p99", &submit, 0.99, "us");
    let recommend_of: HashMap<u64, u64> =
        stages.iter().map(|s| (s.request, s.recommend_ns)).collect();
    let wait = Samples::new(
        traced
            .reads
            .iter()
            .filter(|r| r.result.is_ok())
            .filter_map(|r| {
                let rec = recommend_of.get(&r.id)?;
                Some((r.sojourn_ns() as f64 - *rec as f64) * 1e-3)
            })
            .collect(),
    );
    report.percentile("serve.wait_us_p50", &wait, 0.50, "us");
    report.percentile("serve.wait_us_p99", &wait, 0.99, "us");
    let depth = Samples::new(trace.depths().map(|d| d as f64).collect());
    report.percentile("serve.queue_depth_p99", &depth, 0.99, "count");
    let s = &traced.stats;
    report.value("serve.rejected", s.rejected as f64, "count");
    report.value("serve.shed", s.shed as f64, "count");
    report.value(
        "serve.expired",
        (s.expired_at_dequeue + s.expired_in_dp) as f64,
        "count",
    );

    let appends = Samples::new(traced.append_ns.iter().map(|&n| us(n)).collect());
    let publishes = Samples::new(traced.publish_ns.iter().map(|&n| us(n)).collect());
    match &ingest {
        Some(i) => {
            report.percentile("serve.append_us_p50", &appends, 0.50, "us");
            report.percentile("serve.append_us_p99", &appends, 0.99, "us");
            report.percentile("serve.publish_us", &publishes, 0.50, "us");
            report.percentile("serve.compact_ms", &i.compact_ms, 0.50, "ms");
            report.value("serve.delta_edges_max", i.delta_edges_max as f64, "count");
        }
        None => {
            for (name, unit) in [
                ("serve.append_us_p50", "us"),
                ("serve.append_us_p99", "us"),
                ("serve.publish_us", "us"),
                ("serve.compact_ms", "ms"),
                ("serve.delta_edges_max", "count"),
            ] {
                report.not_exercised(name, unit);
            }
        }
    }
    let late = Samples::new(traced.late_ns.iter().map(|&n| us(n)).collect());
    report.percentile("gen.late_p99_us", &late, 0.99, "us");

    let finalized = stages.iter().all(|s| same_list(&s.list, &s.finalized));
    report.check(finalized, || {
        "finalize_topk over the candidate pool differs from recommend_into".to_string()
    });
    println!(
        "# replay: {} requests; finalize_topk over each candidate pool reproduces the list",
        stages.len()
    );
}

/// Print traced against untraced latency of the same schedule.
fn tracing_overhead(untraced: &PhaseLog, traced: &PhaseLog) {
    let (a, b) = (latency_samples_ms(untraced), latency_samples_ms(traced));
    for (name, q) in [("latency_p50_ms", 0.5), ("latency_p99_ms", 0.99)] {
        match (a.percentile(q), b.percentile(q)) {
            (Some(off), Some(on)) => println!(
                "# tracing overhead {name}: untraced {off:.4} ms (n={}), traced {on:.4} ms (n={}), ratio {:.3}",
                a.len(),
                b.len(),
                on / off
            ),
            _ => println!(
                "# tracing overhead {name}: too few samples (untraced n={}, traced n={})",
                a.len(),
                b.len()
            ),
        }
    }
}

fn write_spans(args: &Args, trace: &SpanLog) {
    let path = std::path::PathBuf::from(".bench_out")
        .join(format!("spans-{}-seed{}.json", args.workload, args.seed));
    match trace.write_file(&path) {
        Ok(()) => println!(
            "# spans: {} written to {}",
            trace.spans().len(),
            path.display()
        ),
        Err(e) => eprintln!("# spans could not be written to {}: {e}", path.display()),
    }
}

fn replay_ids(log: &PhaseLog) -> Vec<(u64, u32)> {
    log.reads
        .iter()
        .filter(|r| r.result.is_ok())
        .take(REPLAY_MAX)
        .map(|r| (r.id, r.user))
        .collect()
}

fn env_line(args: &Args, data: &Dataset, extra: &str) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# env workload={} seed={} seconds={} trace={} available_parallelism={cpus} workers={WORKERS} generator_threads=1 corpus={}x{} ratings={} k={K} {extra}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        data.n_users(),
        data.n_items(),
        data.n_ratings(),
    );
}

fn open_env(args: &Args, data: &Dataset, extra: &str) {
    env_line(
        args,
        data,
        &format!(
            "mu={} tau={} nominal_rps={NOMINAL_RPS} saturation_rps={SATURATION_RPS} queue_capacity={QUEUE_CAPACITY} admission=reject {extra}",
            HT_CONFIG.max_items, HT_CONFIG.iterations
        ),
    );
}

// ---------------------------------------------------------------------------
// douban_ht_open

fn douban_ht_open(args: &Args, clock: Clock, report: &mut Report) {
    let mut setup = SetupTimes::default();
    let (data, ht, engine) = setup.repeat(
        || douban_corpus(args.seed),
        |d| Arc::new(HittingTimeRecommender::new(d, HT_CONFIG)),
        |_, ht| open_engine(ht.clone(), None),
        |e| serve_first(e, "HT", 0),
    );
    open_env(args, &data, "");
    let users = Weighted::new(&data.user_activity());
    let split = LongTailSplit::by_rating_share(&data.item_popularity(), 0.2);
    let mut refs = References::new(&*ht, RecommendOptions::new());

    let mut load = Generator::new(&engine, "HT", K, clock);
    let warm = read_events(
        &users,
        stream(args.seed, WARMUP),
        NOMINAL_RPS,
        seconds(WARMUP_S),
    );
    load.open_loop(&warm);
    let nominal_events = read_events(
        &users,
        args.seed,
        NOMINAL_RPS,
        seconds(args.seconds * NOMINAL_SHARE),
    );
    let nominal = load.open_loop(&nominal_events);
    // Peak memory is read after a phase of fixed size: later phases keep
    // a record per request served, so a high-water mark read after them
    // would grow with the engine's speed.
    let rss = crate::sys::peak_rss_mb();
    phase_line("nominal", &nominal);
    check_schedule("nominal", &nominal, report);
    refs.check("nominal", &nominal, report);

    if args.trace {
        let mut trace = SpanLog::default();
        let traced = {
            let mut traced_load = Generator::new(&engine, "HT", K, clock);
            traced_load.trace = Some(&mut trace);
            traced_load.open_loop(&nominal_events)
        };
        phase_line("nominal traced", &traced);
        check_schedule("nominal traced", &traced, report);
        refs.check("nominal traced", &traced, report);
        tracing_overhead(&nominal, &traced);
        let opts = RecommendOptions::new();
        let target = Target {
            model: &*ht,
            walk: Walk::Hitting,
            k: K,
            max_items: HT_CONFIG.max_items,
            opts,
            pool: (opts, K),
            delta: None,
            graph: ht.graph(),
        };
        let stages = Replayer::default().run(&target, &replay_ids(&traced), &clock, &mut trace);
        layer_metrics(report, &setup, &traced, &stages, &trace, false, None);
        write_spans(args, &trace);
        return;
    }

    setup.end_to_end(report);
    latency_metrics(&nominal, report);
    report.value("peak_rss_mb", rss, "MB");
    let span = seconds(args.seconds * SATURATION_SHARE);
    let saturated = load.open_loop(&read_events(
        &users,
        stream(args.seed, SATURATION),
        SATURATION_RPS,
        span,
    ));
    saturation(&saturated, span, report);
    refs.check("saturation", &saturated, report);
    tail_share(&nominal, &split, report);
}

// ---------------------------------------------------------------------------
// movielens_ac1_deep

fn movielens_ac1_deep(args: &Args, clock: Clock, report: &mut Report) {
    let mut setup = SetupTimes::default();
    let (data, (ac1, index), engine) = setup.repeat(
        || movielens_corpus(args.seed),
        |d| {
            (
                Arc::new(AbsorbingCostRecommender::item_entropy(d, AC1_CONFIG)),
                Arc::new(RerankIndex::from_dataset(d)),
            )
        },
        |_, (ac1, index)| {
            Engine::builder()
                .model("AC1", ac1.clone())
                .rerank_index("AC1", index.clone())
                .default_rerank(rerank_policy())
                .workers(WORKERS)
                .build()
        },
        |e| serve_first(e, "AC1", 0),
    );
    env_line(
        args,
        &data,
        &format!(
            "mu={} tau={} stopping=adaptive rerank=mmr0.3+pop0.25+tail_quota3 closed_loop_outstanding={OUTSTANDING}",
            AC1_CONFIG.graph.max_items, AC1_CONFIG.graph.iterations
        ),
    );
    let weights = Weighted::new(&data.user_activity());
    let mut draws = SplitMix64::new(stream(args.seed, USERS));
    let users: Vec<u32> = (0..(args.seconds as usize + 2) * 400)
        .map(|_| weights.sample(&mut draws))
        .collect();
    let split = LongTailSplit::by_rating_share(&data.item_popularity(), 0.2);
    let policy = rerank_policy();
    let opts = RecommendOptions::new().rerank(Reranker::new(&index, policy));
    let mut refs = References::new(&*ac1, opts);

    let mut load = Generator::new(&engine, "AC1", K, clock);
    load.closed_loop(&users[users.len() / 2..], OUTSTANDING, seconds(WARMUP_S));
    // Read before the measured loop, whose record grows with its speed.
    let rss = crate::sys::peak_rss_mb();
    let span = if args.trace {
        args.seconds * 0.5
    } else {
        args.seconds
    };
    let closed = load.closed_loop(&users, OUTSTANDING, seconds(span));
    phase_line("closed loop", &closed);
    refs.check("closed loop", &closed, report);

    if args.trace {
        let mut trace = SpanLog::default();
        let traced = {
            let mut traced_load = Generator::new(&engine, "AC1", K, clock);
            traced_load.trace = Some(&mut trace);
            traced_load.closed_loop(&users, OUTSTANDING, seconds(args.seconds))
        };
        phase_line("closed loop traced", &traced);
        refs.check("closed loop traced", &traced, report);
        tracing_overhead(&closed, &traced);
        let graph = data.to_graph();
        let target = Target {
            model: &*ac1,
            walk: Walk::AbsorbingCost {
                entropies: ac1.user_entropies(),
                item_cost: AC1_CONFIG.item_entry_cost,
            },
            k: K,
            max_items: AC1_CONFIG.graph.max_items,
            opts,
            pool: (RecommendOptions::new(), policy.effective_pool(K)),
            delta: None,
            graph: &graph,
        };
        let stages = Replayer::default().run(&target, &replay_ids(&traced), &clock, &mut trace);
        layer_metrics(report, &setup, &traced, &stages, &trace, true, None);
        write_spans(args, &trace);
        return;
    }

    setup.end_to_end(report);
    latency_metrics(&closed, report);
    report.value("peak_rss_mb", rss, "MB");
    let rate = closed.served() as f64 / closed.seconds();
    report.info_value("throughput_rps", rate, "1/s", closed.served());
    capacity(&closed, report);
    tail_share(&closed, &split, report);
}

// ---------------------------------------------------------------------------
// douban_ht_ingest

/// The maintenance thread's record.
#[derive(Default)]
struct Maintenance {
    compact_ms: Vec<f64>,
    delta_edges_max: u64,
}

fn douban_ht_ingest(args: &Args, clock: Clock, report: &mut Report) {
    let mut setup = SetupTimes::default();
    let needed = appends_needed(args);
    let ((data, held), ht, (engine, store)) = setup.repeat(
        || hold_out(&douban_corpus(args.seed), needed),
        |(d, _)| Arc::new(HittingTimeRecommender::new(d, HT_CONFIG)),
        |(d, _), ht| {
            let config = DeltaConfig {
                publish_every: usize::MAX,
                max_delta_edges: usize::MAX,
            };
            let store = Arc::new(DeltaStore::new(d.clone(), config));
            (open_engine(ht.clone(), Some(store.clone())), store)
        },
        |(e, _)| serve_first(e, "HT", 0),
    );
    open_env(
        args,
        &data,
        &format!(
            "append_rps={APPEND_RPS} appends_held_out={} publish_every={PUBLISH_EVERY} compact_every_ms={} maintenance_threads=1",
            held.len(),
            COMPACT_EVERY.as_millis()
        ),
    );
    if held.len() < needed {
        report.invalid.push(format!(
            "{needed} appends needed, but at most {HOLDOUT_MAX} of the corpus ({}) can be held out: run fewer --seconds",
            held.len()
        ));
        return;
    }
    let users = Weighted::new(&data.user_activity());
    let split = LongTailSplit::by_rating_share(&data.item_popularity(), 0.2);
    let mut appends = AppendStream(held.into_iter());
    // The model serving now, replaced by every compaction.
    let latest = Mutex::new(ht.clone());
    let build = |d: &Dataset| -> SharedRecommender {
        let model = Arc::new(HittingTimeRecommender::new(d, HT_CONFIG));
        *latest
            .lock()
            .expect("no panics while holding the model slot") = model.clone();
        model
    };

    let stop = AtomicBool::new(false);
    let mut trace = SpanLog::default();
    let mut rss = 0.0;
    // The maintenance thread's CPU time is engine work: every phase's
    // `capacity_rps` pays for the compactions that ran during it.
    let (phases, maintenance) = std::thread::scope(|scope| {
        let (stop, engine, store) = (&stop, &engine, &store);
        let maintainer = scope.spawn(move || {
            let mut m = Maintenance::default();
            let mut next = Instant::now() + COMPACT_EVERY;
            while !stop.load(Ordering::Relaxed) {
                let now = Instant::now();
                if now < next {
                    std::thread::sleep(next - now);
                    continue;
                }
                next += COMPACT_EVERY;
                m.delta_edges_max = m.delta_edges_max.max(store.stats().delta_edges_live);
                let t0 = Instant::now();
                engine
                    .compact_and_deploy("HT", build)
                    .expect("HT has an ingest store");
                m.compact_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            m
        });
        let mut load = Generator::new(engine, "HT", K, clock);
        load.ingest = Some((store.as_ref(), PUBLISH_EVERY));
        let warm = merge(
            read_events(
                &users,
                stream(args.seed, WARMUP),
                NOMINAL_RPS,
                seconds(WARMUP_S),
            ),
            appends.events(seconds(WARMUP_S)),
        );
        load.open_loop(&warm);
        let span = seconds(args.seconds * NOMINAL_SHARE);
        let nominal_events = merge(
            read_events(&users, args.seed, NOMINAL_RPS, span),
            appends.events(span),
        );
        let mut phases = vec![("nominal".to_string(), load.open_loop(&nominal_events))];
        // Read before the saturation phase, whose record grows with speed.
        rss = crate::sys::peak_rss_mb();
        if args.trace {
            let traced_events = merge(
                read_events(&users, args.seed, NOMINAL_RPS, span),
                appends.events(span),
            );
            let mut traced_load = Generator::new(engine, "HT", K, clock);
            traced_load.ingest = Some((store.as_ref(), PUBLISH_EVERY));
            traced_load.trace = Some(&mut trace);
            phases.push((
                "nominal traced".to_string(),
                traced_load.open_loop(&traced_events),
            ));
        } else {
            let span = seconds(args.seconds * SATURATION_SHARE);
            let events = merge(
                read_events(&users, stream(args.seed, SATURATION), SATURATION_RPS, span),
                appends.events(span),
            );
            phases.push(("saturation".to_string(), load.open_loop(&events)));
        }
        stop.store(true, Ordering::Relaxed);
        let maintenance = maintainer
            .join()
            .expect("the maintenance thread does not panic");
        (phases, maintenance)
    });
    let nominal = &phases[0].1;
    phase_line("nominal", nominal);
    check_schedule("nominal", nominal, report);
    println!(
        "# maintenance: {} compactions taking {:.1} ms in all, delta_edges_max={}",
        maintenance.compact_ms.len(),
        maintenance.compact_ms.iter().sum::<f64>(),
        maintenance.delta_edges_max
    );

    // Every response names a (version, epoch) pair the store really had.
    let log: HashSet<(u64, u32)> = store.epoch_log().into_iter().collect();
    let mut claimed = 0;
    for (name, phase) in &phases {
        for read in &phase.reads {
            let Some(resp) = read.served() else { continue };
            let pair = resp.epoch.map(|e| (e, resp.version));
            report.check(pair.is_some_and(|p| log.contains(&p)), || {
                format!(
                    "{name}: request {} claims (version {}, epoch {:?}), absent from epoch_log",
                    read.id, resp.version, resp.epoch
                )
            });
            claimed += 1;
        }
    }
    println!("# check epochs: {claimed} responses name a (version, epoch) pair in epoch_log");

    store.publish();
    let model = latest.lock().expect("maintenance has ended").clone();
    if args.trace {
        let traced = &phases[1].1;
        phase_line("nominal traced", traced);
        check_schedule("nominal traced", traced, report);
        tracing_overhead(nominal, traced);
        let snapshot = store.snapshot();
        let opts = RecommendOptions::new();
        let target = Target {
            model: &*model,
            walk: Walk::Hitting,
            k: K,
            max_items: HT_CONFIG.max_items,
            opts,
            pool: (opts, K),
            delta: Some(&snapshot.delta),
            graph: model.graph(),
        };
        let stages = Replayer::default().run(&target, &replay_ids(traced), &clock, &mut trace);
        let ingest = IngestLayers {
            overlay_grow_us: Samples::new(stages.iter().map(|s| us(s.grow_ns)).collect()),
            compact_ms: Samples::new(maintenance.compact_ms.clone()),
            delta_edges_max: maintenance.delta_edges_max,
        };
        layer_metrics(report, &setup, traced, &stages, &trace, false, Some(ingest));
        write_spans(args, &trace);
    }

    union_check(args, &engine, &users, report);

    if !args.trace {
        setup.end_to_end(report);
        latency_metrics(nominal, report);
        report.value("peak_rss_mb", rss, "MB");
        let span = seconds(args.seconds * SATURATION_SHARE);
        saturation(&phases[1].1, span, report);
        tail_share(nominal, &split, report);
        let compact = Samples::new(maintenance.compact_ms);
        let appends = Samples::new(nominal.append_ns.iter().map(|&n| us(n)).collect());
        report.info_percentile("append_p99_us", &appends, 0.99, "us");
        report.info_percentile("compact_p50_ms", &compact, 0.5, "ms");
    }
}

/// Served lists over base + delta, and again after a final compaction,
/// must equal a model rebuilt on the union of base and appends.
fn union_check(args: &Args, engine: &Engine, users: &Weighted, report: &mut Report) {
    let mut draws = SplitMix64::new(stream(args.seed, CHECK));
    let sample: Vec<u32> = (0..UNION_SAMPLE)
        .map(|_| users.sample(&mut draws))
        .collect();
    let serve_all = || -> Vec<Vec<ScoredItem>> {
        sample
            .iter()
            .map(|&u| {
                engine
                    .recommend(&RecommendRequest::new("HT", u, K))
                    .expect("an idle engine serves inline")
                    .items
            })
            .collect()
    };
    let overlay = serve_all();
    let union = Mutex::new(None);
    engine
        .compact_and_deploy("HT", |d| {
            *union.lock().expect("no panics while holding the union") = Some(d.clone());
            Arc::new(HittingTimeRecommender::new(d, HT_CONFIG))
        })
        .expect("HT has an ingest store");
    let compacted = serve_all();
    let union = union
        .into_inner()
        .expect("no panics while holding the union")
        .expect("the final compaction ran");
    let rebuilt = HittingTimeRecommender::new(&union, HT_CONFIG);
    let mut ctx = ScoringContext::new();
    for (i, &u) in sample.iter().enumerate() {
        let mut expected = Vec::new();
        rebuilt.recommend_into(u, K, &RecommendOptions::new(), &mut ctx, &mut expected);
        report.check(same_list(&overlay[i], &expected), || {
            format!("user {u}: base + delta list differs from a rebuild on the union")
        });
        report.check(same_list(&compacted[i], &expected), || {
            format!("user {u}: list after the final compaction differs from a rebuild on the union")
        });
    }
    println!(
        "# check union: {} users served over base + delta and after compaction equal a rebuild on the union ({} ratings)",
        sample.len(),
        union.n_ratings()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus(seed: u64) -> Dataset {
        SyntheticData::generate(&SyntheticConfig {
            n_users: 60,
            n_items: 80,
            seed,
            ..SyntheticConfig::douban_like()
        })
        .dataset
    }

    #[test]
    fn one_seed_gives_one_set_of_inputs() {
        let inputs = |seed: u64| {
            let (base, held) = hold_out(&small_corpus(seed), 100);
            let users = Weighted::new(&base.user_activity());
            let span = seconds(2.0);
            merge(
                read_events(&users, seed, 200.0, span),
                AppendStream(held.into_iter()).events(span),
            )
        };
        assert_eq!(inputs(4), inputs(4));
        assert_ne!(inputs(4), inputs(5));
        assert_eq!(douban_corpus(3).to_ratings(), douban_corpus(3).to_ratings());
    }

    #[test]
    fn appends_are_each_users_newest_ratings() {
        let data = small_corpus(9);
        let (base, held) = hold_out(&data, 100);
        assert_eq!(held.len(), 100);
        assert_eq!(base.n_ratings() + held.len(), data.n_ratings());
        assert!(held.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
        let base_times = base.times().expect("the base keeps its stamps");
        for r in &held {
            let (_, stamps) = base_times.row(r.user as usize);
            assert!(stamps.iter().all(|&t| t < r.timestamp));
            assert!(base.ratings_of(r.user).all(|(i, _)| i != r.item));
        }
        // Never more than the cap, however many are asked for.
        let (_, all) = hold_out(&data, data.n_ratings());
        assert_eq!(all.len(), (data.n_ratings() as f64 * HOLDOUT_MAX) as usize);
    }
}
