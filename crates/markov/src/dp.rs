//! Allocation-free truncated dynamic programs over a pre-normalized kernel.
//!
//! Algorithm 1's inner loop — `AC_{t+1}(i) = r_i + Σ_j p_ij AC_t(j)` — is
//! the hottest code in the system: it runs τ times per query over every edge
//! of the query's subgraph. This module implements it directly over
//! [`TransitionMatrix`] CSR slices (probabilities pre-divided, no hash maps,
//! no per-edge division) with all state in caller-owned [`DpBuffers`], so a
//! steady-state scoring loop performs no allocation at all.
//!
//! Each `p_ij` is the same rounded quotient the old loop recomputed per
//! iteration, so the recursion evaluates the pre-refactor formula; only the
//! within-row summation order differs (a blocked reduction on the fast
//! path), bounding the divergence to last-ulp rounding. The golden tests in
//! `tests/golden_kernel.rs` pin that equivalence against a verbatim copy of
//! the pre-refactor code.
//!
//! # Two programs, one row reduction
//!
//! [`truncated_costs_into`] is the full-vector reference: τ sweeps over
//! every row, every node's value at τ.
//!
//! [`parity_chain_costs_into`] is the serving program. The recommenders'
//! subgraphs are bipartite (users ↔ items), so an item's value at τ reads
//! only users at τ − 1, which read only items at τ − 2, and so on: half of
//! every full sweep computes the opposite-parity chain, which nothing the
//! caller reads depends on. The chain sweeps one side per iteration, in
//! place — the side that lands on the *target* side (the items) at τ, the
//! other side in between — so it does half the edge work. Both programs
//! share the per-row reduction (and pick its variant by the same test), so
//! every target-side value of the chain is bit-for-bit the reference value.
//!
//! The reduction has three variants, picked once per call:
//!
//! * **checked** — when a transient row is dangling, `∞` can enter the
//!   recursion, so each row is reduced in order and short-circuits on `∞`;
//! * **scalar** — otherwise every value stays finite, and four accumulators
//!   break the add latency chain: lane `k` takes entries `4c + k` in order,
//!   the lanes combine as `(a0 + a1) + (a2 + a3)`, the remainder is added
//!   in order;
//! * **AVX2** — the scalar variant's four accumulators as the lanes of one
//!   register, with the four values gathered by `_mm256_i32gather_pd` and a
//!   separate multiply and add (no FMA). Each lane sees the same operands in
//!   the same order, and the combine and remainder are the scalar code, so
//!   the result is bit-for-bit the scalar one — the scalar variant stays
//!   the fallback and the oracle. It runs when
//!   `is_x86_feature_detected!("avx2")` holds; the sweeps are compiled for
//!   AVX2 as a whole (`#[target_feature]`), so the gather inlines into the
//!   row loop and no row pays an indirect call. Non-x86 targets and checked
//!   kernels never take it.
//!
//! # Early termination
//!
//! The chain can stop before τ when the caller passes [`EarlyExit`] rules.
//! They watch the target side's *two-step* increments `E_t = v_t − v_{t−2}`
//! and their sup norm `δ2_t`, measured on iterations that land on the target
//! side (never before `t = 2`, where `v_{t−2}` is the zero start or the
//! first target sweep). Their soundness rests on three properties:
//!
//! * **Monotonicity.** Starting from `AC_0 = 0`, with non-negative entry
//!   costs and a non-negative kernel, `AC_{t+1} − AC_t = P(AC_t − AC_{t−1})
//!   ≥ 0`: values only grow, so `E_t ≥ 0`. (Equivalently: the negated
//!   *scores* the recommenders serve only shrink, so an early stop reports
//!   each item at an upper bound of its fixed-τ score.)
//! * **Two-step contraction.** On the target side `E_{t+2} = Q·E_t` with
//!   `Q = P_TO·P_OT`, the product of the two off-diagonal blocks of the
//!   kernel. Every kernel row sums to at most 1 (rows are stochastic,
//!   absorbing rows act as zero rows, dangling rows are empty), so `Q` is
//!   non-negative and substochastic and `δ2_{t+2q} ≤ δ2_t` for every
//!   `q ≥ 0`. The target side and τ share a parity, so `(τ − t)/2` two-step
//!   increments remain after iteration `t`, and no target value can move by
//!   more than `δ2_t · (τ − t)/2` before the fixed-τ horizon — the global
//!   *remaining-change bound* handed to the rank-stability probe.
//! * **The `∞` front closes before δ2 is finite.** A node is `∞` at `t`
//!   exactly when a walk over transient nodes reaches a dangling node within
//!   `t − 1` hops, so the `∞` set grows by one BFS ring (of hop distance to
//!   the dangling pockets) per iteration. A target node finite at `t − 2`
//!   and `∞` at `t` sits in ring `t − 2` or `t − 1`, and reports `δ2_t = ∞`.
//!   So a finite measured `δ2_t` means neither ring holds a target node; a
//!   node of the other side in ring `t − 1` would need a neighbour in ring
//!   `t − 2`, which lies on the target side, so ring `t − 1` is empty and
//!   with it every later ring. No stopping rule can fire while the
//!   reachable-candidate set is still changing: once `δ2_t` is finite,
//!   finite nodes stay finite forever.
//!
//! For **superharmonic** immediate costs (`P·r ≤ r` elementwise, e.g.
//! [`crate::UnitCost`]) the one-step increments `e_t = v_t − v_{t−1}` are
//! non-increasing *per node* (`e_{t+1} = P·e_t ≤ e_t` by induction from
//! `e_1 = r`), hence so is `E_t = e_t + e_{t−1}`, and node `i` cannot move
//! by more than `E_t(i) · (τ − t)/2` — see [`DpProbe::node_bound`].

use crate::cost::CostModel;
use longtail_graph::TransitionMatrix;

/// Reusable state for the truncated absorbing-walk dynamic programs.
///
/// Create once per worker thread and pass to [`truncated_costs_into`] or
/// [`parity_chain_costs_into`] for every query; buffers are resized
/// (retaining capacity) as subgraph sizes vary.
#[derive(Debug, Clone, Default)]
pub struct DpBuffers {
    /// Expected immediate cost of one hop out of each node.
    immediate: Vec<f64>,
    /// DP value vector at the current iteration.
    current: Vec<f64>,
    /// The full program's vector being written; the chain's target-side
    /// values two iterations back, saved on measured iterations.
    next: Vec<f64>,
}

impl DpBuffers {
    /// Empty buffers; sized lazily by the first query.
    pub fn new() -> Self {
        Self::default()
    }

    /// The values of the last completed dynamic program.
    ///
    /// After [`truncated_costs_into`] every node holds its value at the
    /// iteration count. After [`parity_chain_costs_into`] only the target
    /// side (the items) is at the iterations performed; the other side holds
    /// its value one iteration earlier.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.current
    }

    /// Cost of local node `local` from the last completed dynamic program:
    /// `Some(cost)` when the truncated walk assigns the node a finite
    /// absorbing cost, `None` when the node can only reach dangling pockets
    /// (`∞`). After the parity chain, ask only for target-side nodes (see
    /// [`DpBuffers::values`]).
    ///
    /// This is the extraction primitive of the fused top-k query path: a
    /// recommender walks the subgraph's item nodes and pulls each one's cost
    /// straight out of the DP state, so no global score vector is ever
    /// materialized.
    #[inline]
    pub fn finite_cost(&self, local: u32) -> Option<f64> {
        let v = self.current[local as usize];
        v.is_finite().then_some(v)
    }
}

/// The two sides of a bipartite kernel, as lists of local row ids.
///
/// Every column of a row on one side must lie on the other side, and no row
/// may be on both; [`parity_chain_costs_into`] checks both in debug builds.
/// Rows on neither side are never swept and keep the value 0.
#[derive(Debug, Clone, Copy)]
pub struct ParitySides<'a> {
    /// Rows whose values the caller reads at τ (the items).
    pub target: &'a [u32],
    /// Rows of the other side (the users).
    pub other: &'a [u32],
}

/// What the rank-stability probe sees after a measured iteration `t` of
/// [`parity_chain_costs_into`]. Only target-side entries of the two vectors
/// are meaningful.
///
/// Two sound remaining-change bounds can be derived from it, both capping
/// how far any target value can still move before the fixed-τ horizon (see
/// the module docs for the argument):
///
/// * [`DpProbe::global_bound`] — `δ2_t · (τ − t)/2`, valid for every
///   non-negative cost model (two-step sup-norm increments are
///   non-increasing because `P_TO·P_OT` is non-negative and substochastic).
/// * [`DpProbe::node_bound`] — `(v_t(i) − v_{t−2}(i)) · (τ − t)/2`, the
///   node's *own* latest two-step increment extended over the remaining
///   ones. Valid only for **superharmonic** immediate costs (`P·r ≤ r`
///   elementwise, e.g. [`crate::UnitCost`], whose increments are per-node
///   survival probabilities): then one-step increments shrink *per node*,
///   and with them every two-step increment. Much tighter than the global
///   bound near the absorbing set, where exactly the best-ranked candidates
///   live.
#[derive(Debug, Clone, Copy)]
pub struct DpProbe<'a> {
    /// Current value vector (`v_t` on the target side).
    pub values: &'a [f64],
    /// Target-side values two iterations back (`v_{t−2}`).
    pub previous: &'a [f64],
    /// Two-step sup-norm change `δ2_t` of the target side (finite when
    /// probed).
    pub delta: f64,
    /// Two-step increments left before the fixed-τ horizon, `(τ − t)/2`.
    pub remaining: usize,
}

impl DpProbe<'_> {
    /// Remaining-change bound valid for every non-negative cost model.
    #[inline]
    pub fn global_bound(&self) -> f64 {
        self.delta * self.remaining as f64
    }

    /// Per-node remaining-change bound — sound only for superharmonic
    /// immediate costs (see the type docs).
    #[inline]
    pub fn node_bound(&self, local: usize) -> f64 {
        (self.values[local] - self.previous[local]) * self.remaining as f64
    }
}

/// First iteration at which the rank-stability probe is consulted.
const PROBE_START: usize = 6;

/// The δ2/scale measurement pass is `O(target rows)` — noticeable against
/// the half-sweeps of small, sparse subgraphs — so it only runs on a target
/// sweep at least this many iterations after the last measured one (plus on
/// every probe-scheduled and final iteration). The convergence stop can
/// overshoot by at most `DELTA_STRIDE − 1` iterations.
const DELTA_STRIDE: usize = 4;

/// After a failed probe at iteration `t`, the next probe runs on the first
/// target sweep at or after `t + max(2, t/8)` — a geometric schedule dense
/// enough to overshoot the earliest provable stop by only a few percent
/// while keeping probe overhead negligible for both small and large budgets.
#[inline]
fn next_probe_after(t: usize) -> usize {
    t + (t / 8).max(2)
}

/// Outcome of one [`parity_chain_costs_into`] run: how many of the τ
/// budgeted iterations actually ran, and which stopping rule ended the walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpRun {
    /// Iterations actually performed (≤ `budget`); each one sweeps one side
    /// of the bipartition.
    pub iterations: usize,
    /// The fixed-τ iteration budget the run was allowed.
    pub budget: usize,
    /// The value-convergence rule fired: `δ2_t ≤ ε · scale`.
    pub converged: bool,
    /// The caller's rank-stability probe declared the top-k frozen.
    pub rank_frozen: bool,
    /// The caller's cooperative cancellation hook aborted the run (e.g. a
    /// serving deadline expired mid-walk). The value vector is whatever the
    /// last completed sweep produced — a sound *lower* bound on every
    /// fixed-τ value, but not rank-certified; callers must not serve a
    /// ranking from a cancelled run.
    pub cancelled: bool,
    /// Two-step sup-norm change `δ2` of the last *measured* iteration — δ2
    /// is measured on a small stride of target sweeps plus every
    /// probe-scheduled and final one (`∞` when nothing was measured, or
    /// while the `∞` front was still spreading).
    pub last_delta: f64,
}

impl DpRun {
    /// A run that exhausted `budget` fixed iterations with no adaptive
    /// bookkeeping (the [`truncated_costs_into`] semantics).
    pub fn fixed(budget: usize) -> Self {
        Self {
            iterations: budget,
            budget,
            converged: false,
            rank_frozen: false,
            cancelled: false,
            last_delta: f64::INFINITY,
        }
    }
}

/// The early-exit rules of an adaptive [`parity_chain_costs_into`] run.
///
/// * **Convergence** — `δ2_t ≤ epsilon · scale`, where `scale` is the
///   largest finite target value so far (floored at 1, so ε also acts
///   absolutely near zero). Every target value is then within
///   `δ2_t · (τ − t)/2` of its fixed-τ counterpart. With `δ2_t = 0` the
///   chain is at an exact f64 fixed point and the run stops
///   unconditionally, bit-identical to the full run. With
///   `0 < δ2_t ≤ ε · scale` the values are converged but near-tied *orders*
///   are not yet certified, so when a rank probe is supplied the stop
///   additionally requires its confirmation (rankings stay fixed-τ
///   identical); without a probe the caller gets plain value-converged
///   semantics. A negative `epsilon` restricts the rule to exact fixed
///   points.
/// * **Rank stability** — on a geometric schedule (from iteration 6, then
///   ~8 probes per decade), and only once `δ2_t` is finite, `probe`
///   receives a [`DpProbe`]; returning `true` asserts that no admissible
///   ranking outcome can change within the probe's remaining-change bounds
///   and stops the run. The fused serving path uses this to halt the moment
///   its top-k list is frozen.
/// * **Cancellation** (not sound) — `cancel` is consulted on the measured
///   iterations only, never inside the hot sweep, and returning `true`
///   aborts the run with [`DpRun::cancelled`] set. The serving layer uses
///   this to stop paying for a walk whose request deadline has already
///   expired; the abandoned values are monotone lower bounds of the fixed-τ
///   values but certify no ranking, so cancelled runs must not be served.
///   An exact fixed point (`δ2_t = 0`) still stops as `converged` when
///   `cancel` fires on the same iteration — the result is bit-identical to
///   the full run, so there is nothing to abandon.
pub struct EarlyExit<'a> {
    /// Value-convergence tolerance relative to the value scale.
    pub epsilon: f64,
    /// The rank-stability probe, if any.
    pub probe: Option<&'a mut dyn FnMut(&DpProbe<'_>) -> bool>,
    /// The cooperative cancellation hook, if any.
    pub cancel: Option<&'a dyn Fn() -> bool>,
}

/// Hoist the expected immediate cost of one hop out of each transient node:
/// `Σ_j p_ij · entry_cost(j)`, constant across iterations. Returns whether
/// any transient node is dangling — only then can `∞` enter the recursion.
fn expected_immediate_costs(
    kernel: &TransitionMatrix,
    absorbing: &[bool],
    cost: &dyn CostModel,
    immediate: &mut Vec<f64>,
) -> bool {
    let n = kernel.n_nodes();
    immediate.clear();
    immediate.resize(n, 0.0);
    let constant = cost.constant_cost();
    let cost_table = cost.cost_slice();
    let mut any_infinite = false;
    for i in 0..n {
        if absorbing[i] {
            continue;
        }
        let (cols, probs) = kernel.row(i);
        if cols.is_empty() {
            immediate[i] = f64::INFINITY;
            any_infinite = true;
            continue;
        }
        let mut acc = 0.0;
        // The fast arms round identically to the virtual-call loop: `p · c`
        // and a gathered `p · table[j]` are the same multiplies.
        if let Some(c) = constant {
            for &p in probs {
                acc += p * c;
            }
        } else if let Some(table) = cost_table {
            for (&j, &p) in cols.iter().zip(probs) {
                acc += p * table[j as usize];
            }
        } else {
            for (&j, &p) in cols.iter().zip(probs) {
                acc += p * cost.entry_cost(j as usize);
            }
        }
        immediate[i] = acc;
    }
    any_infinite
}

/// The row reduction a DP call runs, picked once per call by
/// [`pick_reduction`]; [`row_value`] and the sweeps are monomorphized over
/// it.
type Reduction = u8;
/// In order, short-circuiting on `∞`: [`row_sum_checked`].
const CHECKED: Reduction = 0;
/// Four scalar accumulators: [`row_sum_scalar`].
const SCALAR: Reduction = 1;
/// The same four accumulators as the lanes of one AVX2 register:
/// [`row_sum_avx2`].
#[cfg(target_arch = "x86_64")]
const AVX2: Reduction = 2;

/// The reduction of a DP call over `n` nodes: [`CHECKED`] when a transient
/// row is dangling, otherwise [`AVX2`] when the CPU has it and the gather's
/// signed 32-bit indices reach every node, otherwise [`SCALAR`].
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
fn pick_reduction(any_infinite: bool, n: usize) -> Reduction {
    if any_infinite {
        return CHECKED;
    }
    #[cfg(target_arch = "x86_64")]
    if n <= 1 << 31 && std::arch::is_x86_feature_detected!("avx2") {
        return AVX2;
    }
    SCALAR
}

/// `Σ_j p_ij · values[j]` for kernels with dangling transient rows: `∞`
/// from unreachable pockets must short-circuit instead of producing NaN via
/// `0.0 · ∞`-adjacent arithmetic, so the row is reduced in order, and an
/// empty (dangling) row is `∞` itself.
#[inline(always)]
fn row_sum_checked(cols: &[u32], probs: &[f64], values: &[f64]) -> f64 {
    if cols.is_empty() {
        return f64::INFINITY;
    }
    let mut acc = 0.0;
    for (&j, &p) in cols.iter().zip(probs) {
        let v = values[j as usize];
        if !v.is_finite() {
            return f64::INFINITY;
        }
        acc += p * v;
    }
    acc
}

/// `Σ_j p_ij · values[j]` for kernels without dangling rows, where every
/// value provably stays finite (each bounded by τ·max immediate), so the
/// per-edge finiteness branch and the empty-row probe drop out. Four
/// accumulators break the floating-point add latency chain that otherwise
/// serializes the reduction: lane `k` takes entries `4c + k` in order, the
/// lanes combine as `(a0 + a1) + (a2 + a3)`, then the remainder is added in
/// order. The summation order differs from [`row_sum_checked`] by last-ulp
/// rounding only.
#[inline(always)]
fn row_sum_scalar(cols: &[u32], probs: &[f64], values: &[f64]) -> f64 {
    let mut cols4 = cols.chunks_exact(4);
    let mut probs4 = probs.chunks_exact(4);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0, 0.0, 0.0);
    for (c, p) in (&mut cols4).zip(&mut probs4) {
        a0 += p[0] * values[c[0] as usize];
        a1 += p[1] * values[c[1] as usize];
        a2 += p[2] * values[c[2] as usize];
        a3 += p[3] * values[c[3] as usize];
    }
    let mut acc = (a0 + a1) + (a2 + a3);
    for (&j, &p) in cols4.remainder().iter().zip(probs4.remainder()) {
        acc += p * values[j as usize];
    }
    acc
}

/// [`row_sum_scalar`] with its four accumulators as the lanes of one AVX2
/// register: lane `k` gathers `values[cols[4c + k]]` and adds its product
/// in order, with a separate multiply and add (no FMA, which would round
/// once instead of twice). The lanes then combine as `(a0 + a1) + (a2 +
/// a3)` and the remainder is added in order, so every operation — and
/// hence the result — is bit-for-bit the scalar one.
///
/// The gather reads through a raw pointer, so its indices are clamped to
/// the last entry of `values`: no lane can read out of bounds whatever
/// `cols` holds. Every `TransitionMatrix` column is `< n_nodes()`, and the
/// DP's value vectors hold `n_nodes()` entries, so the clamp never changes
/// an index. (The remainder indexes with bounds checks, as the scalar code
/// does.) The gather's indices are signed 32-bit, so `values` must hold
/// between 1 and 2^31 entries; [`pick_reduction`] sends larger kernels to
/// the scalar code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn row_sum_avx2(cols: &[u32], probs: &[f64], values: &[f64]) -> f64 {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_castpd256_pd128, _mm256_extractf128_pd, _mm256_i32gather_pd,
        _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd, _mm_cvtsd_f64, _mm_hadd_pd,
        _mm_loadu_si128, _mm_min_epu32, _mm_set1_epi32, _mm_unpackhi_pd,
    };
    let last = i32::try_from(values.len().wrapping_sub(1))
        .expect("the gather reads a non-empty vector of at most 2^31 entries");
    let last = _mm_set1_epi32(last);
    let mut cols4 = cols.chunks_exact(4);
    let mut probs4 = probs.chunks_exact(4);
    let mut lanes = _mm256_setzero_pd();
    for (c, p) in (&mut cols4).zip(&mut probs4) {
        // SAFETY: `chunks_exact(4)` yields exactly four `u32`s (16 bytes)
        // and four `f64`s (32 bytes); both loads are unaligned.
        let (idx, p) = unsafe {
            (
                _mm_loadu_si128(c.as_ptr().cast()),
                _mm256_loadu_pd(p.as_ptr()),
            )
        };
        let idx = _mm_min_epu32(idx, last);
        // SAFETY: lane k reads `values[min(c[k], last)]` with `last =
        // values.len() - 1`, which fits an `i32`: every lane's index is
        // non-negative and inside `values`.
        let v = unsafe { _mm256_i32gather_pd::<8>(values.as_ptr(), idx) };
        lanes = _mm256_add_pd(lanes, _mm256_mul_pd(p, v));
    }
    // [a0 + a1, a2 + a3], then their sum: the scalar combine.
    let pairs = _mm_hadd_pd(
        _mm256_castpd256_pd128(lanes),
        _mm256_extractf128_pd::<1>(lanes),
    );
    let mut acc = _mm_cvtsd_f64(pairs) + _mm_cvtsd_f64(_mm_unpackhi_pd(pairs, pairs));
    for (&j, &p) in cols4.remainder().iter().zip(probs4.remainder()) {
        acc += p * values[j as usize];
    }
    acc
}

/// The new value of transient row `i`: `r_i + Σ_j p_ij · values[j]`, with
/// the sum reduced as `R` says. Both DP programs reduce rows through this
/// one function, which is what makes the parity chain bit-identical to the
/// full sweep.
#[inline(always)]
fn row_value<const R: Reduction>(
    kernel: &TransitionMatrix,
    i: usize,
    immediate: &[f64],
    values: &[f64],
) -> f64 {
    let (cols, probs) = kernel.row(i);
    let sum = match R {
        CHECKED => row_sum_checked(cols, probs, values),
        // SAFETY: `row_value::<AVX2>` runs only inside `sweep_avx2` and
        // `half_sweep_avx2`, which are entered only on CPUs with AVX2.
        #[cfg(target_arch = "x86_64")]
        AVX2 => unsafe { row_sum_avx2(cols, probs, values) },
        _ => row_sum_scalar(cols, probs, values),
    };
    immediate[i] + sum
}

/// One full DP iteration: every row of `next` from `current`.
#[inline(always)]
fn sweep<const R: Reduction>(
    kernel: &TransitionMatrix,
    absorbing: &[bool],
    immediate: &[f64],
    current: &[f64],
    next: &mut [f64],
) {
    for (i, out) in next.iter_mut().enumerate() {
        *out = if absorbing[i] {
            0.0
        } else {
            row_value::<R>(kernel, i, immediate, current)
        };
    }
}

/// One chain iteration: the transient rows of one side, updated in place.
/// Their columns all lie on the other side, which this sweep does not
/// write, so in-place updating reads exactly the previous iteration's
/// values. With `save`, each row's old value is copied there first.
#[inline(always)]
fn half_sweep<const R: Reduction>(
    kernel: &TransitionMatrix,
    rows: &[u32],
    absorbing: &[bool],
    immediate: &[f64],
    values: &mut [f64],
    mut save: Option<&mut [f64]>,
) {
    for &i in rows {
        let i = i as usize;
        if absorbing[i] {
            continue;
        }
        let v = row_value::<R>(kernel, i, immediate, values);
        if let Some(previous) = save.as_deref_mut() {
            previous[i] = values[i];
        }
        values[i] = v;
    }
}

/// [`sweep`] compiled for AVX2, so [`row_sum_avx2`] inlines into its loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sweep_avx2(
    kernel: &TransitionMatrix,
    absorbing: &[bool],
    immediate: &[f64],
    current: &[f64],
    next: &mut [f64],
) {
    sweep::<AVX2>(kernel, absorbing, immediate, current, next);
}

/// [`half_sweep`] compiled for AVX2, so [`row_sum_avx2`] inlines into its
/// loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn half_sweep_avx2(
    kernel: &TransitionMatrix,
    rows: &[u32],
    absorbing: &[bool],
    immediate: &[f64],
    values: &mut [f64],
    save: Option<&mut [f64]>,
) {
    half_sweep::<AVX2>(kernel, rows, absorbing, immediate, values, save);
}

/// Run the truncated absorbing-cost dynamic program (Eq. 9, Algorithm 1
/// steps 3–4) over `kernel`, absorbing at nodes flagged in `absorbing`,
/// for `iterations` rounds. Returns the value vector, which lives in
/// `bufs` until the next call.
///
/// Dangling non-absorbing nodes get `f64::INFINITY`, as do nodes whose walk
/// can only reach dangling pockets.
///
/// This is the *reference* form: it always performs exactly `iterations`
/// full sweeps and leaves every node's value. Serving paths over a
/// bipartite kernel that read one side only should prefer
/// [`parity_chain_costs_into`], which computes that side's values
/// bit-identically at half the edge work.
///
/// # Panics
///
/// Panics if `absorbing.len() != kernel.n_nodes()`.
pub fn truncated_costs_into<'a>(
    kernel: &TransitionMatrix,
    absorbing: &[bool],
    cost: &dyn CostModel,
    iterations: usize,
    bufs: &'a mut DpBuffers,
) -> &'a [f64] {
    let n = kernel.n_nodes();
    assert_eq!(absorbing.len(), n, "absorbing flag vector length mismatch");

    let DpBuffers {
        immediate,
        current,
        next,
    } = bufs;
    let any_infinite = expected_immediate_costs(kernel, absorbing, cost, immediate);
    let reduction = pick_reduction(any_infinite, n);

    current.clear();
    current.resize(n, 0.0);
    next.clear();
    next.resize(n, 0.0);
    for _ in 0..iterations {
        match reduction {
            CHECKED => sweep::<CHECKED>(kernel, absorbing, immediate, current, next),
            // SAFETY: `pick_reduction` returns `AVX2` only on CPUs with AVX2.
            #[cfg(target_arch = "x86_64")]
            AVX2 => unsafe { sweep_avx2(kernel, absorbing, immediate, current, next) },
            _ => sweep::<SCALAR>(kernel, absorbing, immediate, current, next),
        }
        std::mem::swap(current, next);
    }
    current
}

/// The first way `sides` fails to bipartition `kernel`, if any: a row on
/// both sides, or a row with a column on its own side (or on neither).
fn bipartition_violation(kernel: &TransitionMatrix, sides: ParitySides<'_>) -> Option<String> {
    const TARGET: u8 = 1;
    const OTHER: u8 = 2;
    let mut side = vec![0u8; kernel.n_nodes()];
    for (rows, flag) in [(sides.target, TARGET), (sides.other, OTHER)] {
        for &i in rows {
            if side[i as usize] != 0 {
                return Some(format!("row {i} is on both sides"));
            }
            side[i as usize] = flag;
        }
    }
    for (rows, across) in [(sides.target, OTHER), (sides.other, TARGET)] {
        for &i in rows {
            if let Some(&j) = kernel
                .row(i as usize)
                .0
                .iter()
                .find(|&&j| side[j as usize] != across)
            {
                return Some(format!("row {i} has column {j} off the other side"));
            }
        }
    }
    None
}

/// The serving form of the truncated absorbing-cost dynamic program: the
/// parity chain of a bipartite `kernel` (see the module docs). After the
/// run, every target-side value in `bufs` is bit-for-bit the value
/// [`truncated_costs_into`] gives at the iterations performed; the other
/// side holds its value one iteration earlier.
///
/// Iteration `t` (counted 1..=τ like the full program's sweeps) updates the
/// target rows when `τ − t` is even and the other rows otherwise, so each
/// iteration costs about half a full sweep. With `exit = None` all
/// `iterations` run (the fixed-τ program); with [`EarlyExit`] rules the run
/// may stop once the remaining iterations provably cannot matter, or when
/// cancelled. The returned [`DpRun`] reports iterations spent and which rule
/// fired.
///
/// # Panics
///
/// Panics if `absorbing.len() != kernel.n_nodes()`. In debug builds, also
/// panics if `sides` is not a bipartition of `kernel`.
pub fn parity_chain_costs_into(
    kernel: &TransitionMatrix,
    sides: ParitySides<'_>,
    absorbing: &[bool],
    cost: &dyn CostModel,
    iterations: usize,
    mut exit: Option<EarlyExit<'_>>,
    bufs: &mut DpBuffers,
) -> DpRun {
    let n = kernel.n_nodes();
    assert_eq!(absorbing.len(), n, "absorbing flag vector length mismatch");
    debug_assert_eq!(bipartition_violation(kernel, sides), None);

    let DpBuffers {
        immediate,
        current,
        next: previous,
    } = bufs;
    let any_infinite = expected_immediate_costs(kernel, absorbing, cost, immediate);
    let reduction = pick_reduction(any_infinite, n);

    current.clear();
    current.resize(n, 0.0);
    previous.clear();
    previous.resize(n, 0.0);
    let mut run = DpRun {
        iterations: 0,
        budget: iterations,
        converged: false,
        rank_frozen: false,
        cancelled: false,
        last_delta: f64::INFINITY,
    };
    let probing = exit.as_ref().is_some_and(|e| e.probe.is_some());
    let mut probe_at = PROBE_START;
    let mut measured_at = 0;
    for t in 1..=iterations {
        let on_target = (iterations - t).is_multiple_of(2);
        let probe_due = probing && t < iterations && t >= probe_at;
        // δ2_t needs a real v_{t−2} (t ≥ 2); measuring is O(target rows),
        // so only on a stride plus the probe-scheduled and final sweeps.
        let measure = exit.is_some()
            && on_target
            && t >= 2
            && (probe_due || t >= measured_at + DELTA_STRIDE || t == iterations);
        let rows = if on_target { sides.target } else { sides.other };
        let save = measure.then_some(&mut previous[..]);
        if t == 1 {
            // The other side still holds its zero start, so every row's
            // reduction is +0.0 and the sweep would store exactly `r_i`.
            for &i in rows {
                if !absorbing[i as usize] {
                    current[i as usize] = immediate[i as usize];
                }
            }
        } else {
            match reduction {
                CHECKED => half_sweep::<CHECKED>(kernel, rows, absorbing, immediate, current, save),
                // SAFETY: `pick_reduction` returns `AVX2` only on CPUs with
                // AVX2.
                #[cfg(target_arch = "x86_64")]
                AVX2 => unsafe {
                    half_sweep_avx2(kernel, rows, absorbing, immediate, current, save)
                },
                _ => half_sweep::<SCALAR>(kernel, rows, absorbing, immediate, current, save),
            }
        }
        run.iterations = t;
        let Some(exit) = exit.as_mut().filter(|_| measure) else {
            continue;
        };
        measured_at = t;
        // δ2_t and the value scale, in one pass over the target side. A
        // finite value turning infinite means the ∞ front is still
        // spreading: report δ2_t = ∞ so no stopping rule can fire yet.
        // (Absorbing rows hold 0 in both vectors and drop out of both
        // reductions on their own.)
        let mut delta = 0.0f64;
        let mut scale = 1.0f64;
        for &i in sides.target {
            let (new, old) = (current[i as usize], previous[i as usize]);
            if new.is_finite() {
                delta = delta.max((new - old).abs());
                scale = scale.max(new);
            } else if old.is_finite() {
                delta = f64::INFINITY;
            }
        }
        run.last_delta = delta;
        let args = DpProbe {
            values: current,
            previous,
            delta,
            remaining: (iterations - t) / 2,
        };
        if delta == 0.0 {
            // Exact f64 fixed point of the two-step map: every further
            // target sweep reproduces the same values, so stopping is
            // bit-identical to the full run — no rank confirmation needed
            // (and it outranks cancellation: the finished result costs
            // nothing more to keep).
            run.converged = true;
            break;
        }
        if let Some(cancel) = exit.cancel {
            // Cooperative cancellation rides the measured iterations only,
            // so the hot sweep never pays for the check.
            if cancel() {
                run.cancelled = true;
                break;
            }
        }
        if delta <= exit.epsilon * scale {
            // Value convergence certifies accuracy, not order: near-ties
            // inside the residual drift could still settle differently by
            // the fixed-τ horizon. With a rank probe on hand, stop only if
            // it confirms the ranking is frozen too; without one, the
            // caller asked for value-converged semantics.
            match exit.probe.as_mut() {
                None => {
                    run.converged = true;
                    break;
                }
                Some(probe) => {
                    if delta.is_finite() && probe(&args) {
                        run.converged = true;
                        run.rank_frozen = true;
                        break;
                    }
                }
            }
        } else if probe_due && delta.is_finite() {
            probe_at = next_probe_after(t);
            if let Some(probe) = exit.probe.as_mut() {
                if probe(&args) {
                    run.rank_frozen = true;
                    break;
                }
            }
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{SliceCost, UnitCost};
    use longtail_graph::{Adjacency, CsrMatrix};

    /// Path graph 0 - 1 - 2 with unit weights.
    fn path3_kernel() -> TransitionMatrix {
        let csr =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        TransitionMatrix::from_adjacency(&Adjacency::from_symmetric_csr(csr))
    }

    /// The bipartition of the path graph: ends {0, 2}, middle {1}.
    const PATH3: ParitySides<'static> = ParitySides {
        target: &[0, 2],
        other: &[1],
    };

    /// The unit-cost chain over the path graph.
    fn path3_chain(
        absorbing: &[bool],
        iterations: usize,
        exit: Option<EarlyExit<'_>>,
        bufs: &mut DpBuffers,
    ) -> DpRun {
        parity_chain_costs_into(
            &path3_kernel(),
            PATH3,
            absorbing,
            &UnitCost,
            iterations,
            exit,
            bufs,
        )
    }

    /// Early-exit rules with neither probe nor cancellation hook.
    fn converge(epsilon: f64) -> Option<EarlyExit<'static>> {
        Some(EarlyExit {
            epsilon,
            probe: None,
            cancel: None,
        })
    }

    /// The target-side entries of a value vector.
    fn target_values(sides: ParitySides<'_>, values: &[f64]) -> Vec<f64> {
        sides.target.iter().map(|&i| values[i as usize]).collect()
    }

    /// One step of splitmix64: a seeded stream for the reduction tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    fn unit(state: &mut u64) -> f64 {
        (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn row_sums_follow_the_documented_lane_order_on_every_remainder() {
        // Random rows of every length 0..=67 (every remainder class mod 4,
        // up to 16 full chunks) over values spanning ~36 decades, so the
        // order of additions shows in the low bits. The scalar reduction
        // must equal its documented order written out here, and the AVX2
        // reduction (where the CPU has it) must equal the scalar one,
        // compared with `to_bits`.
        let mut state = 0x5EED_u64;
        let values: Vec<f64> = (0..257)
            .map(|_| (0.5 + unit(&mut state)) * 2f64.powi((splitmix(&mut state) % 121) as i32 - 60))
            .collect();
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        for len in 0..=67usize {
            for _ in 0..16 {
                let cols: Vec<u32> = (0..len)
                    .map(|_| (splitmix(&mut state) % values.len() as u64) as u32)
                    .collect();
                let probs: Vec<f64> = (0..len).map(|_| unit(&mut state)).collect();
                let full = len - len % 4;
                let mut lanes = [0.0f64; 4];
                for e in 0..full {
                    lanes[e % 4] += probs[e] * values[cols[e] as usize];
                }
                let mut want = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
                for e in full..len {
                    want += probs[e] * values[cols[e] as usize];
                }
                let scalar = row_sum_scalar(&cols, &probs, &values);
                assert_eq!(scalar.to_bits(), want.to_bits(), "scalar, length {len}");
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    // SAFETY: the CPU has AVX2.
                    let gathered = unsafe { row_sum_avx2(&cols, &probs, &values) };
                    assert_eq!(gathered.to_bits(), scalar.to_bits(), "avx2, length {len}");
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_gather_clamps_out_of_range_columns_to_the_last_value() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // No kernel holds such a column; the clamp only keeps the gather
        // inside `values` if one ever did.
        let values = [1.0, 2.0, 4.0];
        let probs = [1.0; 4];
        // SAFETY: the CPU has AVX2.
        let sum = unsafe { row_sum_avx2(&[0, 1, 2, u32::MAX], &probs, &values) };
        assert_eq!(sum, (1.0 + 2.0) + (4.0 + 4.0));
    }

    #[test]
    fn converges_to_known_times() {
        let kernel = path3_kernel();
        let absorbing = [true, false, false];
        let mut bufs = DpBuffers::new();
        let t = truncated_costs_into(&kernel, &absorbing, &UnitCost, 2000, &mut bufs);
        assert_eq!(t[0], 0.0);
        assert!((t[1] - 3.0).abs() < 1e-6);
        assert!((t[2] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn buffers_are_reusable_across_different_sizes() {
        let kernel = path3_kernel();
        let mut bufs = DpBuffers::new();
        let big =
            truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 50, &mut bufs).to_vec();

        // A smaller, unrelated problem must not see stale state.
        let csr = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]);
        let small_kernel = TransitionMatrix::from_adjacency(&Adjacency::from_symmetric_csr(csr));
        let small = truncated_costs_into(&small_kernel, &[true, false], &UnitCost, 50, &mut bufs);
        assert_eq!(small.len(), 2);
        assert_eq!(small[0], 0.0);
        assert!((small[1] - 1.0).abs() < 1e-12);

        // And re-running the first problem reproduces it exactly.
        let again = truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 50, &mut bufs);
        assert_eq!(again, &big[..]);
    }

    #[test]
    fn zero_iterations_returns_zeros() {
        let kernel = path3_kernel();
        let mut bufs = DpBuffers::new();
        let t = truncated_costs_into(&kernel, &[true, false, false], &UnitCost, 0, &mut bufs);
        assert_eq!(t, &[0.0, 0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_flag_length_panics() {
        let kernel = path3_kernel();
        truncated_costs_into(&kernel, &[true], &UnitCost, 1, &mut DpBuffers::new());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn chain_wrong_flag_length_panics() {
        path3_chain(&[true], 1, converge(1e-9), &mut DpBuffers::new());
    }

    #[test]
    fn chain_target_side_is_bit_identical_to_full_sweep() {
        // Path 0 - 1 - 2 - 3 - 4 plus isolated node 5: target side {0, 2, 4}
        // (+5 when dangling), other side {1, 3}. Every budget of both
        // parities, both cost kinds, with and without a dangling node (the
        // checked and the fast sweep).
        let edges = [
            (0, 1, 1.0),
            (1, 0, 1.0),
            (1, 2, 2.0),
            (2, 1, 2.0),
            (2, 3, 1.0),
            (3, 2, 1.0),
            (3, 4, 3.0),
            (4, 3, 3.0),
        ];
        let costs = SliceCost(&[0.5, 1.5, 2.0, 0.25, 1.0, 3.0]);
        for dangling in [false, true] {
            let n = if dangling { 6 } else { 5 };
            let csr = CsrMatrix::from_triplets(n, n, &edges);
            let kernel = TransitionMatrix::from_adjacency(&Adjacency::from_symmetric_csr(csr));
            let target: &[u32] = if dangling { &[0, 2, 4, 5] } else { &[0, 2, 4] };
            let sides = ParitySides {
                target,
                other: &[1, 3],
            };
            let mut absorbing = vec![false; n];
            absorbing[0] = true;
            for cost in [&UnitCost as &dyn CostModel, &costs] {
                for tau in 0..12 {
                    let mut full = DpBuffers::new();
                    let reference = truncated_costs_into(&kernel, &absorbing, cost, tau, &mut full);
                    let mut bufs = DpBuffers::new();
                    let run = parity_chain_costs_into(
                        &kernel, sides, &absorbing, cost, tau, None, &mut bufs,
                    );
                    assert_eq!(run, DpRun::fixed(tau));
                    for &i in sides.target {
                        let (got, want) = (bufs.values()[i as usize], reference[i as usize]);
                        assert_eq!(got.to_bits(), want.to_bits(), "τ {tau} node {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn bipartition_violations_are_named() {
        let kernel = path3_kernel();
        assert_eq!(bipartition_violation(&kernel, PATH3), None);
        let both = ParitySides {
            target: &[0, 1, 2],
            other: &[1],
        };
        assert!(bipartition_violation(&kernel, both)
            .unwrap()
            .contains("both sides"));
        let crossed = ParitySides {
            target: &[0, 1],
            other: &[2],
        };
        assert!(bipartition_violation(&kernel, crossed).is_some());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "off the other side")]
    fn triangle_kernel_trips_the_bipartition_assertion() {
        // An odd cycle has no bipartition: whichever side node 2 joins, one
        // of its edges stays on that side.
        let csr = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (2, 1, 1.0),
                (0, 2, 1.0),
                (2, 0, 1.0),
            ],
        );
        let kernel = TransitionMatrix::from_adjacency(&Adjacency::from_symmetric_csr(csr));
        let sides = ParitySides {
            target: &[0, 2],
            other: &[1],
        };
        parity_chain_costs_into(
            &kernel,
            sides,
            &[true, false, false],
            &UnitCost,
            4,
            None,
            &mut DpBuffers::new(),
        );
    }

    #[test]
    fn convergence_early_exit_agrees_with_full_run_within_epsilon() {
        // The convergence rule's contract: every early-exited target value
        // is within `δ2 · (τ − t)/2 ≤ ε · scale · τ` of the full-τ value,
        // and approaches it from below (monotone recursion).
        let absorbing = [true, false, false];
        let budget = 2000usize;
        let epsilon = 1e-9;

        let mut adaptive = DpBuffers::new();
        let run = path3_chain(&absorbing, budget, converge(epsilon), &mut adaptive);
        assert!(run.converged, "tiny chain must converge within {budget}");
        assert!(!run.rank_frozen);
        assert!(run.iterations < budget, "no iterations saved: {run:?}");
        assert!(run.last_delta <= epsilon * 4.0, "δ2 at stop: {run:?}");

        let mut full = DpBuffers::new();
        let exact = truncated_costs_into(&path3_kernel(), &absorbing, &UnitCost, budget, &mut full);
        let tolerance = epsilon * 4.0 * (budget - run.iterations) as f64;
        let early = target_values(PATH3, adaptive.values());
        for (&a, &e) in early.iter().zip(&target_values(PATH3, exact)) {
            assert!(a <= e + 1e-15, "early value {a} above full {e}");
            assert!(e - a <= tolerance, "{a} vs {e} (tol {tolerance})");
        }
    }

    #[test]
    fn exact_fixed_point_is_bit_identical_to_full_run() {
        // ε = 0 only stops on δ2 = 0, i.e. an exact f64 fixed point of the
        // two-step map — from there every further target sweep reproduces
        // the same values, so the early exit is bit-identical to the full
        // run.
        let absorbing = [true, false, false];
        let mut adaptive = DpBuffers::new();
        let run = path3_chain(&absorbing, 100_000, converge(0.0), &mut adaptive);
        assert!(run.converged);
        assert_eq!(run.last_delta, 0.0);
        let mut full = DpBuffers::new();
        let exact =
            truncated_costs_into(&path3_kernel(), &absorbing, &UnitCost, 100_000, &mut full);
        assert_eq!(
            target_values(PATH3, adaptive.values()),
            target_values(PATH3, exact)
        );
    }

    #[test]
    fn negative_epsilon_stops_only_at_exact_fixed_points() {
        let kernel = path3_kernel();
        let absorbing = [true, false, false];
        let mut bufs = DpBuffers::new();
        let mut full = DpBuffers::new();
        // Within a short budget the chain has not reached its f64 fixed
        // point: ε < 0 must run every iteration, target values
        // bit-identical to the fixed form.
        let run = path3_chain(&absorbing, 60, converge(-1.0), &mut bufs);
        assert!(!run.converged && !run.rank_frozen);
        assert_eq!(run.iterations, 60);
        let exact = truncated_costs_into(&kernel, &absorbing, &UnitCost, 60, &mut full);
        assert_eq!(
            target_values(PATH3, bufs.values()),
            target_values(PATH3, exact)
        );

        // Over a long budget the two-step map reaches an exact fixed point
        // (δ2 = 0), where stopping is unconditional even at ε < 0 — and
        // still bit-identical to exhausting the budget.
        let run = path3_chain(&absorbing, 500, converge(-1.0), &mut bufs);
        assert!(run.converged && !run.rank_frozen);
        assert!(run.iterations < 500, "{run:?}");
        assert_eq!(run.last_delta, 0.0);
        let exact = truncated_costs_into(&kernel, &absorbing, &UnitCost, 500, &mut full);
        assert_eq!(
            target_values(PATH3, bufs.values()),
            target_values(PATH3, exact)
        );
    }

    #[test]
    fn epsilon_convergence_defers_to_a_refusing_probe() {
        // With a probe supplied, value convergence alone must not stop the
        // run: a refusing probe (rank not certified) keeps it iterating
        // until the exact fixed point.
        let mut calls = 0usize;
        let mut probe = |_: &DpProbe<'_>| -> bool {
            calls += 1;
            false
        };
        let mut bufs = DpBuffers::new();
        let exit = EarlyExit {
            epsilon: 1e-6, // loose: value convergence fires long before the fixed point
            probe: Some(&mut probe),
            cancel: None,
        };
        let run = path3_chain(&[true, false, false], 500, Some(exit), &mut bufs);
        assert!(calls > 0);
        assert!(run.converged && !run.rank_frozen, "{run:?}");
        assert_eq!(run.last_delta, 0.0, "only the δ2 = 0 stop may fire");
        // A loose ε without a probe stops much earlier than the fixed point.
        let unconfirmed = path3_chain(&[true, false, false], 500, converge(1e-6), &mut bufs);
        assert!(unconfirmed.iterations < run.iterations);
    }

    #[test]
    fn probe_receives_sound_remaining_change_bound() {
        // At every probe call, no final target value may exceed current +
        // bound — for budgets of both parities.
        let absorbing = [true, false, false];
        for budget in [60usize, 61] {
            let mut full = DpBuffers::new();
            let exact =
                truncated_costs_into(&path3_kernel(), &absorbing, &UnitCost, budget, &mut full)
                    .to_vec();

            let mut calls = 0usize;
            let mut probe = |p: &DpProbe<'_>| -> bool {
                calls += 1;
                let bound = p.global_bound();
                assert!(bound.is_finite() && bound >= 0.0);
                for &i in PATH3.target {
                    let (i, v, e) = (i as usize, p.values[i as usize], exact[i as usize]);
                    if v.is_finite() {
                        assert!(e <= v + bound + 1e-12, "node {i}: {e} > {v} + {bound}");
                        // Unit cost is superharmonic, so the per-node bound
                        // is sound too (and no looser than the global one).
                        let nb = p.node_bound(i);
                        assert!(e <= v + nb + 1e-12, "node {i}: {e} > {v} + node {nb}");
                        assert!(nb <= bound + 1e-12);
                    }
                }
                false // never stop: exercise every probed iteration's bound
            };
            let exit = EarlyExit {
                epsilon: -1.0,
                probe: Some(&mut probe),
                cancel: None,
            };
            let run = path3_chain(&absorbing, budget, Some(exit), &mut DpBuffers::new());
            assert_eq!(run.iterations, budget);
            assert!(calls > 0, "probe never invoked");
        }
    }

    #[test]
    fn probe_stop_is_recorded() {
        let mut stop_after = 0usize;
        let mut probe = |_: &DpProbe<'_>| -> bool {
            stop_after += 1;
            stop_after >= 3
        };
        let exit = EarlyExit {
            epsilon: -1.0,
            probe: Some(&mut probe),
            cancel: None,
        };
        let run = path3_chain(
            &[true, false, false],
            1000,
            Some(exit),
            &mut DpBuffers::new(),
        );
        assert!(run.rank_frozen && !run.converged);
        // An even budget lands on the target side at even iterations; the
        // schedule probes at 6, 8, 10 and the third call stops the run.
        assert_eq!(run.iterations, 10);
        assert!(run.last_delta.is_finite());
    }

    #[test]
    fn dangling_pocket_takes_checked_path_and_probe_bounds_stay_finite() {
        // Path 0 (absorbing) - 1 - 2 plus an isolated dangling node 3 on the
        // target side: the checked sweep runs, node 3 is pinned at ∞, and
        // every bound the probe sees is finite (δ2 = ∞ iterations never
        // consult it).
        let csr =
            CsrMatrix::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let kernel = TransitionMatrix::from_adjacency(&Adjacency::from_symmetric_csr(csr));
        let sides = ParitySides {
            target: &[0, 2, 3],
            other: &[1],
        };
        let mut probe_bounds: Vec<f64> = Vec::new();
        let mut probe = |p: &DpProbe<'_>| -> bool {
            probe_bounds.push(p.global_bound());
            false
        };
        let exit = EarlyExit {
            epsilon: -1.0,
            probe: Some(&mut probe),
            cancel: None,
        };
        let mut bufs = DpBuffers::new();
        let run = parity_chain_costs_into(
            &kernel,
            sides,
            &[true, false, false, false],
            &UnitCost,
            50,
            Some(exit),
            &mut bufs,
        );
        assert_eq!(run.iterations, 50);
        assert!(bufs.values()[3].is_infinite());
        assert!(bufs.values()[2].is_finite());
        assert!(!probe_bounds.is_empty());
        assert!(probe_bounds.iter().all(|b| b.is_finite()));
    }

    #[test]
    fn cancel_aborts_on_a_measured_iteration() {
        // Always-true cancel: the run must stop at the FIRST measured
        // iteration (the first target sweep at or past the δ2 stride), not
        // at iteration 1 — cancellation only rides the measurement pass.
        let cancel = || true;
        for (budget, first_measured) in [(1000usize, DELTA_STRIDE), (999, DELTA_STRIDE + 1)] {
            let exit = EarlyExit {
                epsilon: -1.0,
                probe: None,
                cancel: Some(&cancel),
            };
            let run = path3_chain(
                &[true, false, false],
                budget,
                Some(exit),
                &mut DpBuffers::new(),
            );
            assert!(run.cancelled && !run.converged && !run.rank_frozen);
            assert_eq!(run.iterations, first_measured, "budget {budget}");
        }

        // A never-firing cancel changes nothing: target values bit-identical
        // to the uncancellable run.
        let never = || false;
        let mut with_hook = DpBuffers::new();
        let exit = EarlyExit {
            epsilon: -1.0,
            probe: None,
            cancel: Some(&never),
        };
        let hooked = path3_chain(&[true, false, false], 60, Some(exit), &mut with_hook);
        assert!(!hooked.cancelled);
        assert_eq!(hooked.iterations, 60);
        let mut full = DpBuffers::new();
        let exact = truncated_costs_into(
            &path3_kernel(),
            &[true, false, false],
            &UnitCost,
            60,
            &mut full,
        );
        assert_eq!(
            target_values(PATH3, with_hook.values()),
            target_values(PATH3, exact)
        );
    }

    #[test]
    fn exact_fixed_point_outranks_cancellation() {
        // When δ2 = 0 on the same measured iteration the cancel hook would
        // fire, the converged stop wins: the result is bit-identical to
        // the full run, so there is nothing to abandon. All-absorbing
        // makes the very first measurement an exact fixed point.
        let exit = EarlyExit {
            epsilon: -1.0,
            probe: None,
            cancel: Some(&(|| true)),
        };
        let run = path3_chain(
            &[true, true, true],
            100_000,
            Some(exit),
            &mut DpBuffers::new(),
        );
        assert!(run.converged && !run.cancelled);
        assert_eq!(run.last_delta, 0.0);
    }

    #[test]
    fn dp_run_fixed_shape() {
        let run = DpRun::fixed(15);
        assert_eq!(run.iterations, 15);
        assert_eq!(run.budget, 15);
        assert!(!run.converged && !run.rank_frozen);
        assert!(run.last_delta.is_infinite());
    }

    #[test]
    fn zero_budget_chain_runs_nothing() {
        let mut bufs = DpBuffers::new();
        let run = path3_chain(&[true, false, false], 0, converge(1e-9), &mut bufs);
        assert_eq!(run.iterations, 0);
        assert!(!run.converged && !run.rank_frozen);
        assert_eq!(bufs.values(), &[0.0, 0.0, 0.0]);
    }
}
