//! The inflationary fixed point runtime: algorithms *Naïve* and *Delta*.
//!
//! This module implements Figure 3 of the paper:
//!
//! ```text
//! (a) Naïve                          (b) Delta
//! res ← e_rec(e_seed);               res ← e_rec(e_seed);
//! do                                 ∆ ← res;
//!   res ← e_rec(res) union res;      do
//! while res grows;                     ∆ ← e_rec(∆) except res;
//!                                      res ← ∆ union res;
//!                                    while res grows;
//! ```
//!
//! Both algorithms record the statistics Table 2 of the paper reports:
//! the recursion depth (number of iterations) and the **total number of
//! nodes fed back** into the recursion body `e_rec`.
//!
//! Delta is only a safe replacement for Naïve when the recursion body is
//! *distributive* for the recursion variable (Theorem 3.2); the runtime does
//! not check this — strategy selection is the caller's (or `xqy-ifp`'s
//! `Auto` mode's) responsibility.  Example 2.4 of the paper, where the two
//! algorithms genuinely differ, is reproduced in the tests below.

use xqy_parser::ast::Expr;
use xqy_xdm::{shard, FxHashMap, NodeId, NodeSet, NodeStore, Sequence};

use crate::context::Environment;
use crate::error::EvalError;
use crate::evaluator::Evaluator;
use crate::Result;

/// Which algorithm evaluates `with … seeded by … recurse`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FixpointStrategy {
    /// Figure 3(a): feed the entire accumulated result back each iteration.
    #[default]
    Naive,
    /// Figure 3(b): feed only the newly discovered nodes back each iteration.
    Delta,
}

impl FixpointStrategy {
    /// Human-readable name (matches the paper's terminology).
    pub fn name(&self) -> &'static str {
        match self {
            FixpointStrategy::Naive => "Naive",
            FixpointStrategy::Delta => "Delta",
        }
    }
}

/// Which engine actually drove one fixed point computation.
///
/// The interpreter runs fixpoints itself by default; a
/// [`FixpointInterceptor`] installed by a higher layer (the `xqy_ifp`
/// prepared-query machinery) may instead drive a pre-compiled algebraic plan
/// through the relational back-end.  The tag records which one happened so
/// per-occurrence statistics stay attributable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FixpointBackendTag {
    /// The source-level interpreter evaluated the recursion body per
    /// iteration (the paper's "Saxon role").
    #[default]
    Interpreted,
    /// A pre-compiled algebraic plan was driven by the relational executor
    /// (the paper's "MonetDB/Pathfinder role").
    Algebraic,
}

impl FixpointBackendTag {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            FixpointBackendTag::Interpreted => "interpreted",
            FixpointBackendTag::Algebraic => "algebraic",
        }
    }
}

/// A hook that may take over the evaluation of an IFP occurrence.
///
/// The evaluator calls the hook once per `with … seeded by … recurse`
/// evaluation, after the seed expression has been evaluated to a node set.
/// Returning `None` declines the occurrence (the interpreter then runs the
/// Naïve/Delta algorithms itself); returning `Some(result)` supplies the
/// fixpoint result and its statistics.  `xqy_ifp` uses this to execute
/// occurrences whose bodies were pre-compiled to algebraic plans on the
/// relational back-end, without re-entering the interpreter per iteration.
pub trait FixpointInterceptor {
    /// Attempt to run the fixpoint for `(var, body)` seeded by `seed`.
    ///
    /// `store` is the evaluator's store handle — exclusive or copy-on-write
    /// (see [`StoreMut`](xqy_xdm::StoreMut)); implementors that construct
    /// nodes write through it like a `&mut NodeStore`.
    fn run_fixpoint(
        &mut self,
        store: xqy_xdm::StoreMut<'_>,
        var: &str,
        body: &Expr,
        seed: &[NodeId],
        seed_in_result: bool,
    ) -> Option<Result<(Vec<NodeId>, FixpointStats)>>;

    /// Attempt to run **one fixpoint per seed of `seeds`** as a single
    /// batched multi-source fixpoint (see
    /// [`Evaluator::run_fixpoint_batched`](crate::Evaluator::run_fixpoint_batched)).
    ///
    /// On success the result holds one node list per seed, index-aligned
    /// with `seeds`, each equal to what a separate
    /// [`run_fixpoint`](Self::run_fixpoint) over that singleton seed would
    /// return, plus one [`FixpointStats`] for the whole batch (with
    /// [`FixpointStats::batch_seeds`] set).  `seeds` are distinct — the
    /// caller deduplicates.
    ///
    /// The default declines every occurrence, which routes the evaluator to
    /// its per-seed fallback: per-seed interception where available, the
    /// source-level Naïve/Delta algorithms otherwise.  Implementors decline
    /// (return `None`) when the occurrence has no batchable plan — e.g. a
    /// body outside the seed-local subset, or an `id()`-using body whose
    /// seeds span documents.
    fn run_fixpoint_batched(
        &mut self,
        store: xqy_xdm::StoreMut<'_>,
        var: &str,
        body: &Expr,
        seeds: &[NodeId],
        seed_in_result: bool,
    ) -> Option<Result<(Vec<Vec<NodeId>>, FixpointStats)>> {
        let _ = (store, var, body, seeds, seed_in_result);
        None
    }
}

/// An observer a higher layer may attach to a fixpoint occurrence (see
/// [`Evaluator::set_fixpoint_observer_for`](crate::Evaluator::set_fixpoint_observer_for)):
/// it receives every recorded [`FixpointStats`] for that occurrence —
/// whichever back-end produced it — right after the run finishes.  The
/// `xqy_ifp` cost model uses this to feed observed iteration depth, result
/// size and wall time back into its per-occurrence feedback cells.
pub trait FixpointObserver: Send + Sync {
    /// Called once per recorded fixpoint run of the observed occurrence.
    fn observe(&self, stats: &FixpointStats);
}

/// Statistics of one fixed point computation.
#[derive(Debug, Clone, Eq, Default)]
pub struct FixpointStats {
    /// The strategy that was used.
    pub strategy: Option<FixpointStrategyTag>,
    /// Which back-end drove the computation.
    pub backend: FixpointBackendTag,
    /// Number of do-while iterations executed (the paper's
    /// "recursion depth").
    pub iterations: usize,
    /// Total number of nodes fed into the recursion body across all calls —
    /// the paper's "Total # of Nodes Fed Back" column.
    pub nodes_fed_back: u64,
    /// Number of invocations of the recursion body.
    pub payload_calls: usize,
    /// Size of the final result (number of nodes).
    pub result_size: usize,
    /// Static-cache hits during this run: rec-independent plan nodes whose
    /// table came back as a shared handle instead of being re-evaluated.
    /// Only the algebraic back-end has such a cache; interpreted runs
    /// report zero.
    pub static_cache_hits: u64,
    /// Rec-independent plan nodes actually evaluated during this run.  With
    /// a persistent executor this is non-zero only the first time a plan
    /// meets a store state; later runs (and later `execute()` calls of the
    /// same prepared query) report zero.
    pub static_plan_evals: u64,
    /// Number of seeds this run evaluated together as a **batched
    /// multi-source fixpoint** — `0` for an ordinary single-source run.
    /// When non-zero, `iterations` is the maximum per-seed recursion depth
    /// and `payload_calls` counts the *shared* body evaluations (one per
    /// batched iteration, however many seeds are still iterating).
    pub batch_seeds: usize,
    /// Nodes fed into each recursion-body call, in call order — the
    /// frontier-growth curve.  Deterministic for a given (query, store,
    /// seed) input at any thread count, so it takes part in equality.
    pub frontier_curve: Vec<u64>,
    /// Wall time of the run in microseconds.  **Excluded from equality**:
    /// the parallel ≡ sequential property tests compare whole stats
    /// structs, and wall time legitimately differs between runs.
    pub wall_micros: u64,
}

impl PartialEq for FixpointStats {
    fn eq(&self, other: &Self) -> bool {
        self.strategy == other.strategy
            && self.backend == other.backend
            && self.iterations == other.iterations
            && self.nodes_fed_back == other.nodes_fed_back
            && self.payload_calls == other.payload_calls
            && self.result_size == other.result_size
            && self.static_cache_hits == other.static_cache_hits
            && self.static_plan_evals == other.static_plan_evals
            && self.batch_seeds == other.batch_seeds
            && self.frontier_curve == other.frontier_curve
    }
}

/// A copyable tag mirroring [`FixpointStrategy`] for inclusion in stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FixpointStrategyTag {
    /// Naïve algorithm.
    Naive,
    /// Delta algorithm.
    Delta,
}

impl From<FixpointStrategy> for FixpointStrategyTag {
    fn from(value: FixpointStrategy) -> Self {
        match value {
            FixpointStrategy::Naive => FixpointStrategyTag::Naive,
            FixpointStrategy::Delta => FixpointStrategyTag::Delta,
        }
    }
}

/// Evaluate the IFP of `body` (with recursion variable `var`) seeded by
/// `seed`, using `strategy`.  Statistics are recorded on the evaluator.
pub fn evaluate_fixpoint(
    eval: &mut Evaluator<'_>,
    var: &str,
    seed: &Sequence,
    body: &Expr,
    env: &mut Environment,
    strategy: FixpointStrategy,
) -> Result<Sequence> {
    if !seed.all_nodes() {
        return Err(EvalError::Type(
            "the seed of an inflationary fixed point must be a node sequence".into(),
        ));
    }
    let started = std::time::Instant::now();
    let mut stats = FixpointStats {
        strategy: Some(strategy.into()),
        ..FixpointStats::default()
    };
    // Initial accumulation: Definition 2.1 starts from e_rec(e_seed); the
    // seed-inclusive reading (Example 2.4 / reflexive closure) starts from
    // the seed itself.  See `EvalOptions::seed_in_result`.
    let initial = if eval.options().seed_in_result {
        seed.nodes()
    } else {
        match call_payload(eval, var, &seed.nodes(), body, env, &mut stats) {
            Ok(nodes) => nodes,
            Err(err) => {
                stats.wall_micros = started.elapsed().as_micros() as u64;
                eval.record_fixpoint_run_for(var, body, stats);
                return Err(err);
            }
        }
    };
    let result = match strategy {
        FixpointStrategy::Naive => naive(eval, var, &initial, body, env, &mut stats),
        FixpointStrategy::Delta => delta(eval, var, &initial, body, env, &mut stats),
    };
    match result {
        Ok(nodes) => {
            stats.result_size = nodes.len();
            stats.wall_micros = started.elapsed().as_micros() as u64;
            eval.record_fixpoint_run_for(var, body, stats);
            Ok(Sequence::from_nodes(nodes))
        }
        Err(err) => {
            stats.wall_micros = started.elapsed().as_micros() as u64;
            eval.record_fixpoint_run_for(var, body, stats);
            Err(err)
        }
    }
}

/// One invocation of the recursion body: bind `var`, evaluate, require a
/// node-sequence result, update the fed-back counter.
fn call_payload(
    eval: &mut Evaluator<'_>,
    var: &str,
    input: &[NodeId],
    body: &Expr,
    env: &mut Environment,
    stats: &mut FixpointStats,
) -> Result<Vec<NodeId>> {
    stats.nodes_fed_back += input.len() as u64;
    stats.frontier_curve.push(input.len() as u64);
    stats.payload_calls += 1;
    xqy_xdm::fail::point("alloc.sequence").map_err(|e| EvalError::Xdm(e.to_string()))?;
    let value =
        eval.eval_with_binding(body, env, var, Sequence::from_nodes(input.iter().copied()))?;
    if !value.all_nodes() {
        return Err(EvalError::Type(
            "the recursion body of an inflationary fixed point must return nodes".into(),
        ));
    }
    Ok(value.nodes())
}

fn check_limits(
    eval: &mut Evaluator<'_>,
    var: &str,
    stats: &FixpointStats,
    result_len: usize,
) -> Result<()> {
    xqy_xdm::fail::point("fixpoint.barrier").map_err(|e| EvalError::Backend(e.to_string()))?;
    let options = eval.options();
    if let Some(deadline) = options.deadline {
        if std::time::Instant::now() >= deadline {
            return Err(EvalError::DeadlineExceeded {
                occurrence: var.to_string(),
                iterations: stats.iterations,
            });
        }
    }
    if let Some(max) = options.budget_iterations {
        if stats.iterations >= max {
            return Err(EvalError::BudgetExceeded {
                budget: "iterations".into(),
                used: stats.iterations as u64,
                limit: max as u64,
                occurrence: var.to_string(),
                iterations: stats.iterations,
            });
        }
    }
    if stats.iterations >= options.max_fixpoint_iterations {
        return Err(EvalError::NoFixpoint {
            iterations: stats.iterations,
            limit: "iteration".into(),
        });
    }
    if let Some(max) = options.max_result_nodes {
        if result_len > max {
            return Err(EvalError::BudgetExceeded {
                budget: "result-nodes".into(),
                used: result_len as u64,
                limit: max as u64,
                occurrence: var.to_string(),
                iterations: stats.iterations,
            });
        }
    }
    if result_len > options.max_fixpoint_nodes {
        return Err(EvalError::NoFixpoint {
            iterations: stats.iterations,
            limit: "node".into(),
        });
    }
    if let Some(budget) = options.memory_budget.clone() {
        if budget.over_limit().is_some() {
            // Graceful degradation before failing (once per budget): trade
            // the store's recomputable memos for headroom and drop to
            // sequential sharding, then re-check.
            if budget.try_relieve() {
                let freed = eval.store_ref().release_memory();
                budget.credit(freed);
                eval.options_mut().fixpoint_threads = 1;
            }
            if let Some(used) = budget.over_limit() {
                return Err(EvalError::BudgetExceeded {
                    budget: "memory".into(),
                    used,
                    limit: budget.limit(),
                    occurrence: var.to_string(),
                    iterations: stats.iterations,
                });
            }
        }
    }
    Ok(())
}

/// Algorithm Naïve (Figure 3(a)), starting from the already-computed initial
/// accumulation `initial`.
///
/// The accumulator is a [`NodeSet`] bitset; `union` is word-parallel and
/// the `while res grows` test reduces to "did the step discover any node
/// outside `res`" — union with an inflationary operand changes the set
/// exactly when `step ∖ res` is non-empty, so no re-sort and no second
/// set is ever built.  The document-ordered `Vec` fed to the recursion
/// body is re-materialized only when the set actually grew.
fn naive(
    eval: &mut Evaluator<'_>,
    var: &str,
    initial: &[NodeId],
    body: &Expr,
    env: &mut Environment,
    stats: &mut FixpointStats,
) -> Result<Vec<NodeId>> {
    let mut res = NodeSet::from_nodes(initial.iter().copied());
    let mut res_vec = res.to_vec(&eval.store);
    loop {
        check_limits(eval, var, stats, res.len())?;
        stats.iterations += 1;
        let step = call_payload(eval, var, &res_vec, body, env, stats)?;
        let mut fresh = NodeSet::from_nodes(step);
        fresh.except_in_place(&res);
        if fresh.is_empty() {
            return Ok(res_vec);
        }
        res.union_in_place(&fresh);
        res_vec = res.to_vec(&eval.store);
    }
}

/// Algorithm Delta (Figure 3(b)), starting from the already-computed initial
/// accumulation `initial`.
///
/// `∆ ← e_rec(∆) except res; res ← ∆ union res` — both on [`NodeSet`]
/// bitsets, so the per-iteration set algebra is word-parallel and the
/// termination test is an emptiness check.  Only the (usually small) `∆`
/// is materialized into document order per iteration, to feed the body.
fn delta(
    eval: &mut Evaluator<'_>,
    var: &str,
    initial: &[NodeId],
    body: &Expr,
    env: &mut Environment,
    stats: &mut FixpointStats,
) -> Result<Vec<NodeId>> {
    let mut res = NodeSet::from_nodes(initial.iter().copied());
    let mut delta = res.clone();
    loop {
        check_limits(eval, var, stats, res.len())?;
        stats.iterations += 1;
        let delta_vec = delta.to_vec(&eval.store);
        let step = call_payload(eval, var, &delta_vec, body, env, stats)?;
        delta = NodeSet::from_nodes(step);
        delta.except_in_place(&res);
        if delta.is_empty() {
            return Ok(res.to_vec(&eval.store));
        }
        res.union_in_place(&delta);
    }
}

// ----------------------------------------------------------------------
// Batched multi-source source-level driver
// ----------------------------------------------------------------------

/// Evaluate **one inflationary fixpoint per seed of `seeds`** in a single
/// shared Figure-3 loop — the source-level counterpart of the algebraic
/// executor's batched `(seed, node)` driver.
///
/// Each seed keeps its own accumulator and frontier; one round of the
/// shared loop advances every still-growing seed by one iteration, and the
/// loop ends when every seed has reached its fixpoint.  Two evaluation
/// modes:
///
/// * **Shared** (`share_frontiers = true`, only sound for *distributive*
///   bodies — `e(X) = ⋃ₓ e({x})`, Theorem 3.2): the body is evaluated once
///   per **distinct** frontier node across all seeds and the images are
///   distributed to every owning seed.  Images are memoized across
///   iterations (the body is pure by precondition — the caller additionally
///   screens out constructor-containing bodies), so a node discovered by
///   several seeds in different rounds still costs one evaluation total.
/// * **Grouped** (`share_frontiers = false`): the body is evaluated on each
///   seed's own frontier, exactly as a per-seed loop would — correct for
///   every body, sharing only the environment setup and the loop
///   bookkeeping.
///
/// Returns one node list per seed, index-aligned with `seeds` (which must
/// be distinct — callers deduplicate), each equal to what
/// [`evaluate_fixpoint`] over that singleton seed returns.  One
/// [`FixpointStats`] entry is recorded for the whole batch:
/// [`FixpointStats::batch_seeds`]` = seeds.len()`, `iterations` is the
/// maximum per-seed recursion depth, `payload_calls` / `nodes_fed_back`
/// count the body evaluations actually performed (shared mode: one per
/// distinct frontier node; grouped mode: one per seed per round).
pub fn evaluate_fixpoint_batched(
    eval: &mut Evaluator<'_>,
    var: &str,
    seeds: &[NodeId],
    body: &Expr,
    env: &mut Environment,
    strategy: FixpointStrategy,
    share_frontiers: bool,
) -> Result<Vec<Vec<NodeId>>> {
    let started = std::time::Instant::now();
    let mut stats = FixpointStats {
        strategy: Some(strategy.into()),
        backend: FixpointBackendTag::Interpreted,
        batch_seeds: seeds.len(),
        ..FixpointStats::default()
    };
    let result = if share_frontiers {
        batched_shared(eval, var, seeds, body, env, &mut stats)
    } else {
        batched_grouped(eval, var, seeds, body, env, strategy, &mut stats)
    };
    match result {
        Ok(groups) => {
            stats.result_size = groups.iter().map(Vec::len).sum();
            stats.wall_micros = started.elapsed().as_micros() as u64;
            eval.record_fixpoint_run_for(var, body, stats);
            Ok(groups)
        }
        Err(err) => {
            stats.wall_micros = started.elapsed().as_micros() as u64;
            eval.record_fixpoint_run_for(var, body, stats);
            Err(err)
        }
    }
}

/// The **shared** batched mode: distinct-frontier evaluation with a
/// cross-iteration image memo.  Precondition: the body is distributive and
/// pure (no constructors), so `e(X) = ⋃ₓ e({x})` and `e({x})` is stable
/// across re-evaluations — under which Naïve and Delta coincide, and
/// feeding each frontier node exactly once is equivalent to both.
fn batched_shared(
    eval: &mut Evaluator<'_>,
    var: &str,
    seeds: &[NodeId],
    body: &Expr,
    env: &mut Environment,
    stats: &mut FixpointStats,
) -> Result<Vec<Vec<NodeId>>> {
    /// One seed's loop state.
    struct SeedState {
        res: NodeSet,
        /// Nodes whose images have not been folded into `res` yet.
        frontier: Vec<NodeId>,
    }

    // node → image of the singleton body application, memoized for the
    // whole run (sound by the purity precondition).
    let mut images: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
    let ensure_image = |eval: &mut Evaluator<'_>,
                        env: &mut Environment,
                        stats: &mut FixpointStats,
                        node: NodeId,
                        images: &mut FxHashMap<NodeId, Vec<NodeId>>|
     -> Result<()> {
        if let std::collections::hash_map::Entry::Vacant(slot) = images.entry(node) {
            let img = call_payload(eval, var, &[node], body, env, stats)?;
            slot.insert(img);
        }
        Ok(())
    };

    // Initial accumulation per seed (see `evaluate_fixpoint`): the seed
    // itself under the seed-inclusive reading, e_rec({seed}) otherwise.
    let seed_in_result = eval.options().seed_in_result;
    let mut states = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let initial: Vec<NodeId> = if seed_in_result {
            vec![seed]
        } else {
            ensure_image(eval, env, stats, seed, &mut images)?;
            images[&seed].clone()
        };
        let res = NodeSet::from_nodes(initial.iter().copied());
        let frontier = res.iter().collect();
        states.push(SeedState { res, frontier });
    }

    loop {
        let active: Vec<usize> = (0..states.len())
            .filter(|&i| !states[i].frontier.is_empty())
            .collect();
        if active.is_empty() {
            break;
        }
        // The shared round counter stands in for each seed's iteration
        // count (a seed drops out the round it stabilizes, so its depth is
        // ≤ the rounds executed); the node limit applies to each seed's
        // accumulator individually — both as the per-seed loop enforces.
        let max_len = states.iter().map(|s| s.res.len()).max().unwrap_or(0);
        check_limits(eval, var, stats, max_len)?;
        stats.iterations += 1;
        // Evaluate every distinct frontier node not yet memoized, once.
        for &i in &active {
            for idx in 0..states[i].frontier.len() {
                let node = states[i].frontier[idx];
                ensure_image(eval, env, stats, node, &mut images)?;
            }
        }
        // Fold the images per seed: ∆ ← (⋃ images of frontier) ∖ res.
        // The memo is read-only during the fold, so the per-seed folds
        // shard across threads when `fixpoint_threads > 1` (a seed with an
        // empty frontier — i.e. not in `active` — is a no-op either way);
        // `threads == 1` runs inline on the caller thread.
        let threads = eval.options().fixpoint_threads;
        shard::for_each_shard(threads, &mut states, |_, chunk| {
            for state in chunk {
                if state.frontier.is_empty() {
                    continue;
                }
                let mut step = NodeSet::new();
                for node in &state.frontier {
                    step.extend(images[node].iter().copied());
                }
                step.except_in_place(&state.res);
                state.res.union_in_place(&step);
                state.frontier = step.iter().collect();
            }
        });
    }

    Ok(materialize_states(
        eval.options().fixpoint_threads,
        &eval.store,
        states.iter().map(|s| &s.res),
    ))
}

/// Materialize every seed's accumulator into document order, sharded
/// across `threads` when asked to (the store is only read here).
fn materialize_states<'a>(
    threads: usize,
    store: &NodeStore,
    sets: impl Iterator<Item = &'a NodeSet>,
) -> Vec<Vec<NodeId>> {
    let sets: Vec<&NodeSet> = sets.collect();
    shard::map_sharded(threads, &sets, |set| set.to_vec(store))
}

/// The **grouped** batched mode: per-seed body evaluations advanced in
/// lockstep rounds — exact for arbitrary (also non-distributive, also
/// constructing) bodies, since each seed sees precisely the evaluation
/// sequence its own per-seed loop would have performed.
fn batched_grouped(
    eval: &mut Evaluator<'_>,
    var: &str,
    seeds: &[NodeId],
    body: &Expr,
    env: &mut Environment,
    strategy: FixpointStrategy,
    stats: &mut FixpointStats,
) -> Result<Vec<Vec<NodeId>>> {
    /// One seed's loop state.
    struct SeedState {
        res: NodeSet,
        /// What the next body call is fed: the whole accumulator (Naïve) or
        /// the last iteration's novelty (Delta), in document order.
        frontier: Vec<NodeId>,
        done: bool,
    }

    let seed_in_result = eval.options().seed_in_result;
    let mut states = Vec::with_capacity(seeds.len());
    for &seed in seeds {
        let initial: Vec<NodeId> = if seed_in_result {
            vec![seed]
        } else {
            call_payload(eval, var, &[seed], body, env, stats)?
        };
        let res = NodeSet::from_nodes(initial.iter().copied());
        let frontier = res.to_vec(&eval.store);
        states.push(SeedState {
            res,
            frontier,
            done: false,
        });
    }

    loop {
        if states.iter().all(|s| s.done) {
            break;
        }
        // Same limit conventions as the shared mode: rounds stand in for
        // per-seed iterations, node limit per seed accumulator.
        let max_len = states.iter().map(|s| s.res.len()).max().unwrap_or(0);
        check_limits(eval, var, stats, max_len)?;
        stats.iterations += 1;
        for state in states.iter_mut().filter(|s| !s.done) {
            let step = call_payload(eval, var, &state.frontier, body, env, stats)?;
            let mut fresh = NodeSet::from_nodes(step);
            fresh.except_in_place(&state.res);
            if fresh.is_empty() {
                state.done = true;
                continue;
            }
            state.res.union_in_place(&fresh);
            state.frontier = match strategy {
                FixpointStrategy::Naive => state.res.to_vec(&eval.store),
                FixpointStrategy::Delta => fresh.to_vec(&eval.store),
            };
        }
    }

    Ok(materialize_states(
        eval.options().fixpoint_threads,
        &eval.store,
        states.iter().map(|s| &s.res),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqy_xdm::NodeStore;

    const CURRICULUM: &str = r#"<curriculum>
        <course code="c1"><prerequisites><pre_code>c2</pre_code><pre_code>c3</pre_code></prerequisites></course>
        <course code="c2"><prerequisites><pre_code>c4</pre_code></prerequisites></course>
        <course code="c3"><prerequisites/></course>
        <course code="c4"><prerequisites/></course>
        <course code="c5"><prerequisites><pre_code>c1</pre_code></prerequisites></course>
    </curriculum>"#;

    fn curriculum_store() -> NodeStore {
        let mut store = NodeStore::new();
        let doc = store
            .parse_document_with_uri("curriculum.xml", CURRICULUM)
            .unwrap();
        store.register_id_attribute(doc, "code");
        store
    }

    const Q1: &str = "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c1'] \
                      recurse $x/id(./prerequisites/pre_code)";

    fn codes(store: &NodeStore, seq: &Sequence) -> Vec<String> {
        seq.nodes()
            .iter()
            .map(|&n| store.attribute_value(n, "code").unwrap().to_string())
            .collect()
    }

    #[test]
    fn naive_computes_transitive_prerequisites() {
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
        let result = evaluator.eval_query_str(Q1).unwrap();
        assert_eq!(codes(&store, &result), vec!["c2", "c3", "c4"]);
    }

    #[test]
    fn delta_matches_naive_on_distributive_body() {
        let mut store = curriculum_store();
        let naive_result = {
            let mut evaluator = Evaluator::new(&mut store);
            evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
            evaluator.eval_query_str(Q1).unwrap()
        };
        let mut store2 = curriculum_store();
        let delta_result = {
            let mut evaluator = Evaluator::new(&mut store2);
            evaluator.set_fixpoint_strategy(FixpointStrategy::Delta);
            evaluator.eval_query_str(Q1).unwrap()
        };
        assert_eq!(codes(&store, &naive_result), codes(&store2, &delta_result));
    }

    #[test]
    fn delta_feeds_fewer_nodes_than_naive() {
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
        evaluator.eval_query_str(Q1).unwrap();
        let naive_fed = evaluator.last_fixpoint_stats().unwrap().nodes_fed_back;

        let mut store2 = curriculum_store();
        let mut evaluator2 = Evaluator::new(&mut store2);
        evaluator2.set_fixpoint_strategy(FixpointStrategy::Delta);
        evaluator2.eval_query_str(Q1).unwrap();
        let delta_fed = evaluator2.last_fixpoint_stats().unwrap().nodes_fed_back;

        assert!(
            delta_fed < naive_fed,
            "Delta ({delta_fed}) should feed back fewer nodes than Naive ({naive_fed})"
        );
    }

    #[test]
    fn seed_node_in_a_cycle_is_included_when_reachable() {
        // c5 -> c1 -> {c2, c3}; c1 is in a cycle with nothing, but seeding
        // from c5 must reach c1 and its closure.
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        let result = evaluator
            .eval_query_str(
                "with $x seeded by doc('curriculum.xml')/curriculum/course[@code='c5'] \
                 recurse $x/id(./prerequisites/pre_code)",
            )
            .unwrap();
        assert_eq!(codes(&store, &result), vec!["c1", "c2", "c3", "c4"]);
    }

    /// Example 2.4 / Query Q2 of the paper: a non-distributive recursion
    /// body on which Naïve and Delta genuinely disagree.
    const Q2: &str = "let $seed := (<a/>,<b><c><d/></c></b>) \
                      return with $x seeded by $seed \
                      recurse if (count($x/self::a)) then $x/* else ()";

    #[test]
    fn example_2_4_naive_and_delta_differ() {
        // The worked table of Example 2.4 accumulates from the seed itself
        // (its iteration-0 row lists (a,b)); enable that reading.
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.options_mut().seed_in_result = true;
        evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
        let naive_result = evaluator.eval_query_str(Q2).unwrap();
        // Naïve computes (a, b, c, d): 4 nodes.
        assert_eq!(naive_result.len(), 4);

        let mut store2 = NodeStore::new();
        let mut evaluator2 = Evaluator::new(&mut store2);
        evaluator2.options_mut().seed_in_result = true;
        evaluator2.set_fixpoint_strategy(FixpointStrategy::Delta);
        let delta_result = evaluator2.eval_query_str(Q2).unwrap();
        // Delta returns only (a, b, c): 3 nodes.
        assert_eq!(delta_result.len(), 3);
    }

    #[test]
    fn iteration_counts_match_paper_table_for_q2() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.options_mut().seed_in_result = true;
        evaluator.set_fixpoint_strategy(FixpointStrategy::Naive);
        evaluator.eval_query_str(Q2).unwrap();
        let naive_stats = evaluator.last_fixpoint_stats().unwrap().clone();
        // Paper's table: Naïve stabilises at iteration 3 (res_3 = res_2).
        assert_eq!(naive_stats.iterations, 3);

        let mut store2 = NodeStore::new();
        let mut evaluator2 = Evaluator::new(&mut store2);
        evaluator2.options_mut().seed_in_result = true;
        evaluator2.set_fixpoint_strategy(FixpointStrategy::Delta);
        evaluator2.eval_query_str(Q2).unwrap();
        let delta_stats = evaluator2.last_fixpoint_stats().unwrap().clone();
        // Delta stops after iteration 2 (∆ becomes empty).
        assert_eq!(delta_stats.iterations, 2);
    }

    #[test]
    fn definition_2_1_literal_reading_hides_the_divergence_on_q2() {
        // Under the literal Definition 2.1 (res₀ = e_rec(e_seed)) Q2's seed
        // nodes never enter the result: both algorithms agree on (c).  This
        // test documents why the seed-inclusive option exists.
        for strategy in [FixpointStrategy::Naive, FixpointStrategy::Delta] {
            let mut store = NodeStore::new();
            let mut evaluator = Evaluator::new(&mut store);
            evaluator.set_fixpoint_strategy(strategy);
            let result = evaluator.eval_query_str(Q2).unwrap();
            assert_eq!(result.len(), 1, "strategy {}", strategy.name());
        }
    }

    #[test]
    fn non_node_seed_is_rejected() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        let err = evaluator
            .eval_query_str("with $x seeded by (1, 2) recurse $x")
            .unwrap_err();
        assert!(matches!(err, EvalError::Type(_)));
    }

    #[test]
    fn non_node_payload_result_is_rejected() {
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        let err = evaluator
            .eval_query_str(
                "with $x seeded by doc('curriculum.xml')/curriculum/course recurse count($x)",
            )
            .unwrap_err();
        assert!(matches!(err, EvalError::Type(_)));
    }

    #[test]
    fn diverging_fixpoint_with_constructors_is_reported_undefined() {
        let mut store = NodeStore::new();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.options_mut().max_fixpoint_iterations = 50;
        // Each iteration constructs a brand new element, so the result keeps
        // growing: the IFP is undefined (Definition 2.1).
        let err = evaluator
            .eval_query_str("with $x seeded by <seed/> recurse ($x, <grow/>)")
            .unwrap_err();
        assert!(matches!(err, EvalError::NoFixpoint { .. }));
    }

    #[test]
    fn stats_record_result_size_and_payload_calls() {
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        evaluator.set_fixpoint_strategy(FixpointStrategy::Delta);
        evaluator.eval_query_str(Q1).unwrap();
        let stats = evaluator.last_fixpoint_stats().unwrap();
        assert_eq!(stats.result_size, 3);
        assert!(stats.payload_calls >= 2);
        assert_eq!(stats.strategy, Some(FixpointStrategyTag::Delta));
    }

    #[test]
    fn fixpoint_equivalent_to_user_defined_fix_function() {
        // Figure 2 of the paper: the fix()/rec() template is equivalent to
        // the IFP form.  (The termination test is written as
        // `empty($res except $x)` — "no new nodes discovered" — which is the
        // reading consistent with Definition 2.1; the literal operand order
        // printed in the paper's figure does not terminate.)
        let fix_src = "declare function rec($cs) as node()* { $cs/id(./prerequisites/pre_code) };\n\
             declare function fix($x) as node()* {\n\
               let $res := rec($x) return if (empty($res except $x)) then $x else fix($res union $x)\n\
             };\n\
             let $seed := doc('curriculum.xml')/curriculum/course[@code='c1']\n\
             return fix(rec($seed))";
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        let via_fix = evaluator.eval_query_str(fix_src).unwrap();
        let via_ifp = evaluator.eval_query_str(Q1).unwrap();
        assert_eq!(codes(&store, &via_fix), codes(&store, &via_ifp));
    }

    #[test]
    fn fixpoint_equivalent_to_user_defined_delta_function() {
        // Figure 4 of the paper: the delta(·,·) user-defined function is a
        // drop-in replacement for fix(·) on distributive bodies.  The initial
        // call seeds the accumulator with rec($seed) so that the level-0
        // result is part of the answer (Figure 3(b): res ← e_rec(e_seed),
        // ∆ ← res).
        let delta_src =
            "declare function rec($cs) as node()* { $cs/id(./prerequisites/pre_code) };\n\
             declare function delta($x, $res) as node()* {\n\
               let $delta := rec($x) except $res\n\
               return if (empty($delta)) then $res else delta($delta, $delta union $res)\n\
             };\n\
             let $seed := doc('curriculum.xml')/curriculum/course[@code='c1']\n\
             return delta(rec($seed), rec($seed))";
        let mut store = curriculum_store();
        let mut evaluator = Evaluator::new(&mut store);
        let via_delta_udf = evaluator.eval_query_str(delta_src).unwrap();
        evaluator.set_fixpoint_strategy(FixpointStrategy::Delta);
        let via_ifp = evaluator.eval_query_str(Q1).unwrap();
        assert_eq!(codes(&store, &via_delta_udf), codes(&store, &via_ifp));
    }
}
