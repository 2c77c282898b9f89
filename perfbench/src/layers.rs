//! Per-layer accumulators of the traced run and the per-layer metric list.
//! Everything here is read from what the program already returns
//! (`QueryOutcome`, `OccurrencePlan`, `FixpointStats`, `ServiceStats`,
//! `ServiceCounters`, the parse/compile counters) or from the benchmark's
//! own spans and counting allocator.

use xqy_ifp::eval::FixpointBackendTag;
use xqy_ifp::{DecisionSource, QueryOutcome};
use xqy_service::{CacheCounters, CacheOutcome, ServiceOutcome};

use crate::stats::{median, quantile, ratio};
use crate::trace::Summary;
use crate::Metric;

/// Deterministic fixpoint work counters, summed over executions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Fixpoint runs.
    pub runs: u64,
    /// Recursion depth (per execution: the deepest run).
    pub depth: u64,
    /// Nodes fed back into recursion bodies.
    pub nodes_fed_back: u64,
    /// Recursion-body invocations.
    pub body_calls: u64,
    /// Nodes in the fixpoint results.
    pub result_size: u64,
    /// Algebraic static-cache hits.
    pub static_cache_hits: u64,
    /// Algebraic rec-independent plan evaluations.
    pub static_plan_evals: u64,
}

impl WorkCounters {
    /// The counters of one execution.
    pub fn of(outcome: &QueryOutcome) -> Self {
        let fx = &outcome.fixpoints;
        WorkCounters {
            runs: fx.len() as u64,
            depth: fx.iter().map(|s| s.iterations as u64).max().unwrap_or(0),
            nodes_fed_back: fx.iter().map(|s| s.nodes_fed_back).sum(),
            body_calls: fx.iter().map(|s| s.payload_calls as u64).sum(),
            result_size: fx.iter().map(|s| s.result_size as u64).sum(),
            static_cache_hits: outcome
                .occurrences
                .iter()
                .map(|o| o.static_cache_hits)
                .sum(),
            static_plan_evals: outcome
                .occurrences
                .iter()
                .map(|o| o.static_plan_evals)
                .sum(),
        }
    }

    /// The fixpoint counters alone: the static-cache pair legitimately
    /// differs between a plan's first execution and later ones.
    pub fn fixpoint_only(&self) -> WorkCounters {
        WorkCounters {
            static_cache_hits: 0,
            static_plan_evals: 0,
            ..*self
        }
    }

    /// Add `other` into `self`.
    pub fn add(&mut self, other: &WorkCounters) {
        self.runs += other.runs;
        self.depth += other.depth;
        self.nodes_fed_back += other.nodes_fed_back;
        self.body_calls += other.body_calls;
        self.result_size += other.result_size;
        self.static_cache_hits += other.static_cache_hits;
        self.static_plan_evals += other.static_plan_evals;
    }

    fn scaled(&self, by: f64) -> [(&'static str, f64); 7] {
        [
            ("fixpoint.runs", self.runs as f64 * by),
            ("fixpoint.depth", self.depth as f64 * by),
            ("fixpoint.nodes_fed_back", self.nodes_fed_back as f64 * by),
            ("fixpoint.body_calls", self.body_calls as f64 * by),
            ("fixpoint.result_size", self.result_size as f64 * by),
            (
                "algebra.static_cache_hits",
                self.static_cache_hits as f64 * by,
            ),
            (
                "algebra.static_plan_evals",
                self.static_plan_evals as f64 * by,
            ),
        ]
    }
}

/// What every traced execution of the core layer contributes.
#[derive(Debug, Default)]
pub struct ExecAcc {
    /// Execute wall time per execution, µs.
    pub execute_us: Vec<f64>,
    /// Σ fixpoint wall time on the interpreter, µs.
    pub interpreted_fixpoint_us: f64,
    /// Σ fixpoint wall time on the relational executor, µs.
    pub algebraic_fixpoint_us: f64,
    /// Σ allocations and requested bytes during executions.
    pub allocs: (u64, u64),
    /// Occurrence plans seen, and how many feedback adapted.
    pub occurrences: u64,
    /// Occurrence plans decided by feedback.
    pub adapted: u64,
    /// Observed / estimated cost of every occurrence that ran.
    pub observed_over_estimated: Vec<f64>,
    /// Work counters summed over executions.
    pub work: WorkCounters,
}

impl ExecAcc {
    /// Record one execution that took `micros` and allocated `allocs`.
    pub fn record(&mut self, outcome: &QueryOutcome, micros: f64, allocs: (u64, u64)) {
        self.execute_us.push(micros);
        for s in &outcome.fixpoints {
            match s.backend {
                FixpointBackendTag::Interpreted => {
                    self.interpreted_fixpoint_us += s.wall_micros as f64
                }
                FixpointBackendTag::Algebraic => self.algebraic_fixpoint_us += s.wall_micros as f64,
            }
        }
        self.allocs.0 += allocs.0;
        self.allocs.1 += allocs.1;
        for occ in &outcome.occurrences {
            self.occurrences += 1;
            if occ.decided_by == DecisionSource::Adapted {
                self.adapted += 1;
            }
            if let Some(observed) = occ.observed_cost_micros {
                if occ.estimated_cost_micros > 0 {
                    self.observed_over_estimated
                        .push(observed as f64 / occ.estimated_cost_micros as f64);
                }
            }
        }
        self.work.add(&WorkCounters::of(outcome));
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: ExecAcc) {
        self.execute_us.extend(other.execute_us);
        self.interpreted_fixpoint_us += other.interpreted_fixpoint_us;
        self.algebraic_fixpoint_us += other.algebraic_fixpoint_us;
        self.allocs.0 += other.allocs.0;
        self.allocs.1 += other.allocs.1;
        self.occurrences += other.occurrences;
        self.adapted += other.adapted;
        self.observed_over_estimated
            .extend(other.observed_over_estimated);
        self.work.add(&other.work);
    }
}

/// What every traced service execution contributes.
#[derive(Debug, Default)]
pub struct ServiceAcc {
    /// Client-observed latency of every execution, µs.
    pub latency_us: Vec<f64>,
    /// Admission wait, µs.
    pub queue_wait_us: Vec<f64>,
    /// Plan fetch/prepare + execute, µs.
    pub execute_time_us: Vec<f64>,
    /// Latency − wait − execute, µs.
    pub overhead_us: Vec<f64>,
    /// Latency of plan-cache hits, µs.
    pub hit_latency_us: Vec<f64>,
    /// Latency of plan-cache misses, µs.
    pub miss_latency_us: Vec<f64>,
    /// Latency of queries that construct nodes (copy-on-write path), µs.
    pub construct_latency_us: Vec<f64>,
}

impl ServiceAcc {
    /// Record one execution observed at `latency_us` by its client.
    pub fn record(&mut self, outcome: &ServiceOutcome, latency_us: f64, constructs: bool) {
        let wait = outcome.stats.queue_wait.as_secs_f64() * 1e6;
        let exec = outcome.stats.execute_time.as_secs_f64() * 1e6;
        self.latency_us.push(latency_us);
        self.queue_wait_us.push(wait);
        self.execute_time_us.push(exec);
        self.overhead_us.push((latency_us - wait - exec).max(0.0));
        match outcome.stats.cache {
            CacheOutcome::Hit => self.hit_latency_us.push(latency_us),
            CacheOutcome::Miss => self.miss_latency_us.push(latency_us),
        }
        if constructs {
            self.construct_latency_us.push(latency_us);
        }
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: ServiceAcc) {
        self.latency_us.extend(other.latency_us);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.execute_time_us.extend(other.execute_time_us);
        self.overhead_us.extend(other.overhead_us);
        self.hit_latency_us.extend(other.hit_latency_us);
        self.miss_latency_us.extend(other.miss_latency_us);
        self.construct_latency_us.extend(other.construct_latency_us);
    }
}

/// Everything the per-layer metric list is computed from.
pub struct LayerReport {
    /// Spans of the traced phase, set-up and probes.
    pub spans: Summary,
    /// Core-layer executions of the traced phase.
    pub exec: ExecAcc,
    /// Service executions of the traced phase (for `table2`: the service
    /// route of its rows).
    pub service: ServiceAcc,
    /// Plan-cache counter movement over those service executions.
    pub cache: CacheCounters,
    /// Parser invocations during the traced phase's executions.
    pub parse_count: u64,
    /// Algebraic compilations during the traced phase's executions.
    pub compile_count: u64,
    /// Fixpoint work counters and what they are divided by (`table2`: one
    /// pass, exact; services: per read).
    pub work: WorkCounters,
    /// Divisor of `work`.
    pub work_per: f64,
    /// Sequential over parallel batched time (0 where not exercised).
    pub shard_speedup: f64,
    /// The untraced phase, for the other views of the end-to-end metrics.
    pub untraced: crate::common::EndToEnd,
    /// Traced minus untraced value of each end-to-end metric.
    pub overhead: Vec<(&'static str, f64, &'static str)>,
}

impl LayerReport {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let span_ms = |name: &str| median(self.spans.durations(name)) / 1e3;
        let span_us = |name: &str| median(self.spans.durations(name));
        let s = &self.service;
        let e = &self.exec;
        let executes = e.execute_us.len() as f64;
        let fixpoint_total = e.interpreted_fixpoint_us + e.algebraic_fixpoint_us;
        let execute_total: f64 = e.execute_us.iter().sum();
        let cache_lookups = (self.cache.hits + self.cache.misses) as f64;
        let mut out = vec![
            Metric::new("xdm.load_ms", span_ms("xdm.load"), "ms"),
            Metric::new("service.publish_ms", span_ms("service.publish"), "ms"),
            Metric::new("xdm.load_write_ms", span_ms("xdm.load_write"), "ms"),
            Metric::new(
                "service.publish_write_ms",
                span_ms("service.publish_write"),
                "ms",
            ),
            Metric::new("parser.parse_us", span_us("parser.parse"), "us"),
            Metric::new("core.syntactic_us", span_us("core.syntactic"), "us"),
            Metric::new("algebra.compile_us", span_us("algebra.compile"), "us"),
            Metric::new("algebra.pushup_us", span_us("algebra.pushup"), "us"),
            Metric::new("core.prepare_us", span_us("core.prepare"), "us"),
            Metric::new("parser.parse_count", self.parse_count as f64, "count"),
            Metric::new("algebra.compile_count", self.compile_count as f64, "count"),
            Metric::new(
                "service.cache.hit_ratio",
                ratio(self.cache.hits as f64, cache_lookups),
                "ratio",
            ),
            Metric::new(
                "service.cache.evictions",
                self.cache.evictions as f64,
                "count",
            ),
            Metric::new(
                "service.cache.invalidations",
                self.cache.invalidations as f64,
                "count",
            ),
            Metric::new("service.cache.forks", self.cache.forks as f64, "count"),
            Metric::new(
                "service.queue_wait_p99_us",
                quantile(&s.queue_wait_us, 0.99),
                "us",
            ),
            Metric::new(
                "service.execute_time_p50_us",
                median(&s.execute_time_us),
                "us",
            ),
            Metric::new("service.overhead_p50_us", median(&s.overhead_us), "us"),
            Metric::new(
                "service.hit_latency_p50_us",
                median(&s.hit_latency_us),
                "us",
            ),
            Metric::new(
                "service.miss_latency_p50_us",
                median(&s.miss_latency_us),
                "us",
            ),
            Metric::new(
                "service.construct_latency_p50_us",
                median(&s.construct_latency_us),
                "us",
            ),
            Metric::new(
                "cost.adapted_share",
                ratio(e.adapted as f64, e.occurrences as f64),
                "ratio",
            ),
            Metric::new(
                "cost.observed_over_estimated_p50",
                median(&e.observed_over_estimated),
                "ratio",
            ),
            Metric::new("core.execute_ms", median(&e.execute_us) / 1e3, "ms"),
            Metric::new(
                "core.fixpoint_ms",
                ratio(fixpoint_total, executes) / 1e3,
                "ms",
            ),
            Metric::new(
                "eval.fixpoint_share",
                ratio(e.interpreted_fixpoint_us, fixpoint_total),
                "ratio",
            ),
            Metric::new(
                "core.outside_fixpoint_share",
                ratio(execute_total - fixpoint_total, execute_total).max(0.0),
                "ratio",
            ),
        ];
        let per = ratio(1.0, self.work_per);
        out.extend(
            self.work
                .scaled(per)
                .into_iter()
                .map(|(name, value)| Metric::new(name, value, "count")),
        );
        out.push(Metric::new(
            "alloc.count_per_execute",
            ratio(e.allocs.0 as f64, executes),
            "count",
        ));
        out.push(Metric::new(
            "alloc.bytes_per_execute",
            ratio(e.allocs.1 as f64, executes),
            "bytes",
        ));
        out.push(Metric::new("shard.speedup", self.shard_speedup, "ratio"));
        for (name, value, unit) in self.untraced.other_views() {
            out.push(Metric::new(name, value, unit));
        }
        for (name, value, unit) in &self.overhead {
            out.push(Metric::new(&format!("trace_overhead.{name}"), *value, unit));
        }
        out
    }
}

/// Plan-cache counter movement from `before` to `after`.
pub fn cache_delta(before: &CacheCounters, after: &CacheCounters) -> CacheCounters {
    CacheCounters {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        invalidations: after.invalidations - before.invalidations,
        forks: after.forks - before.forks,
        entries: after.entries,
    }
}
