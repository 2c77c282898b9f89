//! Pieces shared by the workloads: the workload seed, result fingerprints,
//! the prepare-layer probe, the service configuration, and the end-to-end
//! metrics of a measured phase.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

use xqy_ifp::parser::{ast::Expr, parse_query};
use xqy_ifp::xdm::{DocId, Item, NodeStore, Sequence};
use xqy_ifp::{is_distributivity_safe, Backend, Parallelism, PreparedQuery, Strategy};
use xqy_service::ServiceConfig;

use crate::stats::{central_mean, geomean, median, quantile, ratio};
use crate::trace::span;

/// Closed-loop client threads of every workload: one per core of a 2-core
/// machine.  With one client the idle core's share of the machine goes to
/// whatever else the host runs, and timings swing with it.
pub const CLIENTS: usize = 2;

/// The workload seed that reproduces the generators' presets, and with
/// them the paper-column pins.
pub const DEFAULT_SEED: u64 = 0;

/// A generator seed: the preset itself at the default workload seed, a
/// seed-specific variation of it otherwise.
pub fn generator_seed(preset: u64, seed: u64) -> u64 {
    if seed == DEFAULT_SEED {
        preset
    } else {
        preset ^ SplitMix64::new(seed).next_u64()
    }
}

/// A small deterministic RNG for draws and shuffles.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// An RNG from `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A store-independent fingerprint of a result: its length and a hash of
/// the multiset of its items.  A node of a loaded document is named by its
/// document URI and arena index (so two stores that loaded the same text
/// agree); a constructed node by its serialization; an atomic by its
/// string value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Number of items.
    pub len: usize,
    /// Order-insensitive hash of the items.
    pub hash: u64,
}

/// Fingerprint `result`, whose nodes live in `store`.
pub fn fingerprint(result: &Sequence, store: &NodeStore) -> Fingerprint {
    let mut uri_hashes: HashMap<u32, Option<u64>> = HashMap::new();
    let mut items: Vec<u64> = result
        .iter()
        .map(|item| match item {
            Item::Node(n) => {
                let uri = *uri_hashes
                    .entry(n.doc)
                    .or_insert_with(|| store.document_uri(DocId(n.doc)).map(hash_of));
                match uri {
                    Some(uri) => hash_of(&(uri, n.node)),
                    None => hash_of(&xqy_ifp::xdm::serialize::serialize_node(store, *n)),
                }
            }
            Item::Atomic(a) => hash_of(&a.string_value()),
        })
        .collect();
    items.sort_unstable();
    Fingerprint {
        len: items.len(),
        hash: hash_of(&items),
    }
}

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Time each layer of preparation on every text in `texts`, outside any
/// engine or service: parse, the syntactic distributivity judgement, the
/// algebraic compilation (which includes its own push-up check), the
/// push-up check alone, and the whole `PreparedQuery::prepare`.  Each call
/// is a span; `first_request` numbers the texts.
pub fn probe_prepare_layers(texts: &[String], strategy: Strategy, backend: Backend) {
    for (i, text) in texts.iter().enumerate() {
        let request = i as u64 + 1;
        span("probe.prepare_text", request, || {
            let module = span("parser.parse", request, || parse_query(text))
                .expect("benchmark query texts parse");
            let mut bodies: Vec<(String, Expr)> = Vec::new();
            let mut collect = |e: &Expr| {
                e.walk(&mut |e| {
                    if let Expr::Fixpoint { var, body, .. } = e {
                        bodies.push((var.clone(), body.as_ref().clone()));
                    }
                })
            };
            module.functions.iter().for_each(|f| collect(&f.body));
            module.variables.iter().for_each(|(_, v)| collect(v));
            collect(&module.body);
            for (var, body) in &bodies {
                span("core.syntactic", request, || {
                    std::hint::black_box(is_distributivity_safe(body, var, &module.functions))
                });
                let compiled = span("algebra.compile", request, || {
                    xqy_ifp::algebra::compile_recursion_body(body, var)
                });
                if let Ok(compiled) = compiled {
                    span("algebra.pushup", request, || {
                        std::hint::black_box(xqy_ifp::algebra::check_distributivity(&compiled.plan))
                    });
                }
            }
            span("core.prepare", request, || {
                PreparedQuery::prepare(text, strategy, backend, Parallelism::Sequential)
            })
            .expect("benchmark query texts prepare");
        });
    }
}

/// One measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operation class (a Table-2 cell, a service query kind).
    pub class: usize,
    /// The repeated operation within its class: a Table-2 cell is one
    /// operation; a service query text is one per plan-cache outcome (hit
    /// or miss).
    pub op: usize,
    /// Wall time of the operation, µs.
    pub wall_us: f64,
    /// CPU time the operation consumed on its thread, µs.
    pub cpu_us: f64,
}

/// Wall and thread-CPU clocks read together around one operation.
pub struct OpClock {
    wall: Instant,
    cpu_us: f64,
}

impl OpClock {
    /// Start both clocks.
    pub fn start() -> Self {
        OpClock {
            cpu_us: thread_cpu_micros(),
            wall: Instant::now(),
        }
    }

    /// `(wall µs, thread CPU µs)` since `start`.
    pub fn read(&self) -> (f64, f64) {
        let wall = micros_since(self.wall);
        (wall, thread_cpu_micros() - self.cpu_us)
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU clocks through clock_gettime on 64-bit Linux");

/// CPU time the calling thread has consumed, µs.
pub fn thread_cpu_micros() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    cpu_clock_micros(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of this process has consumed, µs.
pub fn process_cpu_micros() -> f64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    cpu_clock_micros(CLOCK_PROCESS_CPUTIME_ID)
}

fn cpu_clock_micros(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on
    // 64-bit Linux, enforced above) and `clock` is one of the CPU-time
    // clock ids above.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime on a CPU-time clock cannot fail");
    ts.tv_sec as f64 * 1e6 + ts.tv_nsec as f64 / 1e3
}

/// Where the CPU time of a measured phase went: the whole process, and
/// the client threads (each from its start to its end).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCpu {
    /// CPU time of the process over the phase, µs.
    pub process_us: f64,
    /// Σ CPU time of the client threads, µs.
    pub clients_us: f64,
}

impl PhaseCpu {
    /// The share of the process's CPU time spent off the client threads:
    /// work the program moved to threads of its own.
    pub fn offthread_share(&self) -> f64 {
        ratio(self.process_us - self.clients_us, self.process_us).max(0.0)
    }
}

/// An operation takes part in `op_p10_ms_geomean` once it has been measured
/// this many times in the phase.
pub const MIN_REPEATS: usize = 5;

/// The metrics of one measured phase (set-up excluded).
///
/// The gated end-to-end metric is built from each repeated operation's
/// 10th-percentile wall time: on a shared host the machine's own speed
/// moves every mean, median and tail by more than any useful bound within
/// minutes, while the fast decile of an operation repeated many times in a
/// run stays put (see `perfbench/NOTES.md`).  Throughput, medians and tails
/// of the same phase are reported as per-layer views.
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Geometric mean over operation classes of the geometric mean over
    /// the class's operations of each operation's 10th-percentile wall
    /// time, ms.
    pub op_p10_ms_geomean: f64,
    /// Operations with at least `MIN_REPEATS` executions, and the share of
    /// executions they account for.
    pub repeated_ops: (usize, f64),
    /// Completed operations per wall-clock second.
    pub ops_per_s: f64,
    /// Median operation wall time, µs, estimated as the mean of the
    /// central 10% of operation times (45th to 55th percentile).
    pub latency_p50_us: f64,
    /// 90th-percentile operation wall time, µs.
    pub latency_p90_us: f64,
    /// 99th-percentile operation wall time, µs.
    pub latency_p99_us: f64,
    /// Geometric mean over operation classes of each class's median wall
    /// time, ms.
    pub class_ms_geomean: f64,
    /// Median operation CPU time on its client thread, µs.
    pub cpu_latency_p50_us: f64,
    /// 90th-percentile operation CPU time on its client thread, µs.
    pub cpu_latency_p90_us: f64,
    /// See `PhaseCpu::offthread_share`.
    pub offthread_cpu_share: f64,
    /// Number of operations.
    pub samples: usize,
}

impl EndToEnd {
    /// Summarize the `samples` of a phase that took `wall` and `cpu`.
    pub fn from_samples(samples: &[Sample], wall: Duration, cpu: PhaseCpu) -> Self {
        let walls: Vec<f64> = samples.iter().map(|s| s.wall_us).collect();
        let cpus: Vec<f64> = samples.iter().map(|s| s.cpu_us).collect();
        let mut by_op: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
        for s in samples {
            by_op
                .entry((s.class, s.op))
                .or_default()
                .push(s.wall_us / 1e3);
        }
        let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        let mut counted = 0;
        for ((class, _), times) in by_op.iter().filter(|(_, t)| t.len() >= MIN_REPEATS) {
            by_class
                .entry(*class)
                .or_default()
                .push(quantile(times, 0.1));
            counted += times.len();
        }
        let class_geomeans: Vec<f64> = by_class.values().map(|v| geomean(v)).collect();
        EndToEnd {
            op_p10_ms_geomean: geomean(&class_geomeans),
            repeated_ops: (
                by_class.values().map(Vec::len).sum(),
                ratio(counted as f64, samples.len() as f64),
            ),
            ops_per_s: ratio(samples.len() as f64, wall.as_secs_f64()),
            latency_p50_us: central_mean(&walls, 0.45, 0.55),
            latency_p90_us: quantile(&walls, 0.9),
            latency_p99_us: quantile(&walls, 0.99),
            class_ms_geomean: geomean(
                &class_medians_ms(samples)
                    .into_iter()
                    .map(|(_, ms)| ms)
                    .collect::<Vec<_>>(),
            ),
            cpu_latency_p50_us: median(&cpus),
            cpu_latency_p90_us: quantile(&cpus, 0.9),
            offthread_cpu_share: cpu.offthread_share(),
            samples: samples.len(),
        }
    }

    /// `(name, value, unit)` of every end-to-end metric but `setup_s`.
    pub fn metrics(&self) -> [(&'static str, f64, &'static str); 1] {
        [("op_p10_ms_geomean", self.op_p10_ms_geomean, "ms")]
    }

    /// Wall-clock throughput, quantiles and class medians, their
    /// thread-CPU counterparts and the off-thread CPU share, as per-layer
    /// metrics.
    pub fn other_views(&self) -> [(&'static str, f64, &'static str); 8] {
        [
            ("wall.ops_per_s", self.ops_per_s, "1/s"),
            ("wall.latency_p50_us", self.latency_p50_us, "us"),
            ("wall.latency_p90_us", self.latency_p90_us, "us"),
            ("wall.latency_p99_us", self.latency_p99_us, "us"),
            ("wall.class_ms_geomean", self.class_ms_geomean, "ms"),
            ("cpu.latency_p50_us", self.cpu_latency_p50_us, "us"),
            ("cpu.latency_p90_us", self.cpu_latency_p90_us, "us"),
            ("cpu.offthread_share", self.offthread_cpu_share, "ratio"),
        ]
    }
}

/// `(class, median wall time in ms)` of each operation class that has
/// samples, in class order.
pub fn class_medians_ms(samples: &[Sample]) -> Vec<(usize, f64)> {
    let mut by_class: HashMap<usize, Vec<f64>> = HashMap::new();
    for s in samples {
        by_class.entry(s.class).or_default().push(s.wall_us / 1e3);
    }
    let mut classes: Vec<_> = by_class.into_iter().collect();
    classes.sort_by_key(|(c, _)| *c);
    classes.into_iter().map(|(c, v)| (c, median(&v))).collect()
}

/// Microseconds since `start`.
pub fn micros_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// The service configuration both the `table2` service route and the
/// service workloads use: the defaults, spelled out so a change of default
/// cannot silently change what is measured.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        max_concurrent: 8,
        max_queue: 32,
        plan_cache_capacity: 64,
        default_timeout: None,
        limits: xqy_ifp::ResourceLimits::default(),
        strategy: Strategy::Auto,
        backend: Backend::Auto,
        parallelism: Parallelism::Sequential,
        seed_in_result: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(class: usize, op: usize, ms: &[f64]) -> Vec<Sample> {
        ms.iter()
            .map(|&ms| Sample {
                class,
                op,
                wall_us: ms * 1e3,
                cpu_us: ms * 1e3,
            })
            .collect()
    }

    /// Each operation contributes its 10th-percentile time once it has
    /// `MIN_REPEATS` executions: geometric mean within a class, then over
    /// classes.
    #[test]
    fn op_p10_metrics() {
        let mut samples = runs(0, 0, &[1.0, 5.0, 5.0, 5.0, 5.0]);
        samples.extend(runs(0, 1, &[4.0; 10]));
        samples.extend(runs(1, 0, &[9.0; 10]));
        samples.extend(runs(1, 1, &[0.5; MIN_REPEATS - 1]));
        let e = EndToEnd::from_samples(&samples, Duration::from_secs(1), PhaseCpu::default());
        let class0 = (1.0f64 * 4.0).sqrt();
        assert!((e.op_p10_ms_geomean - (class0 * 9.0).sqrt()).abs() < 1e-9);
        assert_eq!(e.repeated_ops.0, 3);
        assert!((e.repeated_ops.1 - 25.0 / 29.0).abs() < 1e-9);
        assert_eq!(e.samples, 29);
    }
}
