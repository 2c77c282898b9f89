//! The `table2` workload: the paper's Table-2 grid (rows × {Naive, Delta} ×
//! {source-level, algebraic} × {per-seed `execute`, batched
//! `execute_batched`}), every knob forced, queries prepared once and
//! warmed, one sequential client executing every cell once per pass.

use std::time::{Duration, Instant};

use xqy_bench::{cell_result, Algorithm, Backend, Workload};
use xqy_datagen::auction::{self, AuctionConfig};
use xqy_datagen::curriculum::{self, CurriculumConfig};
use xqy_datagen::hospital::{self, HospitalConfig};
use xqy_datagen::play::{self, PlayConfig};
use xqy_datagen::Scale;
use xqy_ifp::xdm::Sequence;
use xqy_ifp::{Bindings, Engine, Parallelism, PreparedQuery, QueryOutcome};
use xqy_service::QueryService;

use crate::alloc;
use crate::common::{
    fingerprint, generator_seed, micros_since, process_cpu_micros, service_config,
    thread_cpu_micros, Fingerprint, OpClock, PhaseCpu, Sample, DEFAULT_SEED,
};
use crate::layers::{cache_delta, ExecAcc, ServiceAcc, WorkCounters};
use crate::stats::{geomean, median};
use crate::trace::span;

/// The paper's columns for one row, pinned at the default seed: total
/// nodes fed back under Naive and under Delta on the per-seed cells, and
/// the recursion depth.  They equal the `table2` binary's `fed (Naive)`,
/// `fed (Delta)` and `depth` columns.
#[derive(Debug, Clone, Copy)]
struct Pin {
    naive_fed: u64,
    delta_fed: u64,
    depth: usize,
}

/// The rows, generated from the workload seed.
fn rows(seed: u64) -> Vec<(Workload, Option<Pin>)> {
    let pin = |naive_fed, delta_fed, depth| {
        (seed == DEFAULT_SEED).then_some(Pin {
            naive_fed,
            delta_fed,
            depth,
        })
    };
    let auction_small = AuctionConfig::for_scale(Scale::Small);
    let play_medium = PlayConfig::for_scale(Scale::Medium);
    let curriculum_small = CurriculumConfig::for_scale(Scale::Small);
    let hospital_medium = HospitalConfig::for_scale(Scale::Medium);
    vec![
        (
            Workload {
                label: "Bidder network (small)".into(),
                uri: auction::DOC_URI,
                xml: auction::generate(&AuctionConfig {
                    seed: generator_seed(auction_small.seed, seed),
                    ..auction_small
                }),
                id_attrs: vec![],
                seed_query: format!("doc('{}')/site/people/person", auction::DOC_URI),
                body: auction::BODY,
                per_item: true,
            },
            pin(36426, 10979, 9),
        ),
        (
            Workload {
                label: "Romeo and Juliet".into(),
                uri: play::DOC_URI,
                xml: play::generate(&PlayConfig {
                    seed: generator_seed(play_medium.seed, seed),
                    ..play_medium
                }),
                id_attrs: vec![],
                seed_query: format!("doc('{}')//SPEECH[@start='1']", play::DOC_URI),
                body: play::BODY,
                per_item: true,
            },
            pin(3952, 840, 26),
        ),
        (
            Workload {
                label: "Curriculum (small)".into(),
                uri: curriculum::DOC_URI,
                xml: curriculum::generate(&CurriculumConfig {
                    seed: generator_seed(curriculum_small.seed, seed),
                    ..curriculum_small
                }),
                id_attrs: vec!["code"],
                seed_query: format!("doc('{}')/curriculum/course", curriculum::DOC_URI),
                body: curriculum::BODY,
                per_item: true,
            },
            pin(
                CURRICULUM_SMALL_PIN.0,
                CURRICULUM_SMALL_PIN.1,
                CURRICULUM_SMALL_PIN.2,
            ),
        ),
        (
            Workload {
                label: "Hospital (medium)".into(),
                uri: hospital::DOC_URI,
                xml: hospital::generate(&HospitalConfig {
                    seed: generator_seed(hospital_medium.seed, seed),
                    ..hospital_medium
                }),
                id_attrs: vec![],
                seed_query: format!(
                    "doc('{}')/hospital/patient[@disease='yes']",
                    hospital::DOC_URI
                ),
                body: hospital::BODY,
                per_item: false,
            },
            pin(14587, 5732, 4),
        ),
    ]
}

/// Curriculum (small) at the default seed: Naive fed-back, Delta
/// fed-back, depth (from `xqy_bench::run_cell`, the function behind the
/// `table2` binary; that binary prints the medium row only).
const CURRICULUM_SMALL_PIN: (u64, u64, usize) = (40162, 3514, 21);

struct Row {
    workload: Workload,
    pin: Option<Pin>,
    engine: Engine,
    seeds: Sequence,
    bindings: Bindings,
    /// The node multiset every cell of the row must return.
    reference: Option<Fingerprint>,
}

struct Cell {
    row: usize,
    algorithm: Algorithm,
    backend: Backend,
    batched: bool,
    prepared: PreparedQuery,
    label: String,
    /// Work counters of the warm-up execution; every later execution must
    /// repeat them exactly.
    counters: Option<WorkCounters>,
}

/// A prepared, warmed Table-2 grid.
pub struct Table2 {
    rows: Vec<Row>,
    cells: Vec<Cell>,
    /// Executions attempted and failed (errors, wrong results, moved
    /// counters, missed pins).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

const BACKENDS: [Backend; 2] = [Backend::SourceLevel, Backend::Algebraic];
const ALGORITHMS: [Algorithm; 2] = [Algorithm::Naive, Algorithm::Delta];

impl Table2 {
    /// Generate, load and prepare every cell (not yet executed).
    pub fn build(seed: u64) -> Table2 {
        let specs = span("datagen.generate", 0, || rows(seed));
        let mut rows = Vec::new();
        let mut cells = Vec::new();
        for (index, (workload, pin)) in specs.into_iter().enumerate() {
            let mut engine = Engine::new();
            engine.set_parallelism(Parallelism::Sequential);
            span("xdm.load", 0, || {
                engine.load_document_with_ids(workload.uri, &workload.xml, &workload.id_attrs)
            })
            .expect("generated documents parse");
            let seeds = engine
                .run(&workload.seed_query)
                .expect("seed query runs")
                .result;
            let batched_forms: &[bool] = if workload.per_item {
                &[false, true]
            } else {
                &[false]
            };
            for &batched in batched_forms {
                for backend in BACKENDS {
                    for algorithm in ALGORITHMS {
                        engine.set_strategy(algorithm.strategy());
                        let text = if batched {
                            workload.batched_query()
                        } else {
                            workload.query()
                        };
                        let prepared = span("setup.prepare", 0, || engine.prepare(&text))
                            .expect("workload query prepares")
                            .with_backend(backend)
                            .with_parallelism(Parallelism::Sequential);
                        cells.push(Cell {
                            row: index,
                            algorithm,
                            backend,
                            batched,
                            prepared,
                            label: format!(
                                "{} | {} {} {}",
                                workload.label,
                                backend.name(),
                                algorithm.name(),
                                if batched { "batched" } else { "per-seed" }
                            ),
                            counters: None,
                        });
                    }
                }
            }
            rows.push(Row {
                bindings: Bindings::new().with("seed", seeds.clone()),
                workload,
                pin,
                engine,
                seeds,
                reference: None,
            });
        }
        Table2 {
            rows,
            cells,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Whether cell `i` runs the Naive algorithm.
    pub fn is_naive(&self, i: usize) -> bool {
        self.cells[i].algorithm == Algorithm::Naive
    }

    /// Execute cell `i`; also returns its `(wall µs, CPU µs)`.
    fn execute(&mut self, i: usize) -> (Result<QueryOutcome, String>, (f64, f64)) {
        let cell = &self.cells[i];
        let row = &mut self.rows[cell.row];
        let clock = OpClock::start();
        let result = if cell.batched {
            span("core.execute_batched", i as u64 + 1, || {
                cell.prepared
                    .execute_batched(&mut row.engine, "seed", &row.seeds, &Bindings::new())
            })
            .map(|b| b.outcome)
        } else {
            span("core.execute", i as u64 + 1, || {
                cell.prepared.execute(&mut row.engine, &row.bindings)
            })
        };
        let took = clock.read();
        (result.map_err(|e| e.to_string()), took)
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        self.failures.push(message);
    }

    /// Check one execution of cell `i`; the first execution of a cell sets
    /// its counters (and checks the pins), the first of a row sets the
    /// row's reference node multiset.
    fn check(&mut self, i: usize, outcome: &QueryOutcome) {
        let cell = &self.cells[i];
        let row = &self.rows[cell.row];
        let got = fingerprint(&outcome.result, row.engine.store());
        let counters = WorkCounters::of(outcome);
        let mut problems = Vec::new();
        match row.reference {
            Some(want) if want != got => problems.push(format!(
                "node multiset differs from the row's ({} vs {} items)",
                got.len, want.len
            )),
            _ => {}
        }
        if !cell.batched
            && outcome
                .occurrences
                .iter()
                .any(|o| o.strategy != cell.algorithm.strategy_as_fixpoint())
        {
            problems.push("ran another strategy than the forced one".into());
        }
        match cell.counters {
            Some(want) if want.fixpoint_only() != counters.fixpoint_only() => {
                problems.push(format!("work counters moved: {want:?} -> {counters:?}"))
            }
            Some(_) => {}
            None => {
                if let (Some(pin), false) = (row.pin, cell.batched) {
                    let table = cell_result(outcome, Duration::ZERO);
                    let want_fed = match cell.algorithm {
                        Algorithm::Naive => pin.naive_fed,
                        Algorithm::Delta => pin.delta_fed,
                    };
                    if table.nodes_fed_back != want_fed || table.depth != pin.depth {
                        problems.push(format!(
                            "paper columns fed={} depth={} differ from the pin fed={} depth={}",
                            table.nodes_fed_back, table.depth, want_fed, pin.depth
                        ));
                    }
                }
            }
        }
        let label = cell.label.clone();
        if self.rows[self.cells[i].row].reference.is_none() {
            self.rows[self.cells[i].row].reference = Some(got);
        }
        if self.cells[i].counters.is_none() {
            self.cells[i].counters = Some(counters);
        }
        if !problems.is_empty() {
            self.fail(format!("{label}: {}", problems.join("; ")));
        }
    }

    /// Run cell `i` once, checked; returns its `(wall µs, CPU µs)`.
    fn run_checked(&mut self, i: usize, acc: Option<&mut ExecAcc>) -> Option<(f64, f64)> {
        self.attempted += 1;
        let before = alloc::thread_totals();
        let (result, took) = self.execute(i);
        let after = alloc::thread_totals();
        match result {
            Ok(outcome) => {
                if let Some(acc) = acc {
                    acc.record(&outcome, took.0, (after.0 - before.0, after.1 - before.1));
                }
                self.check(i, &outcome);
                Some(took)
            }
            Err(e) => {
                let label = self.cells[i].label.clone();
                self.fail(format!("{label}: {e}"));
                None
            }
        }
    }

    /// Execute every cell once (the warm-up pass), fixing each cell's
    /// counters and each row's reference and checking the pins.
    pub fn warm_up(&mut self) {
        for i in 0..self.cells.len() {
            self.run_checked(i, None);
        }
    }

    /// Run whole passes over the grid (at least one) until `seconds` have
    /// elapsed.
    pub fn measure(&mut self, seconds: f64, mut acc: Option<&mut ExecAcc>) -> (Vec<Sample>, usize) {
        let mut samples = Vec::new();
        let mut passes = 0;
        let start = Instant::now();
        loop {
            for i in 0..self.cells.len() {
                if let Some((wall_us, cpu_us)) = self.run_checked(i, acc.as_deref_mut()) {
                    samples.push(Sample {
                        class: i,
                        op: 0,
                        wall_us,
                        cpu_us,
                    });
                }
            }
            passes += 1;
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        (samples, passes)
    }

    /// Work counters of one pass (exact: every execution repeats its
    /// cell's warm-up counters).
    pub fn pass_counters(&self) -> WorkCounters {
        let mut total = WorkCounters::default();
        for cell in &self.cells {
            if let Some(c) = cell.counters {
                total.add(&c);
            }
        }
        total
    }

    /// Per-cell counters, in cell order (for the repeat test and report).
    pub fn cell_counters(&self) -> Vec<(String, Option<WorkCounters>)> {
        self.cells
            .iter()
            .map(|c| (c.label.clone(), c.counters))
            .collect()
    }

    /// Fed-back counts of the batched source-level Naive and Delta cells
    /// per per-item row.  Shared (distinct-frontier) mode ignores the
    /// forced strategy, so the two agree: the batched "Naive" cell is not
    /// Figure 3(a).  Reported, not gated.
    pub fn batched_naive_trap(&self) -> Vec<(String, u64, u64)> {
        let fed = |row: usize, algorithm: Algorithm| {
            self.cells
                .iter()
                .find(|c| {
                    c.row == row
                        && c.algorithm == algorithm
                        && c.backend == Backend::SourceLevel
                        && c.batched
                })
                .and_then(|c| c.counters)
                .map_or(0, |c| c.nodes_fed_back)
        };
        (0..self.rows.len())
            .filter(|&r| self.rows[r].workload.per_item)
            .map(|r| {
                (
                    self.rows[r].workload.label.clone(),
                    fed(r, Algorithm::Naive),
                    fed(r, Algorithm::Delta),
                )
            })
            .collect()
    }

    /// Sequential over `Parallelism::Fixed(threads)` time of the batched
    /// Delta algebraic cell, geometric mean over the per-item rows (each
    /// row: median of `repeats` alternating runs).  Also checks that both
    /// return the row's node multiset.
    pub fn shard_speedup(&mut self, threads: usize, repeats: usize) -> f64 {
        let mut ratios = Vec::new();
        for r in 0..self.rows.len() {
            if !self.rows[r].workload.per_item {
                continue;
            }
            let Some(seq) = self.cells.iter().position(|c| {
                c.row == r
                    && c.batched
                    && c.algorithm == Algorithm::Delta
                    && c.backend == Backend::Algebraic
            }) else {
                continue;
            };
            let row = &mut self.rows[r];
            row.engine.set_strategy(Algorithm::Delta.strategy());
            let parallel = row
                .engine
                .prepare(&row.workload.batched_query())
                .expect("workload query prepares")
                .with_backend(Backend::Algebraic)
                .with_parallelism(Parallelism::Fixed(threads));
            let (mut seq_us, mut par_us) = (Vec::new(), Vec::new());
            for _ in 0..repeats {
                // Wall time: the parallel run's work is on other threads.
                let Some((micros, _)) = self.run_checked(seq, None) else {
                    break;
                };
                seq_us.push(micros);
                let row = &mut self.rows[r];
                self.attempted += 1;
                let start = Instant::now();
                let result = span("core.execute_batched_parallel", 0, || {
                    parallel.execute_batched(&mut row.engine, "seed", &row.seeds, &Bindings::new())
                });
                par_us.push(micros_since(start));
                let ok = match &result {
                    Ok(b) => {
                        Some(fingerprint(&b.outcome.result, row.engine.store())) == row.reference
                    }
                    Err(_) => false,
                };
                if !ok {
                    let label = row.workload.label.clone();
                    self.fail(format!(
                        "{label}: parallel batched Delta disagrees with the row"
                    ));
                }
            }
            if !seq_us.is_empty() {
                ratios.push(median(&seq_us) / median(&par_us).max(1e-9));
            }
        }
        geomean(&ratios)
    }

    /// The Table-2 cells run the other way round: each row's query text,
    /// self-contained, through a default-configured `QueryService` (Auto
    /// strategy and back-end), plus a variant that wraps it in a
    /// constructor so the copy-on-write path runs.  Each text executes
    /// `repeats` times (the first prepares, the rest hit the plan cache);
    /// results are checked against the row's reference.
    pub fn service_route(&mut self, repeats: usize) -> (ServiceAcc, xqy_service::CacheCounters) {
        let service = QueryService::new(service_config());
        for row in &self.rows {
            let w = &row.workload;
            span("xdm.load", 0, || {
                service.load_document_with_ids(w.uri, &w.xml, &w.id_attrs)
            })
            .expect("generated documents parse");
        }
        span("service.publish", 0, || service.publish()).expect("publish succeeds");
        let before = service.counters().cache;
        let mut acc = ServiceAcc::default();
        let mut request = 1_000_000;
        for r in 0..self.rows.len() {
            let w = &self.rows[r].workload;
            let plain = if w.per_item {
                format!(
                    "for $s in {} return (with $x seeded by $s recurse {})",
                    w.seed_query, w.body
                )
            } else {
                format!("with $x seeded by {} recurse {}", w.seed_query, w.body)
            };
            let constructing = format!("<cell>{{count({plain})}}</cell>");
            let want = self.rows[r].reference;
            for (text, constructs) in [(plain, false), (constructing, true)] {
                for _ in 0..repeats {
                    request += 1;
                    self.attempted += 1;
                    let start = Instant::now();
                    let result = span("service.execute", request, || service.execute(&text));
                    let latency = micros_since(start);
                    let ok = match &result {
                        Ok(out) if constructs => {
                            out.display() == format!("<cell>{}</cell>", want.map_or(0, |f| f.len))
                        }
                        Ok(out) => Some(fingerprint(&out.outcome.result, &out.store)) == want,
                        Err(_) => false,
                    };
                    if let Ok(out) = &result {
                        acc.record(out, latency, constructs);
                    }
                    if !ok {
                        let label = self.rows[r].workload.label.clone();
                        self.fail(format!("{label}: service route result differs"));
                    }
                }
            }
        }
        (acc, cache_delta(&before, &service.counters().cache))
    }

    /// Every query text the grid prepares (for the prepare-layer probe).
    pub fn texts(&self) -> Vec<String> {
        let mut texts: Vec<String> = Vec::new();
        for row in &self.rows {
            for t in [row.workload.query(), row.workload.batched_query()] {
                if !texts.contains(&t) {
                    texts.push(t);
                }
            }
        }
        texts
    }

    /// Median wall time (ms) per cell label, given the measured samples.
    pub fn cell_medians(&self, samples: &[Sample]) -> Vec<(String, f64)> {
        (0..self.cells.len())
            .map(|i| {
                let v: Vec<f64> = samples
                    .iter()
                    .filter(|s| s.class == i)
                    .map(|s| s.wall_us / 1e3)
                    .collect();
                (self.cells[i].label.clone(), median(&v))
            })
            .collect()
    }
}

/// Warm every grid, one client thread per grid, all at once.
pub fn warm_up_clients(grids: &mut [Table2]) {
    std::thread::scope(|scope| {
        for grid in grids.iter_mut() {
            scope.spawn(move || grid.warm_up());
        }
    });
}

/// What measuring the grids produced.
pub struct GridPhase {
    /// Pooled samples of every client.
    pub samples: Vec<Sample>,
    /// Wall time of the phase.
    pub wall: Duration,
    /// CPU time of the phase.
    pub cpu: PhaseCpu,
    /// Passes completed, summed over clients.
    pub passes: usize,
    /// Core-layer accounting of every execution (traced phases).
    pub exec: ExecAcc,
    /// Parser invocations on the client threads.
    pub parse_count: u64,
    /// Algebraic compilations on the client threads.
    pub compile_count: u64,
}

/// Measure every grid for `seconds`, one client thread per grid, all at
/// once.
pub fn measure_clients(grids: &mut [Table2], seconds: f64, traced: bool) -> GridPhase {
    let process_cpu = process_cpu_micros();
    let start = Instant::now();
    let results: Vec<GridPhase> = std::thread::scope(|scope| {
        let handles: Vec<_> = grids
            .iter_mut()
            .map(|grid| {
                scope.spawn(move || {
                    let cpu0 = thread_cpu_micros();
                    let counts = (
                        xqy_ifp::parser::parse_count(),
                        xqy_ifp::algebra::compile_count(),
                    );
                    let mut exec = ExecAcc::default();
                    let (samples, passes) =
                        grid.measure(seconds, if traced { Some(&mut exec) } else { None });
                    crate::trace::flush_thread();
                    GridPhase {
                        samples,
                        wall: start.elapsed(),
                        cpu: PhaseCpu {
                            process_us: 0.0,
                            clients_us: thread_cpu_micros() - cpu0,
                        },
                        passes,
                        exec,
                        parse_count: xqy_ifp::parser::parse_count() - counts.0,
                        compile_count: xqy_ifp::algebra::compile_count() - counts.1,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut out = GridPhase {
        samples: Vec::new(),
        wall: start.elapsed(),
        cpu: PhaseCpu {
            process_us: process_cpu_micros() - process_cpu,
            clients_us: 0.0,
        },
        passes: 0,
        exec: ExecAcc::default(),
        parse_count: 0,
        compile_count: 0,
    };
    for r in results {
        out.samples.extend(r.samples);
        out.cpu.clients_us += r.cpu.clients_us;
        out.passes += r.passes;
        out.exec.merge(r.exec);
        out.parse_count += r.parse_count;
        out.compile_count += r.compile_count;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two independently built grids at the default seed report identical
    /// work counters cell by cell, the same parser/compiler invocations and
    /// the same allocation count and bytes over a measured pass, and no
    /// failures (pins included).
    #[test]
    fn two_runs_give_identical_counters() {
        let run = || {
            let mut grid = Table2::build(DEFAULT_SEED);
            grid.warm_up();
            let counts = (
                xqy_ifp::parser::parse_count(),
                xqy_ifp::algebra::compile_count(),
            );
            let mut acc = ExecAcc::default();
            alloc::set_counting(true);
            grid.measure(0.0, Some(&mut acc));
            alloc::set_counting(false);
            let moved = (
                xqy_ifp::parser::parse_count() - counts.0,
                xqy_ifp::algebra::compile_count() - counts.1,
            );
            assert!(grid.failures.is_empty(), "{:?}", grid.failures);
            (grid.cell_counters(), acc.work, moved, acc.allocs)
        };
        let (a, b) = (run(), run());
        assert!(a.0.iter().all(|(_, c)| c.is_some()));
        assert_eq!(a.2, (0, 0), "executions neither parse nor compile");
        assert!(a.3 .0 > 0);
        assert_eq!(a, b);
    }

    /// A second seed changes the documents and still passes every
    /// cross-cell check (the pins apply to the default seed only).
    #[test]
    fn another_seed_passes_the_cross_cell_checks() {
        let mut grid = Table2::build(7);
        grid.warm_up();
        assert!(grid.failures.is_empty(), "{:?}", grid.failures);
        let default = {
            let mut g = Table2::build(DEFAULT_SEED);
            g.warm_up();
            g.pass_counters()
        };
        assert_ne!(grid.pass_counters(), default);
    }
}
