//! The repository's benchmark: one process per run, one workload per run.
//!
//! ```bash
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! Workloads: `table2` (the paper's Table-2 grid) and `svc-read` (the
//! in-process query service under two closed-loop clients).  With
//! `--trace 0` the last stdout line is a JSON object with the end-to-end
//! metrics; with `--trace 1` it carries the per-layer
//! metrics of a traced run, which also measures an untraced phase of the
//! same length to report the tracing overhead.  A human-readable report
//! (machine fingerprint, per-cell medians, extra quantities) goes to
//! stderr and to `.bench_out/`; traced runs also write their spans there.
//! See `perfbench/NOTES.md`.

mod alloc;
mod common;
mod layers;
mod stats;
mod svc;
mod table2;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use common::{probe_prepare_layers, EndToEnd};
use layers::{LayerReport, WorkCounters};
use stats::{geomean, median, ratio};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up (warm-up included) is repeated this many times per run;
/// `setup_s` takes the median.
const SETUP_REPEATS: usize = 5;
/// Sequential warm-up draws of the service workload.
const SVC_WARM_UP_OPS: usize = 200;
/// Writes (load + publish) at the end of a traced `svc-read` run.
const WRITE_PROBES: u64 = 20;
/// Where reports and spans are written, relative to the working directory.
const OUT_DIR: &str = ".bench_out";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    name: String,
    value: f64,
    unit: String,
}

impl Metric {
    /// A metric `name` = `value` `unit`.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Table2,
    SvcRead,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Table2 => "table2",
            Workload::SvcRead => "svc-read",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = common::DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value {
                    "table2" => Workload::Table2,
                    "svc-read" => Workload::SvcRead,
                    other => return Err(format!("unknown workload {other}")),
                })
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// What a run produced.
struct RunResult {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Human-readable lines for the report.
    report: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <table2|svc-read> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // Both variables silently change what is measured: the thread count of
    // batched fixpoints, and armed failpoints.
    for var in ["XQY_FIXPOINT_THREADS", "XQY_FAULTS"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: refusing to run with {var} set; unset it");
            return ExitCode::from(2);
        }
    }
    let result = match args.workload {
        Workload::Table2 => run_table2(&args),
        Workload::SvcRead => run_svc(&args),
    };

    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in machine_fingerprint() {
        let _ = writeln!(report, "  {line}");
    }
    for line in &result.report {
        let _ = writeln!(report, "{line}");
    }
    let _ = writeln!(
        report,
        "attempted={} failed={} failed_ratio={}",
        result.attempted,
        result.failed,
        ratio(result.failed as f64, result.attempted as f64)
    );
    for f in result.failures.iter().take(20) {
        let _ = writeln!(report, "  FAILED {f}");
    }
    for m in &result.metrics {
        let _ = writeln!(report, "  {:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprint!("{report}");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        let _ = std::fs::write(format!("{OUT_DIR}/{stem}.txt"), &report);
    }

    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Time `SETUP_REPEATS` builds; return every duration and the last build.
fn repeated_setup<T>(mut build: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (times, last.expect("at least one set-up"))
}

/// Run `f` with span recording and allocation counting on.
fn traced<T>(f: impl FnOnce() -> T) -> T {
    trace::set_enabled(true);
    alloc::set_counting(true);
    let out = f();
    alloc::set_counting(false);
    trace::set_enabled(false);
    out
}

fn e2e_metrics(setup_s: f64, e2e: &EndToEnd, report: &mut Vec<String>) -> Vec<Metric> {
    report.push(format!(
        "latency samples: {}; {} operations ran at least {} times and make up {:.3} of them",
        e2e.samples,
        e2e.repeated_ops.0,
        common::MIN_REPEATS,
        e2e.repeated_ops.1
    ));
    for (name, value, unit) in e2e.other_views() {
        report.push(format!("  {name:<38} {value:>16.4} {unit}"));
    }
    let mut out = vec![Metric::new("setup_s", setup_s, "s")];
    out.extend(
        e2e.metrics()
            .into_iter()
            .map(|(name, value, unit)| Metric::new(name, value, unit)),
    );
    out
}

fn overhead(
    setup: (f64, f64),
    untraced: &EndToEnd,
    traced: &EndToEnd,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut out = vec![("setup_s", setup.1 - setup.0, "s")];
    for (u, t) in untraced.metrics().iter().zip(traced.metrics()) {
        out.push((u.0, t.1 - u.1, u.2));
    }
    out
}

fn write_spans(args: &Args, spans: &[trace::Span], summary: &trace::Summary) -> Vec<String> {
    let path = std::path::PathBuf::from(format!(
        "{OUT_DIR}/spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut lines = vec![format!(
        "spans: {} written to {} ({})",
        spans.len(),
        path.display(),
        match std::fs::create_dir_all(OUT_DIR).and_then(|_| trace::write_jsonl(&path, spans)) {
            Ok(()) => "ok".to_string(),
            Err(e) => format!("not written: {e}"),
        }
    )];
    lines.push(format!(
        "  {:<32} {:>8} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    ));
    for (name, count, total, own) in summary.table() {
        lines.push(format!(
            "  {:<32} {:>8} {:>14.3} {:>14.3}",
            name,
            count,
            total / 1e3,
            own / 1e3
        ));
    }
    lines
}

fn run_table2(args: &Args) -> RunResult {
    let mut report = Vec::new();
    let clients = common::CLIENTS;
    // One set-up: build every client's grid, then warm them all.
    let build = || -> Vec<table2::Table2> {
        let mut grids: Vec<_> = (0..clients)
            .map(|_| table2::Table2::build(args.seed))
            .collect();
        table2::warm_up_clients(&mut grids);
        grids
    };
    let (setup_times, mut grids) = repeated_setup(build);
    let setup_s = median(&setup_times);
    report.push(format!(
        "setup (generate, load, prepare, warm-up pass): {setup_times:?} s, median taken; \
         {clients} clients"
    ));

    let metrics;
    let samples;
    if !args.trace {
        let phase = table2::measure_clients(&mut grids, args.seconds, false);
        report.push(format!(
            "measured {} passes in {:.2} s",
            phase.passes,
            phase.wall.as_secs_f64()
        ));
        metrics = e2e_metrics(
            setup_s,
            &EndToEnd::from_samples(&phase.samples, phase.wall, phase.cpu),
            &mut report,
        );
        samples = phase.samples;
    } else {
        let half = args.seconds / 2.0;
        let untraced_phase = table2::measure_clients(&mut grids, half, false);
        let untraced = EndToEnd::from_samples(
            &untraced_phase.samples,
            untraced_phase.wall,
            untraced_phase.cpu,
        );
        let (traced_setup_times, _) = traced(|| repeated_setup(build));
        let phase = traced(|| table2::measure_clients(&mut grids, half, true));
        let traced_e2e = EndToEnd::from_samples(&phase.samples, phase.wall, phase.cpu);
        report.push(format!(
            "untraced half: {} samples; traced half: {} samples in {} passes",
            untraced_phase.samples.len(),
            phase.samples.len(),
            phase.passes
        ));
        let grid = &mut grids[0];
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let shard_speedup = grid.shard_speedup(threads, 3);
        let (service, cache) = traced(|| grid.service_route(4));
        traced(|| {
            probe_prepare_layers(
                &grid.texts(),
                xqy_ifp::Strategy::Delta,
                xqy_ifp::Backend::Algebraic,
            )
        });
        let spans = trace::take_all();
        let summary = trace::Summary::new(&spans);
        report.extend(write_spans(args, &spans, &summary));
        let layer = LayerReport {
            spans: summary,
            exec: phase.exec,
            service,
            cache,
            parse_count: phase.parse_count,
            compile_count: phase.compile_count,
            work: grid.pass_counters(),
            work_per: 1.0,
            shard_speedup,
            untraced,
            overhead: overhead(
                (setup_s, median(&traced_setup_times)),
                &untraced,
                &traced_e2e,
            ),
        };
        report.push(format!(
            "shard.speedup over {threads} threads: {shard_speedup:.3}"
        ));
        metrics = layer.metrics();
        samples = phase.samples;
    }
    let grid = &grids[0];

    // Quantities that are reported but are not metric keys (see NOTES.md).
    let split = |naive: bool| {
        let medians: Vec<f64> = grid
            .cell_medians(&samples)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| grid.is_naive(*i) == naive)
            .map(|(_, (_, m))| m)
            .collect();
        geomean(&medians)
    };
    report.push(format!(
        "naive_ms_geomean={:.4} delta_ms_geomean={:.4} over {} cells, {} samples",
        split(true),
        split(false),
        grid.cell_count(),
        samples.len()
    ));
    report.push("per-cell median ms:".into());
    for (label, ms) in grid.cell_medians(&samples) {
        report.push(format!("  {label:<56} {ms:>12.3}"));
    }
    report.push("per-cell work counters (runs, depth, fed back, body calls, result):".into());
    for (label, c) in grid.cell_counters() {
        let c = c.unwrap_or_default();
        report.push(format!(
            "  {label:<56} {} {} {} {} {}",
            c.runs, c.depth, c.nodes_fed_back, c.body_calls, c.result_size
        ));
    }
    for (row, batched_naive, delta) in grid.batched_naive_trap() {
        report.push(format!(
            "  {row}: batched source-level Naive feeds back {batched_naive}, batched Delta {delta} (shared mode ignores the forced strategy)"
        ));
    }
    let pass: WorkCounters = grid.pass_counters();
    report.push(format!("pass counters: {pass:?}"));
    let mut failures = Vec::new();
    for g in &grids {
        failures.extend(g.failures.iter().cloned());
    }
    RunResult {
        attempted: grids.iter().map(|g| g.attempted).sum(),
        failed: grids.iter().map(|g| g.failed).sum(),
        failures,
        metrics,
        report,
    }
}

fn run_svc(args: &Args) -> RunResult {
    let mut report = Vec::new();
    // One set-up: generate, load, publish, then warm the plan cache and the
    // cost feedback with sequential draws.
    let build = || {
        let mut svc = svc::Svc::build(args.seed);
        svc.warm_up(SVC_WARM_UP_OPS);
        svc
    };
    let (setup_times, mut svc) = repeated_setup(build);
    let setup_s = median(&setup_times);
    let reference = Instant::now();
    svc.compute_references();
    let reference_s = reference.elapsed().as_secs_f64();
    report.push(format!(
        "setup (generate, load, publish, warm-up): {setup_times:?} s, median taken; \
         references for {} texts {reference_s:.3} s (not in setup_s)",
        svc.distinct_texts()
    ));

    let (metrics, phase) = if !args.trace {
        let phase = svc.measure(args.seconds, 1, false);
        let e2e = EndToEnd::from_samples(&phase.samples, phase.wall, phase.cpu);
        (e2e_metrics(setup_s, &e2e, &mut report), phase)
    } else {
        let half = args.seconds / 2.0;
        let untraced_phase = svc.measure(half, 1, false);
        let untraced = EndToEnd::from_samples(
            &untraced_phase.samples,
            untraced_phase.wall,
            untraced_phase.cpu,
        );
        let (traced_setup_times, _) = traced(|| repeated_setup(build));
        let mut phase = traced(|| svc.measure(half, 2, true));
        let traced_e2e = EndToEnd::from_samples(&phase.samples, phase.wall, phase.cpu);
        traced(|| {
            probe_prepare_layers(
                &svc.texts(),
                xqy_ifp::Strategy::Auto,
                xqy_ifp::Backend::Auto,
            )
        });
        // Last: every write moves the epoch and empties the plan cache.
        traced(|| svc.probe_writes(WRITE_PROBES));
        let spans = trace::take_all();
        let summary = trace::Summary::new(&spans);
        report.extend(write_spans(args, &spans, &summary));
        let exec = std::mem::take(&mut phase.exec);
        let layer = LayerReport {
            spans: summary,
            work: exec.work,
            work_per: exec.execute_us.len() as f64,
            exec,
            service: std::mem::take(&mut phase.service),
            cache: phase.cache,
            parse_count: phase.parse_count,
            compile_count: phase.compile_count,
            shard_speedup: 0.0,
            untraced,
            overhead: overhead(
                (setup_s, median(&traced_setup_times)),
                &untraced,
                &traced_e2e,
            ),
        };
        (layer.metrics(), phase)
    };

    // Quantities that are reported but are not metric keys (see NOTES.md).
    report.push(format!(
        "reads={} qps={:.1} cache hit ratio={:.3} \
         (hits {} misses {} evictions {} invalidations {})",
        phase.samples.len(),
        ratio(phase.samples.len() as f64, phase.wall.as_secs_f64()),
        ratio(
            phase.cache.hits as f64,
            (phase.cache.hits + phase.cache.misses) as f64
        ),
        phase.cache.hits,
        phase.cache.misses,
        phase.cache.evictions,
        phase.cache.invalidations,
    ));
    report.push("per-class median ms:".into());
    for (class, ms) in common::class_medians_ms(&phase.samples) {
        report.push(format!("  {:<24} {ms:>12.3}", svc::CLASSES[class]));
    }
    RunResult {
        attempted: svc.attempted,
        failed: svc.failed,
        failures: svc.failures,
        metrics,
        report,
    }
}

/// nproc, CPU model, rustc and git revision, recorded with every result.
fn machine_fingerprint() -> Vec<String> {
    vec![
        format!(
            "nproc: {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!("cpu: {}", cpu_model()),
        format!("rustc: {}", env!("PERFBENCH_RUSTC")),
        format!("git: {}", git_revision()),
    ]
}

/// The first `model name` line of `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, name)| name.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out revision, read from `.git` in the working directory.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|r| r.trim().to_string())
            .unwrap_or_else(|_| format!("{reference} (packed)")),
        None => head.trim().to_string(),
    }
}
