//! The service workload `svc-read`: two closed-loop clients reading from
//! the service, which runs with its default configuration over curriculum,
//! auction and hospital documents at medium scale.  The traced run ends
//! with a probe of the write path (load a small document, then publish).

use std::time::{Duration, Instant};

use xqy_datagen::auction::{self, AuctionConfig};
use xqy_datagen::curriculum::{self, CurriculumConfig};
use xqy_datagen::hospital::{self, HospitalConfig};
use xqy_datagen::Scale;
use xqy_ifp::{Backend, Engine, Parallelism, Strategy};
use xqy_service::{CacheCounters, CacheOutcome, QueryService};

use crate::alloc;
use crate::common::{
    fingerprint, generator_seed, process_cpu_micros, service_config, thread_cpu_micros,
    Fingerprint, OpClock, PhaseCpu, Sample, SplitMix64, CLIENTS,
};
use crate::layers::{cache_delta, ExecAcc, ServiceAcc};
use crate::trace::{self, span};

/// Zipf exponent of query popularity within a class.
const ZIPF_S: f64 = 1.0;

/// Query classes, in sample-class order.
pub const CLASSES: [&str; 5] = [
    "curriculum closure",
    "bidder network",
    "patient ancestors",
    "path lookup",
    "construct",
];

/// One distinct query text.
struct Query {
    text: String,
    class: usize,
    /// Reference fingerprint from a forced source-level `Engine` run.
    reference: Option<Fingerprint>,
}

/// The generated documents, in load order.
struct Documents {
    curriculum: String,
    auction: String,
    hospital: String,
    courses: usize,
    persons: usize,
    auctions: usize,
    patients: usize,
}

fn generate(seed: u64) -> Documents {
    let c = CurriculumConfig::for_scale(Scale::Medium);
    let a = AuctionConfig::for_scale(Scale::Medium);
    let h = HospitalConfig::for_scale(Scale::Medium);
    Documents {
        curriculum: curriculum::generate(&CurriculumConfig {
            seed: generator_seed(c.seed, seed),
            ..c
        }),
        auction: auction::generate(&AuctionConfig {
            seed: generator_seed(a.seed, seed),
            ..a
        }),
        hospital: hospital::generate(&HospitalConfig {
            seed: generator_seed(h.seed, seed),
            ..h
        }),
        courses: c.courses,
        persons: a.persons,
        auctions: a.auctions,
        patients: h.patients,
    }
}

fn load(docs: &Documents, mut load: impl FnMut(&str, &str, &[&str])) {
    load(curriculum::DOC_URI, &docs.curriculum, &["code"]);
    load(auction::DOC_URI, &docs.auction, &[]);
    load(hospital::DOC_URI, &docs.hospital, &[]);
}

/// About 2.8k distinct texts: every course's prerequisite closure, every
/// person's bidder network, 1000 patients' ancestors, 500 non-recursive
/// path lookups and 100 per-entity queries that construct elements.
fn queries(docs: &Documents, rng: &mut SplitMix64) -> Vec<Query> {
    let mut out = Vec::new();
    let mut push = |text: String, class: usize| {
        out.push(Query {
            text,
            class,
            reference: None,
        })
    };
    for i in 0..docs.courses {
        push(curriculum::prerequisites_query(&format!("c{i}")), 0);
    }
    for i in 0..docs.persons {
        push(auction::bidder_network_query(&format!("p{i}")), 1);
    }
    let mut patients: Vec<usize> = (0..docs.patients).collect();
    rng.shuffle(&mut patients);
    for &i in &patients[..1000] {
        push(hospital::ancestors_query(&format!("pt{i}")), 2);
    }
    let mut courses: Vec<usize> = (0..docs.courses).collect();
    let mut persons: Vec<usize> = (0..docs.persons).collect();
    let mut auctions: Vec<usize> = (0..docs.auctions).collect();
    rng.shuffle(&mut courses);
    rng.shuffle(&mut persons);
    rng.shuffle(&mut auctions);
    for &i in &courses[..250] {
        push(
            format!(
                "doc('{}')/curriculum/course[@code='c{i}']/prerequisites/pre_code",
                curriculum::DOC_URI
            ),
            3,
        );
    }
    for &i in &auctions[..250] {
        push(
            format!(
                "doc('{}')/site/open_auctions/open_auction[@id='a{i}']/bidder",
                auction::DOC_URI
            ),
            3,
        );
    }
    for &i in &courses[250..300] {
        let closure = curriculum::prerequisites_query(&format!("c{i}"));
        push(format!("<prereqs>{{{closure}}}</prereqs>"), 4);
    }
    for &i in &persons[..50] {
        let network = auction::bidder_network_query(&format!("p{i}"));
        push(format!("<network>{{count({network})}}</network>"), 4);
    }
    out
}

/// Popularity: within each class, Zipf over a seeded shuffle of its texts,
/// so popularity is not tied to cost; classes are drawn in proportion to
/// their sizes, so the class mix does not depend on the seed.
struct Draw {
    /// Cumulative class weights.
    class_cdf: Vec<f64>,
    /// Per class: text indexes in popularity order and the Zipf CDF.
    ranked: Vec<(Vec<usize>, Vec<f64>)>,
}

impl Draw {
    fn new(queries: &[Query], rng: &mut SplitMix64) -> Draw {
        let mut class_cdf = Vec::new();
        let mut ranked = Vec::new();
        let mut acc = 0.0;
        for class in 0..CLASSES.len() {
            let mut members: Vec<usize> = (0..queries.len())
                .filter(|&i| queries[i].class == class)
                .collect();
            rng.shuffle(&mut members);
            acc += members.len() as f64 / queries.len() as f64;
            class_cdf.push(acc);
            let mut cdf = Vec::with_capacity(members.len());
            let mut total = 0.0;
            for rank in 1..=members.len() {
                total += 1.0 / (rank as f64).powf(ZIPF_S);
                cdf.push(total);
            }
            cdf.iter_mut().for_each(|c| *c /= total);
            ranked.push((members, cdf));
        }
        Draw { class_cdf, ranked }
    }

    fn next(&self, rng: &mut SplitMix64) -> usize {
        let pick = |cdf: &[f64], u: f64| cdf.partition_point(|&c| c < u).min(cdf.len() - 1);
        let class = pick(&self.class_cdf, rng.next_f64());
        let (members, cdf) = &self.ranked[class];
        members[pick(cdf, rng.next_f64())]
    }
}

/// A loaded, published, warmed service plus its query mix.
pub struct Svc {
    service: QueryService,
    queries: Vec<Query>,
    draw: Draw,
    seed: u64,
    /// Operations attempted and failed (errors and wrong results).
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// One line per failure (capped).
    pub failures: Vec<String>,
}

/// What one measured phase produced.
pub struct Phase {
    /// Read samples.
    pub samples: Vec<Sample>,
    /// Wall time of the phase.
    pub wall: Duration,
    /// CPU time of the phase.
    pub cpu: PhaseCpu,
    /// Core-layer accounting of the reads (traced phases).
    pub exec: ExecAcc,
    /// Service-layer accounting of the reads (traced phases).
    pub service: ServiceAcc,
    /// Plan-cache counter movement over the phase.
    pub cache: CacheCounters,
    /// Parser and compiler invocations on the client threads.
    pub parse_count: u64,
    /// See `parse_count`.
    pub compile_count: u64,
}

impl Svc {
    /// Generate, load and publish (the part of set-up that is repeated for
    /// its median).
    pub fn build(seed: u64) -> Svc {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_0F5E_411C_E5AA);
        let docs = span("datagen.generate", 0, || generate(seed));
        let service = QueryService::new(service_config());
        load(&docs, |uri, xml, ids| {
            span("xdm.load", 0, || {
                service.load_document_with_ids(uri, xml, ids)
            })
            .expect("generated documents parse");
        });
        span("service.publish", 0, || service.publish()).expect("publish succeeds");
        let queries = queries(&docs, &mut rng);
        let draw = Draw::new(&queries, &mut rng);
        Svc {
            service,
            queries,
            draw,
            seed,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Compute every text's reference result by another route: a forced
    /// Delta, source-level `Engine` over the same documents (one engine per
    /// client thread, each taking a share of the texts).
    pub fn compute_references(&mut self) {
        let docs = generate(self.seed);
        let chunk = self.queries.len().div_ceil(CLIENTS);
        std::thread::scope(|scope| {
            for share in self.queries.chunks_mut(chunk) {
                let docs = &docs;
                scope.spawn(move || {
                    let mut engine = Engine::new();
                    engine.set_strategy(Strategy::Delta);
                    engine.set_backend(Backend::SourceLevel);
                    engine.set_parallelism(Parallelism::Sequential);
                    load(docs, |uri, xml, ids| {
                        engine
                            .load_document_with_ids(uri, xml, ids)
                            .expect("generated documents parse");
                    });
                    for q in share {
                        let outcome = engine.run(&q.text).expect("reference query runs");
                        q.reference = Some(fingerprint(&outcome.result, engine.store()));
                    }
                });
            }
        });
    }

    /// Number of distinct query texts.
    pub fn distinct_texts(&self) -> usize {
        self.queries.len()
    }

    /// Every query text (for the prepare-layer probe).
    pub fn texts(&self) -> Vec<String> {
        self.queries.iter().map(|q| q.text.clone()).collect()
    }

    /// Execute `ops` draws sequentially, unmeasured.
    pub fn warm_up(&mut self, ops: usize) {
        let mut rng = SplitMix64::new(self.seed ^ 0xAA_AA);
        for _ in 0..ops {
            let q = &self.queries[self.draw.next(&mut rng)];
            self.service.execute(&q.text).expect("warm-up query runs");
        }
    }

    /// Run the closed loop for `seconds` with `CLIENTS` threads.
    pub fn measure(&mut self, seconds: f64, phase: u64, traced: bool) -> Phase {
        let cache_before = self.service.counters().cache;
        let process_cpu = process_cpu_micros();
        let start = Instant::now();
        let this = &*self;
        let results: Vec<ClientResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| scope.spawn(move || this.client(client, phase, seconds, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client threads do not panic"))
                .collect()
        });
        let wall = start.elapsed();
        let mut out = Phase {
            samples: Vec::new(),
            wall,
            cpu: PhaseCpu {
                process_us: process_cpu_micros() - process_cpu,
                clients_us: results.iter().map(|r| r.cpu_us).sum(),
            },
            exec: ExecAcc::default(),
            service: ServiceAcc::default(),
            cache: cache_delta(&cache_before, &self.service.counters().cache),
            parse_count: 0,
            compile_count: 0,
        };
        for r in results {
            out.samples.extend(r.samples);
            out.exec.merge(r.exec);
            out.service.merge(r.service);
            out.parse_count += r.parse_count;
            out.compile_count += r.compile_count;
            self.attempted += r.attempted;
            self.failed += r.failures.len() as u64;
            self.failures.extend(r.failures.into_iter().take(20));
        }
        out
    }

    fn client(&self, client: usize, phase: u64, seconds: f64, traced: bool) -> ClientResult {
        let mut rng = SplitMix64::new(
            self.seed
                .wrapping_mul(0x100_0000_01B3)
                .wrapping_add(phase * 16 + client as u64 + 1),
        );
        let mut r = ClientResult::default();
        let cpu0 = thread_cpu_micros();
        let (parse0, compile0) = (
            xqy_ifp::parser::parse_count(),
            xqy_ifp::algebra::compile_count(),
        );
        let start = Instant::now();
        let mut op: u64 = 0;
        while start.elapsed().as_secs_f64() < seconds {
            op += 1;
            let request = ((client as u64) << 48) | (phase << 40) | op;
            r.attempted += 1;
            let index = self.draw.next(&mut rng);
            let q = &self.queries[index];
            let before = alloc::thread_totals();
            let clock = OpClock::start();
            let result = span("op.read", request, || {
                span("service.execute", request, || self.service.execute(&q.text))
            });
            let (micros, cpu_us) = clock.read();
            let after = alloc::thread_totals();
            match result {
                Ok(out) => {
                    if Some(fingerprint(&out.outcome.result, &out.store)) != q.reference {
                        r.failures.push(format!("{}: wrong result", q.text));
                    }
                    let hit = out.stats.cache == CacheOutcome::Hit;
                    r.samples.push(Sample {
                        class: q.class,
                        op: index * 2 + usize::from(hit),
                        wall_us: micros,
                        cpu_us,
                    });
                    if traced {
                        r.service.record(&out, micros, q.class == 4);
                        r.exec.record(
                            &out.outcome,
                            out.stats.execute_time.as_secs_f64() * 1e6,
                            (after.0 - before.0, after.1 - before.1),
                        );
                    }
                }
                Err(e) => r.failures.push(format!("{}: {e}", q.text)),
            }
        }
        r.parse_count = xqy_ifp::parser::parse_count() - parse0;
        r.compile_count = xqy_ifp::algebra::compile_count() - compile0;
        trace::flush_thread();
        r.cpu_us = thread_cpu_micros() - cpu0;
        r
    }

    /// The write-path probe of the traced run: `count` times, load a small
    /// new document and publish it, each write checked to move the
    /// published epoch.  Spans `xdm.load_write` and `service.publish_write`.
    pub fn probe_writes(&mut self, count: u64) {
        let mut rng = SplitMix64::new(self.seed ^ 0x0034_17E5);
        for request in 1..=count {
            self.attempted += 1;
            let uri = format!("note{request}.xml");
            let items: String = (0..8)
                .map(|i| format!("<item k='{i}'>{}</item>", rng.below(1000)))
                .collect();
            let xml = format!("<note n='{request}'>{items}</note>");
            let epoch_before = self.service.published().epoch;
            let result = span("op.write", request, || {
                span("xdm.load_write", request, || {
                    self.service.load_document(&uri, &xml)
                })?;
                span("service.publish_write", request, || self.service.publish())
            });
            let failure = match result {
                Ok(published) if published.epoch != epoch_before => continue,
                Ok(_) => format!("{uri}: publish did not move the epoch"),
                Err(e) => format!("{uri}: {e}"),
            };
            self.failed += 1;
            self.failures.push(failure);
        }
    }
}

#[derive(Default)]
struct ClientResult {
    samples: Vec<Sample>,
    /// CPU time of the client thread over the phase, µs.
    cpu_us: f64,
    exec: ExecAcc,
    service: ServiceAcc,
    attempted: u64,
    failures: Vec<String>,
    parse_count: u64,
    compile_count: u64,
}
