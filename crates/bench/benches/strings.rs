//! String-plane micro-benchmarks (PR 8).
//!
//! The zero-copy text plane interns every text-shaped payload into a
//! store-owned pool, atomizes to shared handles instead of rendered
//! `String`s, memoizes element concatenations, and prefilters `id()`
//! probes on pool membership.  These benches pin the three string-heavy
//! shapes that plane accelerates:
//!
//! * **atomize_probe** — a predicate atomizing every `pre_code` text node
//!   and comparing it against a literal (the untyped fast path);
//! * **general_join** — a general comparison joining course codes against
//!   the full multiset of prerequisite codes (string × string `=` at
//!   quadratic candidate scale);
//! * **id_storm** — resolving every prerequisite through the ID index
//!   (pool-membership prefilter + symbol-keyed index probe).
//!
//! Run with `CRITERION_JSON=BENCH_strings.json cargo bench -p xqy_bench
//! --bench strings` to record the baseline the ROADMAP tracks.

use criterion::{criterion_group, criterion_main, Criterion};
use xqy_bench::{curriculum_workload, engine_for};
use xqy_datagen::Scale;
use xqy_ifp::Bindings;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("strings");
    group.sample_size(10);

    for scale in [Scale::Small, Scale::Medium] {
        let workload = curriculum_workload(scale);
        let mut engine = engine_for(&workload);
        let uri = workload.uri;

        let probe = format!("count(doc('{uri}')//pre_code[. = 'c10'])");
        let join = format!("count(doc('{uri}')/curriculum/course[@code = doc('{uri}')//pre_code])");
        let storm = format!("count(doc('{uri}')/curriculum/course/id(./prerequisites/pre_code))");

        for (tag, query) in [
            ("atomize_probe", &probe),
            ("general_join", &join),
            ("id_storm", &storm),
        ] {
            let prepared = engine.prepare(query).expect("query parses");
            let warm = prepared
                .execute(&mut engine, &Bindings::new())
                .expect("query runs");
            assert_eq!(warm.result.len(), 1, "count() yields a single atomic");
            group.bench_function(format!("{tag}/{}", scale.name()), |b| {
                b.iter(|| prepared.execute(&mut engine, &Bindings::new()).unwrap())
            });
        }
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
