//! B10 — the memoizing evaluation cache (`clio-incr`): cold evaluation
//! vs a warm re-evaluation of the same mapping, and the post-edit path
//! where a single relation's content version is bumped and only the
//! affected subgraphs recompute.
//!
//! Expected shape: the warm path is a fingerprint hash plus one table
//! clone, orders of magnitude below cold; the post-edit path sits in
//! between — on cycles it reuses every `F(J)` that avoids the edited
//! relation, on trees it falls back to the outer-join plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use clio_bench::{chain, cycle};
use clio_core::incremental::full_disjunction_cached;
use clio_core::session::Session;
use clio_incr::EvalCache;
use clio_relational::funcs::FuncRegistry;

fn bench_mapping_eval_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_mapping_eval");
    let funcs = FuncRegistry::with_builtins();
    for rows in [100usize, 1000] {
        let w = chain(4, rows);
        let cache = EvalCache::new();
        group.bench_with_input(BenchmarkId::new("cold", rows), &w, |b, w| {
            b.iter(|| {
                // epoch bump empties the cache, so every iteration pays
                // the full evaluation
                cache.bump_epoch();
                black_box(
                    w.mapping
                        .evaluate_cached(&w.db, &funcs, Some(&cache))
                        .expect("valid")
                        .len(),
                )
            });
        });
        let cache = EvalCache::new();
        w.mapping
            .evaluate_cached(&w.db, &funcs, Some(&cache))
            .expect("valid");
        group.bench_with_input(BenchmarkId::new("warm", rows), &w, |b, w| {
            b.iter(|| {
                black_box(
                    w.mapping
                        .evaluate_cached(&w.db, &funcs, Some(&cache))
                        .expect("valid")
                        .len(),
                )
            });
        });
        let cache = EvalCache::new();
        w.mapping
            .evaluate_cached(&w.db, &funcs, Some(&cache))
            .expect("valid");
        group.bench_with_input(BenchmarkId::new("post_edit", rows), &w, |b, w| {
            b.iter(|| {
                // a single-relation content edit invalidates only the
                // entries that depend on R0
                cache.bump_version("R0");
                black_box(
                    w.mapping
                        .evaluate_cached(&w.db, &funcs, Some(&cache))
                        .expect("valid")
                        .len(),
                )
            });
        });
    }
    group.finish();
}

fn bench_cycle_partial_reuse(c: &mut Criterion) {
    // on cyclic graphs D(G) takes the naive per-subgraph path, so a
    // version bump on one relation recomputes only the F(J) tables whose
    // subgraph touches it
    let mut group = c.benchmark_group("incremental_cycle_fd");
    let funcs = FuncRegistry::with_builtins();
    let w = cycle(4, 100);
    let cache = EvalCache::new();
    group.bench_function("cold", |b| {
        b.iter(|| {
            cache.bump_epoch();
            black_box(
                full_disjunction_cached(&w.db, &w.graph, &funcs, Some(&cache))
                    .expect("valid")
                    .len(),
            )
        });
    });
    let cache = EvalCache::new();
    full_disjunction_cached(&w.db, &w.graph, &funcs, Some(&cache)).expect("valid");
    group.bench_function("post_edit", |b| {
        b.iter(|| {
            cache.bump_version("R0");
            black_box(
                full_disjunction_cached(&w.db, &w.graph, &funcs, Some(&cache))
                    .expect("valid")
                    .len(),
            )
        });
    });
    let cache = EvalCache::new();
    full_disjunction_cached(&w.db, &w.graph, &funcs, Some(&cache)).expect("valid");
    group.bench_function("warm", |b| {
        b.iter(|| {
            black_box(
                full_disjunction_cached(&w.db, &w.graph, &funcs, Some(&cache))
                    .expect("valid")
                    .len(),
            )
        });
    });
    group.finish();
}

fn bench_eviction_policy_under_pressure(c: &mut Criterion) {
    // post-edit replay on the cyclic workload at half the working-set
    // byte budget: cost-aware eviction decides which F(J) tables survive
    // each round, so the replay pays recompute for exactly the entries
    // it chose to sacrifice
    let mut group = c.benchmark_group("incremental_eviction_policy");
    let funcs = FuncRegistry::with_builtins();
    let w = cycle(4, 100);
    let probe = EvalCache::new();
    full_disjunction_cached(&w.db, &w.graph, &funcs, Some(&probe)).expect("valid");
    let cache = EvalCache::with_capacity((probe.stats().bytes / 2).max(1));
    full_disjunction_cached(&w.db, &w.graph, &funcs, Some(&cache)).expect("valid");
    group.bench_function("cost", |b| {
        b.iter(|| {
            cache.bump_version("R0");
            black_box(
                full_disjunction_cached(&w.db, &w.graph, &funcs, Some(&cache))
                    .expect("valid")
                    .len(),
            )
        });
    });
    group.finish();
}

fn bench_session_warm_preview(c: &mut Criterion) {
    // the acceptance workload: a session previewing the B1 chain mapping;
    // warm = second identical target_preview after a single-relation edit
    let mut group = c.benchmark_group("incremental_session_preview");
    let w = chain(4, 100);
    let mut session = Session::new(w.db.clone(), w.target.clone());
    session
        .adopt_mapping(w.mapping.clone(), "bench chain")
        .expect("valid");
    group.bench_function("cold", |b| {
        b.iter(|| {
            session.cache().bump_epoch();
            black_box(session.target_preview().expect("valid").len())
        });
    });
    session.target_preview().expect("valid");
    group.bench_function("post_edit", |b| {
        b.iter(|| {
            session.cache().bump_version("R0");
            black_box(session.target_preview().expect("valid").len())
        });
    });
    session.target_preview().expect("valid");
    group.bench_function("warm", |b| {
        b.iter(|| black_box(session.target_preview().expect("valid").len()));
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_mapping_eval_cold_vs_warm, bench_cycle_partial_reuse,
        bench_eviction_policy_under_pressure, bench_session_warm_preview
}
criterion_main!(benches);
