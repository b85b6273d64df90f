//! `batch-cycle`: one-shot cold `Q(M)` queries over a paged 4-relation
//! cycle — what `clio --db-dir D --db-pool P --mapping m.map` does per
//! query: open the paged directory through a buffer pool smaller than
//! its heap files, parse a MAP statement whose source filter varies per
//! query, start a fresh session and evaluate the mapping.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use clio_core::full_disjunction::{engine_subsumption, full_associations, full_disjunction_naive};
use clio_core::mapping::Mapping;
use clio_core::session::Session;
use clio_core::subgraph::connected_subsets;
use clio_datagen::synthetic::{generate, SyntheticSpec, Topology};
use clio_obs::Counter;
use clio_relational::funcs::FuncRegistry;
use clio_relational::ops::{pad_to, remove_subsumed, SubsumptionAlgo};
use clio_relational::parser::parse_expr;
use clio_relational::storage::{open_paged, save_database};
use clio_relational::table::Table;
use clio_relational::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layers;
use crate::stats::{self, median, Metrics};
use crate::tracer::Tracer;
use crate::{phase, Config, Corrupt, Outcome, SETUP_REPS};

/// Distinct MAP statements per run; query `i` uses statement `i % 8`.
/// Statement `i` filters on relation `R(i % 4)`, so every run mixes the
/// four filter targets in the same proportion.
const STATEMENTS: usize = 8;

struct Query {
    text: String,
    expected: Vec<Vec<Value>>,
}

/// Rows in the total value order, column by column.
fn sort_rows(rows: &mut [Vec<Value>]) {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.total_cmp(y))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
}

fn sorted_rows(t: Table) -> Vec<Vec<Value>> {
    let mut rows = t.into_rows();
    sort_rows(&mut rows);
    rows
}

pub fn run(cfg: &Config) -> Outcome {
    let spec = SyntheticSpec {
        topology: Topology::Cycle,
        relations: 4,
        rows: if cfg.tiny { 40 } else { 1000 },
        match_rate: 0.7,
        payload_attrs: 1,
        seed: cfg.seed,
    };
    let w = generate(&spec);
    let funcs = FuncRegistry::with_builtins();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xba7c);
    let mappings: Vec<Mapping> = (0..STATEMENTS)
        .map(|i| {
            let filter = format!("R{}.p0 <> 'v0-{}'", i % 4, rng.random_range(0..1000));
            w.mapping
                .clone()
                .with_source_filter(parse_expr(&filter).expect("generated filter parses"))
        })
        .collect();

    // Set-up: the program writes the paged directory.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for k in 0..SETUP_REPS {
        let dir = cfg.scratch.join(format!("db{k}"));
        let t0 = Instant::now();
        save_database(&w.db, &dir, clio_pager::DEFAULT_PAGE_SIZE).expect("save_database");
        setup.push(t0.elapsed().as_secs_f64());
        if k > 0 {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let dir = cfg.scratch.join("db0");
    let heap_pages = heap_pages(&dir);
    let pool = (heap_pages / 4).max(2);
    assert!(pool < heap_pages, "the pool must be smaller than the heap");

    // Oracle (untimed): naive D(G) with naive subsumption, projected
    // through each query's mapping built directly, not parsed.
    let oracle = full_disjunction_naive(&w.db, &w.graph, &funcs, SubsumptionAlgo::Naive)
        .expect("oracle D(G)");
    let queries: Vec<Query> = mappings
        .iter()
        .map(|m| {
            let eval = m.evaluator(&w.db, &funcs).expect("oracle evaluator");
            let mut rows: Vec<Vec<Value>> = (0..oracle.len())
                .filter_map(|i| {
                    eval.target_row_if_passing(oracle.row(i), &funcs)
                        .expect("oracle projection")
                })
                .collect();
            sort_rows(&mut rows);
            rows.dedup();
            Query {
                text: clio_lang::print_mapping(m),
                expected: rows,
            }
        })
        .collect();

    let mut failed = 0;
    let mut attempted = 0;
    let mut corrupted = false;
    let mut check = |got: Table, q: &Query| -> bool {
        let mut rows = sorted_rows(got);
        if cfg.corrupt == Corrupt::DropRow && !corrupted && !rows.is_empty() {
            rows.pop();
            corrupted = true;
        }
        rows == q.expected
    };

    let target = w.target.clone();
    let one_shot = |q: &Query| -> clio_relational::error::Result<Table> {
        let db = open_paged(&dir, pool)?;
        let m = clio_lang::parse_map(&q.text)
            .map_err(|e| clio_relational::error::Error::Invalid(format!("parse_map: {e}")))?;
        let session = Session::shared(Arc::new(db), target.clone());
        session.evaluate_mapping(&m)
    };

    // Measured phase (untraced): the headline latencies.
    let phase = phase(cfg);
    let mut lat_ms = Vec::new();
    let start = Instant::now();
    let mut busy = 0.0;
    let mut i = 0;
    while start.elapsed() < phase || lat_ms.is_empty() {
        let q = &queries[i % STATEMENTS];
        i += 1;
        attempted += 1;
        let t0 = Instant::now();
        let result = one_shot(q);
        let dt = t0.elapsed().as_secs_f64();
        busy += dt;
        lat_ms.push(dt * 1e3);
        if !result.is_ok_and(|t| check(t, q)) {
            failed += 1;
        }
    }

    let mut metrics = Metrics::default();
    if !cfg.trace {
        let (_, tail) = stats::tail(&lat_ms);
        metrics.set("setup_s", median(&setup), "s");
        metrics.set("qm_p50_ms", median(&lat_ms), "ms");
        metrics.set("qm_tail_ms", tail, "ms");
        metrics.set("session_p50_s", median(&lat_ms) / 1e3, "s");
        metrics.set("op_tail_ms", tail, "ms");
        metrics.set("req_per_s", lat_ms.len() as f64 / busy, "1/s");
        metrics.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
        eprintln!(
            "batch-cycle: {} queries, tail percentile p{}, pool {pool} of {heap_pages} pages",
            lat_ms.len(),
            stats::tail_percentile(lat_ms.len())
        );
        return Outcome {
            metrics,
            attempted,
            failed,
        };
    }

    // Traced phase: each query replayed as a sequence of public stage
    // calls, checked against the one-shot result.
    clio_obs::set_metrics_enabled(true);
    let before = clio_obs::snapshot();
    let mut tr = Tracer::new(Instant::now());
    let mut traced_ms = Vec::new();
    let mut kept_ratio = Vec::new();
    let mut subgraphs = Vec::new();
    let start = Instant::now();
    let mut unit = 0;
    while start.elapsed() < phase || traced_ms.is_empty() {
        let q = &queries[unit % STATEMENTS];
        tr.set_unit(unit as u64);
        unit += 1;
        attempted += 1;
        let first = tr.spans().len();
        let (result, n_sub, kept) = staged_query(&mut tr, &dir, pool, &q.text, &funcs);
        let query = &tr.spans()[first];
        traced_ms.push((query.end_ns - query.start_ns) as f64 / 1e6);
        subgraphs.push(n_sub as f64);
        kept_ratio.push(kept);
        if !result.is_some_and(|t| check(t, q)) {
            failed += 1;
        }
    }
    let delta = clio_obs::snapshot().since(&before);
    let queries_run = traced_ms.len() as f64;
    let per_q = |c: Counter| delta.get(c) as f64 / queries_run;

    let self_ms = tr.per_unit_ms(false);
    let incl_ms = tr.per_unit_ms(true);
    let med = |map: &std::collections::BTreeMap<String, Vec<f64>>, name: &str| {
        map.get(name).map_or(0.0, |v| median(v))
    };
    metrics.set("relational.fj_ms", med(&self_ms, "relational.fj"), "ms");
    metrics.set("relational.pad_ms", med(&self_ms, "relational.pad"), "ms");
    metrics.set(
        "relational.dedup_ms",
        med(&self_ms, "relational.dedup"),
        "ms",
    );
    metrics.set("relational.dedup_kept_ratio", median(&kept_ratio), "ratio");
    metrics.set(
        "relational.subsume_ms",
        (med(&self_ms, "relational.remove_subsumed") - med(&self_ms, "relational.dedup")).max(0.0),
        "ms",
    );
    metrics.set(
        "relational.subsume_cmps",
        per_q(Counter::SubsumptionComparisons),
        "count",
    );
    metrics.set(
        "relational.join_probes",
        per_q(Counter::JoinProbes),
        "count",
    );
    metrics.set(
        "relational.distinct_ms",
        med(&self_ms, "relational.distinct"),
        "ms",
    );
    metrics.set("core.fd_ms", med(&incl_ms, "core.fd"), "ms");
    metrics.set("core.qm_ms", med(&incl_ms, "core.qm"), "ms");
    metrics.set("core.subgraphs", median(&subgraphs), "count");
    metrics.set("pager.open_ms", med(&self_ms, "pager.open"), "ms");
    metrics.set(
        "pager.materialize_ms",
        med(&self_ms, "pager.materialize"),
        "ms",
    );
    metrics.set("pager.page_reads", per_q(Counter::PagerPageReads), "count");
    let (hits, misses) = (
        delta.get(Counter::PagerHits) as f64,
        delta.get(Counter::PagerMisses) as f64,
    );
    metrics.set("pager.hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    metrics.set("pager.evictions", per_q(Counter::PagerEvictions), "count");
    metrics.set(
        "lang.parse_map_us",
        med(&self_ms, "lang.parse_map") * 1e3,
        "us",
    );
    metrics.set(
        "obs.trace_overhead_frac",
        median(&traced_ms) / median(&lat_ms) - 1.0,
        "ratio",
    );
    metrics.set(
        "relational.index_build_ms",
        layers::index_build_ms(&w.db),
        "ms",
    );
    layers::write_spans(&tr, "batch-cycle", cfg.seed);
    Outcome {
        metrics: layers::complete(&metrics),
        attempted,
        failed,
    }
}

/// Data pages across the directory's heap files, as the pager counts them.
fn heap_pages(dir: &Path) -> usize {
    let pager = clio_pager::Pager::new(1);
    let mut pages = 0;
    for entry in std::fs::read_dir(dir).expect("saved directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "clh") {
            let file = pager.open(&path).expect("heap file");
            pages += pager.page_count(file);
        }
    }
    usize::try_from(pages).expect("page count fits usize")
}

/// One query as the public stage calls the one-shot path makes, each
/// under its own span. Returns the result (None on any error), the
/// number of subgraphs, and the share of union rows `dedup` kept.
fn staged_query(
    tr: &mut Tracer,
    dir: &Path,
    pool: usize,
    text: &str,
    funcs: &FuncRegistry,
) -> (Option<Table>, usize, f64) {
    let query = tr.begin("query");
    let s = tr.begin("pager.open");
    let db = open_paged(dir, pool).ok();
    tr.end(s);
    let Some(db) = db else {
        tr.end(query);
        return (None, 0, 0.0);
    };
    let s = tr.begin("pager.materialize");
    let names: Vec<String> = db
        .relation_names()
        .iter()
        .map(|n| (*n).to_owned())
        .collect();
    for name in &names {
        let _ = db.relation(name);
    }
    tr.end(s);
    let s = tr.begin("lang.parse_map");
    let m = clio_lang::parse_map(text).ok();
    tr.end(s);
    let Some(m) = m else {
        tr.end(query);
        return (None, 0, 0.0);
    };
    let qm = tr.begin("core.qm");
    let fd = tr.begin("core.fd");
    let s = tr.begin("core.subgraphs");
    let scheme = m.graph.scheme(&db).expect("graph scheme");
    let masks = connected_subsets(&m.graph);
    tr.end(s);
    let mut padded = Vec::with_capacity(masks.len());
    for &mask in &masks {
        let s = tr.begin("relational.fj");
        let f = full_associations(&db, &m.graph, mask, funcs).expect("F(J)");
        tr.end(s);
        let s = tr.begin("relational.pad");
        padded.push(pad_to(&f, &scheme).expect("pad_to"));
        tr.end(s);
    }
    let s = tr.begin("relational.outer_union");
    let mut union = Table::empty(scheme.clone());
    for t in padded {
        for row in t.into_rows() {
            union.push(row);
        }
    }
    tr.end(s);
    // `remove_subsumed` starts with `Table::dedup` of the union, as
    // `minimum_union_all` calls it. That step is timed again on a copy
    // after the query, so the subsumption time can exclude it.
    let mut copy = union.clone();
    let s = tr.begin("relational.remove_subsumed");
    remove_subsumed(&mut union, engine_subsumption());
    tr.end(s);
    tr.end(fd);
    let s = tr.begin("relational.distinct");
    let eval = m.evaluator(&db, funcs).expect("evaluator");
    let assocs = clio_core::association::AssociationSet::from_table(&m.graph, union);
    let mut out = Table::empty(m.target_scheme());
    for i in 0..assocs.len() {
        if let Some(row) = eval
            .target_row_if_passing(assocs.row(i), funcs)
            .expect("projection")
        {
            out.push_distinct(row);
        }
    }
    tr.end(s);
    tr.end(qm);
    tr.end(query);
    let before = copy.len();
    let s = tr.begin("relational.dedup");
    copy.dedup();
    tr.end(s);
    let kept = copy.len() as f64 / before.max(1) as f64;
    (Some(out), masks.len(), kept)
}
