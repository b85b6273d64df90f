//! Per-layer measurement for the traced runs of the interactive
//! workloads, and the list of every per-layer metric.
//!
//! Layers the benchmark calls directly are timed around those calls:
//! `command::parse`, `Shell::execute` per command kind, the two stage
//! calls of a `target` command (`Session::target_preview`, then
//! `render_table`), `Session::replace_relation`, session spawn, and a
//! probe `EvalCache::get` of the active mapping's `Q(M)` entry after each
//! `target`. Layers reached only inside a command are read from the
//! program's existing `clio_obs` span totals and work counters.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use clio_cli::command::{self, Command};
use clio_cli::engine::Shell;
use clio_obs::metrics::MetricsSnapshot;
use clio_obs::Counter;
use clio_relational::database::Database;
use clio_relational::display::render_table;

use crate::script::{self, Step};
use crate::stats::{median, Metrics};
use crate::tracer::Tracer;

/// Command kinds reported as `cli.exec_ms.<kind>`.
pub const EXEC_KINDS: [&str; 12] = [
    "corr",
    "walk",
    "chase",
    "confirm",
    "filter",
    "accept",
    "target",
    "illustration",
    "examples",
    "alternatives",
    "swap",
    "explain",
];

/// Every per-layer metric and its unit, in output order. A traced run
/// prints all of them; one a workload does not reach reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &'static str)] = &[
        ("relational.fj_ms", "ms"),
        ("relational.pad_ms", "ms"),
        ("relational.dedup_ms", "ms"),
        ("relational.dedup_kept_ratio", "ratio"),
        ("relational.subsume_ms", "ms"),
        ("relational.subsume_cmps", "count"),
        ("relational.join_probes", "count"),
        ("relational.distinct_ms", "ms"),
        ("relational.outer_join_ms", "ms"),
        ("relational.render_ms", "ms"),
        ("relational.render_bytes", "bytes"),
        ("relational.index_build_ms", "ms"),
        ("core.fd_ms", "ms"),
        ("core.qm_ms", "ms"),
        ("core.subgraphs", "count"),
        ("core.examples_ms", "ms"),
        ("core.illustration_ms", "ms"),
        ("core.greedy_iters", "count"),
        ("core.evolve_ms", "ms"),
        ("core.walk_ms", "ms"),
        ("core.chase_ms", "ms"),
        ("core.walk_kept_ratio", "ratio"),
        ("core.target_preview_ms", "ms"),
        ("core.edit_ms", "ms"),
        ("core.session_spawn_ms", "ms"),
        ("incr.hit_ratio", "ratio"),
        ("incr.get_hit_ms", "ms"),
        ("incr.invalidations", "count"),
        ("incr.evictions", "count"),
        ("incr.saved_ms", "ms"),
        ("incr.store_hits", "count"),
        ("pager.open_ms", "ms"),
        ("pager.materialize_ms", "ms"),
        ("pager.page_reads", "count"),
        ("pager.hit_ratio", "ratio"),
        ("pager.evictions", "count"),
        ("lang.parse_map_us", "us"),
        ("net.handler_ms", "ms"),
        ("net.overhead_ms", "ms"),
        ("net.rtt_noop_ms", "ms"),
        ("net.frame_codec_us", "us"),
        ("net.response_bytes", "bytes"),
        ("cli.parse_us", "us"),
        ("obs.trace_overhead_frac", "ratio"),
    ];
    let mut out: Vec<(String, &'static str)> =
        fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    let tail = out.pop().expect("list is not empty");
    out.extend(
        EXEC_KINDS
            .iter()
            .map(|k| (format!("cli.exec_ms.{k}"), "ms")),
    );
    out.push(tail);
    out
}

/// `metrics` with every per-layer metric present, in [`per_layer`] order.
pub fn complete(metrics: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in per_layer() {
        out.set(name.clone(), metrics.get(&name).unwrap_or(0.0), unit);
    }
    out
}

/// Median time of building the value index over `db` (three builds).
pub fn index_build_ms(db: &Database) -> f64 {
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(clio_relational::index::ValueIndex::build(db));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// Samples one traced thread of the benchmark collects; mergeable so
/// connection handlers on server threads can report into one set.
#[derive(Debug, Default)]
pub struct Samples {
    pub exec_ms: BTreeMap<&'static str, Vec<f64>>,
    pub parse_us: Vec<f64>,
    pub preview_ms: Vec<f64>,
    pub render_ms: Vec<f64>,
    pub render_bytes: Vec<f64>,
    pub get_hit_ms: Vec<f64>,
    pub edit_ms: Vec<f64>,
    pub spawn_ms: Vec<f64>,
    pub handler_ms: Vec<f64>,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub probe_hits: u64,
    pub probe_misses: u64,
    pub invalidations: u64,
    pub evictions: u64,
    pub saved_ns: u64,
    pub sessions: usize,
}

impl Samples {
    /// Run one step the traced way, recording its spans on `tr`, and
    /// return its response text (the same text the untraced step gives).
    pub fn step(&mut self, tr: &mut Tracer, shell: &mut Shell, step: &Step) -> String {
        let kind = step.kind();
        if let Step::Cmd(line) = step {
            let t0 = Instant::now();
            let parsed = command::parse(line);
            self.parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if matches!(parsed, Ok(Command::Target)) {
                return self.target(tr, shell);
            }
        }
        let name = if kind == "edit" {
            "core.edit".to_owned()
        } else {
            format!("cli.exec.{kind}")
        };
        let s = tr.begin(name);
        let t0 = Instant::now();
        let text = script::execute(shell, step);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.end(s);
        if kind == "edit" {
            self.edit_ms.push(ms);
        } else {
            self.exec_ms.entry(kind).or_default().push(ms);
        }
        text
    }

    /// `target` as its two public stage calls, as `Shell::execute` makes
    /// them, then a probe `EvalCache::get` of the active `Q(M)` entry.
    fn target(&mut self, tr: &mut Tracer, shell: &mut Shell) -> String {
        let t0 = Instant::now();
        let s = tr.begin("cli.exec.target");
        let p = tr.begin("core.target_preview");
        let preview = shell.session.target_preview();
        tr.end(p);
        let t1 = Instant::now();
        let text = match preview {
            Ok(table) => {
                let r = tr.begin("relational.render");
                let text = render_table(table.scheme(), table.rows(), &[]);
                tr.end(r);
                self.render_ms.push(t1.elapsed().as_secs_f64() * 1e3);
                self.render_bytes.push(text.len() as f64);
                text
            }
            Err(e) => format!("error: {e}\n"),
        };
        tr.end(s);
        self.preview_ms
            .push(t1.duration_since(t0).as_secs_f64() * 1e3);
        self.exec_ms
            .entry("target")
            .or_default()
            .push(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(w) = shell.session.active() {
            let cache = shell.session.cache();
            let fp = clio_core::incremental::mapping_fingerprint(&w.mapping, cache);
            let t0 = Instant::now();
            let hit = cache.get(fp);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            // The probe's own lookup is not the session's.
            if hit.is_some() {
                self.get_hit_ms.push(ms);
                self.probe_hits += 1;
            } else {
                self.probe_misses += 1;
            }
        }
        text
    }

    /// Add a finished session's cache statistics.
    pub fn end_session(&mut self, shell: &Shell) {
        let st = shell.session.cache().stats();
        self.cache_hits += st.hits;
        self.cache_misses += st.misses;
        self.invalidations += st.invalidations;
        self.evictions += st.evictions;
        self.saved_ns += st.saved_ns;
        self.sessions += 1;
    }

    pub fn merge(&mut self, other: Samples) {
        for (k, v) in other.exec_ms {
            self.exec_ms.entry(k).or_default().extend(v);
        }
        self.parse_us.extend(other.parse_us);
        self.preview_ms.extend(other.preview_ms);
        self.render_ms.extend(other.render_ms);
        self.render_bytes.extend(other.render_bytes);
        self.get_hit_ms.extend(other.get_hit_ms);
        self.edit_ms.extend(other.edit_ms);
        self.spawn_ms.extend(other.spawn_ms);
        self.handler_ms.extend(other.handler_ms);
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.probe_hits += other.probe_hits;
        self.probe_misses += other.probe_misses;
        self.invalidations += other.invalidations;
        self.evictions += other.evictions;
        self.saved_ns += other.saved_ns;
        self.sessions += other.sessions;
    }
}

/// Turns on the program's counters and spans for a traced phase and
/// remembers where the counters stood.
pub struct ProgramTrace {
    before: MetricsSnapshot,
}

impl ProgramTrace {
    pub fn start() -> ProgramTrace {
        clio_obs::set_metrics_enabled(true);
        clio_obs::set_trace_enabled(true);
        clio_obs::clear_spans();
        ProgramTrace {
            before: clio_obs::snapshot(),
        }
    }

    /// Set the per-layer metrics of an interactive workload from the
    /// samples, the program's span totals and counter deltas (both per
    /// session), and the index build time over `db`.
    pub fn finish(self, metrics: &mut Metrics, s: &Samples, db: &Database) {
        clio_obs::set_trace_enabled(false);
        let delta = clio_obs::snapshot().since(&self.before);
        let spans = program_span_totals();
        let sessions = s.sessions.max(1) as f64;
        let span_ms = |name: &str| {
            spans
                .get(name)
                .map_or(0.0, |ns| *ns as f64 / 1e6 / sessions)
        };
        let per_session = |c: Counter| delta.get(c) as f64 / sessions;

        metrics.set(
            "relational.subsume_ms",
            span_ms("ops.remove_subsumed"),
            "ms",
        );
        metrics.set(
            "relational.subsume_cmps",
            per_session(Counter::SubsumptionComparisons),
            "count",
        );
        metrics.set(
            "relational.join_probes",
            per_session(Counter::JoinProbes),
            "count",
        );
        metrics.set("relational.outer_join_ms", span_ms("fd.outer_join"), "ms");
        metrics.set("relational.render_ms", median(&s.render_ms), "ms");
        metrics.set("relational.render_bytes", median(&s.render_bytes), "bytes");
        metrics.set("relational.index_build_ms", index_build_ms(db), "ms");
        metrics.set("core.fd_ms", span_ms("incr.fd"), "ms");
        metrics.set("core.qm_ms", span_ms("mapping.evaluate"), "ms");
        metrics.set(
            "core.subgraphs",
            per_session(Counter::SubgraphsEnumerated),
            "count",
        );
        metrics.set("core.examples_ms", span_ms("mapping.examples"), "ms");
        metrics.set(
            "core.illustration_ms",
            span_ms("illustration.select_greedy"),
            "ms",
        );
        metrics.set(
            "core.greedy_iters",
            per_session(Counter::GreedyIterations),
            "count",
        );
        metrics.set("core.evolve_ms", span_ms("evolution.evolve"), "ms");
        metrics.set("core.walk_ms", span_ms("op.walk"), "ms");
        metrics.set("core.chase_ms", span_ms("op.chase"), "ms");
        let generated = delta.get(Counter::WalkAlternativesGenerated) as f64;
        let pruned = delta.get(Counter::WalkAlternativesPruned) as f64;
        metrics.set(
            "core.walk_kept_ratio",
            if generated > 0.0 {
                (generated - pruned) / generated
            } else {
                0.0
            },
            "ratio",
        );
        metrics.set("core.target_preview_ms", median(&s.preview_ms), "ms");
        metrics.set("core.edit_ms", median(&s.edit_ms), "ms");
        metrics.set("core.session_spawn_ms", median(&s.spawn_ms), "ms");
        let hits = s.cache_hits.saturating_sub(s.probe_hits) as f64;
        let lookups = hits + s.cache_misses.saturating_sub(s.probe_misses) as f64;
        metrics.set(
            "incr.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        );
        metrics.set("incr.get_hit_ms", median(&s.get_hit_ms), "ms");
        metrics.set(
            "incr.invalidations",
            s.invalidations as f64 / sessions,
            "count",
        );
        metrics.set("incr.evictions", s.evictions as f64 / sessions, "count");
        metrics.set("incr.saved_ms", s.saved_ns as f64 / 1e6 / sessions, "ms");
        metrics.set(
            "incr.store_hits",
            per_session(Counter::CacheDiskHits),
            "count",
        );
        metrics.set("cli.parse_us", median(&s.parse_us), "us");
        for kind in EXEC_KINDS {
            metrics.set(
                format!("cli.exec_ms.{kind}"),
                s.exec_ms.get(kind).map_or(0.0, |v| median(v)),
                "ms",
            );
        }
    }
}

/// Total nanoseconds per span name of the program's own spans recorded
/// since tracing was enabled, drained from the collector.
fn program_span_totals() -> BTreeMap<&'static str, u128> {
    let mut totals = BTreeMap::new();
    for rec in clio_obs::take_spans() {
        *totals.entry(rec.name).or_insert(0) += rec.nanos;
    }
    totals
}

/// Write the traced run's spans to `.bench_out/spans-<workload>-<seed>.jsonl`.
pub fn write_spans(tr: &Tracer, workload: &str, seed: u64) {
    let path = Path::new(".bench_out").join(format!("spans-{workload}-{seed}.jsonl"));
    if let Err(e) = tr.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}
