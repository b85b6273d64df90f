//! `refine-chain`: scripted refinement sessions driven in-process through
//! `Shell::execute` over an in-memory 6-relation chain, with source
//! edits through `Session::replace_relation` beside the commands.

use std::time::Instant;

use clio_cli::engine::Shell;
use clio_core::session::Session;
use clio_core::session_pool::SessionPool;
use clio_datagen::synthetic::{generate, Synthetic, SyntheticSpec, Topology};
use clio_relational::relation::Relation;
use clio_relational::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layers;
use crate::script::{self, Step, FIRST_ID};
use crate::stats::{self, median, Metrics};
use crate::tracer::Tracer;
use crate::{corrupt_text, phase, Config, Outcome, SETUP_REPS};

/// Scripted sessions per run; the measured loop replays them in turn.
const SCRIPTS: usize = 2;

/// A copy of relation `R<k>` with about a tenth of its payloads changed.
fn edited(w: &Synthetic, k: usize, rng: &mut StdRng) -> Relation {
    let rel = w.db.relation(&format!("R{k}")).expect("generated relation");
    let p0 = rel.schema().index_of("p0").expect("payload column");
    let rows = rel
        .rows()
        .iter()
        .map(|row| {
            let mut row = row.clone();
            if rng.random_range(0..10) == 0 {
                row[p0] = Value::str(format!("v0-{}", rng.random_range(0..1000)));
            }
            row
        })
        .collect();
    Relation::with_rows(rel.schema().clone(), rows).expect("same schema")
}

/// A value of `R2.id` that some `R3` row references, so chasing it from
/// `R2` reaches `R3`.
fn chased_value(w: &Synthetic, rng: &mut StdRng) -> String {
    let r3 = w.db.relation("R3").expect("generated relation");
    let l2 = r3.schema().index_of("l2").expect("link column");
    let linked: Vec<&str> = r3
        .rows()
        .iter()
        .filter_map(|row| match &row[l2] {
            Value::Str(s) if s.starts_with("r2-") => Some(s.as_ref()),
            _ => None,
        })
        .collect();
    linked[rng.random_range(0..linked.len())].to_owned()
}

/// Script `k` edits relation `R(1 + k)`, so every run edits the same
/// relations; the chased value, filter constant and edited rows come from
/// the seed.
fn template(k: usize, w: &Synthetic, rng: &mut StdRng) -> Vec<Step> {
    let chased = chased_value(w, rng);
    let filtered = rng.random_range(0..1000);
    let edit = edited(w, 1 + k, rng);
    let cmd = |s: &str| Step::Cmd(s.to_owned());
    vec![
        cmd("corr R0.p0 -> B0"),
        cmd("corr R1.p0 -> B1"),
        cmd("illustration"),
        cmd("walk R2"),
        cmd("corr R2.p0 -> B2"),
        cmd("target"),
        Step::Cmd(format!("chase R2.id {chased}")),
        Step::Cmd(format!("confirm {FIRST_ID}")),
        cmd("corr R3.p0 -> B3"),
        cmd("alternatives 0"),
        cmd("swap 0 0"),
        Step::Cmd(format!("filter source R1.p0 <> 'v0-{filtered}'")),
        cmd("illustration"),
        cmd("examples"),
        cmd("target"),
        cmd("accept"),
        cmd("explain"),
        Step::Edit(edit),
        cmd("target"),
        cmd("illustration"),
        cmd("status"),
    ]
}

fn spawn(pool: &SessionPool, w: &Synthetic) -> Session {
    let mut s = pool.session();
    // The generated sources declare no foreign keys; walks need the
    // generator's join knowledge.
    s.knowledge = w.knowledge.clone();
    s
}

pub fn run(cfg: &Config) -> Outcome {
    let w = generate(&SyntheticSpec {
        topology: Topology::Chain,
        relations: 6,
        rows: if cfg.tiny { 60 } else { 5000 },
        match_rate: 0.8,
        payload_attrs: 1,
        seed: cfg.seed,
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x4ef1);
    let templates: Vec<Vec<Step>> = (0..SCRIPTS).map(|k| template(k, &w, &mut rng)).collect();

    // Set-up: the shared snapshot, value index included.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut pool = None;
    for _ in 0..SETUP_REPS {
        let db = w.db.clone();
        let t0 = Instant::now();
        let p = SessionPool::new(db, w.target.clone());
        setup.push(t0.elapsed().as_secs_f64());
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");

    // Oracle (untimed): each script replayed with the cache disabled.
    let scripts: Vec<(Vec<Step>, Vec<String>)> = templates
        .iter()
        .map(|t| {
            let mut s = spawn(&pool, &w);
            s.set_cache_enabled(false);
            script::resolve(&mut Shell::new(s), t)
        })
        .collect();

    let mut attempted = 0;
    let mut failed = 0;
    let mut corrupted = false;
    let mut check = |step: &Step, mut got: String, expected: &str| -> bool {
        if script::compared(step) {
            corrupt_text(cfg, &mut corrupted, &mut got);
        }
        !got.starts_with("error:") && (!script::compared(step) || got == expected)
    };

    let phase = phase(cfg);
    let mut session_s = Vec::new();
    let mut op_ms = Vec::new();
    let mut target_ms = Vec::new();
    let start = Instant::now();
    let mut busy = 0.0;
    while start.elapsed() < phase || session_s.is_empty() {
        let (steps, expected) = &scripts[session_s.len() % SCRIPTS];
        let t0 = Instant::now();
        let mut shell = Shell::new(spawn(&pool, &w));
        let mut total = t0.elapsed().as_secs_f64();
        for (step, want) in steps.iter().zip(expected) {
            attempted += 1;
            let t0 = Instant::now();
            let got = script::execute(&mut shell, step);
            let dt = t0.elapsed().as_secs_f64();
            total += dt;
            op_ms.push(dt * 1e3);
            if step.kind() == "target" {
                target_ms.push(dt * 1e3);
            }
            if !check(step, got, want) {
                failed += 1;
            }
        }
        busy += total;
        session_s.push(total);
    }

    let mut metrics = Metrics::default();
    if !cfg.trace {
        metrics.set("setup_s", median(&setup), "s");
        metrics.set("qm_p50_ms", median(&target_ms), "ms");
        metrics.set("qm_tail_ms", stats::tail(&target_ms).1, "ms");
        metrics.set("session_p50_s", median(&session_s), "s");
        metrics.set("op_tail_ms", stats::tail(&op_ms).1, "ms");
        metrics.set("req_per_s", op_ms.len() as f64 / busy, "1/s");
        metrics.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
        eprintln!(
            "refine-chain: {} sessions, {} commands (tail p{}), {} target (tail p{})",
            session_s.len(),
            op_ms.len(),
            stats::tail_percentile(op_ms.len()),
            target_ms.len(),
            stats::tail_percentile(target_ms.len())
        );
        return Outcome {
            metrics,
            attempted,
            failed,
        };
    }

    // Traced phase.
    let program = layers::ProgramTrace::start();
    let mut samples = layers::Samples::default();
    let mut tr = Tracer::new(Instant::now());
    let mut traced_s = Vec::new();
    let start = Instant::now();
    while start.elapsed() < phase || traced_s.is_empty() {
        let (steps, expected) = &scripts[traced_s.len() % SCRIPTS];
        tr.set_unit(traced_s.len() as u64);
        let session = tr.begin("session");
        let s = tr.begin("core.session_spawn");
        let t0 = Instant::now();
        let mut shell = Shell::new(spawn(&pool, &w));
        samples.spawn_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        tr.end(s);
        for (step, want) in steps.iter().zip(expected) {
            attempted += 1;
            let got = samples.step(&mut tr, &mut shell, step);
            if !check(step, got, want) {
                failed += 1;
            }
        }
        tr.end(session);
        samples.end_session(&shell);
        let span = &tr.spans()[session];
        traced_s.push((span.end_ns - span.start_ns) as f64 / 1e9);
    }
    program.finish(&mut metrics, &samples, &w.db);
    metrics.set(
        "obs.trace_overhead_frac",
        median(&traced_s) / median(&session_s) - 1.0,
        "ratio",
    );
    layers::write_spans(&tr, "refine-chain", cfg.seed);
    Outcome {
        metrics: layers::complete(&metrics),
        attempted,
        failed,
    }
}
