//! `clio` — an interactive mapping-refinement shell over the Clio
//! reproduction.
//!
//! ```sh
//! cargo run -p clio-cli                       # paper dataset, interactive
//! cargo run -p clio-cli -- --script cmds.txt  # run a command script
//! cargo run -p clio-cli -- --synthetic chain,4,100
//! cargo run -p clio-cli -- --source data/ --target "T (id str not null, x str)"
//! cargo run -p clio-cli -- --script cmds.txt --metrics out.json --trace
//! cargo run -p clio-cli -- --sessions 4 a.clio b.clio c.clio d.clio
//! cargo run -p clio-cli -- --script cmds.txt --cache-dir .clio-cache
//! ```

use std::io::{BufRead, Write};

use clio_cli::config::{open_source_dir, CliConfig, Mode};
use clio_cli::engine::{Outcome, Shell};
use clio_core::session_pool::SessionPool;
use clio_datagen::paper::{kids_target, paper_database};
use clio_datagen::synthetic::{generate, SyntheticSpec};
use clio_relational::database::Database;
use clio_relational::parser::parse_declaration;
use clio_relational::schema::RelSchema;

/// Generate a synthetic source from a validated spec, re-declaring the
/// generated edges as foreign keys so walks are possible.
fn synthetic_source(spec: SyntheticSpec) -> (Database, RelSchema) {
    let w = generate(&spec);
    let mut db = w.db;
    db.constraints = clio_relational::constraints::Constraints::none();
    for s in w.knowledge.specs() {
        db.constraints
            .foreign_keys
            .push(clio_relational::constraints::ForeignKey {
                from_relation: s.rel_a.clone(),
                from_attrs: s.attr_pairs.iter().map(|(a, _)| a.clone()).collect(),
                to_relation: s.rel_b.clone(),
                to_attrs: s.attr_pairs.iter().map(|(_, b)| b.clone()).collect(),
            });
    }
    (db, w.target)
}

/// Open the configured source and target schema: a source directory
/// of either layout (`--source`), a synthetic source, or the paper's
/// dataset; `--target` replaces the source's own target. Flag
/// combinations were already validated by [`CliConfig::parse`]; the
/// error is the binary's exact stderr line.
fn open_source(cfg: &CliConfig) -> Result<(Database, RelSchema), String> {
    let target = match &cfg.target_spec {
        Some(spec) => Some(parse_declaration(spec).map_err(|e| format!("bad --target: {e}"))?),
        None => None,
    };
    if let Some(dir) = &cfg.source_dir {
        return open_source_dir(dir, target, cfg.db_pool).map_err(|e| e.to_string());
    }
    let (db, own_target) = cfg
        .synthetic
        .map_or_else(|| (paper_database(), kids_target()), synthetic_source);
    Ok((db, target.unwrap_or(own_target)))
}

/// Execute script files as concurrent sessions of the pool, printing
/// each session's output (in input order) framed by a
/// `=== session <i>: <path> ===` header. Each session's body is
/// byte-identical to what `--script <path>` would print for the same
/// source: scripts are read upfront (first unreadable file by input
/// order exits 2), sessions run on the pool, and outputs are buffered
/// per session and merged deterministically.
fn run_batch(pool: &SessionPool, scripts: &[String]) {
    let bodies: Vec<String> = scripts
        .iter()
        .map(|path| {
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot open `{path}`: {e}");
                std::process::exit(2);
            })
        })
        .collect();
    let outputs = pool.run(bodies.len(), |i, session| {
        let mut shell = Shell::new(session);
        let mut out = String::new();
        for line in bodies[i].lines() {
            out.push_str("clio> ");
            out.push_str(line);
            out.push('\n');
            match shell.execute(line) {
                Outcome::Continue(text) => out.push_str(&text),
                Outcome::Quit => break,
            }
        }
        out
    });
    for (i, (path, text)) in scripts.iter().zip(&outputs).enumerate() {
        println!("=== session {i}: {path} ===");
        print!("{text}");
    }
}

/// Run one shell session over `--script` (echoing each line after a
/// `clio> ` prompt) or interactively over stdin, after adopting the
/// `--mapping` statement, if any, as the first workspace.
fn run_shell(cfg: &CliConfig, mut shell: Shell) {
    if let Some(path) = &cfg.mapping_file {
        if let Err(e) = shell.load_mapping(path) {
            eprintln!("bad --mapping: {e}");
            std::process::exit(2);
        }
    }
    let reader = clio_cli::serve::command_input(cfg.script.as_deref());
    let interactive = cfg.script.is_none();
    let mut out = std::io::stdout();
    if interactive {
        println!("clio mapping shell — type `help` for commands");
        print!("clio> ");
        out.flush().ok();
    }
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if !interactive {
            println!("clio> {line}");
        }
        match shell.execute(&line) {
            Outcome::Continue(text) => print!("{text}"),
            Outcome::Quit => break,
        }
        if interactive {
            print!("clio> ");
            out.flush().ok();
        }
    }
}

/// Usage text printed by `--help` (flags first, then the shell commands).
fn usage() -> String {
    format!(
        "\
clio — interactive mapping-refinement shell (Clio, SIGMOD 2001)

usage: clio-shell [flags] [script.clio ...]
       clio-shell serve [flags]
       clio-shell connect <addr> [--script <file>]

Positional arguments are script files executed as independent sessions
over one shared source snapshot (batch mode); outputs are printed in
input order, each framed by a `=== session <i>: <path> ===` header.

`serve` listens for framed TCP clients on 127.0.0.1 and runs every
connection as a private session over one shared snapshot and cache
store; `connect` replays --script (or stdin) lines against a running
server, printing byte-identical output to a local --script run (see
docs/service.md). A client sending `shutdown` stops the server.

flags:
  --script <file>        run commands from a script instead of stdin
  --sessions <n>         batch mode: run the positional scripts up to
                         <n> at a time as concurrent sessions (default
                         1; requires script arguments, conflicts with
                         --script)
  --source <dir>         open a source database directory: CSV files, or a
                         paged one written by `db save` (see docs/storage.md)
  --target <schema>      target schema, e.g. \"Kids (ID str not null, name str)\";
                         default: the --source directory's _target.txt, else
                         the source's own
  --synthetic <spec>     generate a source: <topology>,<relations>,<rows>
                         (topology: chain | star | cycle | tree)
  --mapping <file>       load a MAP-language statement (see docs/planner.md)
                         as the initial workspace before reading commands
                         (single-session local mode only)
  --db-pool <pages>      buffer-pool page budget for a paged --source (default 64)
  --metrics <file>       collect work counters; write a JSON report on exit
                         (`-` writes the report to stdout after the shell
                         output)
  --trace                collect spans; print the span tree on exit
  --trace-filter <name>  like --trace, but only print subtrees whose span
                         name contains <name> (e.g. fd.naive)
  --trace-out <file>     collect spans; export completed spans as Chrome
                         trace-event JSONL (load in chrome://tracing or
                         Perfetto; see docs/observability.md, Timing)
  --slow-ms <n>          collect spans; warn on stderr whenever a span
                         takes at least <n> milliseconds (environment
                         fallback: CLIO_SLOW_MS)
  --threads <n>          worker threads for parallel evaluation
                         (default: CLIO_THREADS or the hardware)
  --no-cache             disable the incremental evaluation cache; every
                         operator recomputes from scratch (see
                         docs/incremental.md)
  --cache-dir <path>     persist eligible cache entries under <path> and
                         serve misses from it across runs (see
                         docs/incremental.md, Persistence)
  --port <n>             serve: TCP port to listen on (default 0 = an
                         ephemeral port, announced as `listening on
                         <addr>`; fallback: CLIO_PORT)
  --max-conns <n>        serve: concurrent-connection cap; excess
                         connections wait in the accept backlog
                         (default: the --threads width; fallback:
                         CLIO_MAX_CONNS)
  --idle-ms <n>          serve: close a connection when no request
                         arrives within <n> milliseconds (default
                         30000; fallback: CLIO_IDLE_MS)
  --help, -h             show this help

{}",
        clio_cli::command::help_text()
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = match CliConfig::parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if cfg.help {
        print!("{}", usage());
        return;
    }
    if cfg.mode == Mode::Serve {
        if let Err(e) = cfg.apply_net_env(|key| std::env::var(key).ok()) {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }

    if let Some(n) = cfg.threads {
        clio_relational::exec::set_threads(n);
    }
    if cfg.metrics_path.is_some() {
        clio_obs::set_metrics_enabled(true);
    }
    let slow_ms = cfg.slow_ms.or_else(|| {
        std::env::var("CLIO_SLOW_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|n| *n > 0)
    });
    if let Some(ms) = slow_ms {
        clio_obs::set_slow_threshold_ns(ms.saturating_mul(1_000_000));
    }
    // Timing (histograms, the event ring, slow-span checks) rides on the
    // span machinery, so any of the three timing flags enables tracing.
    if cfg.trace || cfg.trace_out.is_some() || slow_ms.is_some() {
        clio_obs::set_trace_enabled(true);
    }

    if let Mode::Connect(addr) = &cfg.mode {
        clio_cli::serve::run_client(addr, cfg.script.as_deref());
        finish_reports(&cfg);
        return;
    }

    let (db, target) = open_source(&cfg).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let pool = cfg.session_pool(db, target);
    if cfg.mode == Mode::Serve {
        if let Err(e) = clio_cli::serve::run_server(&cfg, &pool) {
            eprintln!("cannot serve: {e}");
            std::process::exit(2);
        }
    } else if !cfg.batch_scripts.is_empty() {
        run_batch(&pool, &cfg.batch_scripts);
    } else {
        run_shell(&cfg, Shell::new(pool.session()));
    }
    finish_reports(&cfg);
}

/// Exit-time reporting, in a fixed order: the metrics JSON report
/// (`--metrics`, where `-` means stdout), the span tree (`--trace` /
/// `--trace-filter`), the Chrome trace-event JSONL export
/// (`--trace-out`), and finally any rate-limited-warning summary on
/// stderr. A report that cannot be written exits 2.
fn finish_reports(cfg: &CliConfig) {
    if let Some(path) = cfg.metrics_path.as_deref() {
        let report = clio_obs::report_json();
        if path == "-" {
            print!("{report}");
        } else if let Err(e) = std::fs::write(path, &report) {
            eprintln!("cannot write metrics to `{path}`: {e}");
            std::process::exit(2);
        }
    }
    if cfg.trace {
        let records = clio_obs::snapshot_spans();
        if records.is_empty() {
            println!("trace: no spans recorded");
        } else {
            let filter = cfg.trace_filter.as_deref().unwrap_or("");
            print!(
                "{}",
                clio_obs::trace::render_tree_filtered(&records, filter)
            );
        }
    }
    if let Some(path) = cfg.trace_out.as_deref() {
        let (events, dropped) = clio_obs::take_events();
        let jsonl = clio_obs::chrome_trace_jsonl(&events);
        if let Err(e) = std::fs::write(path, &jsonl) {
            eprintln!("cannot write trace events to `{path}`: {e}");
            std::process::exit(2);
        }
        if dropped > 0 {
            eprintln!("clio: trace ring overflowed; {dropped} oldest span event(s) dropped");
        }
    }
    if let Some(summary) = clio_obs::warn_summary() {
        eprint!("{summary}");
    }
}
