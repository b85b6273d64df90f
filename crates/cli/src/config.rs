//! Typed command-line configuration for the `clio-shell` binary.
//!
//! [`CliConfig::parse`] turns an argv slice into a [`CliConfig`] or a
//! [`UsageError`] whose `Display` is exactly the message the binary
//! prints to stderr before exiting 2 — so tests can assert on flag
//! handling without spawning a process, and the binary's behavior is
//! the library's behavior. Cross-flag conflicts are one table,
//! `CONFLICTS`, checked once every flag is parsed; and
//! [`CliConfig::session_pool`] is the one place a configuration turns
//! into the [`SessionPool`] every front-end takes its sessions from.

use std::path::Path;
use std::sync::Arc;

use clio_core::session_pool::SessionPool;
use clio_datagen::synthetic::{SyntheticSpec, Topology};
use clio_incr::{CacheStore, DiskStore, MemStore};
use clio_relational::database::Database;
use clio_relational::error::Error;
use clio_relational::parser::parse_declaration;
use clio_relational::schema::RelSchema;
use clio_relational::{csv, storage};

/// Buffer-pool page budget used for paged databases when `--db-pool`
/// is not given (also the pool `db load` opens with).
pub const DEFAULT_DB_POOL: usize = 64;

/// File name of the target-schema declaration beside a source
/// database (written by `db save`).
pub const TARGET_FILE: &str = "_target.txt";

/// Open the source directory `dir` in either layout — the one opener
/// behind `--source` and `db load` — with `target`, else the
/// directory's `_target.txt`, as its target schema. The relation files
/// present pick the layout ([`storage::is_paged`]); a paged directory
/// gets a pool of `pool` pages (default [`DEFAULT_DB_POOL`]), and a
/// pool for CSV files is a usage error. Errors are the binary's exact
/// stderr line.
pub fn open_source_dir(
    dir: &str,
    target: Option<RelSchema>,
    pool: Option<usize>,
) -> clio_relational::error::Result<(Database, RelSchema)> {
    let path = Path::new(dir);
    let cannot_load = |e: Error| Error::Invalid(format!("cannot load `{dir}`: {e}"));
    let db = if storage::is_paged(path).map_err(cannot_load)? {
        storage::open_paged(path, pool.unwrap_or(DEFAULT_DB_POOL))
    } else if pool.is_some() {
        return Err(Error::Invalid(format!(
            "--db-pool requires a paged --source directory; `{dir}` holds CSV files (see --help)"
        )));
    } else {
        csv::read_database(path)
    }
    .map_err(cannot_load)?;
    if let Some(target) = target {
        return Ok((db, target));
    }
    let file = path.join(TARGET_FILE);
    let text = std::fs::read_to_string(&file)
        .map_err(|e| Error::Invalid(format!("cannot read `{}`: {e}", file.display())))?;
    let target = parse_declaration(&text)
        .map_err(|e| Error::Invalid(format!("bad `{}`: {e}", file.display())))?;
    Ok((db, target))
}

/// A command-line usage error. `Display` renders the exact stderr
/// message of the `clio-shell` binary (which then exits 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// Which front-end the binary runs, selected by an optional leading
/// subcommand word (`serve` / `connect <addr>`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum Mode {
    /// The local shell: interactive, `--script`, or batch positional
    /// scripts.
    #[default]
    Local,
    /// `serve`: listen for framed TCP clients (see docs/service.md).
    Serve,
    /// `connect <addr>`: drive a remote server with `--script` (or
    /// stdin) lines.
    Connect(String),
}

impl Mode {
    /// The subcommand word of a remote mode (`""` for the local shell).
    fn word(&self) -> &'static str {
        match self {
            Mode::Local => "",
            Mode::Serve => "serve",
            Mode::Connect(_) => "connect",
        }
    }
}

/// Everything the `clio-shell` binary accepts on its command line, in
/// typed form. See the binary's `--help` for flag semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliConfig {
    /// Front-end mode: local shell (default), `serve`, or
    /// `connect <addr>`.
    pub mode: Mode,
    /// `--port <n>` (serve): TCP port to listen on; 0 (the default)
    /// picks an ephemeral port. Environment fallback: `CLIO_PORT`.
    pub port: Option<u16>,
    /// `--max-conns <n>` (serve): concurrent-connection cap (validated
    /// positive; default: the `--threads` width). Environment fallback:
    /// `CLIO_MAX_CONNS`.
    pub max_conns: Option<usize>,
    /// `--idle-ms <n>` (serve): per-connection idle timeout in
    /// milliseconds (validated positive; default 30000). Environment
    /// fallback: `CLIO_IDLE_MS`.
    pub idle_ms: Option<u64>,
    /// `--help` / `-h`: print usage and exit 0. Parsing stops at the
    /// flag, so anything after it is neither validated nor applied.
    pub help: bool,
    /// `--script <file>`: run commands from a script instead of stdin.
    pub script: Option<String>,
    /// Positional arguments: script files run as a concurrent batch.
    pub batch_scripts: Vec<String>,
    /// `--sessions <n>`: batch width (validated positive).
    pub sessions_width: Option<usize>,
    /// `--source <dir>`: source database directory, CSV or paged (see
    /// [`open_source_dir`] and `docs/storage.md`).
    pub source_dir: Option<String>,
    /// `--db-pool <pages>`: buffer-pool page budget for a paged
    /// `--source` (validated positive; default 64).
    pub db_pool: Option<usize>,
    /// `--target <schema>`: target schema declaration; replaces the
    /// source's own target.
    pub target_spec: Option<String>,
    /// `--mapping <file>`: MAP-language statement file loaded as the
    /// initial workspace (see `docs/planner.md`).
    pub mapping_file: Option<String>,
    /// `--synthetic <spec>`: validated generator spec.
    pub synthetic: Option<SyntheticSpec>,
    /// `--metrics <file>`: counter JSON report path (`-` = stdout).
    pub metrics_path: Option<String>,
    /// `--trace` (or implied by `--trace-filter`).
    pub trace: bool,
    /// `--trace-filter <name>`.
    pub trace_filter: Option<String>,
    /// `--trace-out <file>`: Chrome trace-event JSONL export path.
    /// Enables span collection without implying the `--trace` tree.
    pub trace_out: Option<String>,
    /// `--slow-ms <n>`: warn on spans at least this slow (validated
    /// positive; `CLIO_SLOW_MS` is the environment fallback).
    pub slow_ms: Option<u64>,
    /// `--threads <n>`: engine worker threads (validated positive).
    pub threads: Option<usize>,
    /// `--no-cache`: disable the incremental evaluation cache.
    pub no_cache: bool,
    /// `--cache-dir <path>`: attach an on-disk cache store rooted at
    /// this directory (see `docs/incremental.md`, Persistence).
    pub cache_dir: Option<String>,
}

/// One cross-flag conflict: a predicate over a fully parsed
/// configuration and the exact stderr line when it holds. In a message,
/// `{mode}` stands for the mode word (`serve` or `connect`).
pub(crate) struct Conflict {
    /// Does this configuration hit the conflict?
    pub(crate) applies: fn(&CliConfig) -> bool,
    /// The usage error's message.
    pub(crate) message: &'static str,
}

/// Every cross-flag conflict, in the order the binary reports them: the
/// first row that applies wins.
pub(crate) static CONFLICTS: &[Conflict] = &[
    // the networking knobs belong to `serve` ...
    Conflict {
        applies: |c| c.mode != Mode::Serve && c.port.is_some(),
        message: "--port requires serve mode (see --help)",
    },
    Conflict {
        applies: |c| c.mode != Mode::Serve && c.max_conns.is_some(),
        message: "--max-conns requires serve mode (see --help)",
    },
    Conflict {
        applies: |c| c.mode != Mode::Serve && c.idle_ms.is_some(),
        message: "--idle-ms requires serve mode (see --help)",
    },
    // ... and the local script machinery has no meaning on a socket
    Conflict {
        applies: |c| c.mode != Mode::Local && c.mapping_file.is_some(),
        message: "--mapping requires local mode (use `load` over the wire; see --help)",
    },
    Conflict {
        applies: |c| c.mode != Mode::Local && !c.batch_scripts.is_empty(),
        message: "{mode} mode takes no positional script arguments (see --help)",
    },
    Conflict {
        applies: |c| c.mode != Mode::Local && c.sessions_width.is_some(),
        message: "--sessions conflicts with {mode} mode (see --help)",
    },
    Conflict {
        applies: |c| c.mode == Mode::Serve && c.script.is_some(),
        message: "--script conflicts with serve mode (see --help)",
    },
    // source selection (a `connect` client opens no source)
    Conflict {
        applies: |c| c.opens_source() && c.source_dir.is_some() && c.synthetic.is_some(),
        message: "--source conflicts with --synthetic (see --help)",
    },
    Conflict {
        applies: |c| c.opens_source() && c.db_pool.is_some() && c.source_dir.is_none(),
        message: "--db-pool requires --source (see --help)",
    },
    // batch mode
    Conflict {
        applies: |c| !c.batch_scripts.is_empty() && c.script.is_some(),
        message: "--script conflicts with positional script arguments (see --help)",
    },
    Conflict {
        applies: |c| !c.batch_scripts.is_empty() && c.mapping_file.is_some(),
        message: "--mapping conflicts with positional script arguments (see --help)",
    },
    Conflict {
        applies: |c| c.batch_scripts.is_empty() && c.sessions_width.is_some(),
        message: "--sessions requires positional script arguments (see --help)",
    },
];

/// Step past flag `args[*i]` to its value, or the binary's exact
/// missing-value error.
fn take_value(args: &[String], i: &mut usize) -> Result<String, UsageError> {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| UsageError(format!("{flag} requires a value (see --help)")))
}

/// What a numeric flag or environment variable expects, as its error
/// message words it.
const POSITIVE: &str = "a positive integer";
const POSITIVE_MS: &str = "a positive integer (milliseconds)";
const PORT: &str = "a port number (0-65535)";

/// Parse the value of flag or environment variable `name` as a number
/// of at least `min`, or the binary's exact
/// ``{name} expects {expects}, got `{value}` `` error.
fn number<T: std::str::FromStr + PartialOrd>(
    name: &str,
    value: &str,
    min: T,
    expects: &str,
) -> Result<T, UsageError> {
    value
        .parse::<T>()
        .ok()
        .filter(|n| *n >= min)
        .ok_or_else(|| UsageError(format!("{name} expects {expects}, got `{value}`")))
}

/// Environment fallback `key` (looked up through `get`), parsed like
/// its flag form.
fn env_number<T: std::str::FromStr + PartialOrd>(
    get: &impl Fn(&str) -> Option<String>,
    key: &str,
    min: T,
    expects: &str,
) -> Result<Option<T>, UsageError> {
    get(key)
        .map(|value| number(key, &value, min, expects))
        .transpose()
}

/// Parse a `--synthetic` spec (`<topology>,<relations>,<rows>`),
/// preserving the binary's historical error messages byte-for-byte.
fn parse_synthetic(spec_text: &str) -> Result<SyntheticSpec, UsageError> {
    let parts: Vec<&str> = spec_text.split(',').collect();
    let [topo, relations, rows] = parts.as_slice() else {
        return Err(UsageError(
            "expected --synthetic <topology>,<relations>,<rows>".into(),
        ));
    };
    let topology = match *topo {
        "chain" => Topology::Chain,
        "star" => Topology::Star,
        "cycle" => Topology::Cycle,
        "tree" => Topology::RandomTree,
        other => return Err(UsageError(format!("unknown topology `{other}`"))),
    };
    Ok(SyntheticSpec {
        topology,
        relations: relations
            .parse()
            .map_err(|e| UsageError(format!("bad relation count: {e}")))?,
        rows: rows
            .parse()
            .map_err(|e| UsageError(format!("bad row count: {e}")))?,
        match_rate: 0.7,
        payload_attrs: 1,
        seed: 42,
    })
}

impl CliConfig {
    /// Parse an argv slice (without the program name). Flags are
    /// processed left to right; the first invalid flag wins, and
    /// `--help` stops parsing. A fully parsed configuration is then
    /// checked against the cross-flag conflict table, whose first
    /// applying row is the error.
    pub fn parse(args: &[String]) -> Result<CliConfig, UsageError> {
        let cfg = CliConfig::parse_flags(args)?;
        if cfg.help {
            return Ok(cfg);
        }
        match CONFLICTS.iter().find(|c| (c.applies)(&cfg)) {
            Some(conflict) => Err(UsageError(
                conflict.message.replace("{mode}", cfg.mode.word()),
            )),
            None => Ok(cfg),
        }
    }

    /// Does this mode open a source database (every mode but
    /// `connect`, whose source lives in the server)?
    fn opens_source(&self) -> bool {
        !matches!(self.mode, Mode::Connect(_))
    }

    /// The [`SessionPool`] every front-end of this configuration takes
    /// its sessions from: the `--sessions` width, the cache switch, and
    /// the shared persistent store. The store is
    /// a [`DiskStore`] under `--cache-dir`, namespaced by a digest of
    /// the source so one directory serves many databases; without the
    /// flag, `serve` still shares one in-memory [`MemStore`] so one
    /// connection's spilled work warms the next.
    #[must_use]
    pub fn session_pool(&self, db: Database, target: RelSchema) -> SessionPool {
        let store: Option<Arc<dyn CacheStore>> = match &self.cache_dir {
            Some(dir) => Some(Arc::new(DiskStore::open(
                Path::new(dir),
                clio_incr::database_digest(&db),
            ))),
            None if self.mode == Mode::Serve => Some(Arc::new(MemStore::new())),
            None => None,
        };
        let mut pool = SessionPool::new(db, target).with_width(self.sessions_width.unwrap_or(1));
        if let Some(store) = store {
            pool = pool.with_store(store);
        }
        pool.set_cache_enabled(!self.no_cache);
        pool
    }

    /// Parse the flags themselves, without the conflict table.
    fn parse_flags(args: &[String]) -> Result<CliConfig, UsageError> {
        let mut cfg = CliConfig::default();
        let mut i = 0;
        // The mode subcommand is recognized only as the first word, so
        // a positional script can still be named anything elsewhere.
        match args.first().map(String::as_str) {
            Some("serve") => {
                cfg.mode = Mode::Serve;
                i = 1;
            }
            Some("connect") => {
                let addr = args
                    .get(1)
                    .filter(|a| !a.starts_with('-'))
                    .cloned()
                    .ok_or_else(|| {
                        UsageError("connect requires an <addr> argument (see --help)".into())
                    })?;
                cfg.mode = Mode::Connect(addr);
                i = 2;
            }
            _ => {}
        }
        while i < args.len() {
            let flag = args[i].as_str();
            let mut value = || take_value(args, &mut i);
            match flag {
                "--help" | "-h" => {
                    cfg.help = true;
                    return Ok(cfg);
                }
                "--trace" => cfg.trace = true,
                "--no-cache" => cfg.no_cache = true,
                "--script" => cfg.script = Some(value()?),
                "--source" => cfg.source_dir = Some(value()?),
                "--target" => cfg.target_spec = Some(value()?),
                "--metrics" => cfg.metrics_path = Some(value()?),
                "--cache-dir" => cfg.cache_dir = Some(value()?),
                "--mapping" => cfg.mapping_file = Some(value()?),
                "--trace-out" => cfg.trace_out = Some(value()?),
                "--trace-filter" => {
                    cfg.trace_filter = Some(value()?);
                    cfg.trace = true;
                }
                "--db-pool" => cfg.db_pool = Some(number(flag, &value()?, 1, POSITIVE)?),
                "--threads" => cfg.threads = Some(number(flag, &value()?, 1, POSITIVE)?),
                "--sessions" => cfg.sessions_width = Some(number(flag, &value()?, 1, POSITIVE)?),
                "--max-conns" => cfg.max_conns = Some(number(flag, &value()?, 1, POSITIVE)?),
                "--slow-ms" => cfg.slow_ms = Some(number(flag, &value()?, 1, POSITIVE_MS)?),
                "--idle-ms" => cfg.idle_ms = Some(number(flag, &value()?, 1, POSITIVE_MS)?),
                "--port" => cfg.port = Some(number(flag, &value()?, 0, PORT)?),
                "--synthetic" => cfg.synthetic = Some(parse_synthetic(&value()?)?),
                other if other.starts_with('-') => {
                    return Err(UsageError(format!("unknown flag `{other}` (see --help)")));
                }
                path => cfg.batch_scripts.push(path.to_owned()),
            }
            i += 1;
        }
        Ok(cfg)
    }

    /// Resolve the serve-mode environment fallbacks (`CLIO_PORT`,
    /// `CLIO_MAX_CONNS`, `CLIO_IDLE_MS`) into any still-unset field.
    /// Flags win over the environment; a malformed environment value is
    /// a usage error (exit 2) exactly like its flag form. `get` is the
    /// environment lookup, injectable for tests.
    pub fn apply_net_env(
        &mut self,
        get: impl Fn(&str) -> Option<String>,
    ) -> Result<(), UsageError> {
        if self.port.is_none() {
            self.port = env_number(&get, "CLIO_PORT", 0, PORT)?;
        }
        if self.max_conns.is_none() {
            self.max_conns = env_number(&get, "CLIO_MAX_CONNS", 1, POSITIVE)?;
        }
        if self.idle_ms.is_none() {
            self.idle_ms = env_number(&get, "CLIO_IDLE_MS", 1, POSITIVE_MS)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_owned()).collect()
    }

    #[test]
    fn defaults_and_positionals() {
        let cfg = CliConfig::parse(&argv(&["a.clio", "b.clio"])).unwrap();
        assert_eq!(cfg.batch_scripts, vec!["a.clio", "b.clio"]);
        assert!(!cfg.help && !cfg.trace && !cfg.no_cache);
        assert_eq!(cfg.script, None);
        assert_eq!(cfg.cache_dir, None);
    }

    #[test]
    fn flags_with_values() {
        // `--sessions` without positional scripts is a conflict; this
        // test is about the values, so it skips the conflict table
        let cfg = CliConfig::parse_flags(&argv(&[
            "--script",
            "s.clio",
            "--metrics",
            "m.json",
            "--cache-dir",
            "/tmp/cc",
            "--threads",
            "3",
            "--sessions",
            "2",
            "--trace-filter",
            "fd.naive",
            "--trace-out",
            "t.jsonl",
            "--slow-ms",
            "25",
            "--source",
            "/tmp/paged",
            "--db-pool",
            "8",
            "--no-cache",
        ]))
        .unwrap();
        assert_eq!(cfg.script.as_deref(), Some("s.clio"));
        assert_eq!(cfg.source_dir.as_deref(), Some("/tmp/paged"));
        assert_eq!(cfg.db_pool, Some(8));
        assert_eq!(cfg.metrics_path.as_deref(), Some("m.json"));
        assert_eq!(cfg.cache_dir.as_deref(), Some("/tmp/cc"));
        assert_eq!(cfg.threads, Some(3));
        assert_eq!(cfg.sessions_width, Some(2));
        assert_eq!(cfg.trace_filter.as_deref(), Some("fd.naive"));
        assert!(cfg.trace, "--trace-filter implies --trace");
        assert_eq!(cfg.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(cfg.slow_ms, Some(25));
        assert!(cfg.no_cache);
    }

    #[test]
    fn trace_out_collects_without_implying_the_tree() {
        let cfg = CliConfig::parse(&argv(&["--trace-out", "t.jsonl"])).unwrap();
        assert!(!cfg.trace, "--trace-out must not print the span tree");
        let cfg = CliConfig::parse(&argv(&["--metrics", "-"])).unwrap();
        assert_eq!(cfg.metrics_path.as_deref(), Some("-"), "stdout sentinel");
    }

    #[test]
    fn help_stops_parsing() {
        let cfg = CliConfig::parse(&argv(&["--help", "--threads", "zero"])).unwrap();
        assert!(cfg.help, "nothing after --help is validated");
        let cfg = CliConfig::parse(&argv(&["-h"])).unwrap();
        assert!(cfg.help);
    }

    #[test]
    fn error_messages_are_the_binary_stderr_lines() {
        let err = |words: &[&str]| CliConfig::parse(&argv(words)).unwrap_err().to_string();
        assert_eq!(err(&["--script"]), "--script requires a value (see --help)");
        assert_eq!(
            err(&["--cache-dir"]),
            "--cache-dir requires a value (see --help)"
        );
        assert_eq!(
            err(&["--threads", "0"]),
            "--threads expects a positive integer, got `0`"
        );
        assert_eq!(err(&["--source"]), "--source requires a value (see --help)");
        // one flag opens a source directory of either layout
        let paged_flag = ["--db", "-dir"].concat();
        assert_eq!(
            err(&[&paged_flag, "p"]),
            format!("unknown flag `{paged_flag}` (see --help)")
        );
        assert_eq!(
            err(&["--db-pool", "0"]),
            "--db-pool expects a positive integer, got `0`"
        );
        assert_eq!(
            err(&["--db-pool", "x"]),
            "--db-pool expects a positive integer, got `x`"
        );
        assert_eq!(
            err(&["--sessions", "x"]),
            "--sessions expects a positive integer, got `x`"
        );
        assert_eq!(
            err(&["--trace-out"]),
            "--trace-out requires a value (see --help)"
        );
        assert_eq!(
            err(&["--slow-ms", "0"]),
            "--slow-ms expects a positive integer (milliseconds), got `0`"
        );
        assert_eq!(
            err(&["--mapping"]),
            "--mapping requires a value (see --help)"
        );
        assert_eq!(err(&["--wat"]), "unknown flag `--wat` (see --help)");
        // the planner is the only executor: there is no switch for it
        assert_eq!(err(&["--plan"]), "unknown flag `--plan` (see --help)");
        assert_eq!(
            err(&["--synthetic", "chain,4"]),
            "expected --synthetic <topology>,<relations>,<rows>"
        );
        assert_eq!(
            err(&["--synthetic", "blob,4,10"]),
            "unknown topology `blob`"
        );
        assert!(err(&["--synthetic", "chain,x,10"]).starts_with("bad relation count: "));
        assert!(err(&["--synthetic", "chain,4,x"]).starts_with("bad row count: "));
    }

    #[test]
    fn mode_subcommands_parse_only_in_first_position() {
        let cfg =
            CliConfig::parse(&argv(&["serve", "--port", "9090", "--max-conns", "8"])).unwrap();
        assert_eq!(cfg.mode, Mode::Serve);
        assert_eq!(cfg.port, Some(9090));
        assert_eq!(cfg.max_conns, Some(8));
        let cfg = CliConfig::parse(&argv(&["connect", "127.0.0.1:9090"])).unwrap();
        assert_eq!(cfg.mode, Mode::Connect("127.0.0.1:9090".into()));
        // Elsewhere, `serve` is just a positional script path.
        let cfg = CliConfig::parse(&argv(&["a.clio", "serve"])).unwrap();
        assert_eq!(cfg.mode, Mode::Local);
        assert_eq!(cfg.batch_scripts, vec!["a.clio", "serve"]);
    }

    #[test]
    fn net_flag_errors_are_the_binary_stderr_lines() {
        let err = |words: &[&str]| CliConfig::parse(&argv(words)).unwrap_err().to_string();
        assert_eq!(
            err(&["connect"]),
            "connect requires an <addr> argument (see --help)"
        );
        assert_eq!(
            err(&["connect", "--script"]),
            "connect requires an <addr> argument (see --help)"
        );
        assert_eq!(
            err(&["serve", "--port", "nope"]),
            "--port expects a port number (0-65535), got `nope`"
        );
        assert_eq!(
            err(&["serve", "--port", "70000"]),
            "--port expects a port number (0-65535), got `70000`"
        );
        assert_eq!(
            err(&["serve", "--port"]),
            "--port requires a value (see --help)"
        );
        assert_eq!(
            err(&["serve", "--max-conns", "0"]),
            "--max-conns expects a positive integer, got `0`"
        );
        assert_eq!(
            err(&["serve", "--idle-ms", "-5"]),
            "--idle-ms expects a positive integer (milliseconds), got `-5`"
        );
    }

    #[test]
    fn net_env_fallbacks_fill_unset_fields_and_validate() {
        let mut cfg = CliConfig::parse(&argv(&["serve", "--port", "7070"])).unwrap();
        cfg.apply_net_env(|key| match key {
            "CLIO_PORT" => Some("1234".into()),
            "CLIO_MAX_CONNS" => Some("6".into()),
            "CLIO_IDLE_MS" => Some("500".into()),
            _ => None,
        })
        .unwrap();
        assert_eq!(cfg.port, Some(7070), "the flag wins over the environment");
        assert_eq!(cfg.max_conns, Some(6));
        assert_eq!(cfg.idle_ms, Some(500));

        let mut cfg = CliConfig::parse(&argv(&["serve"])).unwrap();
        let err = cfg
            .apply_net_env(|key| (key == "CLIO_PORT").then(|| "abc".into()))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "CLIO_PORT expects a port number (0-65535), got `abc`"
        );
        let err = cfg
            .apply_net_env(|key| (key == "CLIO_MAX_CONNS").then(|| "0".into()))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "CLIO_MAX_CONNS expects a positive integer, got `0`"
        );
        let err = cfg
            .apply_net_env(|key| (key == "CLIO_IDLE_MS").then(|| "x".into()))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "CLIO_IDLE_MS expects a positive integer (milliseconds), got `x`"
        );
    }

    /// Every row of [`CONFLICTS`] fires with its exact message, and
    /// every row is covered here.
    #[test]
    fn each_conflict_row_reports_its_stderr_line() {
        let serve_only = "requires serve mode (see --help)";
        let positional = "conflicts with positional script arguments (see --help)";
        let cases = [
            ("--port 9090", format!("--port {serve_only}")),
            (
                "connect h:1 --max-conns 2",
                format!("--max-conns {serve_only}"),
            ),
            ("--idle-ms 5", format!("--idle-ms {serve_only}")),
            (
                "serve --mapping m.map",
                "--mapping requires local mode (use `load` over the wire; see --help)".into(),
            ),
            (
                "serve a.clio",
                "serve mode takes no positional script arguments (see --help)".into(),
            ),
            (
                "connect h:1 a.clio",
                "connect mode takes no positional script arguments (see --help)".into(),
            ),
            (
                "connect h:1 --sessions 2",
                "--sessions conflicts with connect mode (see --help)".into(),
            ),
            (
                "serve --script s.clio",
                "--script conflicts with serve mode (see --help)".into(),
            ),
            (
                "--source d --target T --synthetic chain,3,10",
                "--source conflicts with --synthetic (see --help)".into(),
            ),
            (
                "--db-pool 4",
                "--db-pool requires --source (see --help)".into(),
            ),
            ("--script s.clio a.clio", format!("--script {positional}")),
            ("--mapping m.map a.clio", format!("--mapping {positional}")),
            (
                "--sessions 2",
                "--sessions requires positional script arguments (see --help)".into(),
            ),
        ];
        let args = |line: &str| argv(&line.split(' ').collect::<Vec<_>>());
        for (line, want) in &cases {
            let err = CliConfig::parse(&args(line)).unwrap_err();
            assert_eq!(err.to_string(), *want, "args: {line}");
        }
        for (i, row) in CONFLICTS.iter().enumerate() {
            let covered = cases.iter().any(|(line, want)| {
                let cfg = CliConfig::parse_flags(&args(line)).unwrap();
                (row.applies)(&cfg) && *want == row.message.replace("{mode}", cfg.mode.word())
            });
            assert!(covered, "conflict row {i} (`{}`) has no case", row.message);
        }
    }

    #[test]
    fn conflicts_follow_the_table_order_and_spare_connect_and_help() {
        let err = |words: &[&str]| CliConfig::parse(&argv(words)).unwrap_err().to_string();
        // the serve-only flags are checked before the mode conflicts
        assert_eq!(
            err(&["connect", "h:1", "--port", "1", "--sessions", "2"]),
            "--port requires serve mode (see --help)"
        );
        assert_eq!(
            err(&["--sessions", "2", "--db-pool", "3"]),
            "--db-pool requires --source (see --help)"
        );
        // a client opens no source, so source flags cannot conflict
        let cfg = CliConfig::parse(&argv(&[
            "connect",
            "h:1",
            "--source",
            "d",
            "--synthetic",
            "chain,2,2",
        ]))
        .unwrap();
        assert_eq!(cfg.source_dir.as_deref(), Some("d"));
        // --source needs no --target (the directory may carry
        // `_target.txt`), and --target replaces the target of any source
        for line in [
            &["--source", "d"][..],
            &["--target", "T (a int)"],
            &["--target", "T (a int)", "--synthetic", "chain,2,2"],
        ] {
            CliConfig::parse(&argv(line)).unwrap();
        }
        // --help wins over every conflict
        assert!(
            CliConfig::parse(&argv(&["--port", "1", "--help"]))
                .unwrap()
                .help
        );
    }

    #[test]
    fn the_session_pool_carries_the_cache_flags() {
        use clio_datagen::paper::{kids_target, paper_database};
        let cfg = CliConfig::parse(&argv(&["--no-cache", "--sessions", "3", "a.clio"])).unwrap();
        let pool = cfg.session_pool(paper_database(), kids_target());
        assert_eq!(pool.width(), 3);
        assert!(pool.store().is_none());
        let session = pool.session();
        assert!(!session.cache().enabled());
        // serve shares one store between connections even without --cache-dir
        let cfg = CliConfig::parse(&argv(&["serve"])).unwrap();
        let pool = cfg.session_pool(paper_database(), kids_target());
        assert!(pool.store().is_some());
        assert!(pool.session().cache().enabled());
    }

    #[test]
    fn mapping_flag() {
        let cfg = CliConfig::parse(&argv(&["--mapping", "demo.map"])).unwrap();
        assert_eq!(cfg.mapping_file.as_deref(), Some("demo.map"));
        let cfg = CliConfig::parse(&argv(&[])).unwrap();
        assert_eq!(cfg.mapping_file, None);
    }

    #[test]
    fn synthetic_spec_is_validated_and_typed() {
        let cfg = CliConfig::parse(&argv(&["--synthetic", "star,5,20"])).unwrap();
        let spec = cfg.synthetic.expect("spec");
        assert_eq!(spec.relations, 5);
        assert_eq!(spec.rows, 20);
    }
}
