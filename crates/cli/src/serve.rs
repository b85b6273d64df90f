//! The `serve` and `connect` front-ends: bridging `clio-net`'s framed
//! TCP protocol onto the local [`Shell`].
//!
//! `serve` takes the binary's one [`SessionPool`] — one `Arc`-shared
//! `Database`/`ValueIndex` snapshot and one shared `CacheStore` — and
//! hands every accepted connection a private copy-on-write session
//! wrapped in a [`ShellHandler`]. `connect` replays `--script` (or
//! stdin) lines against a remote server, echoing `clio> <line>` before
//! each response so its output is byte-identical to a local `--script`
//! run of the same commands. See docs/service.md.

use std::io::{BufRead, Write};
use std::time::Duration;

use clio_core::session_pool::SessionPool;
use clio_net::{Client, Handler, Response, Server, ServerConfig};

use crate::command::{self, Command};
use crate::config::CliConfig;
use crate::engine::{Outcome, Shell};

/// Idle timeout (milliseconds) when neither `--idle-ms` nor
/// `CLIO_IDLE_MS` is given.
pub const DEFAULT_IDLE_MS: u64 = 30_000;

/// The `net.request.*` histogram for one request line, keyed by the
/// parsed command's kind (`net.request.invalid` for an unparseable
/// line).
#[must_use]
pub fn request_hist_name(line: &str) -> &'static str {
    command::parse(line).map_or("net.request.invalid", |cmd| cmd.hist_name())
}

/// Adapts one connection's [`Shell`] to the wire: parse for the
/// histogram key, dispatch through the existing engine, map `quit` to a
/// connection close.
pub struct ShellHandler {
    shell: Shell,
}

impl ShellHandler {
    /// Wrap a shell (one connection's private session).
    #[must_use]
    pub fn new(shell: Shell) -> ShellHandler {
        ShellHandler { shell }
    }
}

impl Handler for ShellHandler {
    fn handle(&mut self, line: &str) -> Response {
        let hist = request_hist_name(line);
        match self.shell.execute(line) {
            Outcome::Continue(text) => Response {
                text,
                hist,
                quit: false,
            },
            Outcome::Quit => Response {
                text: String::new(),
                hist,
                quit: true,
            },
        }
    }
}

/// Run `clio serve`: bind, announce `listening on <addr>` on stdout,
/// and hand every connection a session of `pool` (built by
/// [`CliConfig::session_pool`], which gives `serve` a shared store even
/// without `--cache-dir`) until a client sends `shutdown`.
///
/// # Errors
///
/// Bind/listen failures (the caller reports and exits 2).
pub fn run_server(cfg: &CliConfig, pool: &SessionPool) -> std::io::Result<()> {
    let config = ServerConfig {
        max_conns: cfg.max_conns.unwrap_or_else(clio_relational::exec::threads),
        idle_timeout: Duration::from_millis(cfg.idle_ms.unwrap_or(DEFAULT_IDLE_MS)),
        ..ServerConfig::default()
    };
    let server = Server::bind(("127.0.0.1", cfg.port.unwrap_or(0)), config)?;
    println!("listening on {}", server.local_addr()?);
    std::io::stdout().flush().ok();
    server.run(|_conn| Box::new(ShellHandler::new(Shell::new(pool.session()))) as Box<dyn Handler>)
}

/// The command lines of a local shell or a `connect` client: the
/// `--script` file, or stdin without one. An unreadable script exits 2.
#[must_use]
pub fn command_input(script: Option<&str>) -> Box<dyn BufRead> {
    match script {
        Some(path) => match std::fs::File::open(path) {
            Ok(file) => Box::new(std::io::BufReader::new(file)),
            Err(e) => {
                eprintln!("cannot open `{path}`: {e}");
                std::process::exit(2);
            }
        },
        None => Box::new(std::io::stdin().lock()),
    }
}

/// Run `clio connect <addr>`: replay `--script` (or stdin) lines
/// against a remote server. Every line is echoed as `clio> <line>`
/// before its response — including from stdin, so piped input produces
/// the same bytes as `--script`. Stops at `quit` (like the local script
/// loop, without echoing later lines) or when the server closes the
/// connection.
pub fn run_client(addr: &str, script: Option<&str>) {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to `{addr}`: {e}");
            std::process::exit(2);
        }
    };
    for line in command_input(script).lines() {
        let Ok(line) = line else { break };
        println!("clio> {line}");
        match client.request(&line) {
            Ok(Some(text)) => print!("{text}"),
            Ok(None) => break,
            Err(e) => {
                eprintln!("clio: connection to `{addr}` lost: {e}");
                std::process::exit(1);
            }
        }
        if matches!(command::parse(&line), Ok(Command::Quit)) {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_names_follow_the_command_kind() {
        assert_eq!(
            request_hist_name("corr Children.ID -> ID"),
            "net.request.corr"
        );
        assert_eq!(request_hist_name("stats chase"), "net.request.stats");
        assert_eq!(request_hist_name("db save /tmp/x"), "net.request.db");
        assert_eq!(request_hist_name("mapping"), "net.request.mapping");
        assert_eq!(request_hist_name("explain"), "net.request.explain");
        assert_eq!(request_hist_name("profile spans 3"), "net.request.profile");
        assert_eq!(request_hist_name(""), "net.request.noop");
        assert_eq!(request_hist_name("# comment"), "net.request.noop");
        assert_eq!(request_hist_name("wat"), "net.request.invalid");
        assert_eq!(request_hist_name("quit"), "net.request.quit");
    }
}
