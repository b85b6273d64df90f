//! `serve-star`: an in-process `clio_net::Server` whose connections get
//! `ShellHandler` sessions from one `SessionPool` sharing a `MemStore`,
//! over a 5-relation star. Two client threads run a closed loop, each
//! replaying scripted sessions (connect ... `quit`) on fresh connections.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use clio_cli::engine::Shell;
use clio_cli::serve::{request_hist_name, ShellHandler};
use clio_core::session::Session;
use clio_core::session_pool::SessionPool;
use clio_datagen::synthetic::{generate, Synthetic, SyntheticSpec, Topology};
use clio_incr::{CacheStore, MemStore};
use clio_net::frame::{read_frame, write_frame};
use clio_net::{Handler, Response, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::layers::{self, Samples};
use crate::script::{self, Step};
use crate::stats::{self, median, Metrics};
use crate::tracer::Tracer;
use crate::{corrupt_text, phase, Config, Outcome, SETUP_REPS};

/// Concurrent client connections: one per core of a two-core host.
const CLIENTS: usize = 2;
/// Scripted sessions per run; client `c` replays scripts `c`, `c + 2`, ...
const SCRIPTS: usize = 4;
/// Largest response the benchmark's client accepts.
const MAX_RESPONSE: usize = 1 << 28;

/// Script `k` maps a third leaf, `R(2 + k mod 3)`, so which scripts share
/// a graph (and so warm each other's store entries) is the same in every
/// run; only the filter constant comes from the seed.
fn template(k: usize, rng: &mut StdRng) -> Vec<String> {
    let filtered = rng.random_range(0..1000);
    let third = 2 + k % 3;
    vec![
        "corr R0.p0 -> B0".to_owned(),
        "corr R1.p0 -> B1".to_owned(),
        "status".to_owned(),
        "illustration".to_owned(),
        format!("corr R{third}.p0 -> B{third}"),
        "target".to_owned(),
        format!("filter source R1.p0 <> 'v0-{filtered}'"),
        "illustration".to_owned(),
        "target".to_owned(),
        "explain".to_owned(),
        "accept".to_owned(),
        "status".to_owned(),
        "target".to_owned(),
        "quit".to_owned(),
    ]
}

fn spawn(pool: &SessionPool, w: &Synthetic) -> Session {
    let mut s = pool.session();
    // The generated sources declare no foreign keys; walks need the
    // generator's join knowledge.
    s.knowledge = w.knowledge.clone();
    s
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    rtt_ms: Vec<f64>,
    target_ms: Vec<f64>,
    noop_ms: Vec<f64>,
    session_s: Vec<f64>,
    response_bytes: Vec<f64>,
    largest: String,
    attempted: u64,
    failed: u64,
}

/// One framed connection, as `clio connect` drives it.
struct Conn {
    write: TcpStream,
    read: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            read: BufReader::new(stream.try_clone()?),
            write: stream,
        })
    }

    fn request(&mut self, line: &str) -> std::io::Result<String> {
        write_frame(&mut self.write, line)?;
        read_frame(&mut self.read, MAX_RESPONSE)?
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "server closed"))
    }
}

/// Replay scripted sessions until `deadline`, each on a fresh connection.
fn client(
    cfg: &Config,
    c: usize,
    addr: SocketAddr,
    scripts: &[(Vec<String>, Vec<String>)],
    deadline: Instant,
    noop_probes: usize,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut corrupted = c != 0;
    let mut k = c;
    while Instant::now() < deadline || log.session_s.is_empty() {
        let (lines, expected) = &scripts[k % SCRIPTS];
        k += CLIENTS;
        let t_session = Instant::now();
        let Ok(mut conn) = Conn::open(addr) else {
            log.attempted += 1;
            log.failed += 1;
            continue;
        };
        for _ in 0..noop_probes {
            let t0 = Instant::now();
            let got = conn.request("");
            log.noop_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            log.attempted += 1;
            if !got.is_ok_and(|t| t.is_empty()) {
                log.failed += 1;
            }
        }
        for (line, want) in lines.iter().zip(expected) {
            log.attempted += 1;
            let t0 = Instant::now();
            let got = conn.request(line);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            log.rtt_ms.push(ms);
            if line == "target" {
                log.target_ms.push(ms);
            }
            match got {
                Ok(mut text) => {
                    log.response_bytes.push(text.len() as f64);
                    if text.len() > log.largest.len() {
                        log.largest.clone_from(&text);
                    }
                    corrupt_text(cfg, &mut corrupted, &mut text);
                    let checked = script::compared(&Step::Cmd(line.clone()));
                    if text.starts_with("error:") || (checked && text != *want) {
                        log.failed += 1;
                    }
                }
                Err(_) => {
                    log.failed += 1;
                    break;
                }
            }
        }
        log.session_s.push(t_session.elapsed().as_secs_f64());
    }
    log
}

/// A connection handler that times `Handler::handle` and replays each
/// request through the traced stage calls; its samples and spans are
/// merged into the shared sink when the connection ends.
struct TracedHandler {
    shell: Shell,
    samples: Samples,
    tr: Tracer,
    sink: Arc<Mutex<(Samples, Tracer)>>,
}

impl Handler for TracedHandler {
    fn handle(&mut self, line: &str) -> Response {
        let t0 = Instant::now();
        let hist = request_hist_name(line);
        let quit = matches!(
            clio_cli::command::parse(line),
            Ok(clio_cli::command::Command::Quit)
        );
        let text = if quit {
            String::new()
        } else {
            self.samples
                .step(&mut self.tr, &mut self.shell, &Step::Cmd(line.to_owned()))
        };
        self.samples
            .handler_ms
            .push(t0.elapsed().as_secs_f64() * 1e3);
        Response { text, hist, quit }
    }
}

impl Drop for TracedHandler {
    fn drop(&mut self) {
        self.samples.end_session(&self.shell);
        let samples = std::mem::take(&mut self.samples);
        let tr = std::mem::replace(&mut self.tr, Tracer::new(Instant::now()));
        if let Ok(mut sink) = self.sink.lock() {
            sink.0.merge(samples);
            sink.1.absorb(tr);
        }
    }
}

struct Phase {
    logs: Vec<ClientLog>,
    wall_s: f64,
}

/// Serve `pool` and run the clients for `length`; returns their logs.
fn serve_phase(
    cfg: &Config,
    server: &Server,
    factory: &(dyn Fn(u64) -> Box<dyn Handler> + Sync),
    scripts: &[(Vec<String>, Vec<String>)],
    length: Duration,
    noop_probes: usize,
) -> Phase {
    let addr = server.local_addr().expect("bound address");
    let stop = server.shutdown_handle();
    let start = Instant::now();
    let deadline = start + length;
    let mut logs = Vec::new();
    let mut wall_s = 0.0;
    std::thread::scope(|scope| {
        let srv = scope.spawn(|| server.run(factory));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| scope.spawn(move || client(cfg, c, addr, scripts, deadline, noop_probes)))
            .collect();
        logs = clients
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        wall_s = start.elapsed().as_secs_f64();
        stop.shutdown();
        srv.join().expect("server thread").expect("server run");
    });
    Phase { logs, wall_s }
}

fn bind() -> Server {
    let config = ServerConfig {
        max_conns: clio_relational::exec::threads(),
        ..ServerConfig::default()
    };
    Server::bind(("127.0.0.1", 0), config).expect("bind a loopback port")
}

pub fn run(cfg: &Config) -> Outcome {
    let w = generate(&SyntheticSpec {
        topology: Topology::Star,
        relations: 5,
        rows: if cfg.tiny { 50 } else { 5000 },
        match_rate: 0.8,
        payload_attrs: 1,
        seed: cfg.seed,
    });
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e7e);
    let templates: Vec<Vec<String>> = (0..SCRIPTS).map(|k| template(k, &mut rng)).collect();

    // Set-up: the shared pool (value index included) and the listener.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let db = w.db.clone();
        let t0 = Instant::now();
        let store = Arc::new(MemStore::new()) as Arc<dyn CacheStore>;
        let pool = SessionPool::new(db, w.target.clone()).with_store(store);
        let server = bind();
        setup.push(t0.elapsed().as_secs_f64());
        built = Some((pool, server));
    }
    let (pool, server) = built.expect("at least one set-up");

    // Oracle (untimed): each script replayed on a local shell over a
    // pool of its own, so the served pool's store starts cold.
    let local = SessionPool::new(w.db.clone(), w.target.clone());
    let scripts: Vec<(Vec<String>, Vec<String>)> = templates
        .into_iter()
        .map(|lines| {
            let steps: Vec<Step> = lines.iter().map(|l| Step::Cmd(l.clone())).collect();
            let (_, outputs) = script::resolve(&mut Shell::new(spawn(&local, &w)), &steps);
            (lines, outputs)
        })
        .collect();
    drop(local);

    let phase = phase(cfg);
    let plain = |_conn: u64| -> Box<dyn Handler> {
        Box::new(ShellHandler::new(Shell::new(spawn(&pool, &w))))
    };
    let untraced = serve_phase(cfg, &server, &plain, &scripts, phase, 0);
    let logs = &untraced.logs;
    let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l).iter().copied()).collect()
    };
    let rtt = all(|l| &l.rtt_ms);
    let target_ms = all(|l| &l.target_ms);
    let session_s = all(|l| &l.session_s);
    let mut attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();

    let mut metrics = Metrics::default();
    if !cfg.trace {
        metrics.set("setup_s", median(&setup), "s");
        metrics.set("qm_p50_ms", median(&target_ms), "ms");
        metrics.set("qm_tail_ms", stats::tail(&target_ms).1, "ms");
        metrics.set("session_p50_s", median(&session_s), "s");
        metrics.set("op_tail_ms", stats::tail(&rtt).1, "ms");
        metrics.set("req_per_s", rtt.len() as f64 / untraced.wall_s, "1/s");
        metrics.set("peak_rss_mb", stats::peak_rss_mb(), "MB");
        eprintln!(
            "serve-star: {} sessions, {} requests (tail p{}), {} target (tail p{})",
            session_s.len(),
            rtt.len(),
            stats::tail_percentile(rtt.len()),
            target_ms.len(),
            stats::tail_percentile(target_ms.len())
        );
        return Outcome {
            metrics,
            attempted,
            failed,
        };
    }

    // Traced phase: a fresh listener and pool so the store starts cold
    // again, handlers that time and decompose every request, and three
    // blank-line round trips at the start of each session.
    let program = layers::ProgramTrace::start();
    let epoch = Instant::now();
    let sink = Arc::new(Mutex::new((Samples::default(), Tracer::new(epoch))));
    let store = Arc::new(MemStore::new()) as Arc<dyn CacheStore>;
    let pool = SessionPool::new(w.db.clone(), w.target.clone()).with_store(store);
    let spawn_ms = Mutex::new(Vec::new());
    let traced = |_conn: u64| -> Box<dyn Handler> {
        let t0 = Instant::now();
        let shell = Shell::new(spawn(&pool, &w));
        if let Ok(mut v) = spawn_ms.lock() {
            v.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        Box::new(TracedHandler {
            shell,
            samples: Samples::default(),
            tr: Tracer::new(epoch),
            sink: Arc::clone(&sink),
        })
    };
    let server = bind();
    let run = serve_phase(cfg, &server, &traced, &scripts, phase, 3);
    attempted += run.logs.iter().map(|l| l.attempted).sum::<u64>();
    failed += run.logs.iter().map(|l| l.failed).sum::<u64>();
    let (mut samples, tr) = std::mem::replace(
        &mut *sink.lock().expect("handlers finished"),
        (Samples::default(), Tracer::new(epoch)),
    );
    samples.spawn_ms = spawn_ms.into_inner().expect("factory finished");
    program.finish(&mut metrics, &samples, &w.db);

    let logs = &run.logs;
    let traced_rtt: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.rtt_ms.iter().chain(&l.noop_ms).copied())
        .collect();
    let noop: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.noop_ms.iter().copied())
        .collect();
    let bytes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.response_bytes.iter().copied())
        .collect();
    let traced_sessions: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.session_s.iter().copied())
        .collect();
    let handler_total: f64 = samples.handler_ms.iter().sum();
    metrics.set("net.handler_ms", median(&samples.handler_ms), "ms");
    metrics.set(
        "net.overhead_ms",
        (traced_rtt.iter().sum::<f64>() - handler_total) / traced_rtt.len().max(1) as f64,
        "ms",
    );
    metrics.set("net.rtt_noop_ms", median(&noop), "ms");
    let largest = logs
        .iter()
        .map(|l| l.largest.as_str())
        .max_by_key(|s| s.len())
        .unwrap_or("");
    metrics.set("net.frame_codec_us", frame_codec_us(largest), "us");
    metrics.set(
        "net.response_bytes",
        bytes.iter().sum::<f64>() / bytes.len().max(1) as f64,
        "bytes",
    );
    metrics.set(
        "obs.trace_overhead_frac",
        median(&traced_sessions) / median(&session_s) - 1.0,
        "ratio",
    );
    layers::write_spans(&tr, "serve-star", cfg.seed);
    Outcome {
        metrics: layers::complete(&metrics),
        attempted,
        failed,
    }
}

/// Median time to write and read back `payload` as one frame through
/// an in-memory buffer.
fn frame_codec_us(payload: &str) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut buf = Vec::with_capacity(payload.len() + 5);
            write_frame(&mut buf, payload).expect("in-memory write");
            let back = read_frame(&mut buf.as_slice(), MAX_RESPONSE).expect("in-memory read");
            std::hint::black_box(back);
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}
