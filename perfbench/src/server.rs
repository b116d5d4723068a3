//! Server processes: the benchmark re-executes itself with `--serve
//! <role>` so the servers under test run in child processes whose
//! costs can be read from `/proc/<pid>`.
//!
//! Control protocol, one line each way over the child's stdin/stdout:
//! the child announces `ADDR <addr>` once bound and `READY` once set
//! up, answers `stats` with `STATS key=value ...`, starts sampling
//! reactor gauges on `window` (traced children only), stops keeping its
//! fleet alive on `handoff` (answering `HANDED <next node index>`),
//! writes its trace on `dump <path>`, and exits when its stdin closes.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use armada_live::{LiveManager, LiveManagerConfig, LiveNode, LiveNodeConfig, NodeConfig};
use armada_trace::{MemorySink, Severity, Tracer};
use armada_types::{HardwareProfile, NodeClass};
use armada_wire::{read_response, write_request, Codec, Request, Response, WireNodeStatus};

use crate::procfs::{self, ProcSample};
use crate::{alloc, fleet};

/// Period of the live_discover shards' full-registry sync pushes.
pub const SYNC_PERIOD: Duration = Duration::from_millis(500);
/// Live nodes in the live_session cluster.
pub const SESSION_NODES: usize = 8;
/// Base frame time of the live_session nodes, ms.
pub const SESSION_FRAME_MS: f64 = 0.05;
/// Longest a child may take to come up before it gives up.
const READY_DEADLINE: Duration = Duration::from_secs(60);
/// How often a shard's keep-alive sends its next batch of heartbeats.
const KEEPALIVE_TICK: Duration = Duration::from_millis(10);

/// How often a live node heartbeats its manager: the default of
/// `LiveNodeConfig`, which both shards' fleets are driven at.
pub fn heartbeat_period() -> Duration {
    LiveNodeConfig::default().heartbeat_period
}

// ---------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------

/// A running server child.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    out: BufReader<ChildStdout>,
}

impl ServerChild {
    /// Starts `--serve <args...>` of this same binary.
    pub fn spawn(args: &[String]) -> io::Result<ServerChild> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--serve")
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let out = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(ServerChild { child, stdin, out })
    }

    /// Reads the next control line, which must start with `tag`;
    /// returns the rest of it.
    pub fn expect(&mut self, tag: &str) -> io::Result<String> {
        let mut line = String::new();
        if self.out.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("server child exited before {tag}"),
            ));
        }
        line.trim_end()
            .strip_prefix(tag)
            .map(|rest| rest.trim().to_string())
            .ok_or_else(|| io::Error::other(format!("expected {tag}, got {line:?}")))
    }

    pub fn addr(&mut self) -> io::Result<SocketAddr> {
        self.expect("ADDR")?
            .parse()
            .map_err(|e| io::Error::other(format!("bad ADDR: {e}")))
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        writeln!(stdin, "{line}")?;
        stdin.flush()
    }

    /// The child's counters (see [`serve`] for the keys).
    pub fn stats(&mut self) -> io::Result<HashMap<String, f64>> {
        self.send("stats")?;
        Ok(self
            .expect("STATS")?
            .split_whitespace()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }

    pub fn proc(&self) -> ProcSample {
        procfs::sample(&self.child.id().to_string()).unwrap_or_default()
    }

    /// Closes the child's stdin and waits for it to exit, killing it
    /// if it has not within five seconds.
    pub fn finish(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads counter `key` of a `STATS` map (0 when absent).
pub fn stat(stats: &HashMap<String, f64>, key: &str) -> f64 {
    stats.get(key).copied().unwrap_or(0.0)
}

// ---------------------------------------------------------------------
// Child side
// ---------------------------------------------------------------------

/// Runs one server role until stdin closes. `args` are the words after
/// `--serve`: the role, then `--key value` options.
pub fn serve(args: &[String]) -> io::Result<()> {
    let opt = |key: &str| {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let seed: u64 = opt("--seed").and_then(|s| s.parse().ok()).unwrap_or(0);
    let traced = opt("--trace").as_deref() == Some("1");
    if traced {
        alloc::enable();
    }
    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let tracer = if traced {
        Tracer::with_sink(Box::new(sink), Severity::Debug)
    } else {
        Tracer::disabled()
    };
    let mut ctl = Control {
        traced,
        buffer,
        out: io::stdout(),
        keepalive: None,
    };
    match args.first().map(String::as_str) {
        Some("shard") => {
            let shard: u64 = opt("--shard").and_then(|s| s.parse().ok()).unwrap_or(0);
            serve_shard(shard, seed, tracer, &mut ctl)
        }
        Some("manager") => {
            let (manager, addr) = LiveManager::bind_with(manager_config(), 0, tracer)?;
            ctl.say(&format!("ADDR {addr}"))?;
            ctl.say("READY")?;
            ctl.run(Some(&manager), &[])
        }
        Some("nodes") => {
            let manager: SocketAddr = opt("--manager")
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| io::Error::other("nodes need --manager"))?;
            let nodes = bind_session_nodes(seed, manager, &tracer)?;
            ctl.say("READY")?;
            ctl.run(None, &nodes)
        }
        other => Err(io::Error::other(format!("unknown server role {other:?}"))),
    }
}

/// Every manager the benchmark starts: the program's defaults (among
/// them the 6 s liveness window) on one reactor thread.
fn manager_config() -> LiveManagerConfig {
    LiveManagerConfig {
        threads: 1,
        ..LiveManagerConfig::default()
    }
}

/// One live_discover shard: bind, learn the peer, register the shard's
/// fleet over loopback, keep it alive from then on, start the sync
/// schedule and report `READY` once the peer's whole fleet has arrived
/// (alive, so the peer's keep-alive is running too).
fn serve_shard(shard: u64, seed: u64, tracer: Tracer, ctl: &mut Control) -> io::Result<()> {
    let (mut manager, addr) = LiveManager::bind_with(manager_config(), shard, tracer)?;
    ctl.say(&format!("ADDR {addr}"))?;
    let mut line = String::new();
    io::stdin().lock().read_line(&mut line)?;
    let peer: SocketAddr = line
        .trim()
        .strip_prefix("peer ")
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| io::Error::other(format!("expected peer, got {line:?}")))?;

    let mut link = TcpStream::connect(addr)?;
    link.set_nodelay(true)?;
    let mut statuses = Vec::with_capacity(fleet::FLEET);
    for (status, listen_addr) in fleet::fleet(seed, shard) {
        statuses.push(status.clone());
        write_request(
            &mut link,
            Codec::Binary,
            &Request::Register {
                status,
                listen_addr,
            },
        )?;
        match read_response(&mut link).map_err(io::Error::from)?.0 {
            Response::Registered => {}
            other => return Err(io::Error::other(format!("register: {other:?}"))),
        }
    }
    ctl.keepalive = Some(Keepalive::start(link, statuses));
    manager.start_sync(vec![peer], SYNC_PERIOD);

    let deadline = Instant::now() + READY_DEADLINE;
    while manager.synced_count() < fleet::FLEET {
        if Instant::now() > deadline {
            return Err(io::Error::other(format!(
                "peer fleet not synced: {} of {}",
                manager.synced_count(),
                fleet::FLEET
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    ctl.say("READY")?;
    ctl.run(Some(&manager), &[])
}

/// Keeps a shard's registered fleet alive the way its nodes would:
/// every node's status is re-sent once per [`heartbeat_period`], in
/// registration order, a batch every [`KEEPALIVE_TICK`] over the link
/// the fleet registered through. Shard 1's fleet is kept alive so for
/// the whole run. Shard 0's is until the driver takes its heartbeats
/// over (`handoff`).
struct Keepalive {
    stop: Arc<AtomicBool>,
    /// Index of the node whose heartbeat is due next.
    next: Arc<AtomicUsize>,
    thread: JoinHandle<io::Result<()>>,
}

impl Keepalive {
    fn start(link: TcpStream, statuses: Vec<WireNodeStatus>) -> Keepalive {
        let stop = Arc::new(AtomicBool::new(false));
        let next = Arc::new(AtomicUsize::new(0));
        let (stop2, next2) = (Arc::clone(&stop), Arc::clone(&next));
        let thread = std::thread::spawn(move || {
            let result = keep_alive(link, &statuses, &stop2, &next2);
            if let Err(e) = &result {
                eprintln!("keep-alive stopped: {e}");
            }
            result
        });
        Keepalive { stop, next, thread }
    }

    /// Stops sending once the batch in flight is acknowledged; returns
    /// the index of the node due next.
    fn stop(self) -> io::Result<usize> {
        self.stop.store(true, Ordering::Relaxed);
        self.thread
            .join()
            .map_err(|_| io::Error::other("keep-alive panicked"))??;
        Ok(self.next.load(Ordering::Relaxed))
    }
}

fn keep_alive(
    mut link: TcpStream,
    statuses: &[WireNodeStatus],
    stop: &AtomicBool,
    next: &AtomicUsize,
) -> io::Result<()> {
    let ticks = (heartbeat_period().as_secs_f64() / KEEPALIVE_TICK.as_secs_f64()).round();
    let batch = statuses.len().div_ceil(ticks.max(1.0) as usize);
    let mut due = Instant::now();
    let mut i = 0;
    let mut frames = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        frames.clear();
        for k in 0..batch {
            let status = statuses[(i + k) % statuses.len()].clone();
            write_request(&mut frames, Codec::Binary, &Request::Heartbeat { status })?;
        }
        link.write_all(&frames)?;
        for _ in 0..batch {
            match read_response(&mut link).map_err(io::Error::from)?.0 {
                Response::HeartbeatAck => {}
                other => return Err(io::Error::other(format!("heartbeat: {other:?}"))),
            }
        }
        i = (i + batch) % statuses.len();
        next.store(i, Ordering::Relaxed);
        due += KEEPALIVE_TICK;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
    }
    Ok(())
}

/// The live_session nodes: a tiny frame cost and no injected delay, so
/// per-RPC costs are not hidden behind simulated compute.
fn bind_session_nodes(
    seed: u64,
    manager: SocketAddr,
    tracer: &Tracer,
) -> io::Result<Vec<LiveNode>> {
    let mut rng = fleet::Rng::new(seed, 0x5E55_1001);
    (0..SESSION_NODES)
        .map(|i| {
            let cfg = NodeConfig {
                id: i as u64,
                class: NodeClass::Volunteer,
                hw: HardwareProfile::new("bench tiny frame", 4, SESSION_FRAME_MS)
                    .with_concurrency(2),
                location: rng.metro_point(),
                one_way_delay: Duration::ZERO,
            };
            LiveNode::bind_with(
                cfg,
                LiveNodeConfig::default(),
                Some(manager),
                tracer.clone(),
            )
            .map(|(node, _)| node)
        })
        .collect()
}

/// The child's end of the control channel.
struct Control {
    traced: bool,
    buffer: Arc<Mutex<String>>,
    out: io::Stdout,
    keepalive: Option<Keepalive>,
}

impl Control {
    fn say(&mut self, line: &str) -> io::Result<()> {
        let mut out = self.out.lock();
        writeln!(out, "{line}")?;
        out.flush()
    }

    /// Serves control commands until stdin closes. A traced child
    /// samples the manager's reactor gauges every millisecond once
    /// `window` arrives.
    fn run(&mut self, manager: Option<&LiveManager>, nodes: &[LiveNode]) -> io::Result<()> {
        let sampling = AtomicBool::new(false);
        let done = AtomicBool::new(false);
        let conns_max = AtomicU64::new(0);
        let buffered_max = AtomicU64::new(0);
        std::thread::scope(|scope| {
            if let (true, Some(m)) = (self.traced, manager) {
                scope.spawn(|| {
                    while !done.load(Ordering::Relaxed) {
                        if sampling.load(Ordering::Relaxed) {
                            conns_max.fetch_max(m.active_conns() as u64, Ordering::Relaxed);
                            buffered_max
                                .fetch_max(m.buffered_write_bytes() as u64, Ordering::Relaxed);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                });
            }
            let result = (|| {
                for line in io::stdin().lock().lines() {
                    let line = line?;
                    let mut words = line.split_whitespace();
                    match words.next() {
                        Some("stats") => {
                            let mut kv = vec![("allocs", alloc::count() as f64)];
                            if let Some(m) = manager {
                                kv.extend([
                                    ("discoveries", m.discoveries_served() as f64),
                                    ("shed", m.shed_count() as f64),
                                    ("synced", m.synced_count() as f64),
                                    ("syncs_applied", m.syncs_applied() as f64),
                                    ("alive", m.alive_count() as f64),
                                    ("conns_max", conns_max.load(Ordering::Relaxed) as f64),
                                    ("buffered_max", buffered_max.load(Ordering::Relaxed) as f64),
                                ]);
                            }
                            let sum = |f: fn(&LiveNode) -> u64| nodes.iter().map(f).sum::<u64>();
                            if !nodes.is_empty() {
                                kv.extend([
                                    ("frames", sum(LiveNode::frames_processed) as f64),
                                    ("busy", sum(LiveNode::busy_count) as f64),
                                    ("tests", sum(LiveNode::test_invocations) as f64),
                                ]);
                            }
                            let body: Vec<String> =
                                kv.iter().map(|(k, v)| format!("{k}={v}")).collect();
                            self.say(&format!("STATS {}", body.join(" ")))?;
                        }
                        Some("window") => {
                            conns_max.store(0, Ordering::Relaxed);
                            buffered_max.store(0, Ordering::Relaxed);
                            sampling.store(true, Ordering::Relaxed);
                        }
                        Some("handoff") => {
                            let next = match self.keepalive.take() {
                                Some(k) => k.stop()?,
                                None => 0,
                            };
                            self.say(&format!("HANDED {next}"))?;
                        }
                        Some("dump") => {
                            if let Some(path) = words.next() {
                                let text = self.buffer.lock().expect("trace buffer").clone();
                                std::fs::write(path, text)?;
                            }
                            self.say("DUMPED")?;
                        }
                        _ => {}
                    }
                }
                Ok(())
            })();
            done.store(true, Ordering::Relaxed);
            if let Some(k) = self.keepalive.take() {
                k.stop()?;
            }
            result
        })
    }
}
