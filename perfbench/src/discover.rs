//! `live_discover`: two peered `LiveManager` shards with 10k registered
//! nodes each. Shard 0 is offered discoveries and its whole fleet's
//! heartbeats in open loops, then a closed-loop phase measures peak
//! discovery throughput while the heartbeats go on.
//!
//! Output checks: every reply carries exactly `TOP_N` distinct
//! registered ids; afterwards, with status changes stopped and each of
//! shard 0's nodes' last status acknowledged, seeded discoveries must
//! equal [`oracle_rank`] over the last statuses the benchmark sent plus
//! the peer's synced fleet; both fleets must still be alive; the shard
//! must have counted every discovery issued.

use std::collections::{HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use armada_types::GeoPoint;
use armada_wire::{Codec, Request, Response, WireNodeStatus, WireSummary};

use crate::fleet::{self, Rng, FLEET};
use crate::procfs::ProcSample;
use crate::report::Report;
use crate::rpc::{Conn, Pipe, FAILED_US, RPC_TIMEOUT};
use crate::server::{heartbeat_period, stat, ServerChild, SYNC_PERIOD};
use crate::spans::{self, SpanLog};
use crate::stats::{median, percentile, quiet_rate};
use crate::Args;

/// Candidate-list size every discovery asks for.
pub const TOP_N: usize = 3;
/// Share of the measured window spent in the closed-loop peak phase.
const PEAK_SHARE: f64 = 0.2;
/// Discoveries kept in flight in the closed-loop phase, so the shard
/// never idles while the driver wakes up.
const PIPELINE: usize = 2;
/// Width of the windows the peak rate is taken over.
const PEAK_WINDOW_S: f64 = 0.5;
/// Seeded discoveries checked against the oracle after the window.
const ORACLE_QUERIES: usize = 100;
/// How long before a due time the generator stops sleeping and yields.
const YIELD_WINDOW: Duration = Duration::from_micros(100);
/// Longest the heartbeat loop sleeps between looks at its connection.
/// The kernel's timer slack (about 50 µs) lengthens every sleep, so a
/// send or the sight of a reply can be that late; in exchange the loop
/// leaves the cores to the servers instead of spinning on one.
const NAP: Duration = Duration::from_micros(1);
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Heartbeat periods the keep-alive phase may take to have every node's
/// last status acknowledged before the oracle check is given up.
const CONFIRM_PERIODS: u32 = 3;

/// Heartbeats offered to shard 0 per second: its whole fleet, each node
/// once per live node heartbeat period (10 000 nodes / 2 s = 5 000/s).
fn heartbeat_rate() -> f64 {
    FLEET as f64 / heartbeat_period().as_secs_f64()
}

/// Discoveries offered to shard 0 per second: sim_metro's arrivals (a
/// user every 10 ms, 100/s over the metro) split over the two shards.
fn discover_rate() -> f64 {
    1e6 / crate::sim::JOIN_EVERY.as_micros() as f64 / 2.0
}

/// Share of heartbeats that carry a change: each discovered user joins
/// a node and later leaves it, two load changes per discovery
/// (100/s of 5 000/s). Half of the changes move the node instead. The
/// manager applies a heartbeat the same way whatever changed, so the
/// split matters only to the oracle, which then checks both ranking
/// inputs.
fn change_share() -> f64 {
    2.0 * discover_rate() / heartbeat_rate()
}

/// The ranking the live manager promises: ascending
/// `10·load + 0.2·km`, ties broken by id, over own registrations plus
/// synced peer summaries (own wins on an id clash), first `top_n`.
pub fn oracle_rank(
    own: &[WireNodeStatus],
    synced: &[WireNodeStatus],
    user: GeoPoint,
    top_n: usize,
) -> Vec<u64> {
    let own_ids: HashSet<u64> = own.iter().map(|s| s.id).collect();
    let mut scored: Vec<(f64, u64)> = own
        .iter()
        .chain(synced.iter().filter(|s| !own_ids.contains(&s.id)))
        .map(|s| {
            (
                10.0 * s.load_score + 0.2 * user.distance_km(s.location),
                s.id,
            )
        })
        .collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    scored.into_iter().take(top_n).map(|(_, id)| id).collect()
}

fn registered(id: u64) -> bool {
    (0..2).any(|shard| (fleet::node_id(shard, 0)..fleet::node_id(shard, FLEET)).contains(&id))
}

/// A reply problem, if the candidate list is not `TOP_N` distinct
/// registered ids.
fn check_candidates(nodes: &[(u64, String)]) -> Option<String> {
    let ids: HashSet<u64> = nodes.iter().map(|(id, _)| *id).collect();
    if nodes.len() != TOP_N || ids.len() != TOP_N || !ids.iter().all(|id| registered(*id)) {
        Some(format!(
            "discover reply is not {TOP_N} distinct registered ids: {nodes:?}"
        ))
    } else {
        None
    }
}

/// Why an operation failed; `problem` is set when the output itself
/// was wrong (which also fails the run).
struct Failure {
    problem: Option<String>,
}

impl Failure {
    fn transport() -> Failure {
        Failure { problem: None }
    }
}

fn discover_request(user: u64, at: GeoPoint) -> Request {
    Request::Discover {
        user,
        lat: at.lat(),
        lon: at.lon(),
        top_n: TOP_N,
    }
}

/// The ids of a well-formed discovery reply.
fn judge(reply: io::Result<Response>) -> Result<Vec<u64>, Failure> {
    match reply {
        Ok(Response::Candidates { nodes }) => match check_candidates(&nodes) {
            None => Ok(nodes.into_iter().map(|(id, _)| id).collect()),
            Some(problem) => Err(Failure {
                problem: Some(problem),
            }),
        },
        Ok(Response::Busy { .. }) | Err(_) => Err(Failure::transport()),
        Ok(other) => Err(Failure {
            problem: Some(format!("discover answered {other:?}")),
        }),
    }
}

fn discover_once(
    conn: &mut Conn,
    user: u64,
    at: GeoPoint,
    spans: Option<(&mut SpanLog, &'static str, u64)>,
) -> Result<Vec<u64>, Failure> {
    let reply = conn.call(&discover_request(user, at), spans);
    if reply.is_err() {
        let _ = conn.reopen();
    }
    judge(reply)
}

/// Latencies of one request stream.
#[derive(Default)]
struct Stream {
    /// From when each request was due in an open loop, for the whole
    /// exchange in a closed loop.
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Stream {
    /// Records one operation that took `since` until now (or failed).
    fn settle(&mut self, since: Instant, outcome: Result<(), Failure>) {
        self.attempted += 1;
        match outcome {
            Ok(()) => self.latency_us.push(since.elapsed().as_secs_f64() * 1e6),
            Err(f) => {
                self.failed += 1;
                self.latency_us.push(FAILED_US);
                self.problems.extend(f.problem);
            }
        }
    }

    fn p50(&self) -> f64 {
        median(&self.latency_us).unwrap_or(f64::NAN)
    }
}

/// Offers `op` as a Poisson process of `rate` from `start` to `end`.
/// Latency is timed from when each request was due, so a stall also
/// charges the requests queued behind it; `late_us` records how far
/// behind schedule each send went out.
fn open_loop(
    rate: f64,
    rng: &mut Rng,
    start: Instant,
    end: Instant,
    mut op: impl FnMut(u64) -> Result<(), Failure>,
) -> Stream {
    let mut out = Stream::default();
    let mut due = start + Duration::from_secs_f64(rng.exp_gap(rate));
    let mut i = 0u64;
    while due < end {
        pace_until(due);
        out.late_us
            .push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let outcome = op(i);
        out.settle(due, outcome);
        i += 1;
        due += Duration::from_secs_f64(rng.exp_gap(rate));
    }
    out
}

/// Waits for `due`: sleeps until shortly before it, then yields, so
/// timer slack does not make every request late. Yielding rather than
/// spinning leaves the core to the servers when they need it.
fn pace_until(due: Instant) {
    let now = Instant::now();
    if due > now + YIELD_WINDOW {
        std::thread::sleep(due - now - YIELD_WINDOW);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Discovers on one connection from `start` until `end`, keeping
/// [`PIPELINE`] requests in flight so the server never idles while the
/// driver wakes up; `done_s` holds each success's completion time.
fn closed_loop(
    conn: &mut Conn,
    rng: &mut Rng,
    first_user: u64,
    start: Instant,
    end: Instant,
) -> (Stream, Vec<f64>) {
    let mut out = Stream::default();
    let mut done_s = Vec::new();
    let mut user = first_user;
    let mut in_flight: VecDeque<Instant> = VecDeque::new();
    loop {
        while in_flight.len() < PIPELINE && Instant::now() < end {
            in_flight.push_back(Instant::now());
            let sent = conn.send(&discover_request(user, rng.metro_point()));
            user += 1;
            if sent.is_err() {
                break;
            }
        }
        let Some(sent) = in_flight.pop_front() else {
            break;
        };
        let reply = conn.recv();
        let broken = reply.is_err();
        let outcome = judge(reply).map(|_| ());
        if outcome.is_ok() {
            done_s.push(start.elapsed().as_secs_f64());
        }
        out.settle(sent, outcome);
        if broken {
            // Every reply still owed on the dead link is lost with it.
            for sent in in_flight.drain(..) {
                out.settle(sent, Err(Failure::transport()));
            }
            if conn.reopen().is_err() {
                break;
            }
        }
    }
    (out, done_s)
}

struct Cluster {
    shard0: ServerChild,
    shard1: ServerChild,
    addr: SocketAddr,
}

impl Cluster {
    fn up(seed: u64, traced: bool) -> io::Result<Cluster> {
        let args = |shard: u64| -> Vec<String> {
            let t = if traced { "1" } else { "0" };
            [
                "shard",
                "--shard",
                &shard.to_string(),
                "--seed",
                &seed.to_string(),
                "--trace",
                t,
            ]
            .map(String::from)
            .to_vec()
        };
        let mut shard0 = ServerChild::spawn(&args(0))?;
        let mut shard1 = ServerChild::spawn(&args(1))?;
        let addr = shard0.addr()?;
        let peer = shard1.addr()?;
        shard0.send(&format!("peer {peer}"))?;
        shard1.send(&format!("peer {addr}"))?;
        shard0.expect("READY")?;
        shard1.expect("READY")?;
        Ok(Cluster {
            shard0,
            shard1,
            addr,
        })
    }
}

/// One heartbeat awaiting its reply.
struct InFlight {
    due: Instant,
    sent: Instant,
    op: u64,
    node: usize,
}

/// What the heartbeat thread measured.
#[derive(Default)]
struct Heartbeats {
    /// Heartbeats due in the open-loop phase, timed.
    open: Stream,
    /// Heartbeats of the peak and keep-alive phases, counted only.
    rest: Stream,
}

/// Shard 0's fleet, heartbeating as its live nodes would: Poisson
/// arrivals at [`heartbeat_rate`], node after node in registration
/// order from `first`, so every node is refreshed about once per
/// heartbeat period. Replies are taken as they come, so heartbeats
/// pipeline on the one connection.
struct HeartbeatLoop<'a> {
    pipe: Pipe,
    /// The oracle's model of shard 0's registry: every status sent.
    own: &'a mut [WireNodeStatus],
    first: usize,
    seed: u64,
    start: Instant,
    open_end: Instant,
    /// End of the window: later heartbeats only repeat the last status.
    end: Instant,
    log: Option<&'a mut SpanLog>,
}

impl HeartbeatLoop<'_> {
    /// Runs until `stop`. Until `end`, a [`change_share`] of the
    /// heartbeats move their node or change its load. Once every node
    /// has had a heartbeat after `end` acknowledged, `frozen` receives
    /// the model (or `None` when that takes longer than
    /// [`CONFIRM_PERIODS`] heartbeat periods). On `stop`, waits for the
    /// replies still owed.
    fn run(
        mut self,
        frozen: mpsc::Sender<Option<Vec<WireNodeStatus>>>,
        stop: &AtomicBool,
    ) -> Heartbeats {
        let rate = heartbeat_rate();
        let change = change_share();
        let mut arrivals = Rng::new(self.seed, 0x4EA7_0002);
        let mut changes = Rng::new(self.seed, 0x4EA7_0001);
        let mut out = Heartbeats::default();
        let mut in_flight: VecDeque<InFlight> = VecDeque::new();
        let mut confirmed = vec![false; FLEET];
        let mut unconfirmed = FLEET;
        let mut frozen = Some(frozen);
        let give_up = self.end + heartbeat_period() * CONFIRM_PERIODS;
        let mut due = self.start + Duration::from_secs_f64(arrivals.exp_gap(rate));
        let mut op = 0u64;
        loop {
            // Replies that have arrived, oldest request first.
            let mut broken = false;
            loop {
                match self.pipe.try_recv() {
                    Ok(None) => break,
                    Ok(Some(reply)) => {
                        let Some(f) = in_flight.pop_front() else {
                            broken = true;
                            break;
                        };
                        let outcome = match reply {
                            Response::HeartbeatAck => Ok(()),
                            other => Err(Failure {
                                problem: Some(format!("heartbeat answered {other:?}")),
                            }),
                        };
                        if outcome.is_ok() && f.due >= self.end && !confirmed[f.node] {
                            confirmed[f.node] = true;
                            unconfirmed -= 1;
                        }
                        if let Some(log) = self.log.as_deref_mut() {
                            log.record("heartbeat", "rpc", f.op, f.sent, Instant::now());
                        }
                        self.settle(&mut out, &f, outcome);
                    }
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
            let timed_out = in_flight
                .front()
                .is_some_and(|f| f.sent.elapsed() > RPC_TIMEOUT);
            if broken || timed_out {
                // The replies still owed are lost with the connection.
                for f in in_flight.drain(..) {
                    self.settle(&mut out, &f, Err(Failure::transport()));
                }
                let _ = self.pipe.reopen();
            }

            if let Some(tx) = frozen.take_if(|_| unconfirmed == 0 || Instant::now() > give_up) {
                let _ = tx.send((unconfirmed == 0).then(|| self.own.to_vec()));
            }
            if stop.load(Ordering::Relaxed) {
                if in_flight.is_empty() {
                    return out;
                }
                std::thread::sleep(NAP);
                continue;
            }

            let now = Instant::now();
            if now >= due {
                let node = (self.first + op as usize) % FLEET;
                if due < self.end {
                    let roll = changes.unit();
                    if roll < change / 2.0 {
                        self.own[node].location = changes.metro_point();
                    } else if roll < change {
                        self.own[node].load_score = changes.range(0.0, 1.0);
                    }
                }
                if due < self.open_end {
                    out.open
                        .late_us
                        .push(now.saturating_duration_since(due).as_secs_f64() * 1e6);
                }
                let request = Request::Heartbeat {
                    status: self.own[node].clone(),
                };
                let f = InFlight {
                    due,
                    sent: now,
                    op,
                    node,
                };
                match self.pipe.send(&request) {
                    Ok(()) => {
                        if let Some(log) = self.log.as_deref_mut() {
                            log.record("send", "heartbeat", op, now, Instant::now());
                        }
                        in_flight.push_back(f);
                    }
                    Err(_) => {
                        for f in in_flight.drain(..).chain([f]) {
                            self.settle(&mut out, &f, Err(Failure::transport()));
                        }
                        let _ = self.pipe.reopen();
                    }
                }
                op += 1;
                due += Duration::from_secs_f64(arrivals.exp_gap(rate));
            } else {
                std::thread::sleep((due - now).min(NAP));
            }
        }
    }

    fn settle(&self, out: &mut Heartbeats, f: &InFlight, outcome: Result<(), Failure>) {
        let stream = if f.due < self.open_end {
            &mut out.open
        } else {
            &mut out.rest
        };
        stream.settle(f.due, outcome);
    }
}

/// Everything one pass measured.
#[derive(Default)]
struct Pass {
    setups_s: Vec<f64>,
    discover: Stream,
    heartbeat: Heartbeats,
    peak: Stream,
    peak_qps: f64,
    oracle: Stream,
    floor_us: Vec<f64>,
    oracle_us: Vec<f64>,
    /// Time between the `before` and `after` counters.
    window_s: f64,
    /// Shard 0's process growth over the window.
    shard0: ProcSample,
    peak_rss_kb: u64,
    before: std::collections::HashMap<String, f64>,
    after: std::collections::HashMap<String, f64>,
    issued: u64,
    spans: Vec<SpanLog>,
}

fn pass(args: &Args, seconds: f64, traced: bool, setup_reps: usize) -> io::Result<Pass> {
    let seed = args.seed;
    let mut p = Pass::default();
    let mut cluster = None;
    for _ in 0..setup_reps {
        drop(cluster.take());
        let started = Instant::now();
        cluster = Some(Cluster::up(seed, traced)?);
        p.setups_s.push(started.elapsed().as_secs_f64());
    }
    let mut c = cluster.expect("at least one set-up");
    let mut conn = Conn::open(c.addr)?;
    let pipe = Pipe::open(c.addr)?;

    // The model of shard 0's registry the oracle ranks from: updated
    // with every status a heartbeat sends.
    let mut own: Vec<WireNodeStatus> = fleet::fleet(seed, 0).into_iter().map(|(s, _)| s).collect();
    let synced: Vec<WireNodeStatus> = fleet::fleet(seed, 1).into_iter().map(|(s, _)| s).collect();

    let origin = Instant::now();
    let mut log_d = SpanLog::new(origin, "discover");
    let mut log_h = SpanLog::new(origin, "heartbeat");
    if traced {
        c.shard0.send("window")?;
    }
    p.before = c.shard0.stats()?;
    let counted_from = Instant::now();
    // The driver takes shard 0's heartbeats over from the shard's own
    // keep-alive, at the node due next.
    c.shard0.send("handoff")?;
    let first: usize = c
        .shard0
        .expect("HANDED")?
        .parse()
        .map_err(|e| io::Error::other(format!("bad HANDED: {e}")))?;
    let a0 = c.shard0.proc();
    let start = Instant::now() + Duration::from_millis(1);
    let open_end = start + Duration::from_secs_f64(seconds * (1.0 - PEAK_SHARE));
    let end = start + Duration::from_secs_f64(seconds);

    let (tx, rx) = mpsc::channel();
    let stop = AtomicBool::new(false);
    let heartbeats = HeartbeatLoop {
        pipe,
        own: &mut own,
        first,
        seed,
        start,
        open_end,
        end,
        log: traced.then_some(&mut log_h),
    };
    let mut rng_d = Rng::new(seed, 0xD15C_0001);
    let (discover, (peak, done_s, peak_s), checked, heartbeat) = std::thread::scope(|scope| {
        let hb = scope.spawn(|| heartbeats.run(tx, &stop));
        let mut arrivals = Rng::new(seed, 0xD15C_0002);
        let discover = open_loop(discover_rate(), &mut arrivals, start, open_end, |i| {
            let spans = traced.then_some((&mut log_d, "discover", i));
            discover_once(&mut conn, i, rng_d.metro_point(), spans).map(|_| ())
        });
        // Closed-loop peak while the heartbeats go on.
        let peak_start = Instant::now();
        let mut rng = Rng::new(seed, 0x9EA4_0001);
        let (peak, done_s) = closed_loop(&mut conn, &mut rng, 2 << 40, peak_start, end);
        let peak_s = peak_start.elapsed().as_secs_f64();
        let model = rx.recv().ok().flatten();
        // The oracle runs while the keep-alive heartbeats repeat the
        // statuses it ranks from; they stop after it.
        let checked = oracle(&mut conn, model.as_deref(), &synced, seed);
        stop.store(true, Ordering::Relaxed);
        let heartbeat = hb.join().expect("heartbeat loop");
        (discover, (peak, done_s, peak_s), checked, heartbeat)
    });
    p.peak_qps = quiet_rate(&done_s, peak_s, PEAK_WINDOW_S);
    p.shard0 = c.shard0.proc().since(&a0);
    (p.oracle, p.floor_us, p.oracle_us) = checked;
    p.issued = discover.attempted + peak.attempted + p.oracle.attempted;
    p.after = c.shard0.stats()?;
    p.window_s = counted_from.elapsed().as_secs_f64();
    p.peak_rss_kb = c.shard0.proc().peak_rss_kb + c.shard1.proc().peak_rss_kb;
    p.discover = discover;
    p.heartbeat = heartbeat;
    p.peak = peak;
    if traced {
        let base = args.out_path("");
        for (child, name) in [(&mut c.shard0, "shard0"), (&mut c.shard1, "shard1")] {
            child.send(&format!("dump {base}{name}.trace.jsonl"))?;
            child.expect("DUMPED")?;
        }
        p.spans = vec![log_d, log_h];
    }
    c.shard0.finish();
    c.shard1.finish();
    Ok(p)
}

/// Seeded discoveries that must equal the oracle's ranking of `model`
/// (shard 0's registry, every status acknowledged) plus the peer's
/// fleet. Each is paired with a no-work request on the same
/// connection, the floor under every RPC. Returns the oracle stream,
/// the floor and the successful discoveries' latencies, µs. Without a
/// model the check is not made, and that fails it.
fn oracle(
    conn: &mut Conn,
    model: Option<&[WireNodeStatus]>,
    synced: &[WireNodeStatus],
    seed: u64,
) -> (Stream, Vec<f64>, Vec<f64>) {
    let (mut out, mut floor_us, mut oracle_us) = (Stream::default(), Vec::new(), Vec::new());
    let Some(own) = model else {
        out.problems.push(format!(
            "oracle check not made: shard 0 did not acknowledge every node's last status \
             within {CONFIRM_PERIODS} heartbeat periods"
        ));
        return (out, floor_us, oracle_us);
    };
    let mut rng = Rng::new(seed, 0x0AC1_E001);
    for q in 0..ORACLE_QUERIES {
        let at = rng.metro_point();
        let started = Instant::now();
        if conn.call(&Request::RttProbe, None).is_ok() {
            floor_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let started = Instant::now();
        let reply = discover_once(conn, (4 << 40) + q as u64, at, None);
        let took_us = started.elapsed().as_secs_f64() * 1e6;
        let outcome = reply.and_then(|ids| {
            let want = oracle_rank(own, synced, at, TOP_N);
            if ids == want {
                Ok(())
            } else {
                Err(Failure {
                    problem: Some(format!(
                        "oracle query {q} at {at}: manager ranked {ids:?}, oracle {want:?}"
                    )),
                })
            }
        });
        out.attempted += 1;
        match outcome {
            Ok(()) => oracle_us.push(took_us),
            Err(f) => {
                out.failed += 1;
                out.problems.extend(f.problem);
            }
        }
    }
    (out, floor_us, oracle_us)
}

/// Adds one pass's attempts and output checks to the report.
fn account(report: &mut Report, p: &Pass) {
    let streams = [
        &p.discover,
        &p.heartbeat.open,
        &p.heartbeat.rest,
        &p.peak,
        &p.oracle,
    ];
    for s in streams {
        report.attempted += s.attempted;
        report.failed += s.failed;
        for problem in s.problems.iter().take(5) {
            report.check(false, || problem.clone());
        }
    }
    let synced = stat(&p.after, "synced");
    report.check(synced >= FLEET as f64, || {
        format!("shard 0 holds {synced} of the peer's {FLEET} nodes alive")
    });
    let alive = stat(&p.after, "alive");
    report.check(alive >= 2.0 * FLEET as f64, || {
        format!(
            "shard 0 holds {alive} of both shards' {} nodes alive",
            2 * FLEET
        )
    });
    // A discovery lost with a broken link may or may not have reached
    // the shard; every other one must have been served or shed.
    let lost: u64 = [&p.discover, &p.peak, &p.oracle]
        .iter()
        .map(|s| s.failed)
        .sum();
    let counted = stat(&p.after, "discoveries") + stat(&p.after, "shed")
        - stat(&p.before, "discoveries")
        - stat(&p.before, "shed");
    let issued = p.issued as f64;
    report.check(counted <= issued && counted >= issued - lost as f64, || {
        format!("shard 0 served or shed {counted} discoveries, {issued} issued, {lost} lost")
    });
}

pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    if !args.traced {
        let p = pass(args, args.seconds, false, SETUP_REPS)?;
        account(report, &p);
        report.set("setup_s", median(&p.setups_s).unwrap_or(f64::NAN));
        report.set("peak_rss_mb", p.peak_rss_kb as f64 / 1024.0);
        report.set("op_p50_us", p.discover.p50());
        return Ok(());
    }

    // Traced: an untraced half-window pass as the overhead baseline,
    // then the traced pass the per-layer metrics come from.
    let base = pass(args, args.seconds / 2.0, false, 1)?;
    account(report, &base);
    let p = pass(args, args.seconds / 2.0, true, 1)?;
    account(report, &p);

    crate::wire::report_codec(report, args.seed);
    let floor = median(&p.floor_us).unwrap_or(0.0);
    report.set("wire.rpc_floor_us", floor);
    let sync_bytes = sync_frame_bytes(args.seed);
    report.set("wire.sync.frame_kb", sync_bytes as f64 / 1024.0);
    report.set(
        "wire.sync.headroom_kb",
        (armada_reactor::MAX_FRAME_BYTES as f64 - sync_bytes as f64) / 1024.0,
    );

    // Operations shard 0 served in the window.
    let ops = (p.discover.attempted
        + p.heartbeat.open.attempted
        + p.heartbeat.rest.attempted
        + p.peak.attempted)
        .max(1) as f64;
    report.set(
        "reactor.wakeups_per_op",
        p.shard0.voluntary_switches as f64 / ops,
    );
    report.set("reactor.active_conns", stat(&p.after, "conns_max"));
    report.set(
        "reactor.buffered_write_kb_max",
        stat(&p.after, "buffered_max") / 1024.0,
    );

    let delta = |key: &str| stat(&p.after, key) - stat(&p.before, key);
    report.set(
        "live.manager.discover_excess_us",
        median(&p.oracle_us).unwrap_or(0.0) - floor,
    );
    report.set("live.manager.cpu_us_per_op", p.shard0.cpu_s * 1e6 / ops);
    report.set("live.manager.allocs_per_op", delta("allocs") / ops);
    report.set(
        "live.manager.syncs_applied_per_s",
        delta("syncs_applied") / p.window_s,
    );
    report.set("live.manager.discoveries_served", delta("discoveries"));
    report.set("live.manager.shed", delta("shed"));
    report.set("live.manager.synced", stat(&p.after, "synced"));

    crate::set_tails(report, &p.discover.latency_us, &p.heartbeat.open.latency_us);
    for (name, s) in [("discover", &p.discover), ("heartbeat", &p.heartbeat.open)] {
        report.set(
            &format!("gen.{name}.late_p99_us"),
            percentile(&s.late_us, 0.99).unwrap_or(0.0),
        );
        report.set(
            &format!("gen.{name}.late_max_us"),
            s.late_us.iter().copied().fold(0.0, f64::max),
        );
    }
    report.set("side.p50_us", base.heartbeat.open.p50());
    report.set("peak.per_s", base.peak_qps);
    let (untraced, traced) = (base.discover.p50(), p.discover.p50());
    report.set("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
    let logs: Vec<&SpanLog> = p.spans.iter().collect();
    spans::write_jsonl(args.out_path("spans.jsonl"), &logs)?;
    Ok(())
}

/// Encoded size of one shard's full-registry sync push, as the live
/// manager sends it every [`SYNC_PERIOD`].
fn sync_frame_bytes(seed: u64) -> usize {
    let summaries = fleet::fleet(seed, 1)
        .into_iter()
        .map(|(status, listen_addr)| WireSummary {
            status,
            listen_addr,
            age_us: SYNC_PERIOD.as_micros() as u64,
        })
        .collect();
    Codec::Binary
        .encode_request(&Request::SyncSummaries { from: 1, summaries })
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_types::NodeClass;

    fn node(id: u64, lat: f64, lon: f64, load: f64) -> WireNodeStatus {
        WireNodeStatus {
            id,
            class: NodeClass::Volunteer,
            location: GeoPoint::new(lat, lon),
            attached_users: 0,
            load_score: load,
        }
    }

    #[test]
    fn load_outweighs_a_few_kilometres() {
        let user = GeoPoint::new(44.98, -93.26);
        let near_busy = node(1, 44.98, -93.26, 0.9);
        let far_idle = node(2, 45.0, -93.2, 0.0);
        assert_eq!(oracle_rank(&[near_busy, far_idle], &[], user, 1), vec![2]);
    }

    #[test]
    fn ties_break_by_id_and_own_wins_over_synced() {
        let user = GeoPoint::new(44.98, -93.26);
        let own = [node(7, 44.98, -93.26, 0.5), node(3, 44.98, -93.26, 0.5)];
        // A synced copy of node 3 claiming zero load must be ignored.
        let synced = [node(3, 44.98, -93.26, 0.0), node(5, 44.98, -93.26, 0.5)];
        assert_eq!(oracle_rank(&own, &synced, user, 3), vec![3, 5, 7]);
        assert_eq!(oracle_rank(&own, &synced, user, 2), vec![3, 5]);
    }

    #[test]
    fn top_n_beyond_the_fleet_returns_everyone() {
        let user = GeoPoint::new(44.98, -93.26);
        let own = [node(1, 45.0, -93.0, 0.1)];
        assert_eq!(oracle_rank(&own, &[], user, 3), vec![1]);
    }

    #[test]
    fn reply_check_wants_top_n_distinct_registered_ids() {
        let ok = vec![
            (1, String::new()),
            (2, String::new()),
            (1_000_001, String::new()),
        ];
        assert!(check_candidates(&ok).is_none());
        let dup = vec![(1, String::new()), (1, String::new()), (2, String::new())];
        assert!(check_candidates(&dup).is_some());
        let short = vec![(1, String::new()), (2, String::new())];
        assert!(check_candidates(&short).is_some());
        let stranger = vec![
            (1, String::new()),
            (2, String::new()),
            (FLEET as u64, String::new()),
        ];
        assert!(check_candidates(&stranger).is_some());
    }

    #[test]
    fn sync_frame_of_a_full_fleet_fits_the_frame_cap() {
        let bytes = sync_frame_bytes(1);
        assert!(bytes > 100 * FLEET / 4, "summaries are not tiny: {bytes}");
        assert!(bytes < armada_reactor::MAX_FRAME_BYTES);
    }
}
