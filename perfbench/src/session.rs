//! `live_session`: one `LiveManager` and eight `LiveNode`s with a
//! 0.05 ms frame cost and no injected delay; one driver thread runs
//! `LiveClient` sessions back to back, alternating a 0-frame session
//! (discover → probe fan-out → join → leave) with a streaming session
//! that re-probes mid-stream.
//!
//! Output checks: every session succeeds and delivers the frames it
//! asked for, and the nodes processed exactly the frames sent.

use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use armada_live::{LiveClient, WireConfig};
use armada_trace::{u, MemorySink, Severity, TraceEvent, Tracer};
use armada_types::{ClientConfig, SimDuration};
use armada_wire::{Codec, Request, Response};

use crate::fleet::Rng;
use crate::procfs::ProcSample;
use crate::report::Report;
use crate::rpc::{Conn, FAILED_US};
use crate::server::{stat, ServerChild, SESSION_FRAME_MS, SESSION_NODES};
use crate::spans::{self, SpanLog};
use crate::stats::{median, quiet_rate};
use crate::{alloc, Args};

/// Frames per streaming session.
const FRAMES: usize = 40;
/// Re-probing period of streaming sessions: several rounds per stream.
const PROBING_PERIOD: SimDuration = SimDuration::from_millis(10);
/// Set-ups before and again after the window of an untraced run, so
/// both ends of the run are sampled; `setup_s` is their median. One
/// takes a few ms (two process starts and eight registrations).
const SETUP_REPS: usize = 11;
/// Width of the windows the peak session rate is taken over (a 0-frame
/// session starts about every 60 ms).
const WINDOW_S: f64 = 2.0;
/// No-work / discovery pairs timed after the window.
const FLOOR_QUERIES: usize = 200;

struct Cluster {
    manager: ServerChild,
    nodes: ServerChild,
    addr: SocketAddr,
}

impl Cluster {
    fn up(seed: u64, traced: bool) -> io::Result<Cluster> {
        let t = if traced { "1" } else { "0" };
        let seed = seed.to_string();
        let mut manager =
            ServerChild::spawn(&["manager", "--seed", &seed, "--trace", t].map(String::from))?;
        let addr = manager.addr()?;
        manager.expect("READY")?;
        let mut nodes = ServerChild::spawn(
            &[
                "nodes",
                "--manager",
                &addr.to_string(),
                "--seed",
                &seed,
                "--trace",
                t,
            ]
            .map(String::from),
        )?;
        nodes.expect("READY")?;
        // Nodes register synchronously while binding.
        let alive = stat(&manager.stats()?, "alive");
        if alive != SESSION_NODES as f64 {
            return Err(io::Error::other(format!(
                "{alive} of {SESSION_NODES} nodes alive"
            )));
        }
        Ok(Cluster {
            manager,
            nodes,
            addr,
        })
    }
}

fn client_config() -> ClientConfig {
    ClientConfig {
        top_n: 3,
        max_fps: 1_000.0,
        probing_period: PROBING_PERIOD,
        ..ClientConfig::default()
    }
}

#[derive(Default)]
struct Pass {
    setups_s: Vec<f64>,
    /// `(seconds into the window the session started, µs)`.
    join_us: Vec<f64>,
    frame_us: Vec<f64>,
    /// Completion times of successful sessions, seconds into the window.
    done_s: Vec<f64>,
    sessions: u64,
    failed_sessions: u64,
    frames_requested: u64,
    frames_delivered: u64,
    problems: Vec<String>,
    window_s: f64,
    floor_us: Vec<f64>,
    quiet_discover_us: Vec<f64>,
    manager: ProcSample,
    nodes: ProcSample,
    driver_allocs: u64,
    peak_rss_kb: u64,
    mgr_before: HashMap<String, f64>,
    mgr_after: HashMap<String, f64>,
    nodes_before: HashMap<String, f64>,
    nodes_after: HashMap<String, f64>,
    trace: String,
    spans: Option<SpanLog>,
}

fn pass(args: &Args, seconds: f64, traced: bool, setup_reps: usize) -> io::Result<Pass> {
    let mut p = Pass::default();
    let mut cluster = None;
    for _ in 0..setup_reps {
        drop(cluster.take());
        let started = Instant::now();
        cluster = Some(Cluster::up(args.seed, traced)?);
        p.setups_s.push(started.elapsed().as_secs_f64());
    }
    let mut c = cluster.expect("at least one set-up");

    let sink = MemorySink::new();
    let buffer = sink.buffer();
    let tracer = if traced {
        Tracer::with_sink(Box::new(sink), Severity::Debug)
    } else {
        Tracer::disabled()
    };
    let wire = WireConfig {
        codec: Codec::Binary,
        udp_probes: true,
    };
    let mut log = SpanLog::new(Instant::now(), "driver");
    let mut rng = Rng::new(args.seed, 0x5E55_2001);

    if traced {
        c.manager.send("window")?;
    }
    p.mgr_before = c.manager.stats()?;
    p.nodes_before = c.nodes.stats()?;
    let (m0, n0) = (c.manager.proc(), c.nodes.proc());
    let allocs0 = alloc::count();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    while Instant::now() < end {
        p.sessions += 1;
        let user = p.sessions;
        let mut client = LiveClient::new(user, rng.metro_point(), client_config()).with_wire(wire);
        if traced {
            client = client.with_tracer(tracer.clone());
            tracer.emit(Severity::Info, "bench.session.start", || {
                vec![("user", u(user))]
            });
        }
        let frames = if user % 2 == 1 { 0 } else { FRAMES };
        p.frames_requested += frames as u64;
        let started = Instant::now();
        let outcome = client.run_session(c.addr, frames);
        let took = started.elapsed();
        if traced {
            log.record("run_session", "session", user, started, started + took);
        }
        match outcome {
            Ok(report) => {
                if frames == 0 {
                    p.join_us.push(took.as_secs_f64() * 1e6);
                }
                p.done_s.push(start.elapsed().as_secs_f64());
                p.frames_delivered += report.latencies.len() as u64;
                p.frame_us
                    .extend(report.latencies.iter().map(|l| l.as_secs_f64() * 1e6));
                if report.latencies.len() != frames {
                    p.problems.push(format!(
                        "session {user} delivered {} of {frames} frames",
                        report.latencies.len()
                    ));
                }
            }
            Err(e) => {
                p.failed_sessions += 1;
                if frames == 0 {
                    p.join_us.push(FAILED_US);
                }
                p.problems.push(format!("session {user} failed: {e}"));
            }
        }
    }
    p.window_s = start.elapsed().as_secs_f64();
    p.driver_allocs = alloc::count() - allocs0;
    p.manager = c.manager.proc().since(&m0);
    p.nodes = c.nodes.proc().since(&n0);
    p.mgr_after = c.manager.stats()?;
    p.nodes_after = c.nodes.stats()?;

    // The floor under every manager RPC, and discovery over eight nodes
    // on the same quiet connection.
    let mut conn = Conn::open(c.addr)?;
    for q in 0..FLOOR_QUERIES {
        let started = Instant::now();
        if conn.call(&Request::RttProbe, None).is_ok() {
            p.floor_us.push(started.elapsed().as_secs_f64() * 1e6);
        }
        let at = rng.metro_point();
        let request = Request::Discover {
            user: (1 << 40) + q as u64,
            lat: at.lat(),
            lon: at.lon(),
            top_n: 3,
        };
        let started = Instant::now();
        if let Ok(Response::Candidates { nodes }) = conn.call(&request, None) {
            if nodes.len() == 3 {
                p.quiet_discover_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    drop(conn);
    p.peak_rss_kb = c.manager.proc().peak_rss_kb + c.nodes.proc().peak_rss_kb;
    if traced {
        let base = args.out_path("");
        for (child, name) in [(&mut c.manager, "manager"), (&mut c.nodes, "nodes")] {
            child.send(&format!("dump {base}{name}.trace.jsonl"))?;
            child.expect("DUMPED")?;
        }
        p.trace = buffer.lock().expect("client trace").clone();
        p.spans = Some(log);
    }
    c.manager.finish();
    c.nodes.finish();
    Ok(p)
}

fn p50(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(f64::NAN)
}

fn account(report: &mut Report, p: &Pass) {
    report.attempted += p.sessions + p.frames_requested;
    report.failed +=
        p.failed_sessions + (p.frames_requested - p.frames_delivered.min(p.frames_requested));
    for problem in p.problems.iter().take(5) {
        report.check(false, || problem.clone());
    }
    let processed = stat(&p.nodes_after, "frames") - stat(&p.nodes_before, "frames");
    report.check(processed == p.frames_requested as f64, || {
        format!(
            "nodes processed {processed} frames, {} requested",
            p.frames_requested
        )
    });
}

/// Per-session phase durations from the client's own trace events:
/// session start (the benchmark's marker) → first `probe.round.start`
/// (discovery) → first `probe.round.done` (probe fan-out) →
/// `client.join` (join).
fn client_phases(trace: &str) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let mut marks: HashMap<u64, [Option<u64>; 4]> = HashMap::new();
    for line in trace.lines() {
        let Ok(event) = TraceEvent::parse_line(line) else {
            continue;
        };
        let slot = match event.kind.as_str() {
            "bench.session.start" => 0,
            "probe.round.start" => 1,
            "probe.round.done" => 2,
            "client.join" => 3,
            _ => continue,
        };
        if let Some(user) = event.field_u64("user") {
            marks.entry(user).or_default()[slot].get_or_insert(event.t_us);
        }
    }
    let (mut discover, mut probe, mut join) = (Vec::new(), Vec::new(), Vec::new());
    for m in marks.values() {
        if let [Some(s), Some(a), Some(b), Some(j)] = *m {
            discover.push(a.saturating_sub(s) as f64);
            probe.push(b.saturating_sub(a) as f64);
            join.push(j.saturating_sub(b) as f64);
        }
    }
    (discover, probe, join)
}

pub fn run(args: &Args, report: &mut Report) -> io::Result<()> {
    if !args.traced {
        let mut p = pass(args, args.seconds, false, SETUP_REPS)?;
        account(report, &p);
        for _ in 0..SETUP_REPS {
            let started = Instant::now();
            let cluster = Cluster::up(args.seed, false)?;
            p.setups_s.push(started.elapsed().as_secs_f64());
            drop(cluster);
        }
        report.set("setup_s", median(&p.setups_s).unwrap_or(f64::NAN));
        report.set("peak_rss_mb", p.peak_rss_kb as f64 / 1024.0);
        report.set("op_p50_us", p50(&p.frame_us));
        return Ok(());
    }

    let base = pass(args, args.seconds / 2.0, false, 1)?;
    account(report, &base);
    alloc::enable();
    let p = pass(args, args.seconds / 2.0, true, 1)?;
    alloc::disable();
    account(report, &p);

    crate::wire::report_codec(report, args.seed);
    let floor = median(&p.floor_us).unwrap_or(0.0);
    report.set("wire.rpc_floor_us", floor);

    let frames = p.frames_delivered.max(1) as f64;
    let servers = p.manager.plus(&p.nodes);
    let ops = (p.frames_delivered + p.sessions).max(1) as f64;
    report.set(
        "reactor.wakeups_per_op",
        servers.voluntary_switches as f64 / ops,
    );
    report.set("reactor.active_conns", stat(&p.mgr_after, "conns_max"));
    report.set(
        "reactor.buffered_write_kb_max",
        stat(&p.mgr_after, "buffered_max") / 1024.0,
    );

    let mgr = |key: &str| stat(&p.mgr_after, key) - stat(&p.mgr_before, key);
    let node = |key: &str| stat(&p.nodes_after, key) - stat(&p.nodes_before, key);
    let discoveries = mgr("discoveries").max(1.0);
    report.set(
        "live.manager.discover_excess_us",
        median(&p.quiet_discover_us).unwrap_or(0.0) - floor,
    );
    report.set(
        "live.manager.cpu_us_per_op",
        p.manager.cpu_s * 1e6 / discoveries,
    );
    report.set("live.manager.allocs_per_op", mgr("allocs") / discoveries);
    report.set("live.manager.discoveries_served", mgr("discoveries"));
    report.set("live.manager.shed", mgr("shed"));

    let frame_p50 = p50(&p.frame_us);
    report.set("live.node.cpu_us_per_frame", p.nodes.cpu_s * 1e6 / frames);
    report.set("live.node.allocs_per_frame", node("allocs") / frames);
    report.set("live.node.exec_share", SESSION_FRAME_MS * 1e3 / frame_p50);
    report.set("live.node.frames_processed", node("frames"));
    report.set("live.node.busy", node("busy"));

    let (discover, probe, join) = client_phases(&p.trace);
    let sessions = p.sessions.max(1) as f64;
    report.set("live.client.discover_us", median(&discover).unwrap_or(0.0));
    report.set("live.client.probe_round_us", median(&probe).unwrap_or(0.0));
    report.set("live.client.join_us", median(&join).unwrap_or(0.0));
    report.set(
        "live.client.allocs_per_session",
        p.driver_allocs as f64 / sessions,
    );

    crate::set_tails(report, &p.frame_us, &p.join_us);
    report.set("side.p50_us", p50(&base.join_us));
    report.set(
        "peak.per_s",
        quiet_rate(&base.done_s, base.window_s, WINDOW_S),
    );
    let untraced = p50(&base.frame_us);
    report.set(
        "trace.overhead_pct",
        (frame_p50 - untraced) / untraced * 100.0,
    );
    let logs: Vec<&SpanLog> = p.spans.iter().collect();
    spans::write_jsonl(args.out_path("spans.jsonl"), &logs)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_come_from_the_first_marks_of_each_user() {
        let trace = [
            r#"{"t_us":100,"sev":"info","kind":"bench.session.start","user":1}"#,
            r#"{"t_us":160,"sev":"debug","kind":"probe.round.start","user":1,"round":0,"candidates":3}"#,
            r#"{"t_us":400,"sev":"debug","kind":"probe.round.done","user":1,"round":0,"replies":3}"#,
            r#"{"t_us":450,"sev":"info","kind":"client.join","user":1,"node":2}"#,
            r#"{"t_us":900,"sev":"debug","kind":"probe.round.start","user":1,"round":1,"candidates":3}"#,
            r#"{"t_us":1000,"sev":"info","kind":"bench.session.start","user":2}"#,
        ]
        .join("\n");
        let (discover, probe, join) = client_phases(&trace);
        assert_eq!(
            (discover, probe, join),
            (vec![60.0], vec![240.0], vec![50.0])
        );
    }
}
