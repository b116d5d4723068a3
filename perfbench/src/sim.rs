//! `sim_metro`: the deterministic simulator (`Scenario::run`) on a
//! seeded metro environment — 200 Table II nodes, 1000 users joining
//! every 10 ms, client-centric strategy, a K=4 manager federation, 60
//! virtual seconds. No socket is touched.
//!
//! Output check: the run's [`Digest`] repeats exactly across the runs
//! of one invocation and equals the digest stored for the seed in
//! `sim_digests.txt`, when one is stored.

use std::collections::HashMap;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use armada_core::{EnvSpec, FederationSpec, NodeSpec, RunResult, Scenario, Strategy, UserSpec};
use armada_net::LatencyModelParams;
use armada_trace::{Severity, TraceEvent, TraceSink, Tracer};
use armada_types::{
    table2_profiles, AccessNetwork, GeoPoint, NodeClass, SimDuration, SystemConfig,
};

use crate::fleet::Rng;
use crate::report::{Report, SIM_TRACE_KINDS};
use crate::stats::{fastest, median};
use crate::{alloc, procfs, speed, Args};

const NODES: usize = 200;
const USERS: usize = 1_000;
pub const JOIN_EVERY: SimDuration = SimDuration::from_millis(10);
const SHARDS: usize = 4;
const VIRTUAL: SimDuration = SimDuration::from_secs(60);
/// The short run the traced run times beside the full one: set-up and
/// the join burst dominate it.
const SHORT_VIRTUAL: SimDuration = SimDuration::from_secs(2);
/// World builds timed together as one `setup_s` sample. A build (a run
/// of 1 virtual µs, which builds the network, shard map, nodes and
/// clients) takes a few ms, too short to time alone on a shared host.
const BUILDS_PER_SAMPLE: usize = 10;
/// Fewest `setup_s` samples per run. One is taken before every full run,
/// so they spread over the run like the runs do; `setup_s` is their
/// median.
const SETUP_SAMPLES: usize = 15;
/// Host-speed marks per full run (see [`speed`]): one every 5 to 20 ms.
const MARKS_PER_RUN: u64 = 200;
/// Digests recorded at this commit, one `seed frames discoveries probes
/// test_invocations failovers latency_sum_us` line per seed.
const STORED: &str = include_str!("../sim_digests.txt");

/// The seeded metro environment: Table II hardware cycled over 200
/// nodes (volunteers and Local Zone instances inside the metro box,
/// cloud instances in the nearest region) and 1000 users in the box.
pub fn metro_env(seed: u64) -> EnvSpec {
    let mut rng = Rng::new(seed, 0x0051_3E70);
    let profiles = table2_profiles();
    let nodes = (0..NODES)
        .map(|i| {
            let (label, class, hw) = profiles[i % profiles.len()].clone();
            let (location, access, extra_one_way_ms) = match class {
                NodeClass::Volunteer => (
                    rng.metro_point(),
                    if i % 2 == 0 {
                        AccessNetwork::HomeWifi
                    } else {
                        AccessNetwork::Fiber
                    },
                    0.0,
                ),
                NodeClass::Dedicated => (rng.metro_point(), AccessNetwork::DataCenter, 5.0),
                NodeClass::Cloud => (GeoPoint::new(40.0, -83.0), AccessNetwork::DataCenter, 0.0),
            };
            NodeSpec {
                label: format!("{label}-{i}"),
                class,
                hw,
                location,
                access,
                extra_one_way_ms,
            }
        })
        .collect();
    let users = (0..USERS)
        .map(|_| UserSpec {
            location: rng.metro_point(),
            access: AccessNetwork::HomeWifi,
            affiliations: Vec::new(),
        })
        .collect();
    EnvSpec {
        nodes,
        users,
        latency: LatencyModelParams::default(),
        pairwise_rtt_ms: Vec::new(),
        system: SystemConfig::default(),
        federation: Some(FederationSpec::new(SHARDS)),
        fault_plan: None,
    }
}

fn scenario(seed: u64, length: SimDuration) -> Scenario {
    Scenario::new(metro_env(seed), Strategy::client_centric())
        .duration(length)
        .seed(seed)
        .users_joining_every(JOIN_EVERY)
}

/// What a run produced, reduced to numbers that must repeat exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub frames: u64,
    pub discoveries: u64,
    pub probes: u64,
    pub test_invocations: u64,
    pub failovers: u64,
    /// Sum of every frame's latency, µs: with `frames`, the exact mean.
    pub latency_sum_us: u64,
}

impl Digest {
    pub fn of(result: &RunResult) -> Digest {
        let world = result.world();
        let samples = result.recorder().samples();
        Digest {
            frames: samples.len() as u64,
            discoveries: world.discoveries_served(),
            probes: world.total_probes_sent(),
            test_invocations: world.total_test_invocations(),
            failovers: world.total_backup_failovers(),
            latency_sum_us: samples.iter().map(|s| s.latency.as_micros()).sum(),
        }
    }

    fn line(&self, seed: u64) -> String {
        format!(
            "{seed} {} {} {} {} {} {}",
            self.frames,
            self.discoveries,
            self.probes,
            self.test_invocations,
            self.failovers,
            self.latency_sum_us
        )
    }
}

/// The digest stored for `seed` in `table`, if any.
pub fn stored(table: &str, seed: u64) -> Option<Digest> {
    table.lines().find_map(|line| {
        let v: Vec<u64> = line
            .split_whitespace()
            .map(|w| w.parse().ok())
            .collect::<Option<_>>()?;
        match v[..] {
            [s, frames, discoveries, probes, test_invocations, failovers, latency_sum_us]
                if s == seed =>
            {
                Some(Digest {
                    frames,
                    discoveries,
                    probes,
                    test_invocations,
                    failovers,
                    latency_sum_us,
                })
            }
            _ => None,
        }
    })
}

/// Counts events per kind instead of storing them: a full run emits
/// about a million `frame.done` events.
struct KindCounter(Arc<Mutex<HashMap<String, u64>>>);

impl TraceSink for KindCounter {
    fn record(&mut self, event: &TraceEvent) {
        *self
            .0
            .lock()
            .expect("kind counts")
            .entry(event.kind.clone())
            .or_default() += 1;
    }
}

/// One timed full run.
fn timed_run(seed: u64, tracer: Option<Tracer>) -> (f64, Digest) {
    let mut s = scenario(seed, VIRTUAL);
    if let Some(t) = tracer {
        s = s.with_tracer(t);
    }
    let started = Instant::now();
    let result = s.run();
    let took = started.elapsed().as_secs_f64();
    (took, Digest::of(&result))
}

/// One full run with the host's speed probed every `stride`
/// allocations: its time at nominal host speed ([`speed::normalise`])
/// and its wall time, both in seconds.
fn normalised_run(seed: u64, stride: u64) -> (f64, f64, Digest) {
    let start = speed::mark();
    alloc::arm(stride);
    let (wall_s, digest) = timed_run(seed, None);
    let inside = alloc::disarm();
    let end = speed::mark();
    (speed::normalise(start, &inside, end), wall_s, digest)
}

/// The child side of [`child_peak_rss`]: one plain full run, then this
/// process's peak RSS in KiB and the run's digest line.
pub fn rss_child(seed: u64) {
    let (_, digest) = timed_run(seed, None);
    let kb = procfs::sample("self").map_or(0, |s| s.peak_rss_kb);
    println!("{kb} {}", digest.line(seed));
}

/// Peak RSS, in MB, of a child process that does one full run and
/// nothing else, so the speed probe's memory stays out of it; and that
/// run's digest.
fn child_peak_rss(seed: u64) -> std::io::Result<(f64, Digest)> {
    let out = Command::new(std::env::current_exe()?)
        .args(["--sim-rss", &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text
        .split_once(' ')
        .and_then(|(kb, line)| Some((kb.trim().parse::<u64>().ok()?, stored(line, seed)?)));
    match parsed {
        Some((kb, digest)) if out.status.success() => Ok((kb as f64 / 1024.0, digest)),
        _ => Err(std::io::Error::other(format!(
            "peak-RSS child failed ({}): {text:?}",
            out.status
        ))),
    }
}

/// Prints the digest line of every seed in `from..to` (the format of
/// `sim_digests.txt`).
pub fn record_digests(from: u64, to: u64) {
    println!("# seed frames discoveries probes test_invocations failovers latency_sum_us");
    for seed in from..to {
        let (_, digest) = timed_run(seed, None);
        println!("{}", digest.line(seed));
    }
}

fn check_digests(report: &mut Report, seed: u64, digests: &[Digest]) {
    report.attempted += digests.len() as u64;
    let first = digests[0];
    report.check(digests.iter().all(|d| *d == first), || {
        format!("sim digests differ across repeats: {digests:?}")
    });
    report.check(first.frames > 0, || "sim recorded no frames".into());
    if let Some(want) = stored(STORED, seed) {
        report.check(first == want, || {
            format!("sim digest {first:?} differs from the stored {want:?}")
        });
    } else {
        println!("note: no stored sim digest for seed {seed}; checked repeats only");
    }
}

pub fn run(args: &Args, report: &mut Report) -> std::io::Result<()> {
    let seed = args.seed;
    if !args.traced {
        // A build's time at nominal host speed, like the full runs'.
        let setup_sample = || {
            let start = speed::mark();
            for _ in 0..BUILDS_PER_SAMPLE {
                std::hint::black_box(scenario(seed, SimDuration::from_micros(1)).run());
            }
            let end = speed::mark();
            speed::normalise(start, &[], end) / BUILDS_PER_SAMPLE as f64
        };
        let started = Instant::now();
        // A warm-up run that also counts the run's allocations, to
        // space the speed marks.
        alloc::enable();
        let allocs0 = alloc::count();
        let (_, digest) = timed_run(seed, None);
        let stride = (alloc::count() - allocs0) / MARKS_PER_RUN;
        alloc::disable();
        let (mut setups, mut runs_s, mut walls_s, mut digests) =
            (Vec::new(), Vec::new(), Vec::new(), vec![digest]);
        // At least two timed runs.
        while digests.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
            setups.push(setup_sample());
            let (run_s, wall_s, digest) = normalised_run(seed, stride);
            runs_s.push(run_s);
            walls_s.push(wall_s);
            digests.push(digest);
        }
        while setups.len() < SETUP_SAMPLES {
            setups.push(setup_sample());
        }
        let (rss_mb, rss_digest) = child_peak_rss(seed)?;
        digests.push(rss_digest);
        check_digests(report, seed, &digests);
        // The fastest run at nominal speed: the one taken in the host
        // phase the probe tracks best (see `speed`).
        let run_s = fastest(&runs_s);
        println!(
            "note: {} timed runs; wall time fastest {:.4} s, median {:.4} s; \
             at nominal host speed fastest {:.4} s, median {:.4} s",
            runs_s.len(),
            fastest(&walls_s),
            median(&walls_s).unwrap_or(f64::NAN),
            run_s,
            median(&runs_s).unwrap_or(f64::NAN)
        );
        report.set("setup_s", median(&setups).unwrap_or(f64::NAN));
        report.set("peak_rss_mb", rss_mb);
        report.set("op_p50_us", run_s * 1e6);
        return Ok(());
    }

    // Traced: plain runs (the timing baseline) fill the window but for
    // room for an allocation-counted run and a run under the program's
    // own virtual-time tracer.
    let started = Instant::now();
    let (mut plain, mut digests) = (Vec::new(), Vec::new());
    loop {
        let (took, digest) = timed_run(seed, None);
        plain.push(took);
        digests.push(digest);
        if started.elapsed().as_secs_f64() + 2.0 * took >= args.seconds {
            break;
        }
    }
    let plain_s = fastest(&plain);
    let digest = digests[0];
    alloc::enable();
    let allocs0 = alloc::count();
    let (_, counted) = timed_run(seed, None);
    let allocs = alloc::count() - allocs0;
    alloc::disable();
    let kinds = Arc::new(Mutex::new(HashMap::new()));
    let tracer = Tracer::with_sink(Box::new(KindCounter(Arc::clone(&kinds))), Severity::Debug);
    let (traced_s, traced) = timed_run(seed, Some(tracer));
    digests.extend([counted, traced]);
    check_digests(report, seed, &digests);
    let short = Instant::now();
    std::hint::black_box(scenario(seed, SHORT_VIRTUAL).run());
    report.set("side.p50_us", short.elapsed().as_secs_f64() * 1e6);

    crate::wire::report_codec(report, seed);
    let frames = digest.frames.max(1) as f64;
    report.set("sim.frames", digest.frames as f64);
    report.set("sim.discoveries", digest.discoveries as f64);
    report.set("sim.probes", digest.probes as f64);
    report.set("sim.test_invocations", digest.test_invocations as f64);
    report.set("sim.failovers", digest.failovers as f64);
    report.set("sim.ns_per_frame", plain_s * 1e9 / frames);
    report.set("peak.per_s", frames / plain_s);
    report.set("sim.allocs_per_frame", allocs as f64 / frames);
    let kinds = kinds.lock().expect("kind counts");
    let mut other = 0;
    for (kind, n) in kinds.iter() {
        if SIM_TRACE_KINDS.contains(&kind.as_str()) {
            report.set(&format!("sim.trace_events.{kind}"), *n as f64);
        } else {
            other += n;
        }
    }
    report.set("sim.trace_events.other", other as f64);
    let typical_s = median(&plain).unwrap_or(f64::NAN);
    report.set(
        "trace.overhead_pct",
        (traced_s - typical_s) / typical_s * 100.0,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_is_seeded() {
        assert_eq!(metro_env(3), metro_env(3));
        assert_ne!(metro_env(3).users, metro_env(4).users);
        let env = metro_env(3);
        assert_eq!((env.nodes.len(), env.users.len()), (NODES, USERS));
    }

    #[test]
    fn stored_table_parses_and_finds_the_seed() {
        let table = "# comment\n1 10 2 3 4 0 99\n2 11 2 3 4 1 98\n";
        let d = stored(table, 2).expect("seed 2 stored");
        assert_eq!((d.frames, d.failovers, d.latency_sum_us), (11, 1, 98));
        assert_eq!(stored(table, 3), None);
        assert_eq!(d.line(2), "2 11 2 3 4 1 98");
    }

    #[test]
    fn stored_table_is_well_formed() {
        for line in STORED.lines().filter(|l| !l.starts_with('#')) {
            let seed: u64 = line.split_whitespace().next().unwrap().parse().unwrap();
            assert!(stored(STORED, seed).is_some(), "bad line {line:?}");
        }
    }
}
