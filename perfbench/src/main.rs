//! Benchmark of the Armada live runtime and simulator, end to end and
//! per layer. See `README.md` beside this crate for the workloads, the
//! metrics and how to run them.
//!
//! ```text
//! armada-perfbench --workload <live_discover|live_session|sim_metro>
//!                  --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the exit code is non-zero when
//! an output check failed or the run could not complete.

mod alloc;
mod discover;
mod fleet;
mod procfs;
mod report;
mod rpc;
mod server;
mod session;
mod sim;
mod spans;
mod speed;
mod stats;
mod wire;

use report::Report;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Environment the measured program reads, pinned for the driver and
/// inherited by every server child, so nothing in the caller's shell
/// changes what is measured. `None` clears the variable.
const PINNED_ENV: &[(&str, Option<&str>)] = &[
    ("ARMADA_WIRE", Some("binary")),
    ("ARMADA_WIRE_PROBES", Some("udp")),
    ("ARMADA_REACTOR", Some("epoll")),
    ("ARMADA_TRACE", None),
    ("ARMADA_BENCH_THREADS", Some("1")),
];

const WORKLOADS: &[&str] = &["live_discover", "live_session", "sim_metro"];

/// Command-line arguments of a measured run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let value = |key: &str| -> Result<&str, String> {
            argv.iter()
                .position(|a| a == key)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {key}"))
        };
        let workload = value("--workload")?.to_string();
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
        }
        let number = |key: &str| -> Result<f64, String> {
            value(key)?
                .parse::<f64>()
                .map_err(|e| format!("{key}: {e}"))
        };
        let seconds = number("--seconds")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range"));
        }
        Ok(Args {
            workload,
            seed: value("--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?,
            seconds,
            traced: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, not {other}")),
            },
        })
    }

    /// A path for this run's trace output, `<prefix>.<suffix>` under
    /// `perfbench/out/`, creating the directory.
    pub fn out_path(&self, suffix: &str) -> String {
        let dir = "perfbench/out";
        let _ = std::fs::create_dir_all(dir);
        format!("{dir}/{}-seed{}.{suffix}", self.workload, self.seed)
    }
}

/// Records the highest percentile the `op` and `side` samples support
/// (ten samples beyond it), which percentile that is, and the sample
/// count. Tails spread too much between runs to be end-to-end metrics
/// at these run lengths.
pub fn set_tails(report: &mut Report, op_us: &[f64], side_us: &[f64]) {
    for (name, samples) in [("op", op_us), ("side", side_us)] {
        let q = stats::supported_tail(samples.len()).unwrap_or(0.0);
        let value = stats::percentile(samples, q).unwrap_or(0.0);
        report.set(&format!("tail.{name}_us"), value);
        report.set(&format!("tail.{name}_pct"), q * 100.0);
        report.set(&format!("tail.{name}_samples"), samples.len() as f64);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--serve") {
        if let Err(e) = server::serve(&argv[1..]) {
            eprintln!("server child: {e}");
            std::process::exit(1);
        }
        return;
    }
    if argv.first().map(String::as_str) == Some("--sim-rss") {
        let seed = argv.get(1).and_then(|s| s.parse().ok()).unwrap_or(0);
        sim::rss_child(seed);
        return;
    }
    if argv.first().map(String::as_str) == Some("--record-digests") {
        let bound = |i: usize| argv.get(i).and_then(|s| s.parse().ok()).unwrap_or(0);
        sim::record_digests(bound(1), bound(2));
        return;
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n{e}",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // Still single-threaded here, so changing the environment is sound.
    for (key, value) in PINNED_ENV {
        match value {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }

    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "live_discover" => discover::run(&args, &mut report),
        "live_session" => session::run(&args, &mut report),
        _ => sim::run(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("{} did not complete: {e}", args.workload);
        std::process::exit(1);
    }
    let pinned: Vec<String> = PINNED_ENV
        .iter()
        .map(|(k, v)| format!("{k}={}", v.unwrap_or("<unset>")))
        .collect();
    println!("pinned env: {}", pinned.join(" "));
    let line = report.result_line(args.traced);
    for problem in &report.problems {
        println!("check failed: {problem}");
    }
    println!("{line}");
    if !report.correct() {
        std::process::exit(1);
    }
}
