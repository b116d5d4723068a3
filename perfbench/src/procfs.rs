//! Process accounting read from `/proc/<pid>`.
//!
//! What the counters cover, so per-op ratios are read correctly:
//! * voluntary context switches are summed over the threads alive when
//!   sampled; threads that exit between samples drop out.
//! * CPU time (`utime + stime` of `/proc/<pid>/stat`) covers every
//!   thread the process ever ran, at clock-tick (10 ms) resolution.
//!
//! Syscall counts are not read: `/proc/<pid>/io`'s `syscr`/`syscw` see
//! only VFS `read`/`write` calls, not the `recv`/`send` family that
//! std sockets use, so they would miss nearly all socket I/O.

use std::io;

/// Kernel clock ticks per second for `/proc` time fields (`USER_HZ`,
/// fixed at 100 on Linux).
const TICKS_PER_SEC: f64 = 100.0;

/// One snapshot of a process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    pub voluntary_switches: u64,
    pub cpu_s: f64,
    pub peak_rss_kb: u64,
}

impl ProcSample {
    /// Counter growth from `earlier` to `self` (peak RSS is kept as is).
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            voluntary_switches: self
                .voluntary_switches
                .saturating_sub(earlier.voluntary_switches),
            cpu_s: (self.cpu_s - earlier.cpu_s).max(0.0),
            peak_rss_kb: self.peak_rss_kb,
        }
    }

    /// Field-wise sum (peak RSS adds up across processes).
    pub fn plus(&self, other: &ProcSample) -> ProcSample {
        ProcSample {
            voluntary_switches: self.voluntary_switches + other.voluntary_switches,
            cpu_s: self.cpu_s + other.cpu_s,
            peak_rss_kb: self.peak_rss_kb + other.peak_rss_kb,
        }
    }
}

/// Reads the counters of process `pid` (`"self"` for this process).
pub fn sample(pid: &str) -> io::Result<ProcSample> {
    let base = format!("/proc/{pid}");
    let status = std::fs::read_to_string(format!("{base}/status"))?;
    let stat = std::fs::read_to_string(format!("{base}/stat"))?;
    let mut voluntary_switches = 0;
    for task in std::fs::read_dir(format!("{base}/task"))? {
        let path = task?.path().join("status");
        // A thread may exit between listing and reading.
        if let Ok(text) = std::fs::read_to_string(path) {
            voluntary_switches += field(&text, "voluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    Ok(ProcSample {
        voluntary_switches,
        cpu_s: cpu_ticks(&stat).unwrap_or(0) as f64 / TICKS_PER_SEC,
        peak_rss_kb: field(&status, "VmHWM:").unwrap_or(0),
    })
}

/// The first number after `key` on the line starting with it.
fn field(text: &str, key: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name
/// (field 2) may hold spaces, so fields are counted after its `)`.
fn cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_name() {
        let stat = "42 (a b) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0";
        assert_eq!(cpu_ticks(stat), Some(300));
    }

    #[test]
    fn reads_own_process() {
        let s = sample("self").expect("/proc/self readable");
        assert!(s.peak_rss_kb > 0);
    }

    #[test]
    fn field_reads_first_number() {
        assert_eq!(field("VmHWM:\t  1234 kB\n", "VmHWM:"), Some(1234));
        assert_eq!(field("Cpus: 1\nThreads: 9\n", "Threads:"), Some(9));
    }
}
