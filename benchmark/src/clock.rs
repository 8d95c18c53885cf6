//! Host-side measurement primitives: the wall clock, process CPU time and
//! the resident-set high-water mark.
//!
//! Every host-clock and `/proc` read of the benchmark goes through this
//! module, so the probes, stage timers and loops elsewhere deal only in
//! `u64` nanoseconds.

use std::sync::OnceLock;
// simlint: allow(D2) — the benchmark exists to time the simulator from outside
use std::time::Instant;

// simlint: allow(D2, P1) — process-wide epoch `now_ns` counts from; written once, harness-side
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Host wall-clock nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    // simlint: allow(D2) — the one wall-clock read of the benchmark
    let epoch = *EPOCH.get_or_init(Instant::now);
    // simlint: allow(D2) — see above
    u64::try_from(Instant::now().duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, fixed at
/// 100 on every Linux ABI the benchmark runs on).
const TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of this process, all threads (also exited
/// ones), from `/proc/self/stat`. Resolution is one tick (10 ms), so
/// callers difference it over whole timed sections, never one iteration.
pub fn cpu_secs() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat).map(|ticks| ticks as f64 / TICKS_PER_SEC)
}

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
fn parse_cpu_ticks(stat: &str) -> Result<u64, String> {
    let rest = stat
        .rfind(')')
        .map(|i| &stat[i + 1..])
        .ok_or("stat line has no command field")?;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> Result<u64, String> {
        fields
            .next()
            .ok_or("stat line too short")?
            .parse::<u64>()
            .map_err(|e| format!("stat tick count: {e}"))
    };
    Ok(tick()? + tick()?)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    line.trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("VmHWM value: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
        assert_eq!(secs(1_000_000_000, 3_500_000_000), 2.5);
        assert_eq!(secs(5, 1), 0.0);
    }

    #[test]
    fn cpu_ticks_survive_hostile_command_names() {
        let line = "42 (a) b) c) R 1 2 3 4 5 6 7 8 9 10 700 30 0 0 20 0";
        assert_eq!(parse_cpu_ticks(line), Ok(730));
        assert!(parse_cpu_ticks("42 (x) R 1 2").is_err());
        assert!(parse_cpu_ticks("no parens").is_err());
    }

    #[test]
    fn vm_hwm_parses() {
        assert_eq!(
            parse_vm_hwm_kb("Name:\tx\nVmHWM:\t   25600 kB\n"),
            Ok(25600)
        );
        assert!(parse_vm_hwm_kb("Name:\tx\n").is_err());
    }

    #[test]
    fn proc_readers_work_on_this_host() {
        assert!(cpu_secs().expect("procfs is mounted") >= 0.0);
        assert!(peak_rss_mb().expect("procfs is mounted") > 0.0);
    }
}
