//! Memory and CPU readings of the benchmark's own process, from `/proc`.

use std::fs;

/// Peak resident set size of this process so far, in megabytes
/// (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User plus system CPU time of this process so far, in clock ticks
/// (fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_ticks() -> Result<u64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("read /proc/self/stat: {e}"))?;
    parse_cpu_ticks(&stat).ok_or_else(|| "malformed /proc/self/stat".to_string())
}

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may itself hold spaces and parentheses;
    // the fields after the *last* ')' are fixed.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Clock ticks per second of `/proc/self/stat` times. Linux has fixed
/// `USER_HZ` at 100 on every architecture this repository builds for;
/// reading it properly needs `sysconf`, which is a foreign call.
pub const TICKS_PER_S: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        let status = "Name:\tbench\nVmPeak:\t  9000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 10 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4321));
        assert_eq!(parse_vm_hwm_kb("Name:\tbench\n"), None);
        let stat = "42 (a (b) c) S 1 42 42 0 -1 4194304 100 0 0 0 77 23 0 0 20 0 1 0 5 1 1";
        assert_eq!(parse_cpu_ticks(stat), Some(100));
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        cpu_ticks().expect("cpu ticks");
    }
}
