//! What the benchmark reads about its own process and machine from
//! `/proc`: CPU time, peak resident memory, CPU affinity, load.

use std::fs;
use std::time::Duration;

/// Kernel clock ticks per second in `/proc/self/stat` (`USER_HZ`, fixed at
/// 100 on Linux).
const USER_HZ: u64 = 100;

fn status_field(name: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// CPU time of every live thread of this process: the on-CPU nanoseconds
/// of `/proc/self/task/*/schedstat`, summed. Threads that exited are not
/// counted, which is fine for differences taken while the rig's threads
/// all stay alive. Falls back to `/proc/self/stat` (user + system, 10 ms
/// ticks) on a kernel without scheduler statistics.
pub fn cpu_time() -> Duration {
    let on_cpu_ns = |task: fs::DirEntry| -> Option<u64> {
        let stat = fs::read_to_string(task.path().join("schedstat")).ok()?;
        stat.split_whitespace().next()?.parse().ok()
    };
    let precise: Option<u64> = fs::read_dir("/proc/self/task")
        .ok()
        .map(|tasks| tasks.flatten().filter_map(on_cpu_ns).sum());
    match precise {
        Some(ns) if ns > 0 => Duration::from_nanos(ns),
        _ => cpu_time_ticks(),
    }
}

fn cpu_time_ticks() -> Duration {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // the command name is parenthesised and may contain spaces: count
    // fields from the closing parenthesis (state is field 3)
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // utime and stime are fields 14 and 15, i.e. 11 and 12 after the state
    Duration::from_millis((ticks(11) + ticks(12)) * 1000 / USER_HZ)
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn rss_peak_kib() -> u64 {
    status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// The CPUs this process may run on, as the kernel prints them (`0-1`).
pub fn cpus_allowed_list() -> String {
    status_field("Cpus_allowed_list").unwrap_or_default()
}

/// Parse a kernel CPU list (`0-1`, `0,2-3`) into CPU numbers.
pub fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => cpus.extend(part.parse::<usize>()),
        }
    }
    cpus
}

/// Processors the machine has (not the ones this process may use).
pub fn machine_cpus() -> usize {
    fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// `/proc/loadavg`, verbatim.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("3"), vec![3]);
        assert_eq!(parse_cpu_list("0,2-3"), vec![0, 2, 3]);
        assert!(parse_cpu_list("").is_empty());
    }

    #[test]
    fn reads_this_process() {
        assert!(rss_peak_kib() > 0);
        assert!(!parse_cpu_list(&cpus_allowed_list()).is_empty());
        assert!(machine_cpus() >= 1);
        let t0 = cpu_time();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_time() > t0);
        assert!(cpu_time_ticks() > Duration::ZERO);
    }
}
