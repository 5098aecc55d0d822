//! Process CPU time and peak resident set, read from `/proc/self`.

use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// reports them in `USER_HZ`, which its ABI fixes at 100 whatever the
/// kernel's internal tick rate.
const USER_HZ: u64 = 100;

/// User plus system CPU time of every thread of the process so far, from
/// the contents of `/proc/self/stat`.
pub fn parse_cpu(stat: &str) -> Option<Duration> {
    // The command name (field 2) is parenthesised and may hold spaces or
    // parentheses itself, so count fields from the last `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name come state (3), ppid (4), …; utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the name.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    let ticks = utime + stime;
    Some(Duration::from_millis(ticks * 1000 / USER_HZ))
}

/// Peak resident set in bytes (`VmHWM`), from the contents of
/// `/proc/self/status`.
pub fn parse_peak_rss(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value * 1024),
        _ => None,
    }
}

/// The process's CPU time so far.
pub fn cpu_time() -> Duration {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    parse_cpu(&stat).expect("/proc/self/stat has utime and stime")
}

/// Restarts the peak-resident-set count from the current resident set
/// (Linux `clear_refs` code 5), so a later [`peak_rss`] covers only what
/// follows. Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set in bytes, since it started or since
/// the last [`reset_peak_rss`].
pub fn peak_rss() -> u64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_peak_rss(&status).expect("/proc/self/status has VmHWM in kB")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_is_utime_plus_stime_in_user_hz() {
        // A command name with spaces and a parenthesis must not shift the
        // fields; utime = 250 ticks, stime = 37 ticks.
        let stat = "4242 (aid bench) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 37 0 0 20 0 5 0 100 123456 789 18446744073709551615";
        assert_eq!(parse_cpu(stat), Some(Duration::from_millis(2870)));
    }

    #[test]
    fn cpu_rejects_truncated_stat() {
        assert_eq!(parse_cpu("4242 (aid) S 1 2 3"), None);
        assert_eq!(parse_cpu("no parenthesis at all"), None);
    }

    #[test]
    fn peak_rss_reads_vmhwm_in_kib() {
        let status = "Name:\taid\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_peak_rss(status), Some(51200 * 1024));
        assert_eq!(parse_peak_rss("Name:\taid\n"), None);
        assert_eq!(parse_peak_rss("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_process_figures_are_readable() {
        // Other tests allocate concurrently, so the peak after a reset is
        // only known to be positive, not to be below the earlier one.
        assert!(peak_rss() > 0);
        reset_peak_rss();
        assert!(peak_rss() > 0);
        let before = cpu_time();
        assert!(cpu_time() >= before);
    }
}
