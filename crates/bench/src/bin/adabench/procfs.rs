//! Process-level readings from `/proc/self`: peak resident set, context
//! switches, CPU time. Every parser returns `None` for a field that is
//! missing or malformed (another kernel, a sandbox without `/proc`), and
//! the caller reports that instead of a made-up zero.

/// Jiffies per second of `/proc/self/stat`'s `utime`/`stime`: `USER_HZ`,
/// which Linux fixes at 100 for every architecture's user-space ABI.
const USER_HZ: f64 = 100.0;

/// The integer after `field:` in `/proc/<pid>/status` text.
pub fn status_field(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// `utime + stime` in seconds from `/proc/<pid>/stat` text. The command
/// name (field 2) may hold spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after = &stat[stat.rfind(')')? + 1..];
    let mut fields = after.split_whitespace();
    // `after` starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

fn status() -> Option<String> {
    std::fs::read_to_string("/proc/self/status").ok()
}

/// Peak resident set size of this process so far, MB.
pub fn peak_rss_mb() -> Option<f64> {
    Some(status_field(&status()?, "VmHWM")? as f64 / 1024.0)
}

/// Voluntary context switches of the calling thread's group leader so
/// far — one per blocking wait of the generator thread.
pub fn voluntary_switches() -> Option<u64> {
    status_field(&status()?, "voluntary_ctxt_switches")
}

/// CPU seconds (user + system) this process has consumed, every thread
/// included, joined ones too.
pub fn cpu_seconds() -> Option<f64> {
    stat_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tadabench\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\n\
                          Threads:\t3\nvoluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn status_fields_parse_and_tolerate_absence() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(12345));
        assert_eq!(status_field(STATUS, "voluntary_ctxt_switches"), Some(42));
        // A prefix of another field's name must not match it.
        assert_eq!(status_field(STATUS, "ctxt_switches"), None);
        assert_eq!(status_field(STATUS, "VmSwap"), None);
        assert_eq!(status_field("VmHWM:\tlots kB\n", "VmHWM"), None);
        assert_eq!(status_field("", "VmHWM"), None);
    }

    #[test]
    fn stat_cpu_time_survives_an_awkward_command_name() {
        let stat = "77 (ada) bench)) S 1 77 77 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(stat_cpu_seconds(stat), Some(3.0));
        assert_eq!(stat_cpu_seconds("77 (x) S 1 2"), None);
        assert_eq!(stat_cpu_seconds("garbage"), None);
    }

    #[test]
    fn live_readings_are_sane_where_proc_exists() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.1, "peak rss {mb} MB");
        }
        if let Some(cpu) = cpu_seconds() {
            assert!(cpu >= 0.0);
        }
    }
}
