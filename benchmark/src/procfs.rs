//! Process-level counters a trial child reads about itself from
//! `/proc/self/{stat,status}` just after its verdict.

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, which is 100 on
/// every supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time and minor faults from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minflt: u64,
}

/// Parses the text of `/proc/<pid>/stat`. The command name (field 2)
/// may hold spaces and parentheses, so fields are counted from the
/// last `)`: minflt is field 10, utime 14, stime 15.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // `rest` starts at field 3 (state).
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
    Some(ProcStat {
        minflt: field(10)?,
        user_s: field(14)? as f64 / TICKS_PER_SEC,
        sys_s: field(15)? as f64 / TICKS_PER_SEC,
    })
}

/// Peak resident set (`VmHWM`) in MB from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_mb(text: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// This process's counters; zeros where `/proc` is unavailable.
pub fn read_self() -> (ProcStat, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .unwrap_or_default();
    let hwm = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|t| parse_vm_hwm_mb(&t))
        .unwrap_or(0.0);
    (stat, hwm)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_counted_after_the_command_name() {
        let text = "4242 (orochi (bench) x) R 1 4242 4242 0 -1 4194304 1234 0 7 0 \
                    250 31 0 0 20 0 1 0 100 1000000 300 18446744073709551615 1 1 0 0 0 0 0";
        assert_eq!(
            parse_stat(text),
            Some(ProcStat {
                minflt: 1234,
                user_s: 2.5,
                sys_s: 0.31,
            })
        );
        assert_eq!(parse_stat("no parenthesis"), None);
        assert_eq!(parse_stat("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_in_megabytes() {
        let text = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(text), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
    }

    #[test]
    fn reads_own_counters() {
        let (_stat, hwm) = read_self();
        assert!(hwm > 0.0, "VmHWM of a running process is positive");
    }
}
