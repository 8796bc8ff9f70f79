//! Whole-process readings from `/proc/self`: peak RSS and CPU time.

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix(key))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// `VmHWM` of this process in MiB (0.0 where procfs is unavailable).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// The first CPU this process may run on, from `Cpus_allowed_list`.
pub fn first_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let first = list.trim().split([',', '-']).next()?;
    first.parse::<u32>().ok().map(|cpu| cpu.to_string())
}

/// `(user, system)` CPU seconds of the whole thread group so far.
pub fn cpu_seconds() -> (f64, f64) {
    // USER_HZ is 100 on every Linux ABI Rust targets.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let after = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let mut fields = after.split_whitespace().skip(11);
    let mut next = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .map_or(0.0, |t| t / TICKS_PER_SECOND)
    };
    (next(), next())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane_on_linux() {
        assert!(peak_rss_mb() > 0.5, "a running test has a resident set");
        let (user, sys) = cpu_seconds();
        assert!(user >= 0.0 && sys >= 0.0);
        assert!(first_allowed_cpu().is_some(), "some CPU runs this test");
    }
}
