//! Process accounting from `/proc`: CPU time and resident memory of the
//! processes under test (and of the benchmark itself).

use std::io;

extern "C" {
    fn sysconf(name: i32) -> i64;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;
/// `RUSAGE_SELF`.
const RUSAGE_SELF: i32 = 0;

/// CPU time (user + system) of this process in microseconds, at the
/// kernel's full resolution (`/proc` stat counts whole clock ticks).
pub fn self_cpu_micros() -> u64 {
    // `struct rusage` on 64-bit Linux: utime and stime timevals (two
    // i64 each) followed by fourteen longs.
    let mut ru = [0i64; 18];
    // SAFETY: the pointer refers to a live local as large as the
    // kernel's `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return 0;
    }
    (ru[0] * 1_000_000 + ru[1] + ru[2] * 1_000_000 + ru[3]).max(0) as u64
}

/// Clock ticks per second, the unit of `utime`/`stime` in `/proc/<pid>/stat`.
pub fn clk_tck() -> u64 {
    // SAFETY: `sysconf` only reads a configuration value; it has no
    // preconditions and `_SC_CLK_TCK` is a valid name on Linux.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as u64
    } else {
        100
    }
}

/// User + system CPU ticks from the text of `/proc/<pid>/stat`.
///
/// The second field, `comm`, is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted after the *last* `)`:
/// there `state` is field 3, `utime` field 14 and `stime` field 15.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// A `kB` field (e.g. `VmHWM`, `VmRSS`) from the text of `/proc/<pid>/status`.
pub fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.trim().trim_end_matches("kB").trim().parse().ok()
    })
}

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// CPU time (user + system) of `pid` in microseconds, in whole clock
/// ticks.
pub fn cpu_micros(pid: u32) -> io::Result<u64> {
    let stat = std::fs::read_to_string(proc_path(Some(pid), "stat"))?;
    let ticks = parse_stat_ticks(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparseable stat"))?;
    Ok(ticks * 1_000_000 / clk_tck())
}

/// CPU time of the live threads of `pid` in nanoseconds, summed from each
/// thread's `schedstat`: full resolution where `stat`'s clock ticks are
/// too coarse for a short interval, but blind to threads that have
/// already exited.
pub fn threads_cpu_nanos(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between listing and reading.
        if let Ok(text) = std::fs::read_to_string(entry?.path().join("schedstat")) {
            total += text.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
        }
    }
    Ok(total)
}

/// One `kB` field of `pid`'s status (this process for `None`).
pub fn status_kb(pid: Option<u32>, key: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string(proc_path(pid, "status"))?;
    parse_status_kb(&status, key).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("no {key} in status"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        // `comm` with spaces and a closing paren of its own.
        let stat = "4242 (mqo (serve) x) S 1 2 3 4 5 6 7 8 9 10 111 222 13 14 20 0 3 0";
        assert_eq!(parse_stat_ticks(stat), Some(333));
        let plain = "7 (mqo) R 1 7 7 0 -1 4194560 100 0 0 0 5 6 0 0 20 0 1 0 50";
        assert_eq!(parse_stat_ticks(plain), Some(11));
        assert_eq!(parse_stat_ticks("7 (mqo) R 1 2"), None);
        assert_eq!(parse_stat_ticks("no parens"), None);
    }

    #[test]
    fn status_fields_parse_in_kb() {
        let status = "Name:\tmqo\nVmPeak:\t  900 kB\nVmHWM:\t  635040 kB\nVmRSS:\t  12 kB\n";
        assert_eq!(parse_status_kb(status, "VmHWM"), Some(635_040));
        assert_eq!(parse_status_kb(status, "VmRSS"), Some(12));
        assert_eq!(parse_status_kb(status, "VmSwap"), None);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(clk_tck() > 0);
        assert!(status_kb(None, "VmRSS").unwrap() > 0);
        let busy = std::time::Instant::now();
        while busy.elapsed().as_millis() < 30 {
            std::hint::black_box(busy.elapsed());
        }
        assert!(self_cpu_micros() >= 30_000);
        cpu_micros(std::process::id()).unwrap();
        assert!(threads_cpu_nanos(std::process::id()).unwrap() >= 30_000_000);
    }
}
