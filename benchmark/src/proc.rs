//! Spawning the processes under test and making sure they end.

use std::fs::File;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

const SIGTERM: i32 = 15;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs
/// starting with `ru_maxrss` (kB).
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct RUsage {
    utime: TimeVal,
    stime: TimeVal,
    rest: [i64; 14],
}

/// Resource use of one reaped child.
#[derive(Debug, Clone, Copy)]
pub struct ChildUsage {
    /// Whether it exited with status 0.
    pub success: bool,
    /// User + system CPU time, microseconds.
    pub cpu_micros: u64,
    /// Peak resident set size, kB.
    pub max_rss_kb: u64,
}

/// A spawned process that is killed and reaped on every exit path: drop
/// sends SIGKILL and waits, so no benchmark run leaves a server behind.
pub struct Proc {
    child: Child,
    name: String,
    reaped: bool,
}

impl Proc {
    /// Spawn `program args...` with stdout and stderr appended to `log`.
    pub fn spawn(name: &str, program: &Path, args: &[String], log: &Path) -> io::Result<Proc> {
        let out = File::create(log)?;
        let err = out.try_clone()?;
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::from(out))
            .stderr(Stdio::from(err))
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("cannot spawn {name}: {e}")))?;
        Ok(Proc { child, name: name.to_string(), reaped: false })
    }

    /// Process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Fail if the process already exited (it died during set-up).
    pub fn check_alive(&mut self) -> io::Result<()> {
        match self.child.try_wait()? {
            None => Ok(()),
            Some(status) => {
                self.reaped = true;
                Err(io::Error::other(format!("{} exited early with {status}", self.name)))
            }
        }
    }

    /// Ask for a graceful exit (SIGTERM), then SIGKILL after `grace`.
    /// Returns whether the process exited on its own with status 0.
    pub fn stop(mut self, grace: Duration) -> bool {
        // SAFETY: `kill` has no memory preconditions; the pid is our own
        // unreaped child, so it cannot name another process.
        unsafe {
            kill(self.child.id() as i32, SIGTERM);
        }
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                self.reaped = true;
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        false
    }

    /// Block until the process exits and return its resource use.
    pub fn wait_usage(mut self) -> io::Result<ChildUsage> {
        let mut status = 0i32;
        let mut ru = RUsage::default();
        // SAFETY: both pointers refer to live, properly sized locals, and
        // the pid is our own unreaped child.
        let rc = unsafe { wait4(self.child.id() as i32, &mut status, 0, &mut ru) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        self.reaped = true;
        let micros = |t: TimeVal| t.sec as u64 * 1_000_000 + t.usec as u64;
        Ok(ChildUsage {
            // WIFEXITED && WEXITSTATUS == 0
            success: status & 0xffff == 0,
            cpu_micros: micros(ru.utime) + micros(ru.stime),
            max_rss_kb: ru.rest[0].max(0) as u64,
        })
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A free loopback port: bind port 0, read the port the OS chose, and
/// release it for the process about to be told to use it.
pub fn free_port() -> io::Result<u16> {
    Ok(TcpListener::bind("127.0.0.1:0")?.local_addr()?.port())
}

/// Poll `check` every 2 ms until it yields a value or `timeout` passes.
pub fn wait_until<T>(
    timeout: Duration,
    what: &str,
    mut check: impl FnMut() -> io::Result<Option<T>>,
) -> io::Result<T> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = check()? {
            return Ok(v);
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(io::ErrorKind::TimedOut, format!("timed out: {what}")));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The address a process wrote to `--addr-file` once it is listening.
pub fn read_addr_file(path: &Path) -> Option<SocketAddr> {
    std::fs::read_to_string(path).ok()?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_LOG: &str = "/dev/null";

    fn sleeper() -> Proc {
        Proc::spawn("sleep", Path::new("sleep"), &["30".to_string()], Path::new(NO_LOG))
            .expect("spawn sleep")
    }

    fn alive(pid: u32) -> bool {
        // A reaped child's /proc entry is gone; a zombie would show state Z.
        match std::fs::read_to_string(format!("/proc/{pid}/stat")) {
            Ok(s) => !s[s.rfind(')').unwrap() + 1..].trim_start().starts_with('Z'),
            Err(_) => false,
        }
    }

    #[test]
    fn drop_kills_and_reaps() {
        let p = sleeper();
        let pid = p.pid();
        assert!(alive(pid));
        drop(p);
        assert!(!alive(pid));
    }

    #[test]
    fn drop_on_unwind_kills_too() {
        let mut pid = 0;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let p = sleeper();
            pid = p.pid();
            panic!("benchmark step failed");
        }));
        assert!(result.is_err());
        assert!(!alive(pid));
    }

    #[test]
    fn stop_terminates_and_wait_reports_usage() {
        let p = sleeper();
        let pid = p.pid();
        // `sleep` dies of SIGTERM: not a clean exit, but it is gone.
        assert!(!p.stop(Duration::from_secs(5)));
        assert!(!alive(pid));

        let t = Proc::spawn("true", Path::new("true"), &[], Path::new(NO_LOG)).unwrap();
        let usage = t.wait_usage().unwrap();
        assert!(usage.success);
        assert!(usage.max_rss_kb > 0);
    }

    #[test]
    fn free_port_is_bindable() {
        let port = free_port().unwrap();
        assert_ne!(port, 0);
        TcpListener::bind(("127.0.0.1", port)).expect("probe port is free again");
    }
}
