//! Host facts and the few operating-system calls the standard library
//! does not expose: the thread timer slack, peak resident memory, and
//! the host fingerprint stamped on every output.

use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

extern "C" {
    fn prctl(option: c_int, ...) -> c_int;
}

/// `PR_SET_TIMERSLACK` from `<linux/prctl.h>`.
const PR_SET_TIMERSLACK: c_int = 29;

/// Cut this thread's timer slack to 1 ns, so `nanosleep` wakes within
/// microseconds of its deadline instead of the default 50 µs late.
/// Best effort: a failure leaves the default slack.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// Peak resident set (`VmHWM`) of a process, MiB; `None` for our own
/// process reads `/proc/self`.
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where and with what the benchmark ran. Outputs with different
/// `host_key`s must not be compared.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// Available parallelism.
    pub nproc: usize,
    /// `model name` of the first CPU.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `git rev-parse HEAD` when the checkout is a git repository.
    pub git_rev: String,
    /// FNV-1a hash of the sources the benchmark builds.
    pub src_hash: String,
}

impl Fingerprint {
    /// Gather the fingerprint of this host and checkout.
    pub fn gather() -> Fingerprint {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
        // Only ask git inside a repository of our own: in a plain
        // checkout, git would walk up and report an enclosing repo.
        let git_rev = if Path::new(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "none".into())
        } else {
            "none".into()
        };
        Fingerprint {
            nproc,
            cpu_model,
            rustc,
            git_rev,
            src_hash: format!("{:016x}", source_hash()),
        }
    }

    /// The comparability key: everything but the code under test.
    pub fn host_key(&self) -> String {
        format!(
            "{:016x}",
            fnv1a(
                fnv1a(FNV_OFFSET, self.nproc.to_string().as_bytes()),
                format!("{}|{}", self.cpu_model, self.rustc).as_bytes()
            )
        )
    }

    /// One report line.
    pub fn line(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" rustc=\"{}\" git_rev={} src_hash={} host_key={}",
            self.nproc,
            self.cpu_model,
            self.rustc,
            self.git_rev,
            self.src_hash,
            self.host_key()
        )
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash of every file under the source roots the benchmark builds
/// (paths and contents, in sorted order).
fn source_hash() -> u64 {
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    files.iter().fold(FNV_OFFSET, |h, f| {
        let h = fnv1a(h, f.to_string_lossy().as_bytes());
        fnv1a(h, &std::fs::read(f).unwrap_or_default())
    })
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&p, out);
        }
    }
}

/// Wait up to `limit` for `child` to exit; kill it if it does not.
pub fn reap(child: &mut std::process::Child, limit: Duration) -> std::io::Result<bool> {
    let deadline = Instant::now() + limit;
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status.success());
        }
        if Instant::now() >= deadline {
            child.kill()?;
            child.wait()?;
            return Ok(false);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;

/// Block until `fd` is readable (or writable, with `writable`), or
/// `timeout_ns` has passed: `ppoll` with nanosecond resolution, so the
/// wait inherits no jiffy granularity. Returns whether `fd` is
/// readable (or closed); interrupts and errors return early, and
/// callers re-check their state.
pub fn wait_io(fd: &impl AsRawFd, writable: bool, timeout_ns: u64) -> bool {
    let mut pfd = PollFd {
        fd: fd.as_raw_fd(),
        events: POLLIN | if writable { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as c_long,
        tv_nsec: (timeout_ns % 1_000_000_000) as c_long,
    };
    // SAFETY: `pfd` and `ts` are live, properly laid out (`repr(C)`
    // mirrors `struct pollfd` / `struct timespec` on Linux) for the
    // duration of the call; one descriptor is passed; a null signal
    // mask leaves the mask unchanged.
    let ready = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    ready > 0 && pfd.revents & (POLLIN | POLLHUP | POLLERR) != 0
}
