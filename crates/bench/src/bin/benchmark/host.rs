//! The host side of a run: confining the process to one CPU, reading what
//! `/proc` says about the machine and this process, and the calibration loop
//! that tells a slow host phase from a slow program.

use std::fs;
use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    // std links libc on Linux, so these resolve without a new dependency.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;

/// The CPUs this thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

fn set_affinity(cpus: &[usize]) -> Result<(), String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    for &cpu in cpus {
        if cpu >= CPU_SET_WORDS * 64 {
            return Err(format!("cpu {cpu} is outside the kernel's cpu_set_t"));
        }
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live buffer of exactly the byte length passed and
    // the kernel only reads it; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity({cpus:?}) failed: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Proof that the calling thread — and every thread it starts afterwards —
/// is confined to one CPU. Pinned metric names are only ever reported by
/// code that holds one, so an unpinned run cannot print them.
#[derive(Debug)]
pub struct Pinned {
    cpu: usize,
    before: Vec<usize>,
}

impl Pinned {
    /// Confine the calling thread to `cpu`. Call before any thread starts:
    /// affinity is inherited at spawn, not applied to threads already
    /// running.
    pub fn to_cpu(cpu: usize) -> Result<Pinned, String> {
        let before = allowed_cpus();
        set_affinity(&[cpu])?;
        let now = allowed_cpus();
        if now != [cpu] {
            return Err(format!("asked for cpu {cpu}, kernel reports {now:?}"));
        }
        Ok(Pinned { cpu, before })
    }

    /// Confine the calling thread to the highest-numbered CPU it is allowed
    /// (CPU 0 takes most interrupts on small hosts).
    pub fn to_last_allowed() -> Result<Pinned, String> {
        let cpu = *allowed_cpus()
            .last()
            .ok_or("sched_getaffinity reported no CPU")?;
        Pinned::to_cpu(cpu)
    }

    /// Run `f` on every CPU the process had before pinning, then pin again.
    /// Threads `f` starts inherit the wide mask; used only for the per-layer
    /// "what real cores would see" repetition set.
    pub fn unpinned<R>(&self, f: impl FnOnce() -> R) -> Result<R, String> {
        set_affinity(&self.before)?;
        let out = f();
        set_affinity(&[self.cpu])?;
        Ok(out)
    }
}

/// A field of the calling thread's `/proc` status (the memory fields in it
/// are the whole process's).
fn proc_status_field(field: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/thread-self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .map(|v| v.trim().to_string())
}

/// `Cpus_allowed_list` of this thread, as the kernel prints it.
pub fn cpus_allowed_list() -> String {
    proc_status_field("Cpus_allowed_list").unwrap_or_else(|| "unknown".into())
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    proc_status_field("VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// User + system CPU time of the whole process (all threads) in ns, from
/// `/proc/self/stat` (clock-tick resolution).
pub fn process_cpu_ns() -> u64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the ") ".
    let Some(rest) = stat.rsplit_once(") ").map(|(_, r)| r) else {
        return 0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks: u64 = fields
        .by_ref()
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    // SAFETY: sysconf takes a plain integer and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) }.max(1) as u64;
    ticks * (1_000_000_000 / hz)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What the output header records about the machine and the build.
#[derive(Debug, Clone)]
pub struct HostInfo {
    pub nproc: usize,
    pub cpu_model: String,
    pub cpus_allowed_list: String,
    pub kernel: String,
    pub git_head: String,
    pub rustc: String,
}

impl HostInfo {
    /// Read the header fields. Call after pinning so `cpus_allowed_list`
    /// shows the confinement the metrics were measured under.
    pub fn read() -> HostInfo {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        HostInfo {
            // Not `available_parallelism`: after pinning that is 1.
            nproc: cpuinfo
                .lines()
                .filter(|l| l.starts_with("processor"))
                .count(),
            cpu_model: cpuinfo
                .lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map_or_else(|| "unknown".into(), |(_, m)| m.trim().to_string()),
            cpus_allowed_list: cpus_allowed_list(),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            // Only where the current directory is a git work tree: elsewhere
            // git would go looking through the parent directories.
            git_head: if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".into()
            },
            rustc: command_line("rustc", &["--version"]),
        }
    }
}

/// Outer iterations of the calibration loop (≈ 1.5 ms on the reference host:
/// long enough to average over timer jitter, short enough to run between
/// every two repetitions).
const CALIB_ITERS: u64 = 500_000;

/// What the calibration loop reads on the undisturbed reference host (an
/// Intel Xeon @ 2.10 GHz under KVM). A run's host factor is its median
/// reading over this; on another CPU model every calibrated figure shifts by
/// one constant, which cancels when two commits are compared on one machine.
pub const CALIB_NOMINAL_NS: f64 = 1_400_000.0;

/// Time a fixed, allocation-free loop of eight independent multiply-add
/// chains. The chains keep several execution ports busy every cycle, which
/// is what a neighbour on the sibling hardware thread takes away: on the
/// reference host this loop reads 1.4–1.7 ms or 2.2–2.6 ms in phases a few
/// seconds long, and the chain's cost follows the same phases, while a
/// single dependent chain or a pointer chase barely moves. Its duration
/// depends only on how fast the host runs this thread right now, so two
/// readings that differ mean the host changed, not the program.
pub fn calibrate_ns() -> f64 {
    let start = Instant::now();
    let mut lanes = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for i in 0..CALIB_ITERS {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane = lane
                .wrapping_mul(6364136223846793005)
                .wrapping_add(i ^ j as u64);
        }
    }
    black_box(lanes);
    start.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_pin_is_an_error_not_a_token() {
        // No host this runs on has CPU 1023 *and* allows it here; beyond the
        // mask the request is rejected before the syscall.
        assert!(Pinned::to_cpu(CPU_SET_WORDS * 64).is_err());
        let allowed = allowed_cpus();
        assert!(!allowed.is_empty());
        let absent = (0..CPU_SET_WORDS * 64)
            .rev()
            .find(|c| !allowed.contains(c))
            .expect("fewer than 1024 CPUs");
        assert!(Pinned::to_cpu(absent).is_err());
        // The failed attempts left the affinity as it was.
        assert_eq!(allowed_cpus(), allowed);
    }

    #[test]
    fn pinning_confines_this_thread_and_unpinned_restores_the_rest() {
        let before = allowed_cpus();
        let pinned = Pinned::to_last_allowed().expect("pin");
        assert_eq!(allowed_cpus(), vec![pinned.cpu]);
        assert_eq!(cpus_allowed_list(), pinned.cpu.to_string());
        let seen = pinned.unpinned(allowed_cpus).expect("unpin");
        assert_eq!(seen, before);
        assert_eq!(allowed_cpus(), vec![pinned.cpu]);
    }

    #[test]
    fn proc_readers_return_plausible_values() {
        assert!(peak_rss_mb() > 0.5);
        let spin = Instant::now();
        while spin.elapsed().as_millis() < 30 {
            black_box(calibrate_ns());
        }
        assert!(process_cpu_ns() > 0);
        assert!(calibrate_ns() > 0.0);
        let info = HostInfo::read();
        assert!(info.nproc >= 1 && !info.kernel.is_empty());
    }
}
