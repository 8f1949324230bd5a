//! What the harness reads from the host: process CPU time, peak RSS and the
//! provenance fields of the result header.

use std::path::Path;

/// User + system CPU seconds this process has used so far, all threads,
/// exited ones included.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` is the libc function std already links; `ts`
    // is a live, writable `timespec` with the x86-64/aarch64 Linux layout
    // (two 64-bit fields) and the call writes nothing else. `/proc/self/stat`
    // would avoid the call but counts in 10 ms ticks, coarser than the
    // windows it has to measure.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

// Every metric has one definition: timed operations start from a heap
// trimmed through glibc, and `peak_rss_mb` restarts the kernel's watermark
// through /proc. A platform without either gets no benchmark, not other
// numbers under the same names.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
compile_error!("bcp-perf needs Linux with glibc (malloc_trim, /proc/self/clear_refs)");

/// Give the allocator's free pages back to the kernel, so the next
/// operation starts from a cold heap whatever ran before it.
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` is glibc's own entry for this, takes no
    // pointers, may be called from any thread at any time, and only
    // releases memory the allocator already holds as free. No safe API
    // reaches it, and without it `save()` stalls are bimodal (15 ms on a
    // warm heap, 30-45 ms on a trimmed one) in proportions that drift
    // from run to run.
    unsafe { malloc_trim(0) };
}

/// Restart the kernel's peak-RSS watermark from the current RSS
/// (`/proc/self/clear_refs`, Linux 4.0). An error where the kernel refuses:
/// `VmHWM` since the process began would be another metric.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("restart the peak-RSS watermark (/proc/self/clear_refs): {e}"))
}

/// Peak resident set size of this process in MB (`VmHWM`), since the process
/// began or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, t)| t)
        .unwrap_or_else(|| "unknown".into())
}

fn first_line_value(file: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(file).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

/// Where and on what a run was made. `git_rev` and `rustc` come from
/// `run.sh` through the environment, because the driver's checkout is not a
/// git repository and the binary cannot ask cargo which compiler built it.
pub struct Provenance {
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub fs_type: String,
}

impl Provenance {
    pub fn collect(out_dir: &Path) -> Provenance {
        let env = |k: &str| std::env::var(k).ok().filter(|v| !v.is_empty());
        Provenance {
            git_rev: env("BCP_PERF_GIT_REV").unwrap_or_else(|| "unknown".into()),
            rustc: env("BCP_PERF_RUSTC").unwrap_or_else(|| "unknown".into()),
            nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
            cpu_model: first_line_value("/proc/cpuinfo", "model name")
                .unwrap_or_else(|| "unknown".into()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            fs_type: fs_type(out_dir),
        }
    }
}
