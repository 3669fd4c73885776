//! Host probes: CPU time and peak memory of this process and its
//! worker processes, and the context fields (`nproc`, steal ticks)
//! recorded beside each run.
//!
//! `cargo run` replaces itself with the benchmark through `exec`, so the
//! kernel's per-process peaks start out holding cargo's and the build's:
//! `getrusage` reports them for `RUSAGE_SELF` and `RUSAGE_CHILDREN`
//! alike. Peak memory is therefore read from `VmHWM`, which a fresh
//! `exec` resets, in this process and in each worker (see
//! [`record_peak_rss`]). CPU time is only ever used as a difference, so
//! `getrusage` serves for it.

use std::path::Path;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` fields.
#[repr(C)]
#[derive(Default)]
struct RawUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RawUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
/// Extension of the files workers leave their peak memory in.
const PEAK_RSS_EXTENSION: &str = "peak_rss_kib";

fn cpu_s_of(who: i32) -> f64 {
    let mut raw = RawUsage::default();
    // SAFETY: `RawUsage` matches the layout of `struct rusage` on 64-bit
    // Linux (144 bytes, all fields 8-byte integers), the pointer is to a
    // live, writable value of that type, and `who` is one of the two
    // subjects the call accepts.
    let status = unsafe { getrusage(who, &mut raw) };
    assert_eq!(status, 0, "getrusage rejects only invalid arguments");
    let seconds = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    seconds(raw.utime) + seconds(raw.stime)
}

/// CPU seconds of this process and its waited-for children together;
/// meaningful as a difference between two calls.
pub fn cpu_s() -> f64 {
    cpu_s_of(RUSAGE_SELF) + cpu_s_of(RUSAGE_CHILDREN)
}

/// This process's peak resident set (`VmHWM`), KiB.
pub fn own_peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kib| kib.trim().parse().ok())
        .ok_or_else(|| "/proc/self/status has no VmHWM line".to_string())
}

/// Worker side: leaves this process's peak resident set beside its
/// shard artifact, for [`collect_worker_peaks`].
pub fn record_peak_rss(artifact: &Path) -> Result<(), String> {
    let path = artifact.with_extension(PEAK_RSS_EXTENSION);
    std::fs::write(&path, own_peak_rss_kib()?.to_string())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Supervisor side: the largest peak the workers of a finished run left
/// in `dir`, in KiB (0 when none did). The files are removed, so the
/// next run starts clean.
pub fn collect_worker_peaks(dir: &Path) -> Result<u64, String> {
    let mut peak = 0;
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some(PEAK_RSS_EXTENSION) {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let kib: u64 = text
            .trim()
            .parse()
            .map_err(|e| format!("{}: {e}", path.display()))?;
        peak = peak.max(kib);
        std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(peak)
}

/// Steal ticks summed over all CPUs (the eighth field of the `cpu` line
/// of `/proc/stat`), or `None` where the file is unreadable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|line| line.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
