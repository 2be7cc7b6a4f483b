//! Measurement helpers: quantiles, resident memory, host facts and the
//! allocation counter the traced binary installs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Allocations made since the process started. Only the traced binary's
/// [`CountingAlloc`] increments it; in the end-to-end binary it stays 0.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus a relaxed allocation counter. Installed as
/// the global allocator of the traced binary only.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations counted so far (always 0 without [`CountingAlloc`]).
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Wall time and allocations of one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, u64) {
    let a0 = allocs();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as f64;
    (out, ns, allocs() - a0)
}

/// Passes per layer measurement at the least, and the time they must
/// fill at the least.
const MIN_PASSES: usize = 3;
const MIN_PASS_NS: f64 = 2e8;

/// Repeats `f` at least [`MIN_PASSES`] times and until [`MIN_PASS_NS`]
/// have passed, and returns the median pass time in ns plus the
/// allocations of the last pass.
pub fn median_pass(mut f: impl FnMut()) -> (f64, u64) {
    let mut times = Vec::new();
    let mut total = 0.0;
    let mut last_allocs = 0;
    while times.len() < MIN_PASSES || total < MIN_PASS_NS {
        let ((), ns, a) = timed(&mut f);
        times.push(ns);
        total += ns;
        last_allocs = a;
    }
    (median(&mut times), last_allocs)
}

/// Median of `values` (sorts in place); 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation (sorts in place);
/// 0 for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn status_kib(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(field)
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .unwrap_or(0)
}

extern "C" {
    /// glibc: returns free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
    /// Linux: reads (`0xffff_ffff`) or sets the process execution domain.
    fn personality(persona: std::os::raw::c_ulong) -> std::os::raw::c_int;
}

/// The personality flag that turns address-space randomization off.
const ADDR_NO_RANDOMIZE: std::os::raw::c_ulong = 0x0040000;

/// Whether this process runs with address-space randomization off.
pub fn fixed_layout() -> bool {
    // SAFETY: querying the persona takes no pointers and changes nothing.
    let current = unsafe { personality(0xffff_ffff) };
    current >= 0 && (current as std::os::raw::c_ulong) & ADDR_NO_RANDOMIZE != 0
}

/// Re-executes this program with address-space randomization off, so
/// that memory and timing figures do not move with a random layout from
/// one process to the next. Returns only if that is not possible (or
/// already done); the run then goes on with the layout it has.
pub fn reexec_with_fixed_layout() {
    if fixed_layout() {
        return;
    }
    // SAFETY: querying and setting the persona take no pointers; the new
    // flag only affects images executed from here on.
    let set = unsafe {
        let current = personality(0xffff_ffff);
        current >= 0 && personality(current as std::os::raw::c_ulong | ADDR_NO_RANDOMIZE) >= 0
    };
    if set {
        if let Ok(exe) = std::env::current_exe() {
            use std::os::unix::process::CommandExt;
            let _ = std::process::Command::new(exe)
                .args(std::env::args_os().skip(1))
                .exec();
        }
    }
}

/// Returns free heap pages to the kernel.
pub fn trim_heap() {
    // SAFETY: `malloc_trim` only releases free pages of the C heap and
    // takes no pointers.
    unsafe {
        malloc_trim(0);
    }
}

/// Tracks peak resident-memory growth from a baseline: input generated
/// before [`RssProbe::start`] is part of the baseline, not the growth.
#[derive(Debug, Clone, Copy)]
pub struct RssProbe {
    base_bytes: u64,
}

impl RssProbe {
    /// Returns freed heap pages to the kernel, resets the kernel's peak
    /// counter to the current resident size, and records it as the base.
    pub fn start() -> Self {
        trim_heap();
        // Writing 5 to clear_refs resets VmHWM to the current VmRSS.
        let _ = std::fs::write("/proc/self/clear_refs", "5");
        RssProbe {
            base_bytes: status_kib("VmRSS:") * 1024,
        }
    }

    /// Peak resident growth since [`RssProbe::start`], in bytes.
    pub fn peak_growth(&self) -> u64 {
        (status_kib("VmHWM:") * 1024).saturating_sub(self.base_bytes)
    }
}

/// Facts about the host a run's numbers belong to.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Cores this process may use.
    pub nproc: usize,
    /// The compiler that built the benchmark and the program.
    pub rustc: &'static str,
}

impl Host {
    /// Reads the host facts.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpu,
            nproc: nproc(),
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
