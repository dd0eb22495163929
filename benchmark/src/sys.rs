//! What the benchmark asks of the operating system: process CPU time,
//! peak resident memory, the allocation counter, and the machine
//! fingerprint every result set is stamped with.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// System allocator that counts allocation calls (`alloc` + `realloc`),
/// the same accounting as `tests/zero_alloc_steady_state.rs`.
pub struct CountingAlloc;

static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic
// that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations are passed on as-is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`, plus the caller's `new_size` obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls made by this process so far (all threads).
pub fn heap_ops() -> u64 {
    HEAP_OPS.load(Ordering::Relaxed)
}

/// `struct rusage` on 64-bit Linux (the only platform this benchmark
/// supports): two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User + system CPU seconds of this process, all threads, ended ones
/// included (`getrusage(RUSAGE_SELF)`) — the host-energy proxy.
pub fn cpu_seconds() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines, and `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(ru.utime) + secs(ru.stime)
}

fn proc_field_kib(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    proc_field_kib("/proc/self/status", "VmHWM:").map_or(0.0, |k| k as f64 / 1024.0)
}

/// `MemAvailable`, bytes (0 when the kernel does not report it).
pub fn mem_available_bytes() -> u64 {
    proc_field_kib("/proc/meminfo", "MemAvailable:").map_or(0, |k| k * 1024)
}

/// Size of cpu0's highest-level cache from sysfs, bytes (0 if unreadable).
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
        let Ok(n) = digits.parse::<u64>() else {
            continue;
        };
        let bytes = match unit {
            "K" => n << 10,
            "M" => n << 20,
            "G" => n << 30,
            _ => n,
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a result set came from.
#[derive(Clone, Debug)]
pub struct Stamp {
    pub git_rev: String,
    pub rustc: String,
    pub nproc: usize,
    pub cpu_model: String,
    pub llc_bytes: u64,
    pub fma_active: bool,
}

impl Stamp {
    pub fn collect() -> Self {
        Stamp {
            // "unknown" in a checkout that is not a git repository.
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            rustc: command_line("rustc", &["-V"]),
            nproc: nproc(),
            cpu_model: cpu_model(),
            llc_bytes: llc_bytes(),
            fma_active: blast_repro::blast_la::tile::fma_active(),
        }
    }
}
