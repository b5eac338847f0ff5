//! What the host spent: CPU seconds, peak resident memory, core count.
//! Everything here is *host* time and memory — what the simulator costs to
//! run — never the simulated seconds it reports. Linux only, like
//! `gp_telemetry::peak_rss_bytes`.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    // Linked by the standard library already, like gp-store's `mmap`.
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// User + system CPU seconds consumed by every thread of this process so
/// far, including threads that have already exited (gp-par spawns and joins
/// per call). Nanosecond resolution, where `/proc/self/stat` ticks at 10 ms.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the duration of the
    // call, and the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let bytes = gp_telemetry::peak_rss_bytes().expect("VmHWM in /proc/self/status");
    bytes as f64 / (1024.0 * 1024.0)
}

/// Cores the scheduler will give this process.
pub fn nproc() -> u32 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib() > 1.0);
        assert!(nproc() >= 1);
    }
}
