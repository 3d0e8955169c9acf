//! Everything the benchmark needs from the host: CPU pinning, the
//! calibration kernel that timed metrics are normalised by, process CPU
//! time and peak resident memory.

use std::time::Instant;

/// The calibration kernel's duration on the reference container; every
/// timed value is multiplied by `CALIB_REF_MS / measured calibration` so
/// runs on a faster or slower (or drifting) host stay comparable.
pub const CALIB_REF_MS: f64 = 12.0;

const CALIB_WORDS: usize = 400_000;

/// Scratch memory of the calibration kernel, allocated once so the
/// kernel itself never touches the allocator.
pub struct Calibrator {
    data: Vec<u64>,
    copy: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    pub fn new() -> Self {
        Calibrator {
            data: vec![0; CALIB_WORDS],
            copy: vec![0; CALIB_WORDS],
        }
    }

    /// The median of `runs` kernel runs, in milliseconds. On a shared host
    /// single runs jitter by ±10 % and now and then take twice as long; a
    /// median of a few does neither.
    pub fn read_ms(&mut self, runs: usize) -> f64 {
        let runs: Vec<f64> = (0..runs).map(|_| self.run_ms()).collect();
        crate::stats::median(&runs)
    }

    /// One run of the fixed kernel — xorshift fill, `sort_unstable`,
    /// 8 × `copy_from_slice` — in milliseconds. A mix of branchy compare
    /// work and memory bandwidth: when a neighbour on the host slows the
    /// joins by a quarter it slows this by a quarter too, where a pure
    /// memory or pure pointer-chasing kernel barely notices.
    pub fn run_ms(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for w in self.data.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *w = x;
        }
        self.data.sort_unstable();
        for _ in 0..8 {
            self.copy.copy_from_slice(&self.data);
            std::hint::black_box(&mut self.copy);
        }
        std::hint::black_box(&self.data);
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Factor a raw time is multiplied by, given the calibration readings
/// taken before and after it.
pub fn normalisation_scale(calib_before_ms: f64, calib_after_ms: f64) -> f64 {
    CALIB_REF_MS / ((calib_before_ms + calib_after_ms) * 0.5)
}

#[cfg(target_os = "linux")]
mod sys {
    // The C library is already linked by std; these are the only three
    // foreign declarations the benchmark needs.
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    /// 1024 CPUs, the kernel's default `cpu_set_t`.
    pub const MASK_WORDS: usize = 16;
}

/// The highest-numbered CPU set in an affinity mask.
fn last_cpu(mask: &[u64]) -> Option<usize> {
    mask.iter()
        .enumerate()
        .rev()
        .find(|(_, w)| **w != 0)
        .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
}

/// Pins the whole process (threads spawned later inherit the mask) to one
/// of the CPUs it is allowed on. Cross-thread hand-offs on one CPU are
/// unimodal; across vCPUs of a shared host they flip between ~4 µs and
/// ~55 µs per hop from run to run. Returns the CPU, or why pinning was
/// refused — callers downgrade that to a warning.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; sys::MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes;
    // pid 0 addresses the calling thread.
    if unsafe { sys::sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = last_cpu(&mask).ok_or("empty affinity mask")?;
    let mut one = [0u64; sys::MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes, read only.
    if unsafe { sys::sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is only implemented for Linux".into())
}

/// Pins, or says on stderr why not and carries on unpinned.
pub fn pin_or_warn() -> Option<usize> {
    or_warn(pin_to_one_cpu())
}

fn or_warn(pinned: Result<usize, String>) -> Option<usize> {
    pinned
        .map_err(|why| {
            eprintln!("warning: running unpinned ({why}); cross-thread timings may be bimodal")
        })
        .ok()
}

/// User + system CPU time of the whole process (all threads) in
/// milliseconds. Read with `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` so
/// it can be sampled around single operations; `/proc/self/stat` counts
/// 10 ms ticks and is only the fallback.
pub fn process_cpu_ms() -> f64 {
    #[cfg(target_os = "linux")]
    {
        let mut ts = sys::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `timespec`.
        if unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6;
        }
    }
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

/// `utime + stime` (clock ticks) from a `/proc/<pid>/stat` line. The
/// command name may contain spaces and parentheses, so fields are counted
/// from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) in MiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident memory of this process so far, MiB (0 where `/proc` is
/// missing).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mib(&s))
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_reference_over_mean_calibration() {
        assert_eq!(normalisation_scale(12.0, 12.0), 1.0);
        // A host twice as slow halves every time it reports.
        assert_eq!(normalisation_scale(24.0, 24.0), 0.5);
        assert!((normalisation_scale(10.0, 14.0) - 1.0).abs() < 1e-12);
        assert!((normalisation_scale(6.0, 6.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn calibration_kernel_takes_time_and_repeats() {
        let mut c = Calibrator::new();
        let a = c.run_ms();
        let b = c.run_ms();
        assert!(a > 0.0 && b > 0.0);
        // Same input every run: the sorted output is identical.
        let first = c.data.clone();
        c.run_ms();
        assert_eq!(first, c.data);
        assert!(c.data.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let line = "1234 (a b) c) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 100 1 1";
        assert_eq!(parse_stat_cpu_ticks(line), Some(300));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 1 2"), None);
    }

    #[test]
    fn vm_hwm_parsing() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn last_cpu_of_mask() {
        assert_eq!(last_cpu(&[0b11, 0]), Some(1));
        assert_eq!(last_cpu(&[1, 1 << 3]), Some(67));
        assert_eq!(last_cpu(&[0, 0]), None);
    }

    #[test]
    fn refused_affinity_degrades_to_a_warning() {
        // A sandbox that refuses the call costs the run its pinning, not
        // its life.
        assert_eq!(or_warn(Err("sched_setaffinity: EPERM".into())), None);
        assert_eq!(or_warn(Ok(3)), Some(3));
    }

    #[test]
    fn process_gauges_read() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mib() >= 0.0);
    }
}
