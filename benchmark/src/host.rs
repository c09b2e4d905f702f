//! What the numbers were measured on: CPU model, usable parallelism,
//! the ISA tier each kernel family resolved to, and the process's CPU
//! time.

use vran_arrange::best_fused;
use vran_phy::crc::best_crc;
use vran_phy::demap::best_demap;
use vran_phy::scrambler::best_descramble;
use vran_phy::turbo::{DecoderIsa, EncoderIsa};

/// `struct timespec` on 64-bit Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds this process has used so far, threads
/// that already exited included, at nanosecond resolution and current
/// as of the call. (`/proc/self/stat` counts in 10 ms ticks and
/// `/proc/*/schedstat` is only brought up to date at scheduler ticks,
/// which quantises a 0.2 s window to 2 %.) Reads 0 on other platforms.
pub fn process_cpu_seconds() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` is the C library function std itself
        // links; `ts` is a live, writable `timespec` of the layout this
        // target's libc uses, and the call writes nothing else.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9;
        }
    }
    0.0
}

/// One line describing the host and the dispatch decisions.
pub fn line() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "cpu={model:?} available_parallelism={cores} demap={} descramble={} fused={} crc={} decoder={} encoder={}",
        best_demap().name(),
        best_descramble().name(),
        best_fused().name(),
        best_crc().name(),
        DecoderIsa::best().name(),
        EncoderIsa::best().name(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let c0 = process_cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 1u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = process_cpu_seconds() - c0;
        assert!(used > 0.05, "60 ms of spinning used {used} s of CPU");
        assert!(line().contains("available_parallelism="));
    }
}
