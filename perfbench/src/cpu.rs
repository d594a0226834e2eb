//! Process CPU time: the clock the in-process timings use.
//!
//! On a shared virtual machine the hypervisor can withhold a vCPU from
//! the guest ("steal"), which stretches wall time by amounts unrelated
//! to the program. The kernel excludes stolen time from a process's CPU
//! time, which counts the work of every thread the process ran,
//! including threads that have exited (the parallel substrate spawns
//! scoped threads per call).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CLOCK_PROCESS_CPUTIME_ID with the 64-bit Linux timespec layout");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the layout the C
    // library expects on this target (checked by the cfg above), and
    // `clock_gettime` writes only through the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always supported on Linux"
    );
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// CPU seconds used since an earlier [`process_cpu_ns`] reading.
pub fn cpu_secs_since(start_ns: u64) -> f64 {
    process_cpu_ns().saturating_sub(start_ns) as f64 / 1e9
}
