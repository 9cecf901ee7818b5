//! CPU time of a whole process — every thread, user and system — with the
//! scheduler's nanosecond resolution, through the POSIX CPU-time clocks.
//! `/proc/<pid>/stat` counts the same time in 10-ms ticks, too coarse for a
//! 100-ms window; `std` has no equivalent, hence the two foreign calls.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the timespec layout below is that of 64-bit Linux");

/// `struct timespec` of 64-bit Linux: `time_t` and `long` are both `i64`.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// The CPU-time clock of one process.
#[derive(Debug, Clone, Copy)]
pub struct CpuClock(i32);

impl CpuClock {
    /// The clock of process `pid`; `None` if there is no such process or
    /// it is not ours to read.
    pub fn of(pid: u32) -> Option<CpuClock> {
        let mut clock_id = 0i32;
        // SAFETY: `clock_id` is a valid, writable i32 for the duration of
        // the call, which is all clock_getcpuclockid(3) asks of its caller.
        let rc = unsafe { clock_getcpuclockid(i32::try_from(pid).ok()?, &mut clock_id) };
        (rc == 0).then_some(CpuClock(clock_id))
    }

    /// CPU nanoseconds the process has used so far; 0 once it is gone.
    pub fn now_ns(self) -> u64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec of the layout the
        // platform check above pins down; clock_gettime(2) writes it or
        // fails without touching it.
        let rc = unsafe { clock_gettime(self.0, &mut ts) };
        if rc != 0 {
            return 0;
        }
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_clock_advances_with_work() {
        let clock = CpuClock::of(std::process::id()).expect("own process");
        let before = clock.now_ns();
        let mut x = 0u64;
        while clock.now_ns() < before + 2_000_000 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(clock.now_ns() >= before + 2_000_000);
        assert!(CpuClock::of(u32::MAX).is_none());
    }
}
