//! CPU-time clocks, for the busy time of traced layer calls.

/// CPU seconds of the calling thread.
pub fn thread_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds of this process: every thread, live or exited.
pub fn process_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Seconds on a POSIX clock, or 0 if it cannot be read.
fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` for the whole call, and
    // `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn spin(ms: u128) {
        let t0 = Instant::now();
        while t0.elapsed().as_millis() < ms {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn clocks_advance_with_work() {
        let (t0, p0) = (thread_s(), process_s());
        spin(30);
        let (dt, dp) = (thread_s() - t0, process_s() - p0);
        assert!(dt > 0.02 && dt < 1.0, "thread {dt}");
        assert!(dp >= dt, "process {dp} < thread {dt}");
    }
}
