//! CPU-time clocks.
//!
//! The compute-bound figures of every workload are taken in CPU time, not
//! wall time: on a shared host the hypervisor takes the virtual CPU away
//! for stretches of varying length, and other processes of the machine
//! compete for it, so a wall-clock duration of CPU-bound work tells how
//! busy the host was as much as how fast the program is. The kernel's
//! per-thread run time counts only the time a thread actually ran
//! (with paravirtual steal accounting, as on KVM guests, time stolen by
//! the hypervisor is excluded), so it moves with the program.

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn seconds_of(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU seconds the whole process has used (every thread, live or ended).
pub fn process_cpu_s() -> f64 {
    seconds_of(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    seconds_of(CLOCK_THREAD_CPUTIME_ID)
}

/// Ids of this process's live threads.
pub fn thread_ids() -> Vec<u64> {
    let mut ids: Vec<u64> = std::fs::read_dir("/proc/self/task")
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    ids.sort_unstable();
    ids
}

/// CPU seconds thread `tid` of this process has run (the first field of
/// its `schedstat`, in nanoseconds); 0 once the thread has ended.
pub fn cpu_of_thread_s(tid: u64) -> f64 {
    std::fs::read_to_string(format!("/proc/self/task/{tid}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns * 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_with_work() {
        let (t0, p0) = (thread_cpu_s(), process_cpu_s());
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(thread_cpu_s() > t0);
        assert!(process_cpu_s() > p0);
    }

    #[test]
    fn schedstat_reads_own_threads() {
        let ids = thread_ids();
        assert!(!ids.is_empty());
        assert!(ids.iter().any(|&tid| cpu_of_thread_s(tid) > 0.0));
    }
}
