//! What the shared host takes from the measurements.
//!
//! On a shared host the hypervisor runs other tenants on this guest's
//! vCPUs: steal time, measured at 0–41 % of the guest's busy time in
//! spells of minutes. Stolen time is not the program's, so the benchmark
//! leaves it out: single-threaded set-up calls are timed in thread CPU
//! time, from which the kernel leaves stolen time out, and the busy times
//! of each pass are scaled by the share of that pass the kernel's steal
//! accounting says was not stolen.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// This thread's CPU time in seconds. The kernel leaves stolen time out
/// of it.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a constant the kernel
    // defines; `clock_gettime` writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The guest's CPU accounting, summed over its CPUs, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ticks {
    steal: u64,
    /// Ticks a CPU had work: everything but idle and I/O wait.
    busy: u64,
}

impl Ticks {
    /// Reads the first line of `/proc/stat`; zero where it is missing, so
    /// no time counts as stolen.
    pub fn now() -> Self {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let f: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or_default()
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already in user and nice).
        Ticks { steal: at(7), busy: at(0) + at(1) + at(2) + at(5) + at(6) + at(7) }
    }

    /// Share of the busy CPU time since `earlier` that was stolen.
    pub fn steal_share_since(&self, earlier: Ticks) -> f64 {
        let busy = self.busy.saturating_sub(earlier.busy);
        if busy == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / busy as f64
        }
    }
}

/// `cpu_set_t` of glibc: a mask of 1,024 CPUs.
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the CPU it is running on, so the guest's
/// scheduler no longer moves it between vCPUs. Threads it spawns later
/// inherit the pin.
pub fn pin_to_current_cpu() -> Result<(), String> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads the
    // calling thread's state.
    let cpu = unsafe { sched_getcpu() };
    if !(0..1024).contains(&cpu) {
        return Err(format!("sched_getcpu returned {cpu}"));
    }
    let mut mask = CpuSet([0; 16]);
    mask.0[cpu as usize / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread, and the call only reads the mask.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(())
}
