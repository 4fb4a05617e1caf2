//! Resident-memory accounting from `/proc/self`.
//!
//! The peak the system adds is `VmHWM` at the end minus `VmRSS` when the
//! peak was last reset through `/proc/self/clear_refs`, so the load
//! generator's inputs, built before the reset, do not count. Free heap
//! pages are returned to the kernel first: otherwise the timed phase would
//! reuse memory the generator freed but the allocator kept, and its growth
//! would not show.

fn status_kib(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].trim().trim_end_matches("kB").trim().parse().ok()
}

/// Baseline for [`added_peak_mib`].
#[derive(Debug, Clone, Copy)]
pub struct Baseline {
    rss_kib: u64,
}

/// Hands free heap pages back to the kernel, so every pass starts from
/// the same heap state and pays for the memory it touches.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> std::ffi::c_int;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only hands free heap
    // pages back to the kernel and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn trim_heap() {}

/// Returns free heap pages to the kernel, resets the kernel's peak-RSS
/// mark to the current RSS and returns the baseline. Fails where
/// `clear_refs` is not writable.
pub fn reset_peak() -> Result<Baseline, String> {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset peak RSS via /proc/self/clear_refs: {e}"))?;
    let rss_kib = status_kib("VmRSS:").ok_or("no VmRSS in /proc/self/status")?;
    Ok(Baseline { rss_kib })
}

/// Peak resident memory added since `base`, in MiB.
pub fn added_peak_mib(base: Baseline) -> Result<f64, String> {
    let hwm = status_kib("VmHWM:").ok_or("no VmHWM in /proc/self/status")?;
    Ok(hwm.saturating_sub(base.rss_kib) as f64 / 1024.0)
}
