//! Process resource usage from `getrusage(RUSAGE_SELF)`: CPU time of
//! every thread the process ran (ended ones included) and the peak
//! resident set.

use std::os::raw::{c_int, c_long};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_rest: [c_long; 13],
}

const RUSAGE_SELF: c_int = 0;

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn usage() -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` with the C
    // layout, and RUSAGE_SELF is a valid `who`; the call writes only
    // inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid buffer"
    );
    ru
}

/// User plus system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let ru = usage();
    let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    secs(&ru.ru_utime) + secs(&ru.ru_stime)
}

/// Peak resident set of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    usage().ru_maxrss as f64 / 1024.0
}
