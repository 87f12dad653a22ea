//! Readings taken from outside a process: CPU time, context switches and
//! peak memory from `/proc/<pid>`, plus the generator's own knobs (timer
//! slack) and a fixed host-speed probe.

use std::fs;
use std::io;
use std::time::Instant;

/// CPU and scheduling counters of one process.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User and system time in clock ticks (`stat`: the whole process,
    /// threads that already exited included).
    pub utime_ticks: u64,
    pub stime_ticks: u64,
    /// Voluntary plus involuntary context switches of the threads alive
    /// at sampling time (threads that exited are not counted).
    pub ctxsw: u64,
}

impl ProcSample {
    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            utime_ticks: self.utime_ticks.saturating_sub(earlier.utime_ticks),
            stime_ticks: self.stime_ticks.saturating_sub(earlier.stime_ticks),
            ctxsw: self.ctxsw.saturating_sub(earlier.ctxsw),
        }
    }

    /// User plus system time in seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.utime_ticks + self.stime_ticks) as f64 / clock_ticks()
    }
}

/// Samples `/proc/<pid>` (`pid` may be `"self"`).
///
/// # Errors
///
/// Any read failure, e.g. the process has exited.
pub fn sample(pid: &str) -> io::Result<ProcSample> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    let mut out = ProcSample {
        utime_ticks: field(11),
        stime_ticks: field(12),
        ctxsw: 0,
    };
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread may exit between listing and reading; skip it.
        if let Ok(status) = fs::read_to_string(task?.path().join("status")) {
            out.ctxsw += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
        }
    }
    Ok(out)
}

/// Host-wide CPU time stolen by the hypervisor and total CPU time, in
/// ticks summed over all CPUs (`/proc/stat`).
///
/// # Errors
///
/// Any read failure.
pub fn host_ticks() -> io::Result<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat")?;
    let cpu = stat.lines().next().unwrap_or("");
    let fields: Vec<u64> = cpu
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let total = fields.iter().take(8).sum();
    Ok((fields.get(7).copied().unwrap_or(0), total))
}

/// Peak resident set (`VmHWM`) of `pid`, in KiB.
///
/// # Errors
///
/// Any read failure.
pub fn vm_hwm_kib(pid: &str) -> io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    Ok(status_field(&status, "VmHWM:"))
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Lowers this thread's timer slack to 1 ns, so `nanosleep` wakes the
/// sender within microseconds of its deadline instead of the default
/// 50 µs late — accuracy without spinning.
pub fn lower_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling attributes; the unused
    // arguments are ignored by the kernel.
    let rc = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
    if rc != 0 {
        eprintln!("e2ebench: PR_SET_TIMERSLACK failed; sends may run later");
    }
}

/// Clock ticks per second for `stat` times.
pub fn clock_ticks() -> f64 {
    const SC_CLK_TCK: i32 = 2;
    // SAFETY: sysconf reads a constant system parameter and has no
    // preconditions.
    let tck = unsafe { sysconf(SC_CLK_TCK) };
    if tck > 0 {
        tck as f64
    } else {
        100.0
    }
}

/// A fixed single-thread integer loop; returns its wall time in ms. The
/// work never changes, so drift in this number is drift in the host.
pub fn host_probe() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc: u64 = 0;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        let a = sample("self").unwrap();
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = sample("self").unwrap();
        assert!(b.since(&a).cpu_s() > 0.0);
        assert!(vm_hwm_kib("self").unwrap() > 0);
        assert!(clock_ticks() > 0.0);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tx\nVmHWM:\t  1234 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM:"), 1234);
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), 7);
        assert_eq!(status_field(status, "missing:"), 0);
    }
}
