//! [`Timer`]: a one-shot `timerfd(2)` a [`crate::Poller`] waits on like
//! any other fd, for wakeups finer than `epoll_wait`'s whole
//! milliseconds.

use crate::sys;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// A nonblocking one-shot monotonic timer. Register [`Timer::fd`] with
/// read interest; it reports readable once the armed instant passes,
/// until [`Timer::clear`] consumes the expiry.
#[derive(Debug)]
pub struct Timer {
    fd: RawFd,
}

impl Timer {
    /// Creates a disarmed timer (`CLOCK_MONOTONIC`, nonblocking,
    /// close-on-exec).
    ///
    /// # Errors
    ///
    /// The `timerfd_create(2)` errno.
    pub fn new() -> io::Result<Timer> {
        let flags = sys::O_NONBLOCK | sys::EPOLL_CLOEXEC;
        // SAFETY: plain integer arguments; the call touches no memory of
        // ours.
        let fd = unsafe { sys::timerfd_create(sys::CLOCK_MONOTONIC, flags) };
        if fd < 0 {
            return Err(sys::last_error());
        }
        Ok(Timer { fd })
    }

    /// The fd to register with a [`crate::Poller`] (read interest).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Arms the timer to fire once, `after` from now, to the nanosecond
    /// (zero fires at once). Re-arming replaces any pending expiry.
    ///
    /// # Errors
    ///
    /// The `timerfd_settime(2)` errno.
    pub fn set(&self, after: Duration) -> io::Result<()> {
        // An all-zero value would disarm the timer instead.
        let after = after.max(Duration::from_nanos(1));
        let spec = sys::itimerspec {
            it_interval: sys::timespec {
                tv_sec: 0,
                tv_nsec: 0,
            },
            it_value: sys::timespec {
                tv_sec: after.as_secs().min(i64::MAX as u64) as i64,
                tv_nsec: i64::from(after.subsec_nanos()),
            },
        };
        // SAFETY: `spec` is a live `itimerspec` with the kernel's layout,
        // read only for the call; a null old value is allowed.
        let rc = unsafe { sys::timerfd_settime(self.fd, 0, &spec, std::ptr::null_mut()) };
        if rc < 0 {
            return Err(sys::last_error());
        }
        Ok(())
    }

    /// Consumes a fired expiry, so the level-triggered poller stops
    /// reporting the timer. A no-op when it has not fired.
    pub fn clear(&self) {
        let mut expirations = [0u8; 8];
        // SAFETY: the buffer is 8 writable bytes, exactly the length
        // passed; `fd` is this timer's open descriptor.
        unsafe {
            sys::read(self.fd, expirations.as_mut_ptr(), expirations.len());
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        // SAFETY: `fd` was opened by `Timer::new` and is closed only here.
        unsafe {
            sys::close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Interest, Poller};
    use std::time::Instant;

    #[test]
    fn fires_once_at_a_sub_millisecond_instant() {
        let poller = Poller::new().unwrap();
        let timer = Timer::new().unwrap();
        poller.register(timer.fd(), 5, Interest::READ).unwrap();
        let mut events = Vec::new();
        let after = Duration::from_micros(300);
        let started = Instant::now();
        timer.set(after).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let waited = started.elapsed();
        assert!(events.iter().any(|e| e.token == 5 && e.readable));
        assert!(waited >= after, "woke after only {waited:?}");
        // Still readable until cleared, then quiet.
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 5));
        timer.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.iter().all(|e| e.token != 5));
    }
}
