//! Signal-to-flag plumbing for graceful shutdown.
//!
//! The workspace vendors no `libc`/`signal-hook`, so handlers are
//! installed through a minimal `extern "C"` binding to `signal(2)` — the
//! same approach `circlekit-store` uses for `mmap`. The handler itself
//! only stores into an [`AtomicBool`] (async-signal-safe); the server's
//! event loop polls the flag and promotes it to a cooperative drain. Both
//! SIGINT (interactive ^C) and SIGTERM (the `kill` default, what service
//! managers send) raise the same flag: either way the daemon drains
//! queued work and exits cleanly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static TERMINATION_SEEN: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();

#[cfg(unix)]
mod ffi {
    pub const SIGINT: i32 = 2;
    pub const SIGTERM: i32 = 15;
    pub type Handler = extern "C" fn(i32);

    extern "C" {
        pub fn signal(signum: i32, handler: Handler) -> usize;
        pub fn raise(signum: i32) -> i32;
    }
}

#[cfg(unix)]
extern "C" fn on_termination(_signum: i32) {
    TERMINATION_SEEN.store(true, Ordering::Release);
}

/// Installs the SIGINT and SIGTERM handlers (once per process) and
/// returns the flag they raise. On non-Unix targets the handlers are
/// skipped and the flag simply never fires.
pub fn install_termination_handlers() -> &'static AtomicBool {
    INSTALL.call_once(|| {
        #[cfg(unix)]
        unsafe {
            ffi::signal(ffi::SIGINT, on_termination);
            ffi::signal(ffi::SIGTERM, on_termination);
        }
    });
    &TERMINATION_SEEN
}

/// The termination flag without installing handlers (used by pollers
/// that must not change process-wide signal disposition).
pub fn termination_flag() -> &'static AtomicBool {
    &TERMINATION_SEEN
}

/// Test hook: raises the flag as the real handlers would.
pub fn raise_for_test() {
    TERMINATION_SEEN.store(true, Ordering::Release);
}

/// Test hook: clears the flag.
pub fn reset_for_test() {
    TERMINATION_SEEN.store(false, Ordering::Release);
}

/// Test hook: delivers a *real* SIGTERM to this process via `raise(3)`,
/// exercising the installed handler end-to-end. Call
/// [`install_termination_handlers`] first — an unhandled SIGTERM kills
/// the process.
#[cfg(unix)]
pub fn deliver_sigterm_for_test() {
    unsafe {
        ffi::raise(ffi::SIGTERM);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not several: the flag is process-global, and parallel
    // tests resetting it would race each other.
    #[test]
    fn flag_roundtrip_and_real_sigterm() {
        reset_for_test();
        assert!(!termination_flag().load(Ordering::Acquire));
        raise_for_test();
        assert!(termination_flag().load(Ordering::Acquire));
        reset_for_test();
        // Installing is idempotent and returns the same flag.
        let a = install_termination_handlers() as *const AtomicBool;
        let b = install_termination_handlers() as *const AtomicBool;
        assert_eq!(a, b);
        #[cfg(unix)]
        {
            deliver_sigterm_for_test();
            assert!(
                termination_flag().load(Ordering::Acquire),
                "SIGTERM must be caught and flagged, not kill the process"
            );
            reset_for_test();
        }
    }
}
