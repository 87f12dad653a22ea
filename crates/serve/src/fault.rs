//! Panic injection for the containment tests.
//!
//! Compiled only under `--features fault-inject`, like
//! `circlekit_scoring::fault`; production builds carry none of this.
//! The hooks are process-global one-shot flags, so tests that arm them
//! must serialise on a shared lock. Each fires before its site takes any
//! lock, so the injected panic poisons none.

use std::sync::atomic::{AtomicBool, Ordering};

static INLINE: AtomicBool = AtomicBool::new(false);
static JOB: AtomicBool = AtomicBool::new(false);

/// Makes the next request the event loop routes panic on the loop
/// thread.
pub fn arm_inline_panic() {
    INLINE.store(true, Ordering::SeqCst);
}

/// Makes the next job a worker runs — one queued op, or one whole batch
/// of score misses — panic.
pub fn arm_job_panic() {
    JOB.store(true, Ordering::SeqCst);
}

/// Disarms both hooks. Idempotent; call from test cleanup.
pub fn disarm() {
    INLINE.store(false, Ordering::SeqCst);
    JOB.store(false, Ordering::SeqCst);
}

/// Loop-side hook: panics once if armed.
pub(crate) fn inline_site() {
    if INLINE.swap(false, Ordering::SeqCst) {
        panic!("fault-inject: injected panic routing a request");
    }
}

/// Worker-side hook: panics once if armed.
pub(crate) fn job_site() {
    if JOB.swap(false, Ordering::SeqCst) {
        panic!("fault-inject: injected panic running a job");
    }
}
