//! `circlekit-net`: the nonblocking substrate under `circlekit-serve`'s
//! event-loop front end.
//!
//! The serving daemon's original design was thread-per-connection; the
//! path to the ROADMAP's 10k-connection target is readiness-driven I/O.
//! This crate provides exactly the primitives that front end needs and
//! nothing more, through raw `extern "C"` bindings (the workspace
//! vendors no `libc`/`mio`/`tokio` — the same idiom as `signal(2)` in
//! `circlekit-serve` and `mmap(2)` in `circlekit-store`):
//!
//! * [`Poller`] — a level-triggered `epoll(7)` instance mapping fds to
//!   caller-chosen `u64` tokens.
//! * [`WakePipe`] — a nonblocking self-pipe so worker threads can
//!   interrupt a blocked `epoll_wait` when a completion is ready.
//! * [`Timer`] — a one-shot `timerfd(2)`, so a wait can end at an
//!   instant finer than `epoll_wait`'s whole milliseconds.
//! * [`tune_listener`] / [`tune_stream`] — the socket knobs every
//!   circlekit accept and connect path applies: `SO_REUSEADDR`, a
//!   [`LISTEN_BACKLOG`]-deep accept queue, and `TCP_NODELAY`.
//!
//! Policy (protocol framing, connection state machines, dispatch) stays
//! in `circlekit-serve`; this crate is mechanism only, so the load
//! generator can drive thousands of client connections through the same
//! [`Poller`] the server uses.

#![warn(missing_docs)]

mod poller;
mod sys;
mod timer;
mod tune;

pub use poller::{Event, Interest, Poller, WakePipe};
pub use timer::Timer;
pub use tune::{tune_listener, tune_stream, LISTEN_BACKLOG};
