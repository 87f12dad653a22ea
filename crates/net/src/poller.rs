//! [`Poller`]: a level-triggered `epoll(7)` readiness queue, plus the
//! [`WakePipe`] other threads use to interrupt a blocked wait.
//!
//! Level-triggered (the default, no `EPOLLET`) keeps the state machine
//! simple: a socket with unread bytes or writable space keeps reporting
//! ready, so a handler that drains *some* of the data never strands the
//! rest — there is no "must read to EAGAIN or lose the edge" obligation.

use crate::sys;
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// What a registration wants to hear about.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd has writable buffer space.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub const READ: Interest = Interest { readable: true, writable: false };
    /// Write-only interest.
    pub const WRITE: Interest = Interest { readable: false, writable: true };
    /// Read + write interest.
    pub const BOTH: Interest = Interest { readable: true, writable: true };

    fn mask(self) -> u32 {
        let mut mask = sys::EPOLLRDHUP;
        if self.readable {
            mask |= sys::EPOLLIN;
        }
        if self.writable {
            mask |= sys::EPOLLOUT;
        }
        mask
    }
}

/// One readiness notification.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (includes a half-closed peer: reads will
    /// return the buffered tail, then 0).
    pub readable: bool,
    /// The fd has writable space.
    pub writable: bool,
    /// The peer closed (EPOLLHUP/EPOLLRDHUP) — drain reads, then close.
    pub hangup: bool,
    /// The fd is in an error state — close it.
    pub error: bool,
}

/// A level-triggered epoll instance.
///
/// Registrations map an fd to a caller-chosen `u64` token; [`Poller::wait`]
/// reports readiness as [`Event`]s carrying that token back. The instance
/// owns only its own epoll fd — registered sockets stay owned by the
/// caller.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates the epoll instance (`EPOLL_CLOEXEC`).
    ///
    /// # Errors
    ///
    /// The `epoll_create1(2)` errno.
    pub fn new() -> io::Result<Poller> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(sys::last_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: sys::c_int, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut event = sys::epoll_event { events: interest.mask(), u64: token };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) };
        if rc < 0 {
            return Err(sys::last_error());
        }
        Ok(())
    }

    /// Adds `fd` under `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` errno (e.g. `EEXIST` for a duplicate add).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes an existing registration's interest (and token).
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` errno (e.g. `ENOENT` if never registered).
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the instance. Closing an fd deregisters it
    /// implicitly, but an explicit removal is required when the fd is
    /// being handed to another owner (e.g. a replication thread) rather
    /// than closed.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl(2)` errno.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        let mut event = sys::epoll_event { events: 0, u64: 0 };
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut event) };
        if rc < 0 {
            return Err(sys::last_error());
        }
        Ok(())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely; a timeout rounds up to whole
    /// milliseconds, so a sub-millisecond one still sleeps), replacing
    /// `events`'s contents with the notifications. Interrupted waits
    /// (`EINTR`, e.g. a SIGTERM arriving) return an empty set rather than
    /// an error so callers fall through to their flag polls.
    ///
    /// # Errors
    ///
    /// The `epoll_wait(2)` errno (never `EINTR`).
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const MAX_EVENTS: usize = 256;
        let mut raw = [sys::epoll_event { events: 0, u64: 0 }; MAX_EVENTS];
        let timeout_ms: sys::c_int = match timeout {
            None => -1,
            // Round up so a 1ns timeout still sleeps instead of spinning.
            Some(t) => t.as_nanos().div_ceil(1_000_000).min(i32::MAX as u128) as i32,
        };
        let n = unsafe {
            sys::epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as sys::c_int, timeout_ms)
        };
        events.clear();
        if n < 0 {
            let err = sys::last_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for slot in raw.iter().take(n as usize) {
            let mask = slot.events;
            events.push(Event {
                token: { slot.u64 },
                readable: mask & sys::EPOLLIN != 0,
                writable: mask & sys::EPOLLOUT != 0,
                hangup: mask & (sys::EPOLLHUP | sys::EPOLLRDHUP) != 0,
                error: mask & sys::EPOLLERR != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
        }
    }
}

/// A self-pipe: worker threads [`WakePipe::wake`] the loop out of
/// `epoll_wait` when they finish a request, so completions are written
/// promptly instead of at the next poll timeout.
#[derive(Debug)]
pub struct WakePipe {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl WakePipe {
    /// Creates the pipe, both ends nonblocking and close-on-exec.
    ///
    /// # Errors
    ///
    /// The `pipe2(2)` errno.
    pub fn new() -> io::Result<WakePipe> {
        let mut fds: [sys::c_int; 2] = [0; 2];
        let rc = unsafe { sys::pipe2(fds.as_mut_ptr(), sys::PIPE_NONBLOCK | sys::EPOLL_CLOEXEC) };
        if rc < 0 {
            return Err(sys::last_error());
        }
        Ok(WakePipe { read_fd: fds[0], write_fd: fds[1] })
    }

    /// The end to register with a [`Poller`] (read interest).
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Nudges the poller. A full pipe means a wakeup is already pending,
    /// so `EAGAIN` is success; any byte in the pipe wakes the loop.
    pub fn wake(&self) {
        let byte = [1u8];
        unsafe {
            sys::write(self.write_fd, byte.as_ptr(), 1);
        }
    }

    /// Drains every pending wakeup byte (call on read-readiness so the
    /// level-triggered poller stops reporting the pipe).
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }
}

impl Drop for WakePipe {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.read_fd);
            sys::close(self.write_fd);
        }
    }
}

// The pipe is written from worker threads and drained on the loop; both
// operations are raw fd syscalls with no interior state.
unsafe impl Send for WakePipe {}
unsafe impl Sync for WakePipe {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn wait_times_out_empty() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn sub_millisecond_timeouts_round_up_instead_of_spinning() {
        let poller = Poller::new().unwrap();
        let mut events = Vec::new();
        let timeout = Duration::from_micros(300);
        let started = std::time::Instant::now();
        assert_eq!(poller.wait(&mut events, Some(timeout)).unwrap(), 0);
        let waited = started.elapsed();
        assert!(waited >= timeout, "waited only {waited:?}");
    }

    #[test]
    fn socket_readiness_carries_the_token() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        poller.register(server_side.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet.
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| !e.readable));

        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        let event = events.iter().find(|e| e.token == 7).expect("readiness event");
        assert!(event.readable);

        // Level-triggered: still ready until drained.
        poller.wait(&mut events, Some(Duration::from_millis(100))).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable));
        let mut buf = [0u8; 16];
        assert_eq!(server_side.read(&mut buf).unwrap(), 4);
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        // Peer close reports readable (EOF) + hangup.
        drop(client);
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        let event = events.iter().find(|e| e.token == 7).expect("hangup event");
        assert!(event.readable || event.hangup);
        poller.deregister(server_side.as_raw_fd()).unwrap();
    }

    #[test]
    fn reregister_switches_interest() {
        let poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        let fd = server_side.as_raw_fd();
        poller.register(fd, 1, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| e.token != 1 || !e.writable));
        // An idle socket is immediately writable once we ask.
        poller.reregister(fd, 2, Interest::BOTH).unwrap();
        poller.wait(&mut events, Some(Duration::from_millis(1000))).unwrap();
        let event = events.iter().find(|e| e.token == 2).expect("writable event");
        assert!(event.writable);
        drop(client);
    }

    #[test]
    fn wake_pipe_wakes_and_drains() {
        let poller = Poller::new().unwrap();
        let pipe = WakePipe::new().unwrap();
        poller.register(pipe.read_fd(), 99, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Wake from another thread interrupts an indefinite-ish wait.
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                pipe.wake();
                pipe.wake(); // coalesces, never blocks
            });
            poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        });
        assert!(events.iter().any(|e| e.token == 99 && e.readable));

        pipe.drain();
        poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert!(events.iter().all(|e| e.token != 99));
    }
}
