//! Minimal `extern "C"` bindings to the handful of Linux syscalls the
//! event loop needs. The workspace vendors no `libc`/`mio`, so these are
//! declared directly — the same approach `circlekit-serve` takes for
//! `signal(2)` and `circlekit-store` for `mmap(2)`. Everything here is
//! Linux-specific (`epoll(7)` has no portable equivalent); the crate
//! compiles only on Linux targets, which is where the daemon runs.

#![allow(non_camel_case_types)]

pub type c_int = i32;

pub const EPOLL_CLOEXEC: c_int = 0o2000000;
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const SOL_SOCKET: c_int = 1;
pub const SO_REUSEADDR: c_int = 2;
pub const IPPROTO_TCP: c_int = 6;
pub const TCP_NODELAY: c_int = 1;

pub const O_NONBLOCK: c_int = 0o4000;

pub const CLOCK_MONOTONIC: c_int = 1;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
pub struct timespec {
    pub tv_sec: i64,
    pub tv_nsec: i64,
}

/// `struct itimerspec`.
#[repr(C)]
pub struct itimerspec {
    pub it_interval: timespec,
    pub it_value: timespec,
}

/// `struct epoll_event` with the kernel's layout. On x86-64 the kernel
/// declares it `__attribute__((packed))` (12 bytes, data word at offset
/// 4); on other architectures it is naturally aligned.
#[cfg(target_arch = "x86_64")]
#[repr(C, packed)]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

/// See the x86-64 variant above.
#[cfg(not(target_arch = "x86_64"))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

extern "C" {
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout_ms: c_int,
    ) -> c_int;
    pub fn close(fd: c_int) -> c_int;
    pub fn timerfd_create(clockid: c_int, flags: c_int) -> c_int;
    pub fn timerfd_settime(
        fd: c_int,
        flags: c_int,
        new_value: *const itimerspec,
        old_value: *mut itimerspec,
    ) -> c_int;
    pub fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    pub fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    pub fn listen(fd: c_int, backlog: c_int) -> c_int;
    pub fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_int,
        optlen: u32,
    ) -> c_int;
}

/// `pipe2(2)`'s `O_NONBLOCK` is the same bit as `fcntl`'s.
pub const PIPE_NONBLOCK: c_int = O_NONBLOCK;

/// The last syscall error as an [`std::io::Error`].
pub fn last_error() -> std::io::Error {
    std::io::Error::last_os_error()
}
