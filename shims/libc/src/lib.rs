//! Offline stand-in for `libc`.
//!
//! Declares exactly the Linux syscall surface the memkv evented transport
//! needs — epoll for readiness notification, eventfd for cross-thread
//! wakeups, and non-blocking stream sockets for in-loop connects and
//! accepts (`bind`/`listen`/`accept4` back the evented server) — with
//! the kernel ABI types and constants those calls take, plus glibc's
//! `mallopt` (the client pins the allocator's `mmap`/trim thresholds with
//! it). The symbols resolve against the system C library every Rust binary
//! already links; no C code is vendored.

#![allow(non_camel_case_types)]

pub type c_int = i32;
pub type c_uint = u32;
pub type c_void = core::ffi::c_void;
pub type size_t = usize;
pub type ssize_t = isize;
pub type socklen_t = u32;
pub type sa_family_t = u16;

/// One epoll readiness record. The kernel packs this struct on x86-64
/// (a 12-byte layout); other architectures use natural alignment.
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[repr(C)]
#[derive(Clone, Copy)]
pub struct epoll_event {
    pub events: u32,
    pub u64: u64,
}

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;
pub const EPOLL_CLOEXEC: c_int = 0x80000;

pub const EFD_CLOEXEC: c_int = 0x80000;
pub const EFD_NONBLOCK: c_int = 0x800;

pub const AF_INET: c_int = 2;
pub const AF_INET6: c_int = 10;
pub const SOCK_STREAM: c_int = 1;
pub const SOCK_NONBLOCK: c_int = 0o4000;
pub const SOCK_CLOEXEC: c_int = 0x80000;
pub const SOL_SOCKET: c_int = 1;
pub const SO_REUSEADDR: c_int = 2;
pub const SO_ERROR: c_int = 4;
pub const IPPROTO_TCP: c_int = 6;
pub const TCP_NODELAY: c_int = 1;
pub const TCP_QUICKACK: c_int = 12;
pub const EINPROGRESS: c_int = 115;
pub const EINTR: c_int = 4;
pub const EAGAIN: c_int = 11;

/// IPv4 address, network byte order (kernel `struct in_addr`).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct in_addr {
    pub s_addr: u32,
}

/// `struct sockaddr_in` — IPv4 socket address; `sin_port` is big-endian.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_in {
    pub sin_family: sa_family_t,
    pub sin_port: u16,
    pub sin_addr: in_addr,
    pub sin_zero: [u8; 8],
}

/// IPv6 address (kernel `struct in6_addr`).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct in6_addr {
    pub s6_addr: [u8; 16],
}

/// `struct sockaddr_in6` — IPv6 socket address; `sin6_port` is big-endian.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr_in6 {
    pub sin6_family: sa_family_t,
    pub sin6_port: u16,
    pub sin6_flowinfo: u32,
    pub sin6_addr: in6_addr,
    pub sin6_scope_id: u32,
}

/// Generic socket address header, for casting in `connect`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct sockaddr {
    pub sa_family: sa_family_t,
    pub sa_data: [u8; 14],
}

/// `mallopt` parameters (glibc `<malloc.h>`).
#[cfg(target_env = "gnu")]
pub const M_TRIM_THRESHOLD: c_int = -1;
#[cfg(target_env = "gnu")]
pub const M_MMAP_THRESHOLD: c_int = -3;

#[cfg(target_env = "gnu")]
extern "C" {
    /// Returns 1 on success, 0 if `value` is out of the parameter's range.
    pub fn mallopt(param: c_int, value: c_int) -> c_int;
}

extern "C" {
    pub fn epoll_create1(flags: c_int) -> c_int;
    pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    pub fn epoll_wait(
        epfd: c_int,
        events: *mut epoll_event,
        maxevents: c_int,
        timeout: c_int,
    ) -> c_int;
    pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    pub fn read(fd: c_int, buf: *mut c_void, count: size_t) -> ssize_t;
    pub fn write(fd: c_int, buf: *const c_void, count: size_t) -> ssize_t;
    pub fn close(fd: c_int) -> c_int;
    pub fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    pub fn connect(sockfd: c_int, addr: *const sockaddr, addrlen: socklen_t) -> c_int;
    pub fn getsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *mut c_void,
        optlen: *mut socklen_t,
    ) -> c_int;
    pub fn setsockopt(
        sockfd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: socklen_t,
    ) -> c_int;
    pub fn bind(sockfd: c_int, addr: *const sockaddr, addrlen: socklen_t) -> c_int;
    pub fn listen(sockfd: c_int, backlog: c_int) -> c_int;
    pub fn accept4(
        sockfd: c_int,
        addr: *mut sockaddr,
        addrlen: *mut socklen_t,
        flags: c_int,
    ) -> c_int;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoll_round_trip_via_eventfd() {
        unsafe {
            let ep = epoll_create1(EPOLL_CLOEXEC);
            assert!(ep >= 0);
            let ev = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
            assert!(ev >= 0);
            let mut reg = epoll_event {
                events: EPOLLIN,
                u64: 7,
            };
            assert_eq!(epoll_ctl(ep, EPOLL_CTL_ADD, ev, &mut reg), 0);

            // Nothing written yet: wait times out with zero events.
            let mut out = [epoll_event { events: 0, u64: 0 }; 4];
            assert_eq!(epoll_wait(ep, out.as_mut_ptr(), 4, 0), 0);

            // A write makes the eventfd readable and carries the token.
            let one: u64 = 1;
            assert_eq!(
                write(ev, (&one as *const u64).cast(), 8),
                8,
                "eventfd write"
            );
            let n = epoll_wait(ep, out.as_mut_ptr(), 4, 1000);
            assert_eq!(n, 1);
            assert_eq!({ out[0].u64 }, 7);
            assert!(out[0].events & EPOLLIN != 0);

            let mut drained: u64 = 0;
            assert_eq!(read(ev, (&mut drained as *mut u64).cast(), 8), 8);
            assert_eq!(drained, 1);

            assert_eq!(close(ev), 0);
            assert_eq!(close(ep), 0);
        }
    }

    #[test]
    fn listener_with_reuseaddr_accepts_nonblocking() {
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
            assert!(fd >= 0);
            let one: c_int = 1;
            assert_eq!(
                setsockopt(
                    fd,
                    SOL_SOCKET,
                    SO_REUSEADDR,
                    (&one as *const c_int).cast(),
                    core::mem::size_of::<c_int>() as socklen_t,
                ),
                0
            );
            let addr = sockaddr_in {
                sin_family: AF_INET as sa_family_t,
                sin_port: 0, // ephemeral
                sin_addr: in_addr {
                    s_addr: u32::from_ne_bytes([127, 0, 0, 1]),
                },
                sin_zero: [0; 8],
            };
            assert_eq!(
                bind(
                    fd,
                    (&addr as *const sockaddr_in).cast(),
                    core::mem::size_of::<sockaddr_in>() as socklen_t,
                ),
                0
            );
            assert_eq!(listen(fd, 16), 0);

            // No pending connection: non-blocking accept4 must report
            // EAGAIN rather than park the caller.
            let rc = accept4(
                fd,
                core::ptr::null_mut(),
                core::ptr::null_mut(),
                SOCK_NONBLOCK | SOCK_CLOEXEC,
            );
            assert_eq!(rc, -1);
            assert_eq!(std::io::Error::last_os_error().raw_os_error(), Some(EAGAIN));

            // Recover the bound port via the std listener wrapper and
            // connect once; accept4 now yields a real fd.
            use std::os::fd::{FromRawFd, IntoRawFd};
            let listener = std::net::TcpListener::from_raw_fd(fd);
            let port = listener.local_addr().unwrap().port();
            let _client = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
            let lfd = listener.into_raw_fd();
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                let conn = accept4(
                    lfd,
                    core::ptr::null_mut(),
                    core::ptr::null_mut(),
                    SOCK_NONBLOCK | SOCK_CLOEXEC,
                );
                if conn >= 0 {
                    assert_eq!(close(conn), 0);
                    break;
                }
                assert_eq!(std::io::Error::last_os_error().raw_os_error(), Some(EAGAIN));
                assert!(std::time::Instant::now() < deadline, "accept never fired");
                std::thread::yield_now();
            }
            assert_eq!(close(lfd), 0);
        }
    }

    #[test]
    fn nonblocking_connect_reports_einprogress_then_success() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let port = listener.local_addr().unwrap().port();
        unsafe {
            let fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
            assert!(fd >= 0);
            let addr = sockaddr_in {
                sin_family: AF_INET as sa_family_t,
                sin_port: port.to_be(),
                sin_addr: in_addr {
                    s_addr: u32::from_ne_bytes([127, 0, 0, 1]),
                },
                sin_zero: [0; 8],
            };
            let rc = connect(
                fd,
                (&addr as *const sockaddr_in).cast(),
                core::mem::size_of::<sockaddr_in>() as socklen_t,
            );
            if rc != 0 {
                assert_eq!(
                    std::io::Error::last_os_error().raw_os_error(),
                    Some(EINPROGRESS)
                );
            }
            // Loopback connects resolve almost immediately; poll SO_ERROR.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
            loop {
                let mut err: c_int = -1;
                let mut len = core::mem::size_of::<c_int>() as socklen_t;
                assert_eq!(
                    getsockopt(
                        fd,
                        SOL_SOCKET,
                        SO_ERROR,
                        (&mut err as *mut c_int).cast(),
                        &mut len
                    ),
                    0
                );
                if err == 0 {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "connect never resolved: {err}"
                );
                std::thread::yield_now();
            }
            assert_eq!(close(fd), 0);
        }
    }
}
