//! Shared epoll plumbing for the evented transport and the evented
//! server engine.
//!
//! Both event loops — the client-side reactor ([`crate::reactor`]) and
//! the server engine ([`crate::server`]) — are built on the same
//! primitive: one epoll instance plus an eventfd that lets other threads
//! (submitters, handle drops, a server's `shutdown`) wake a blocked
//! `epoll_wait`. [`Poller`] owns both file descriptors and exposes the
//! small level-triggered surface each loop needs.

use std::io;
use std::time::Duration;

/// epoll token reserved for the wake eventfd. Loops must never hand this
/// token to a connection slot.
pub(crate) const WAKE_TOKEN: u64 = u64::MAX;

/// Thin RAII wrapper over an epoll instance plus an eventfd used to wake
/// the event loop from other threads.
pub(crate) struct Poller {
    epfd: libc::c_int,
    wakefd: libc::c_int,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: `epoll_create1` takes no pointers; the result is checked
        // before use and owned by the `Poller` from here on.
        let epfd = unsafe { libc::epoll_create1(libc::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `eventfd` takes no pointers; the result is checked below.
        let wakefd = unsafe { libc::eventfd(0, libc::EFD_CLOEXEC | libc::EFD_NONBLOCK) };
        if wakefd < 0 {
            let err = io::Error::last_os_error();
            // SAFETY: `epfd` was just returned open by `epoll_create1` and
            // nothing else holds it yet, so this is its only close.
            unsafe { libc::close(epfd) };
            return Err(err);
        }
        let poller = Poller { epfd, wakefd };
        poller.ctl(libc::EPOLL_CTL_ADD, wakefd, WAKE_TOKEN, libc::EPOLLIN)?;
        Ok(poller)
    }

    fn ctl(&self, op: libc::c_int, fd: libc::c_int, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = libc::epoll_event {
            events: interest,
            u64: token,
        };
        // SAFETY: `epfd` is this poller's open epoll instance and `ev` is
        // a live, initialised `epoll_event` for the duration of the call.
        // An `fd` that is closed or not registered is reported as an error
        // (`EBADF` / `ENOENT`), not undefined behaviour.
        let rc = unsafe { libc::epoll_ctl(self.epfd, op, fd, &mut ev) };
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(())
        }
    }

    pub(crate) fn add(&self, fd: libc::c_int, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_ADD, fd, token, interest)
    }

    pub(crate) fn modify(&self, fd: libc::c_int, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_MOD, fd, token, interest)
    }

    pub(crate) fn delete(&self, fd: libc::c_int) -> io::Result<()> {
        self.ctl(libc::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until readiness or `timeout` (`None` = forever), appending
    /// `(token, events)` pairs to `out`.
    pub(crate) fn wait(
        &self,
        out: &mut Vec<(u64, u32)>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        out.clear();
        let ms: libc::c_int = match timeout {
            None => -1,
            Some(d) => {
                // Round up so a deadline 0.4 ms away does not spin.
                let ms = d.as_millis();
                let ms = if Duration::from_millis(ms as u64) < d {
                    ms + 1
                } else {
                    ms
                };
                ms.min(i32::MAX as u128) as libc::c_int
            }
        };
        let mut events = [libc::epoll_event { events: 0, u64: 0 }; 64];
        loop {
            // SAFETY: `events` is a live array of exactly 64 entries, the
            // `maxevents` passed, so the kernel writes within it; `epfd`
            // is this poller's open epoll instance.
            let n = unsafe { libc::epoll_wait(self.epfd, events.as_mut_ptr(), 64, ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            for ev in &events[..n as usize] {
                out.push(({ ev.u64 }, { ev.events }));
            }
            return Ok(());
        }
    }

    /// Wake a blocked [`Poller::wait`] from another thread.
    pub(crate) fn notify(&self) {
        let one: u64 = 1;
        // SAFETY: `one` is a live `u64`, exactly the 8 bytes an eventfd
        // write takes, and `wakefd` stays open until `Drop`.
        let _ = unsafe { libc::write(self.wakefd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the wake counter so level-triggered polling goes quiet.
    pub(crate) fn drain_wake(&self) {
        let mut count: u64 = 0;
        // SAFETY: `count` is a live, exclusively borrowed `u64`, exactly
        // the 8 bytes an eventfd read fills; `wakefd` is non-blocking and
        // stays open until `Drop`.
        let _ = unsafe { libc::read(self.wakefd, (&mut count as *mut u64).cast(), 8) };
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: both descriptors were opened in `new`, are owned by this
        // `Poller` alone (the fields are private and never handed out as
        // owned fds), and `drop` runs once — so each is closed exactly once.
        unsafe {
            libc::close(self.wakefd);
            libc::close(self.epfd);
        }
    }
}
