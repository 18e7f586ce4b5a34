//! Readiness primitives for the frontend's threads: `poll(2)` over a set
//! of descriptors, and a wake socket other threads (shard workers via
//! ticket wakers, a drain) use to interrupt that poll.
//!
//! `std` already links the C library, so `poll` is reached through one
//! `extern "C"` declaration instead of a dependency.

use std::ffi::{c_int, c_short, c_ulong};
use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::Wake;
use std::time::Duration;

/// Readable (or, for a listener, a connection is waiting).
pub(crate) const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x4;
/// Error on the descriptor: always reported, never requested.
pub(crate) const POLLERR: c_short = 0x8;
/// The peer hung up: always reported, never requested.
pub(crate) const POLLHUP: c_short = 0x10;

/// One `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watches `fd` for `events`. With no events the entry is disabled
    /// (a negative descriptor, which `poll` skips), so a socket the
    /// caller is not interested in cannot report a level-triggered hang-up
    /// over and over.
    pub(crate) fn new(fd: RawFd, events: c_short) -> PollFd {
        PollFd {
            fd: if events == 0 { -1 } else { fd },
            events,
            revents: 0,
        }
    }

    /// The events `poll` reported (including `POLLERR`/`POLLHUP`).
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

extern "C" {
    // `nfds_t` is `unsigned long` on Linux.
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (`None`
/// waits indefinitely). The timeout is rounded up to whole milliseconds,
/// so a deadline is never polled for early in a loop. An interrupted
/// call returns as if it timed out.
///
/// # Errors
///
/// Propagates the `poll` error.
pub(crate) fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<()> {
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => {
            let ms = t.as_nanos().div_ceil(1_000_000);
            c_int::try_from(ms).unwrap_or(c_int::MAX)
        }
    };
    let nfds = c_ulong::try_from(fds.len()).expect("descriptor count fits nfds_t");
    // SAFETY: `fds` is a live, exclusively borrowed slice of `repr(C)`
    // structs with the layout of `struct pollfd`, and `nfds` is its length,
    // so `poll` reads and writes only inside it. The descriptors need not
    // be valid: an invalid one is reported as `POLLNVAL`, not undefined
    // behaviour.
    let rc = unsafe { poll(fds.as_mut_ptr(), nfds, timeout_ms) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
    }
    Ok(())
}

/// The sending half of a wake socket: wakes the thread polling its
/// [`WakeReceiver`]. Implements [`Wake`], so a reply ticket can carry it
/// as a [`Waker`](std::task::Waker): waking writes at most one byte until
/// the receiver clears it, and allocates nothing.
#[derive(Debug)]
pub(crate) struct Wakeup {
    tx: UnixStream,
    armed: AtomicBool,
}

impl Wakeup {
    /// Makes the receiver's next (or current) poll return.
    pub(crate) fn notify(&self) {
        // Release: whatever the waker did before (a reply landing) is
        // visible to the receiver once its clearing swap reads `true`.
        if !self.armed.swap(true, Ordering::AcqRel) {
            // A full socket already holds unread bytes, so the receiver
            // wakes regardless; any other failure has no one to report to.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

impl Wake for Wakeup {
    fn wake(self: Arc<Self>) {
        self.notify();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.notify();
    }
}

/// The polling half of a wake socket.
#[derive(Debug)]
pub(crate) struct WakeReceiver {
    rx: UnixStream,
    wakeup: Arc<Wakeup>,
}

impl WakeReceiver {
    /// The descriptor to poll for `POLLIN`.
    pub(crate) fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Re-arms the wake socket after its poll fired. Call before looking
    /// at what the wakers signalled.
    ///
    /// Drains first, then disarms: a wake that finds the socket armed
    /// writes nothing, so disarming first would let this drain swallow
    /// the byte of a wake that landed in between and leave the socket
    /// armed with nothing to read — every later wake would be lost. In
    /// this order, a wake before the disarm is seen by the caller's look
    /// that follows (the swap acquires it), and a wake after it writes a
    /// fresh byte, so the next poll returns at once.
    pub(crate) fn clear(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.rx.read(&mut sink) {
                Ok(n) if n == sink.len() => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => break,
            }
        }
        // Acquire: pairs with `notify`'s release.
        self.wakeup.armed.swap(false, Ordering::AcqRel);
    }
}

/// A connected, non-blocking wake socket pair.
///
/// # Errors
///
/// Propagates socket creation errors.
pub(crate) fn wake_pair() -> io::Result<(Arc<Wakeup>, WakeReceiver)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let wakeup = Arc::new(Wakeup {
        tx,
        armed: AtomicBool::new(false),
    });
    Ok((Arc::clone(&wakeup), WakeReceiver { rx, wakeup }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn wake_interrupts_an_indefinite_poll() {
        let (wakeup, rx) = wake_pair().unwrap();
        let poller = std::thread::spawn(move || {
            let mut fds = [PollFd::new(rx.fd(), POLLIN)];
            poll_fds(&mut fds, None).unwrap();
            fds[0].revents() & POLLIN != 0
        });
        std::task::Waker::from(wakeup).wake();
        assert!(poller.join().unwrap());
    }

    #[test]
    fn wakes_coalesce_until_cleared() {
        let (wakeup, mut rx) = wake_pair().unwrap();
        let waker = std::task::Waker::from(Arc::clone(&wakeup));
        waker.wake_by_ref();
        waker.wake_by_ref();
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        poll_fds(&mut fds, Some(Duration::ZERO)).unwrap();
        assert_ne!(fds[0].revents() & POLLIN, 0);
        rx.clear();
        // One byte for both wakes, and it is gone.
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        poll_fds(&mut fds, Some(Duration::ZERO)).unwrap();
        assert_eq!(fds[0].revents(), 0);
        // Cleared means re-armed: the next wake writes again.
        waker.wake();
        let mut fds = [PollFd::new(rx.fd(), POLLIN)];
        poll_fds(&mut fds, Some(Duration::ZERO)).unwrap();
        assert_ne!(fds[0].revents() & POLLIN, 0);
    }

    #[test]
    fn timeout_bounds_the_wait_and_disabled_entries_are_skipped() {
        let (_wakeup, rx) = wake_pair().unwrap();
        let mut fds = [PollFd::new(rx.fd(), 0), PollFd::new(rx.fd(), POLLIN)];
        let started = Instant::now();
        poll_fds(&mut fds, Some(Duration::from_millis(5))).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(5));
        assert_eq!(fds[0].revents(), 0);
        assert_eq!(fds[1].revents(), 0);
    }
}
