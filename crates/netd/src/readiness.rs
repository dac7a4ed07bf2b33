//! A thin, dependency-free wrapper over `poll(2)`.
//!
//! The nonblocking server loop needs exactly one kernel primitive: "which
//! of these descriptors are readable/writable right now, sleeping at most
//! this long". `std` deliberately does not expose it, and the workspace is
//! dependency-free by policy (CI asserts only path dependencies in the
//! runtime graph), so the binding is declared here directly against the C
//! library `std` already links: the classic [`PollFd`] triple and a safe
//! [`poll_fds`] wrapper that retries `EINTR` and converts failures into
//! `std::io::Error`.
//!
//! `poll(2)` over epoll/kqueue is a deliberate choice, not a shortcut: the
//! server re-registers interest every iteration anyway (write interest
//! flips with buffered output), the fd sets here are thousands — not
//! millions — of descriptors, and one portable syscall keeps the loop
//! free of per-platform registration state machines.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable data (or a peer close, which reads as EOF) is available.
pub const POLLIN: i16 = 0x001;
/// Writing would not block.
pub const POLLOUT: i16 = 0x004;
/// Error condition (revents only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (revents only).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is invalid (revents only).
pub const POLLNVAL: i16 = 0x020;

/// One `struct pollfd`, laid out exactly as `poll(2)` expects.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    /// The descriptor to watch (a negative fd is ignored by the kernel,
    /// which is how slots with no interest keep index parity with the
    /// caller's connection table).
    pub fd: RawFd,
    /// Requested events ([`POLLIN`] | [`POLLOUT`]).
    pub events: i16,
    /// Returned events, filled by [`poll_fds`].
    pub revents: i16,
}

impl PollFd {
    /// Watch `fd` for the given interest set.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// A slot the kernel skips (keeps table indices aligned).
    pub fn ignored() -> Self {
        PollFd {
            fd: -1,
            events: 0,
            revents: 0,
        }
    }

    /// Data (or EOF) can be read.
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR) != 0
    }

    /// A write would make progress.
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR) != 0
    }

    /// The descriptor is dead (error, hangup with nothing to read, or
    /// invalid).
    pub fn failed(&self) -> bool {
        self.revents & (POLLERR | POLLNVAL) != 0
    }
}

// The symbol std already links from the platform C library. `nfds_t` is
// `unsigned long` on every Linux ABI this workspace targets.
extern "C" {
    fn poll(fds: *mut PollFd, nfds: libc_nfds, timeout: i32) -> i32;
}

#[allow(non_camel_case_types)]
type libc_nfds = core::ffi::c_ulong;

/// Waits until at least one descriptor in `fds` is ready or `timeout`
/// elapses (`None` blocks indefinitely). Returns how many entries have
/// nonzero `revents`; 0 is a clean timeout. `EINTR` is retried with the
/// original deadline intact.
pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let deadline = timeout.map(|t| std::time::Instant::now() + t);
    loop {
        let ms: i32 = match deadline {
            None => -1,
            Some(d) => {
                let left = d.saturating_duration_since(std::time::Instant::now());
                // Round up so a sub-millisecond remainder still sleeps
                // instead of degenerating into a busy loop.
                let mut ms = left.as_millis();
                if ms == 0 && left.as_nanos() > 0 {
                    ms = 1;
                }
                i32::try_from(ms).unwrap_or(i32::MAX)
            }
        };
        // SAFETY: `fds` is a valid, exclusively borrowed slice of
        // `#[repr(C)]` pollfd structs; the kernel writes only `revents`
        // within the slice. The call does not retain the pointer.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as libc_nfds, ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() == io::ErrorKind::Interrupted {
            if let Some(d) = deadline {
                if std::time::Instant::now() >= d {
                    return Ok(0);
                }
            }
            continue;
        }
        return Err(err);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_times_out_cleanly_on_a_silent_socket() {
        let (a, _b) = UnixStream::pair().expect("socketpair");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(10))).expect("poll");
        assert_eq!(n, 0);
        assert!(!fds[0].readable());
    }

    #[test]
    fn poll_reports_readable_after_a_write_and_writable_on_empty_buffers() {
        let (a, mut b) = UnixStream::pair().expect("socketpair");
        b.write_all(b"x").expect("write");
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN | POLLOUT)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(500))).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert!(fds[0].writable());
    }

    #[test]
    fn ignored_slots_are_skipped() {
        let (a, mut b) = UnixStream::pair().expect("socketpair");
        b.write_all(b"x").expect("write");
        let mut fds = [PollFd::ignored(), PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(500))).expect("poll");
        assert_eq!(n, 1);
        assert!(!fds[0].readable());
        assert!(fds[1].readable());
    }

    #[test]
    fn hangup_reads_as_readable_eof() {
        let (a, b) = UnixStream::pair().expect("socketpair");
        drop(b);
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll_fds(&mut fds, Some(Duration::from_millis(500))).expect("poll");
        assert_eq!(n, 1);
        assert!(fds[0].readable(), "hangup must surface as readable EOF");
    }
}
