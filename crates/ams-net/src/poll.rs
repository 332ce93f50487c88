//! The readiness wait the reactor blocks in: one `poll(2)` over a set
//! of file descriptors.
//!
//! std has no wait over several sockets at once, so this module
//! declares `poll` against the C library std already links (no new
//! crate) and wraps it in one safe function. It holds the crate's only
//! `unsafe` code.

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::os::raw::{c_int, c_short};
use std::time::Duration;

#[cfg(not(unix))]
compile_error!("ams-net waits for socket readiness with poll(2) and needs a unix target");

/// Readable: bytes, end of stream, or a pending connection on a
/// listener.
pub(crate) const POLLIN: c_short = 0x001;
/// Writable.
pub(crate) const POLLOUT: c_short = 0x004;

/// C's `nfds_t`.
#[cfg(any(target_os = "linux", target_os = "android"))]
type Nfds = std::os::raw::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type Nfds = std::os::raw::c_uint;

/// One entry of a wait set, laid out as C's `struct pollfd`.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Waits on `fd` for `events`. With no events the entry is left
    /// out of the wait (a negative fd), so a hang-up on a socket that
    /// no one is ready to read or write cannot end every wait at once.
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> Self {
        Self {
            fd: if events == 0 { -1 } else { fd.as_raw_fd() },
            events,
            revents: 0,
        }
    }

    /// Whether the last wait reported anything for this entry
    /// (including errors and hang-ups).
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Blocks until an entry of `fds` is ready or `timeout` passes (`None`
/// waits without limit; a timeout is rounded up to whole milliseconds).
/// Returns the number of ready entries. A signal's interruption
/// (`EINTR`) waits again.
///
/// # Errors
/// Any other `poll(2)` failure, e.g. `ENOMEM`.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    let nfds = Nfds::try_from(fds.len()).expect("a wait set fits nfds_t");
    loop {
        // SAFETY: `fds` is an exclusively borrowed, initialised slice
        // of `#[repr(C)]` entries with the layout of `struct pollfd`,
        // and `nfds` is its length, so `poll` reads and writes only
        // within it and keeps no pointer past the call. File
        // descriptor values are plain integers to `poll`: a closed or
        // negative one is reported or skipped, never dereferenced.
        let ready = unsafe { poll(fds.as_mut_ptr(), nfds, timeout) };
        if let Ok(ready) = usize::try_from(ready) {
            return Ok(ready);
        }
        let error = io::Error::last_os_error();
        if error.kind() != io::ErrorKind::Interrupted {
            return Err(error);
        }
    }
}
