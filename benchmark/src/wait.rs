//! Nanosecond-resolution readiness waits for the open-loop client.
//!
//! Socket receive timeouts and `poll` round up to the kernel tick (1-4 ms),
//! far coarser than the gaps of a 6000 req/s schedule. `ppoll` takes a
//! `timespec`, and a 1 µs timer slack keeps the kernel from batching the
//! wake-up. The std library links libc already, so both entry points are
//! declared directly.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

/// Sets the calling thread's timer slack to 1 µs, so timed waits wake on
/// time instead of up to 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and only
    // changes the calling thread's timer slack; no memory is passed.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64);
    }
}

fn timespec(timeout: Duration) -> Timespec {
    Timespec { tv_sec: timeout.as_secs() as i64, tv_nsec: i64::from(timeout.subsec_nanos()) }
}

/// `ppoll` over `fds` for `events`; marks which became ready in `ready`.
fn wait(fds: &[RawFd], events: i16, timeout: Duration, ready: &mut [bool]) -> io::Result<()> {
    let mut pfds: Vec<PollFd> = fds.iter().map(|&fd| PollFd { fd, events, revents: 0 }).collect();
    let ts = timespec(timeout);
    // SAFETY: `pfds` holds `pfds.len()` live, C-laid-out entries and `ts`
    // outlives the call; a null signal mask leaves the mask unchanged.
    let n = unsafe { ppoll(pfds.as_mut_ptr(), pfds.len() as u64, &ts, std::ptr::null()) };
    if n == -1 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    for (r, p) in ready.iter_mut().zip(&pfds) {
        *r = n > 0 && p.revents != 0;
    }
    Ok(())
}

/// Waits up to `timeout` for any of `fds` to become readable (or hung
/// up); `ready[i]` tells whether `fds[i]` did.
pub fn readable(fds: &[RawFd], timeout: Duration, ready: &mut [bool]) -> io::Result<()> {
    wait(fds, POLLIN, timeout, ready)
}

/// Waits up to `timeout` for `fd` to become writable.
pub fn writable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let mut ready = [false];
    wait(&[fd], POLLOUT, timeout, &mut ready)?;
    Ok(ready[0])
}
