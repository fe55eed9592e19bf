//! Minimal epoll + wakeup-pipe shim for the gateway reactor.
//!
//! A vendored, dependency-free slice of what `mio` provides: readiness
//! polling ([`Poller`]) and cross-thread wakeups ([`Waker`]). The std
//! library already links the platform libc, so the epoll and pipe entry
//! points are declared directly as `extern "C"` — no `libc` crate needed.
//!
//! Only the parts the reactor uses are exposed: add/modify/delete a file
//! descriptor's interest set (level-triggered; edge-triggered is available
//! via [`Interest::edge`] for the listener), wait with a timeout, and a
//! non-blocking self-pipe whose read end lives in the poll set so other
//! threads (the batcher's completion path, shutdown) can interrupt an
//! `epoll_wait`.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// epoll_ctl ops.
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLL_CLOEXEC: i32 = 0o2000000;
const O_NONBLOCK: i32 = 0o4000;
const O_CLOEXEC: i32 = 0o2000000;

/// Readiness bits (subset of `EPOLL*` the reactor cares about).
pub mod events {
    /// Readable.
    pub const IN: u32 = 0x1;
    /// Writable.
    pub const OUT: u32 = 0x4;
    /// Error condition (always reported, no need to register).
    pub const ERR: u32 = 0x8;
    /// Hangup (always reported, no need to register).
    pub const HUP: u32 = 0x10;
    /// Peer shut down its write half (half-closed socket).
    pub const RDHUP: u32 = 0x2000;
    /// Edge-triggered delivery.
    pub const ET: u32 = 1 << 31;
}

/// Matches the kernel's `struct epoll_event` on x86_64 (packed: the kernel
/// ABI has no padding between `events` and `data` there).
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut RawEpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn pipe2(fds: *mut i32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// What a registered fd wants to be woken for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
    /// Edge-triggered instead of the default level-triggered delivery.
    pub edge: bool,
}

impl Interest {
    /// Level-triggered read interest.
    pub const READ: Interest = Interest { readable: true, writable: false, edge: false };
    /// Level-triggered write interest.
    pub const WRITE: Interest = Interest { readable: false, writable: true, edge: false };
    /// Level-triggered read + write interest.
    pub const READ_WRITE: Interest = Interest { readable: true, writable: true, edge: false };
    /// No interest: stays registered (so HUP/ERR still surface) but
    /// requests no read/write wakeups — the reactor's backpressure state.
    pub const NONE: Interest = Interest { readable: false, writable: false, edge: false };

    /// The same interest, edge-triggered.
    pub fn edge(self) -> Interest {
        Interest { edge: true, ..self }
    }

    fn bits(self) -> u32 {
        let mut bits = events::RDHUP;
        if self.readable {
            bits |= events::IN;
        }
        if self.writable {
            bits |= events::OUT;
        }
        if self.edge {
            bits |= events::ET;
        }
        bits
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Raw `EPOLL*` readiness bits (see [`events`]).
    pub readiness: u32,
}

impl Event {
    /// Readable (or peer-closed, which reads as EOF).
    pub fn readable(&self) -> bool {
        self.readiness & (events::IN | events::HUP | events::ERR | events::RDHUP) != 0
    }

    /// Writable (or errored, so a write will surface the error).
    pub fn writable(&self) -> bool {
        self.readiness & (events::OUT | events::HUP | events::ERR) != 0
    }
}

/// An epoll instance. Closes the epoll fd on drop; registered fds are
/// owned by their connections, not the poller.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall wrapper, no pointers involved.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, interest: Option<Interest>, token: u64) -> io::Result<()> {
        let mut ev =
            RawEpollEvent { events: interest.map(Interest::bits).unwrap_or(0), data: token };
        let evp =
            if interest.is_some() { &mut ev as *mut RawEpollEvent } else { std::ptr::null_mut() };
        // SAFETY: `ev` outlives the call; DEL passes a null event as the
        // kernel (>= 2.6.9) permits.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, evp) })?;
        Ok(())
    }

    /// Registers `fd` with the given interest under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some(interest), token)
    }

    /// Changes the interest set of an already registered `fd`.
    pub fn reregister(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some(interest), token)
    }

    /// Removes `fd` from the poll set.
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None, 0)
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// expires, appending readiness into `out`. Returns the number of
    /// events delivered; 0 means timeout. `EINTR` is retried internally.
    pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        const MAX_EVENTS: usize = 256;
        let mut raw = [RawEpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let timeout_ms: i32 = match timeout {
            None => -1,
            Some(d) => d.as_millis().min(i32::MAX as u128) as i32,
        };
        loop {
            // SAFETY: `raw` is a valid buffer of MAX_EVENTS entries.
            let n =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as i32, timeout_ms) };
            if n < 0 {
                let err = io::Error::last_os_error();
                if err.kind() == io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(err);
            }
            let n = n as usize;
            for ev in &raw[..n] {
                out.push(Event { token: ev.data, readiness: ev.events });
            }
            return Ok(n);
        }
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: epfd is a valid fd we own.
        unsafe { close(self.epfd) };
    }
}

/// A non-blocking self-pipe used to interrupt [`Poller::wait`] from other
/// threads. The reactor registers [`Waker::read_fd`] in its poll set under
/// a reserved token (and re-registers it after a supervised respawn — the
/// pipe outlives poller generations); [`Waker::wake`] writes one byte,
/// [`Waker::drain`] empties it.
#[derive(Debug)]
pub struct Waker {
    read_fd: RawFd,
    write_fd: RawFd,
}

impl Waker {
    /// Creates the non-blocking pipe.
    pub fn new() -> io::Result<Waker> {
        let mut fds = [0i32; 2];
        // SAFETY: `fds` is a valid out-buffer for two descriptors.
        cvt(unsafe { pipe2(fds.as_mut_ptr(), O_NONBLOCK | O_CLOEXEC) })?;
        Ok(Waker { read_fd: fds[0], write_fd: fds[1] })
    }

    /// The read end, for [`Poller::register`] under a reserved token.
    pub fn read_fd(&self) -> RawFd {
        self.read_fd
    }

    /// Signals the poller. A full pipe means a wakeup is already pending,
    /// which is just as good — never an error.
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one-byte write from a valid buffer; EAGAIN/EPIPE ignored.
        unsafe { write(self.write_fd, &byte, 1) };
    }

    /// Drains pending wakeup bytes so level-triggered polling goes quiet.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        loop {
            // SAFETY: reads into a valid buffer; loop ends on EAGAIN/EOF.
            let n = unsafe { read(self.read_fd, buf.as_mut_ptr(), buf.len()) };
            if n <= 0 {
                return;
            }
        }
    }

    /// A clonable handle that can only wake (for completion senders).
    pub fn handle(&self) -> WakeHandle {
        WakeHandle { write_fd: self.write_fd }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: both fds are valid and owned by this Waker.
        unsafe {
            close(self.read_fd);
            close(self.write_fd);
        }
    }
}

/// A copyable wake-only handle to a [`Waker`]'s write end.
///
/// Holders must not outlive the `Waker` (the reactor guarantees this by
/// joining workers and the batcher before dropping its poller); a write to
/// a stale fd after that would at worst hit EBADF, which `wake` ignores.
#[derive(Clone, Copy, Debug)]
pub struct WakeHandle {
    write_fd: RawFd,
}

impl WakeHandle {
    /// Signals the poller (best-effort; see [`Waker::wake`]).
    pub fn wake(&self) {
        let byte = 1u8;
        // SAFETY: one-byte write from a valid buffer; errors ignored.
        unsafe { write(self.write_fd, &byte, 1) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn poller_sees_socket_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.register(server.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing to read yet: times out.
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "no readiness before any bytes arrive");

        client.write_all(b"ping").unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());

        let mut server = server;
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);

        // Level-triggered: drained socket goes quiet again.
        events.clear();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0, "level-triggered readiness clears once drained");
    }

    #[test]
    fn interest_modification_gates_write_readiness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let _client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        // NONE: registered but asks for nothing — an idle socket stays quiet.
        poller.register(server.as_raw_fd(), 1, Interest::NONE).unwrap();
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap(), 0);

        // Flip to WRITE: an empty socket buffer is immediately writable.
        poller.reregister(server.as_raw_fd(), 1, Interest::WRITE).unwrap();
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable());

        poller.deregister(server.as_raw_fd()).unwrap();
        events.clear();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap(), 0);
    }

    #[test]
    fn waker_interrupts_a_wait_and_drains_quiet() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.register(waker.read_fd(), u64::MAX, Interest::READ).unwrap();
        let handle = waker.handle();

        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            handle.wake();
        });
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, u64::MAX);

        waker.drain();
        events.clear();
        assert_eq!(poller.wait(&mut events, Some(Duration::from_millis(10))).unwrap(), 0);
    }
}
