//! The benchmark's own HTTP load client: one client thread driving at
//! most `nproc` keep-alive connections.
//!
//! * Open loop: requests go out on a fixed schedule whatever the server
//!   does; each is timed from when it was *due*, so a stall also charges
//!   the requests queued behind it, and how late the sender ran is
//!   recorded separately.
//! * Closed loop: each connection keeps `depth` requests in flight and
//!   sends the next one when a response arrives; latency runs from the
//!   actual send.
//!
//! Every response is checked: status 200 and a body byte-identical to the
//! oracle's. Anything else, a dead connection or a request still open at
//! the phase deadline counts as failed.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request pool of a phase: raw HTTP requests and, per request, the
/// body the oracle expects back.
pub struct Pool {
    /// Raw HTTP requests.
    pub requests: Vec<Vec<u8>>,
    /// Expected response bodies, parallel to `requests`.
    pub expected: Vec<Vec<u8>>,
}

/// What one phase observed.
#[derive(Clone, Debug, Default)]
pub struct PhaseResult {
    /// Latency of every successful request, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// How late each open-loop request was sent, milliseconds.
    pub late_ms: Vec<f64>,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests that failed (non-200, wrong body, dead connection, timeout).
    pub failed: usize,
    /// Wall time from the first send to the last response, seconds.
    pub elapsed_s: f64,
}

/// The fixed send schedule of one open-loop connection: request `i` is
/// due `offset + i * interval` after the phase start.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Gap between this connection's sends, nanoseconds.
    pub interval_ns: u64,
    /// Due time of the first send, nanoseconds.
    pub offset_ns: u64,
}

impl Schedule {
    /// The schedule of connection `conn` of `conns` sharing `rate` req/s:
    /// connections interleave evenly, so the combined stream is uniform.
    pub fn for_connection(rate: f64, conns: usize, conn: usize) -> Schedule {
        let combined_ns = 1e9 / rate;
        Schedule {
            interval_ns: (combined_ns * conns as f64) as u64,
            offset_ns: (combined_ns * conn as f64) as u64,
        }
    }

    /// When request `i` is due.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.offset_ns + i as u64 * self.interval_ns
    }
}

/// Per-connection bookkeeping: requests in flight in send order, each
/// remembered by the time its latency runs from (its due time in an open
/// loop, its send time in a closed one).
#[derive(Debug, Default)]
pub struct Ledger {
    in_flight: VecDeque<(u64, usize)>,
    /// Lateness of every scheduled send, nanoseconds.
    pub late_ns: Vec<u64>,
}

impl Ledger {
    /// Records that scheduled request `i` (pool entry `entry`) went out at
    /// `sent_ns`; its latency will run from its due time.
    pub fn sent(&mut self, schedule: &Schedule, i: usize, entry: usize, sent_ns: u64) {
        let due = schedule.due_ns(i);
        self.late_ns.push(sent_ns.saturating_sub(due));
        self.in_flight.push_back((due, entry));
    }

    /// Records an unscheduled send; its latency runs from `sent_ns`.
    pub fn sent_now(&mut self, entry: usize, sent_ns: u64) {
        self.in_flight.push_back((sent_ns, entry));
    }

    /// Matches the next response (responses arrive in send order on a
    /// keep-alive connection) and returns its pool entry and latency.
    pub fn received(&mut self, recv_ns: u64) -> Option<(usize, u64)> {
        let (from, entry) = self.in_flight.pop_front()?;
        Some((entry, recv_ns.saturating_sub(from)))
    }

    fn open(&self) -> usize {
        self.in_flight.len()
    }
}

/// Incremental HTTP/1.1 response framer (`Content-Length` bodies only,
/// which is all the gateway sends).
#[derive(Default)]
pub struct Framer {
    buf: Vec<u8>,
}

impl Framer {
    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Takes the next complete response as `(status, body)`, or `Err` when
    /// the stream is not valid HTTP.
    pub fn next(&mut self) -> Option<Result<(u16, Vec<u8>), String>> {
        let head_end = self.buf.windows(4).position(|w| w == b"\r\n\r\n")?;
        let head = match std::str::from_utf8(&self.buf[..head_end]) {
            Ok(h) => h,
            Err(_) => return Some(Err("response head is not UTF-8".into())),
        };
        let mut lines = head.split("\r\n");
        let status =
            lines.next().and_then(|l| l.split(' ').nth(1)).and_then(|s| s.parse::<u16>().ok());
        let length = lines.find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse::<usize>().ok())?
        });
        let (Some(status), Some(length)) = (status, length) else {
            return Some(Err(format!("malformed response head {head:?}")));
        };
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return None;
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Some(Ok((status, body)))
    }
}

/// How a phase paces its sends.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// On a fixed schedule of `rate` req/s shared by all connections.
    Open {
        /// Offered rate, req/s.
        rate: f64,
    },
    /// Keeping `depth` requests in flight per connection.
    Closed {
        /// Requests in flight per connection.
        depth: usize,
    },
}

/// One keep-alive connection of a phase.
struct Conn<'a> {
    stream: TcpStream,
    order: &'a [usize],
    schedule: Schedule,
    next: usize,
    done: usize,
    ledger: Ledger,
    framer: Framer,
    alive: bool,
}

impl Conn<'_> {
    fn finished(&self) -> bool {
        !self.alive || self.done == self.order.len()
    }
}

/// Writes all of `bytes` to a non-blocking socket, waiting for room when
/// the send buffer is full.
fn send_all(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if !crate::wait::writable(stream.as_raw_fd(), Duration::from_secs(10))? {
                    return Err(std::io::ErrorKind::TimedOut.into());
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Runs one phase on a single client thread over `orders.len()`
/// connections: connection `c` sends the pool entries `orders[c]`, paced
/// by `pace`. Requests still open at `deadline` after the start count as
/// failed.
pub fn run(
    addr: SocketAddr,
    pool: &Arc<Pool>,
    orders: &[Vec<usize>],
    pace: Pace,
    deadline: Duration,
) -> PhaseResult {
    crate::wait::tighten_timer_slack();
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let deadline_ns = deadline.as_nanos() as u64;
    let mut out =
        PhaseResult { attempted: orders.iter().map(Vec::len).sum(), ..PhaseResult::default() };
    let mut conns: Vec<Conn> = Vec::with_capacity(orders.len());
    for (c, order) in orders.iter().enumerate() {
        let stream = TcpStream::connect(addr).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        });
        let Ok(stream) = stream else {
            out.failed = out.attempted;
            return out;
        };
        let schedule = match pace {
            Pace::Open { rate } => Schedule::for_connection(rate, orders.len(), c),
            Pace::Closed { .. } => Schedule { interval_ns: 0, offset_ns: 0 },
        };
        conns.push(Conn {
            stream,
            order,
            schedule,
            next: 0,
            done: 0,
            ledger: Ledger::default(),
            framer: Framer::default(),
            alive: true,
        });
    }
    let mut fds: Vec<_> = conns.iter().map(|c| c.stream.as_raw_fd()).collect();
    let mut ready = vec![false; fds.len()];
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let now = now_ns();
        for conn in conns.iter_mut().filter(|c| c.alive) {
            while conn.next < conn.order.len() {
                let entry = conn.order[conn.next];
                match pace {
                    Pace::Open { .. } if now >= conn.schedule.due_ns(conn.next) => {
                        conn.ledger.sent(&conn.schedule, conn.next, entry, now_ns());
                    }
                    Pace::Closed { depth } if conn.ledger.open() < depth.max(1) => {
                        conn.ledger.sent_now(entry, now_ns());
                    }
                    _ => break,
                }
                conn.next += 1;
                if send_all(&mut conn.stream, &pool.requests[entry]).is_err() {
                    conn.alive = false;
                    break;
                }
            }
        }
        if conns.iter().all(Conn::finished) || now >= deadline_ns {
            break;
        }
        let until = match pace {
            Pace::Open { .. } => conns
                .iter()
                .filter(|c| c.alive && c.next < c.order.len())
                .map(|c| c.schedule.due_ns(c.next))
                .min()
                .unwrap_or(deadline_ns)
                .min(deadline_ns),
            Pace::Closed { .. } => deadline_ns,
        };
        // A dead connection's socket would poll ready forever; `ppoll`
        // skips negative descriptors.
        for (fd, conn) in fds.iter_mut().zip(&conns) {
            if !conn.alive {
                *fd = -1;
            }
        }
        let wait = Duration::from_nanos(until.saturating_sub(now_ns()));
        if crate::wait::readable(&fds, wait, &mut ready).is_err() {
            break;
        }
        for (conn, _) in conns.iter_mut().zip(&ready).filter(|(c, &r)| r && c.alive) {
            match conn.stream.read(&mut chunk) {
                Ok(0) => conn.alive = false,
                Ok(n) => {
                    let recv = now_ns();
                    conn.framer.push(&chunk[..n]);
                    while let Some(response) = conn.framer.next() {
                        let Some((entry, latency_ns)) = conn.ledger.received(recv) else {
                            conn.alive = false;
                            break;
                        };
                        conn.done += 1;
                        if matches!(&response, Ok((200, body)) if *body == pool.expected[entry]) {
                            out.latencies_ms.push(latency_ns as f64 / 1e6);
                        } else {
                            out.failed += 1;
                        }
                        if response.is_err() {
                            conn.alive = false;
                            break;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(_) => conn.alive = false,
            }
        }
    }
    for conn in &conns {
        out.failed += conn.order.len() - conn.done;
        out.late_ms.extend(conn.ledger.late_ns.iter().map(|&ns| ns as f64 / 1e6));
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_interleave_into_one_uniform_stream() {
        let a = Schedule::for_connection(1000.0, 2, 0);
        let b = Schedule::for_connection(1000.0, 2, 1);
        let mut dues: Vec<u64> = (0..4).flat_map(|i| [a.due_ns(i), b.due_ns(i)]).collect();
        dues.sort_unstable();
        assert_eq!(
            dues,
            vec![0, 1_000_000, 2_000_000, 3_000_000, 4_000_000, 5_000_000, 6_000_000, 7_000_000]
        );
    }

    #[test]
    fn a_stalled_sender_charges_lateness_to_every_request_behind_the_stall() {
        let schedule = Schedule { interval_ns: 100, offset_ns: 0 };
        let mut ledger = Ledger::default();
        // Requests 0 and 1 leave on time; the sender then stalls until
        // t=450, so requests 2..=4 (due 200, 300, 400) all leave at 450.
        ledger.sent(&schedule, 0, 10, 0);
        ledger.sent(&schedule, 1, 11, 100);
        for i in 2..=4 {
            ledger.sent(&schedule, i, 10 + i, 450);
        }
        assert_eq!(ledger.late_ns, vec![0, 0, 250, 150, 50]);
        // The server answers each 20 ns after it was sent.
        let latencies: Vec<(usize, u64)> = [20, 120, 470, 470, 470]
            .into_iter()
            .map(|recv| ledger.received(recv).unwrap())
            .collect();
        // Latency runs from the due time, so it includes the stall.
        assert_eq!(latencies, vec![(10, 20), (11, 20), (12, 270), (13, 170), (14, 70)]);
        assert_eq!(ledger.received(500), None);
    }

    #[test]
    fn framer_splits_pipelined_responses_across_chunk_boundaries() {
        let one =
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}";
        let two = b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 3\r\n\r\nabc";
        let stream: Vec<u8> = [&one[..], &two[..]].concat();
        let mut framer = Framer::default();
        framer.push(&stream[..10]);
        assert!(framer.next().is_none());
        framer.push(&stream[10..stream.len() - 1]);
        assert_eq!(framer.next().unwrap().unwrap(), (200, b"{}".to_vec()));
        assert!(framer.next().is_none());
        framer.push(&stream[stream.len() - 1..]);
        assert_eq!(framer.next().unwrap().unwrap(), (503, b"abc".to_vec()));
    }
}
