//! Fuzz-ish HTTP edge cases over real sockets: the gateway must answer
//! malformed, truncated, oversized and abusive inputs with clean 4xx/5xx
//! responses (or a clean close) — and must never panic or hang.

use camal::config::CamalConfig;
use camal::ensemble::EnsembleMember;
use camal::registry::{ModelKey, ModelRegistry};
use camal::CamalModel;
use nilm_data::appliance::ApplianceKind;
use nilm_data::templates::DatasetId;
use nilm_models::detector::{build_from_spec, BackboneSpec};
use nilm_serve::gateway::{Gateway, GatewayConfig};
use nilm_serve::http::{read_response, HttpLimits};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

fn tiny_model(seed: u64) -> CamalModel {
    let cfg = CamalConfig {
        n_ensemble: 1,
        kernels: vec![5],
        trials: 1,
        width_div: 16,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = BackboneSpec::ResNet { kernel: 5, width_div: cfg.width_div };
    let member = EnsembleMember { net: build_from_spec(&mut rng, spec), spec, val_loss: 0.1 };
    let mut model = CamalModel::from_members(cfg, vec![member]);
    model.set_window(32);
    model
}

fn start_gateway() -> Gateway {
    let mut registry = ModelRegistry::unbounded();
    registry.insert(ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle), tiny_model(5));
    let cfg = GatewayConfig {
        read_timeout: Duration::from_millis(500),
        limits: HttpLimits {
            max_request_line: 1024,
            max_header_line: 1024,
            max_headers: 16,
            max_body: 64 * 1024,
        },
        ..GatewayConfig::default()
    };
    Gateway::start(registry, cfg).expect("gateway starts")
}

fn connect(addr: &str) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream
}

/// Sends raw bytes on a fresh connection; returns the status of the first
/// response, or `None` if the server just closed the connection.
fn send_raw(addr: &str, bytes: &[u8]) -> Option<u16> {
    let stream = connect(addr);
    (&stream).write_all(bytes).ok()?;
    let mut reader = BufReader::new(&stream);
    read_response(&mut reader).ok().map(|r| r.status)
}

/// The server is alive iff /healthz answers 200.
fn assert_alive(addr: &str) {
    let stream = connect(addr);
    (&stream).write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
    let mut reader = BufReader::new(&stream);
    let r = read_response(&mut reader).expect("healthz after abuse");
    assert_eq!(r.status, 200);
}

#[test]
fn malformed_and_truncated_inputs_get_4xx_and_never_kill_the_server() {
    let gateway = start_gateway();
    let addr = gateway.addr().to_string();

    // (input, expected status) — None means "clean close is acceptable".
    let cases: Vec<(&[u8], Option<u16>)> = vec![
        (b"GARBAGE\r\n\r\n", Some(400)),
        (b"GET /x\r\n\r\n", Some(400)),
        (b"GET /x HTTP/9.9\r\n\r\n", Some(400)),
        (b"POST /v1/localize HTTP/1.1\r\nContent-Length: oops\r\n\r\n", Some(400)),
        // No Content-Length = empty body (curl -X POST); invalid JSON -> 400.
        (b"POST /v1/localize HTTP/1.1\r\n\r\n", Some(400)),
        (b"POST /v1/localize HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", Some(411)),
        (b"GET /nope HTTP/1.1\r\n\r\n", Some(404)),
        (b"PUT /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n", Some(405)),
        (b"POST /v1/localize HTTP/1.1\r\nContent-Length: 7\r\n\r\nnotjson", Some(400)),
        // Content-Length over the configured 64 KiB cap.
        (b"POST /v1/localize HTTP/1.1\r\nContent-Length: 10000000\r\n\r\n", Some(413)),
    ];
    for (input, want) in cases {
        let got = send_raw(&addr, input);
        match want {
            Some(status) => {
                assert_eq!(got, Some(status), "input {:?}", String::from_utf8_lossy(input))
            }
            None => {}
        }
        assert_alive(&addr);
    }

    // A JSON nesting bomb in the body must be a 400, not a stack-overflow
    // abort of the whole server process.
    let bomb =
        format!("POST /v1/localize HTTP/1.1\r\nContent-Length: 20000\r\n\r\n{}", "[".repeat(20000));
    assert_eq!(send_raw(&addr, bomb.as_bytes()), Some(400));
    assert_alive(&addr);

    // Oversized request line -> 414; oversized header line / count -> 431.
    let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(4000));
    assert_eq!(send_raw(&addr, long_line.as_bytes()), Some(414));
    let long_header = format!("GET /healthz HTTP/1.1\r\nx: {}\r\n\r\n", "v".repeat(4000));
    assert_eq!(send_raw(&addr, long_header.as_bytes()), Some(431));
    let many_headers = format!("GET /healthz HTTP/1.1\r\n{}\r\n", "a: 1\r\n".repeat(32));
    assert_eq!(send_raw(&addr, many_headers.as_bytes()), Some(431));
    assert_alive(&addr);

    gateway.shutdown();
}

#[test]
fn truncated_request_line_and_mid_body_disconnects_do_not_hang() {
    let gateway = start_gateway();
    let addr = gateway.addr().to_string();

    // Truncated request line, then abrupt close.
    {
        let stream = connect(&addr);
        (&stream).write_all(b"GET /hea").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Server should close without a response (incomplete line).
        let mut reader = BufReader::new(&stream);
        let _ = read_response(&mut reader); // whatever it is, it must return
    }
    assert_alive(&addr);

    // Declared body of 100 bytes, 10 sent, then abrupt close.
    {
        let stream = connect(&addr);
        (&stream)
            .write_all(b"POST /v1/localize HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut buf = Vec::new();
        // The server drops the connection (no valid framing possible).
        let _ = (&stream).read_to_end(&mut buf);
    }
    assert_alive(&addr);

    // Client that sends nothing at all: the read timeout reaps it.
    {
        let stream = connect(&addr);
        std::thread::sleep(Duration::from_millis(700));
        let mut buf = [0u8; 16];
        let n = (&stream).read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "idle connection must be closed by the server");
    }
    assert_alive(&addr);

    gateway.shutdown();
}

#[test]
fn pipelined_keep_alive_requests_all_get_answers_in_order() {
    let gateway = start_gateway();
    let addr = gateway.addr().to_string();

    let stream = connect(&addr);
    // Three pipelined requests in one write: two healthz, one models.
    (&stream)
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /v1/models HTTP/1.1\r\nHost: t\r\n\r\n\
              GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let r1 = read_response(&mut reader).expect("first pipelined response");
    let r2 = read_response(&mut reader).expect("second pipelined response");
    let r3 = read_response(&mut reader).expect("third pipelined response");
    assert_eq!((r1.status, r2.status, r3.status), (200, 200, 200));
    assert!(r2.body_str().unwrap().contains("refit:kettle"));
    assert_eq!(r1.header("connection"), Some("keep-alive"));
    assert_eq!(r3.header("connection"), Some("close"), "Connection: close must be honored");

    gateway.shutdown();
}

#[test]
fn connection_flood_is_shed_with_503_not_unbounded_threads() {
    let mut registry = ModelRegistry::unbounded();
    registry.insert(ModelKey::new(DatasetId::Refit, ApplianceKind::Kettle), tiny_model(6));
    let cfg = GatewayConfig {
        max_connections: 2,
        read_timeout: Duration::from_millis(500),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(registry, cfg).expect("gateway starts");
    let addr = gateway.addr().to_string();

    // Two idle connections occupy both connection slots...
    let _held_a = connect(&addr);
    let _held_b = connect(&addr);
    std::thread::sleep(Duration::from_millis(50));
    // ...so the third is answered 503 and closed instead of being
    // registered with the reactor.
    let shed = connect(&addr);
    let mut reader = BufReader::new(&shed);
    let r = read_response(&mut reader).expect("shed connection still gets a response");
    assert_eq!(r.status, 503);
    assert_eq!(r.header("connection"), Some("close"));

    // Once the idle connections are reaped by the read timeout, new
    // clients are served again.
    std::thread::sleep(Duration::from_millis(700));
    assert_alive(&addr);

    gateway.shutdown();
}

#[test]
fn slow_loris_header_drip_is_cut_off_with_408() {
    let gateway = start_gateway();
    let addr = gateway.addr().to_string();

    // Drip one header byte every 100ms — each drip is fresh "activity", but
    // the idle clock starts at the request's FIRST byte, so at the 500ms
    // read timeout the reactor must cut the connection off with a 408
    // instead of letting the loris hold a slot forever.
    let stream = connect(&addr);
    for byte in b"GET /healthz HT" {
        if (&stream).write_all(&[*byte]).is_err() {
            break; // server already closed on us — also acceptable progress
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let mut reader = BufReader::new(&stream);
    let r = read_response(&mut reader).expect("loris must get a response, not a hang");
    assert_eq!(r.status, 408, "{:?}", r.body_str());
    assert_eq!(r.header("connection"), Some("close"));
    assert!(r.body_str().unwrap().contains("idle deadline"), "{:?}", r.body_str());
    // And the socket really is closed afterwards.
    let n = (&stream).read(&mut [0u8; 16]).unwrap_or(0);
    assert_eq!(n, 0, "connection must be closed after the 408");

    assert_alive(&addr);
    gateway.shutdown();
}

#[test]
fn half_closed_sockets_get_their_response_then_are_reaped() {
    let gateway = start_gateway();
    let addr = gateway.addr().to_string();

    // Full request then SHUT_WR: the in-flight request must still be
    // answered, after which the connection is closed (not leaked).
    {
        let stream = connect(&addr);
        (&stream).write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reader = BufReader::new(&stream);
        let r = read_response(&mut reader).expect("half-closed client still gets its response");
        assert_eq!(r.status, 200);
        let mut rest = Vec::new();
        let n = reader.read_to_end(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "server must close after answering a half-closed peer");
    }

    // SHUT_WR with nothing sent: clean EOF at a request boundary — the
    // reactor reaps it silently and promptly (no 500ms idle wait needed).
    {
        let stream = connect(&addr);
        stream.shutdown(Shutdown::Write).unwrap();
        let start = std::time::Instant::now();
        let n = (&stream).read(&mut [0u8; 16]).unwrap_or(0);
        assert_eq!(n, 0, "empty half-closed connection must be closed");
        assert!(start.elapsed() < Duration::from_millis(400), "EOF reap must not wait for idle");
    }

    assert_alive(&addr);
    gateway.shutdown();
}

/// Property tests for the incremental parser itself (no sockets): any way
/// of chunking a byte stream must produce the identical sequence of parsed
/// requests — and, for malformed streams, the identical 4xx error at the
/// identical byte offset. This is the invariant that lets the reactor feed
/// whatever the kernel hands it without changing observable behavior.
mod chunking_invariance {
    use nilm_serve::http::{HttpLimits, RequestParser};
    use proptest::prelude::*;
    use proptest::rand::rngs::StdRng;
    use proptest::rand::Rng as _;

    fn limits() -> HttpLimits {
        HttpLimits { max_request_line: 64, max_header_line: 64, max_headers: 8, max_body: 256 }
    }

    /// Everything externally observable about a parse run, in order.
    #[derive(Debug, PartialEq, Eq)]
    enum Event {
        Request {
            method: String,
            path: String,
            http10: bool,
            headers: Vec<(String, String)>,
            body: Vec<u8>,
        },
        /// Mapped 4xx status (0 if unmapped) and the exact byte offset the
        /// parser had consumed when it failed.
        Error { status: u16, offset: u64 },
    }

    /// Runs a fresh parser over `stream` split into chunks of the given
    /// lengths and records every completed request and the terminal error.
    fn drive(stream: &[u8], chunk_lens: &[usize]) -> Vec<Event> {
        let mut parser = RequestParser::new(limits());
        let mut events = Vec::new();
        let mut pos = 0usize;
        for &len in chunk_lens {
            let chunk = &stream[pos..pos + len];
            pos += len;
            let mut off = 0usize;
            while off < chunk.len() {
                match parser.feed(&chunk[off..]) {
                    Ok((n, done)) => {
                        off += n;
                        if let Some(r) = done {
                            events.push(Event::Request {
                                method: r.method,
                                path: r.path,
                                http10: r.http10,
                                headers: r.headers,
                                body: r.body,
                            });
                        }
                    }
                    Err(e) => {
                        let status = e.error.status().map(|(s, _)| s).unwrap_or(0);
                        events.push(Event::Error { status, offset: e.offset });
                        return events;
                    }
                }
            }
        }
        events
    }

    fn random_valid_request(rng: &mut StdRng, out: &mut Vec<u8>) {
        // Occasional leading empty lines — tolerated between requests.
        for _ in 0..rng.random_range(0..3u32) {
            out.extend_from_slice(if rng.random_range(0..2u32) == 0 { b"\r\n" } else { b"\n" });
        }
        if rng.random_range(0..2u32) == 0 {
            let path_len = rng.random_range(1..20usize);
            out.extend_from_slice(b"GET /");
            out.extend(std::iter::repeat(b'p').take(path_len));
            out.extend_from_slice(b" HTTP/1.1\r\nHost: t\r\n\r\n");
        } else {
            let body: Vec<u8> = (0..rng.random_range(0..60usize))
                .map(|_| rng.random_range(0..=255u32) as u8)
                .collect();
            out.extend_from_slice(
                format!("POST /v1/x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", body.len()).as_bytes(),
            );
            out.extend_from_slice(&body);
        }
    }

    fn random_malformed_request(rng: &mut StdRng, out: &mut Vec<u8>) {
        match rng.random_range(0..7u32) {
            0 => out.extend_from_slice(b"GARBAGE LINE\r\n\r\n"),
            1 => out.extend_from_slice(b"GET /x HTTP/9.9\r\n\r\n"),
            2 => out.extend_from_slice(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            3 => out.extend_from_slice(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            4 => {
                // Request line over the 64-byte cap -> 414 mid-line.
                out.extend_from_slice(b"GET /");
                out.extend(std::iter::repeat(b'a').take(100));
                out.extend_from_slice(b" HTTP/1.1\r\n\r\n");
            }
            5 => {
                // More headers than max_headers -> 431.
                out.extend_from_slice(b"GET /x HTTP/1.1\r\n");
                for i in 0..12 {
                    out.extend_from_slice(format!("h{i}: v\r\n").as_bytes());
                }
                out.extend_from_slice(b"\r\n");
            }
            _ => out.extend_from_slice(b"GET /x HTTP/1.1\r\nX: \xff\xfe\r\n\r\n"),
        }
    }

    /// A byte stream of 1..=3 concatenated requests (each valid or
    /// malformed) plus one random chunking of it. Small chunk sizes
    /// dominate so splits land inside request lines, headers and bodies.
    #[derive(Clone, Copy, Debug)]
    struct StreamAndSplit;

    impl Strategy for StreamAndSplit {
        type Value = (Vec<u8>, Vec<usize>);

        fn sample(&self, rng: &mut StdRng) -> (Vec<u8>, Vec<usize>) {
            let mut stream = Vec::new();
            for _ in 0..rng.random_range(1..=3usize) {
                if rng.random_range(0..4u32) == 0 {
                    random_malformed_request(rng, &mut stream);
                } else {
                    random_valid_request(rng, &mut stream);
                }
            }
            let mut chunk_lens = Vec::new();
            let mut left = stream.len();
            while left > 0 {
                let take = match rng.random_range(0..4u32) {
                    0 => 1,
                    1 => rng.random_range(1..=left.min(3)),
                    2 => rng.random_range(1..=left.min(17)),
                    _ => rng.random_range(1..=left),
                };
                chunk_lens.push(take);
                left -= take;
            }
            (stream, chunk_lens)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any chunk split parses identically to feeding the whole buffer
        /// at once: same requests, same bytes, and — for malformed input —
        /// the same 4xx at the same byte offset.
        #[test]
        fn any_chunk_split_parses_identically((stream, chunk_lens) in StreamAndSplit) {
            let whole = drive(&stream, &[stream.len()]);
            let split = drive(&stream, &chunk_lens);
            prop_assert_eq!(
                &split, &whole,
                "split {:?} diverged on stream {:?}",
                chunk_lens, String::from_utf8_lossy(&stream)
            );
        }

        /// Byte-at-a-time is the worst-case split; it too must match.
        #[test]
        fn byte_at_a_time_parses_identically((stream, _) in StreamAndSplit) {
            let whole = drive(&stream, &[stream.len()]);
            let bytes = drive(&stream, &vec![1; stream.len()]);
            prop_assert_eq!(&bytes, &whole);
        }
    }
}

#[test]
fn graceful_shutdown_over_http_stops_the_server() {
    let gateway = start_gateway();
    let addr = gateway.addr().to_string();

    let stream = connect(&addr);
    (&stream)
        .write_all(b"POST /admin/shutdown HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
        .unwrap();
    let mut reader = BufReader::new(&stream);
    let r = read_response(&mut reader).expect("shutdown response");
    assert_eq!(r.status, 200);
    assert_eq!(r.header("connection"), Some("close"));

    // wait() must return promptly now that shutdown was requested.
    gateway.wait();
    // And the port must stop accepting.
    std::thread::sleep(Duration::from_millis(50));
    assert!(TcpStream::connect(&addr).is_err(), "listener must be closed after graceful shutdown");
}
