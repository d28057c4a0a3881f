//! Property test of the request framing parser over loopback. Each case
//! starts from a valid random request, then flips a byte, truncates it,
//! inserts bytes, duplicates its `Content-Length` (agreeing or not) or
//! pads it past one of the caps. The same bytes are parsed twice: by an
//! `HttpConnection` directly, and by an `HttpServer` whose handler
//! answers `200`. A case must never panic, must end in a parsed request
//! or an `InvalidData` error (nothing at all only for empty input), must
//! finish within the body budget, and the server must answer exactly
//! `200` or `400` to match.

use mqo_obs::httpd::{
    HttpConnection, ReadOutcome, Request, MAX_BODY_BYTES, MAX_HEADERS, MAX_HEADER_BYTES,
};
use mqo_obs::{HttpServer, Registry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

const BODY_BUDGET: Duration = Duration::from_secs(1);

/// What a mutation promises about the parse, beyond "no panic, parsed or
/// `InvalidData`".
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    /// The request parses with the method, path and body it was built with.
    Intact,
    /// An `InvalidData` error whose message names the cause.
    Refused(&'static str),
    /// Anything the framing rules allow.
    Either,
}

struct Case {
    bytes: Vec<u8>,
    method: String,
    path: String,
    body: Vec<u8>,
    expect: Expect,
}

/// A valid random request: method, path, a few headers (a
/// `Content-Length` among them when there is a body) and the body.
fn valid_request(rng: &mut StdRng) -> (Vec<String>, String, String, Vec<u8>) {
    let method = ["GET", "POST", "PUT"][rng.gen_range(0..3)].to_string();
    let path = format!("/v1/{}", rng.gen_range(0..1000));
    let body: Vec<u8> = if method == "GET" {
        Vec::new()
    } else {
        (0..rng.gen_range(0..200)).map(|_| rng.gen_range(b' '..=b'~')).collect()
    };
    let version = ["HTTP/1.1", "HTTP/1.0"][rng.gen_range(0..2)];
    let mut headers = vec![format!("{method} {path} {version}")];
    for i in 0..rng.gen_range(0..5) {
        headers.push(format!("X-Extra-{i}: {}", rng.gen_range(0..1_000_000)));
    }
    if !body.is_empty() || rng.gen_bool(0.3) {
        let at = rng.gen_range(1..headers.len() + 1);
        headers.insert(at, format!("Content-Length: {}", body.len()));
    }
    (headers, method, path, body)
}

fn assemble(lines: &[String], body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for line in lines {
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
    out
}

fn case(seed: u64, mutation: u8) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut lines, method, path, body) = valid_request(&mut rng);
    let mut expect = Expect::Either;
    let mut bytes = assemble(&lines, &body);
    match mutation {
        0 => expect = Expect::Intact,
        // Flip one byte.
        1 => {
            let at = rng.gen_range(0..bytes.len());
            bytes[at] = rng.gen_range(0..=255u8);
        }
        // Cut the request short.
        2 => bytes.truncate(rng.gen_range(0..bytes.len())),
        // Insert noise.
        3 => {
            let at = rng.gen_range(0..bytes.len() + 1);
            let noise: Vec<u8> =
                (0..rng.gen_range(1..8)).map(|_| rng.gen_range(0..=255u8)).collect();
            bytes.splice(at..at, noise);
        }
        // A second `Content-Length`, agreeing or not.
        4 => {
            let agree = rng.gen_bool(0.5);
            let n = if agree { body.len() } else { body.len() + rng.gen_range(1..5) };
            let at = rng.gen_range(1..lines.len() + 1);
            lines.insert(at, format!("content-length: {n}"));
            if !lines.iter().any(|l| l.starts_with("Content-Length")) {
                lines.insert(1, format!("Content-Length: {}", body.len()));
            }
            expect = if agree { Expect::Intact } else { Expect::Refused("conflicting") };
            bytes = assemble(&lines, &body);
        }
        _ => {
            // Pad past one cap; the line may or may not ever end.
            let at = rng.gen_range(1..lines.len() + 1);
            match rng.gen_range(0..4) {
                0 => {
                    lines.insert(at, format!("X-Pad: {}", "a".repeat(MAX_HEADER_BYTES)));
                    expect = Expect::Refused("too large");
                }
                1 => {
                    for i in 0..=MAX_HEADERS {
                        lines.insert(at, format!("X-Many-{i}: v"));
                    }
                    expect = Expect::Refused("too many");
                }
                2 => {
                    lines.retain(|l| !l.starts_with("Content-Length"));
                    let at = at.min(lines.len());
                    lines.insert(at, format!("Content-Length: {}", MAX_BODY_BYTES + 1));
                    expect = Expect::Refused("body too large");
                }
                _ => {
                    lines.truncate(at);
                    let last = lines.len() - 1;
                    lines[last].push_str(&"b".repeat(MAX_HEADER_BYTES));
                    bytes = assemble(&lines, &[]);
                    bytes.truncate(bytes.len() - 4);
                    return Case {
                        bytes,
                        method,
                        path,
                        body,
                        expect: Expect::Refused("too large"),
                    };
                }
            }
            bytes = assemble(&lines, &body);
        }
    }
    Case { bytes, method, path, body, expect }
}

/// Write `bytes` from another thread, then half-close. The peer may
/// refuse before it has read them all; a failed write is not an error.
fn send(stream: &TcpStream, bytes: Vec<u8>) -> thread::JoinHandle<()> {
    let mut writer = stream.try_clone().unwrap();
    thread::spawn(move || {
        let _ = writer.write_all(&bytes);
        let _ = writer.shutdown(Shutdown::Write);
    })
}

/// Parse `bytes` with a bare `HttpConnection`; returns the verdict and
/// how long `read_request` took.
fn parse_direct(
    listener: &TcpListener,
    bytes: Vec<u8>,
) -> (io::Result<Option<Request>>, Duration) {
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let writer = send(&client, bytes);
    let (stream, _) = listener.accept().unwrap();
    let mut conn = HttpConnection::new(stream).unwrap();
    conn.set_body_budget(BODY_BUDGET);
    let mut req = Request::default();
    let started = Instant::now();
    let verdict = conn.read_request(&mut req).map(|outcome| match outcome {
        ReadOutcome::Request => Some(req),
        ReadOutcome::Closed => None,
    });
    let elapsed = started.elapsed();
    drop(conn);
    writer.join().unwrap();
    (verdict, elapsed)
}

/// Send `bytes` to the server; returns the first status line it answers
/// with (empty if it answers nothing).
fn status_from_server(addr: SocketAddr, bytes: Vec<u8>) -> String {
    let mut client = TcpStream::connect(addr).unwrap();
    client.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let writer = send(&client, bytes);
    let mut answer = Vec::new();
    let _ = client.read_to_end(&mut answer);
    writer.join().unwrap();
    let answer = String::from_utf8_lossy(&answer);
    answer.lines().next().unwrap_or("").to_string()
}

fn answer_ok(_: &Request, conn: &mut HttpConnection) -> io::Result<u16> {
    conn.respond("200 OK", "text/plain", "ok").map(|()| 200)
}

thread_local! {
    /// One listener for the direct parses and one server per test thread.
    static LOOPBACK: (TcpListener, HttpServer) = (
        TcpListener::bind("127.0.0.1:0").unwrap(),
        HttpServer::start("127.0.0.1:0", &Registry::new(), answer_ok).unwrap(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1_500))]

    #[test]
    fn framing_yields_a_request_or_invalid_data(seed in any::<u64>(), mutation in 0u8..6) {
        let case = case(seed, mutation);
        let (verdict, elapsed) =
            LOOPBACK.with(|(listener, _)| parse_direct(listener, case.bytes.clone()));
        prop_assert!(elapsed < BODY_BUDGET, "took {:?} on {:?}", elapsed, case.bytes);
        let expected_status = match &verdict {
            Ok(Some(req)) => {
                prop_assert!(
                    matches!(case.expect, Expect::Intact | Expect::Either),
                    "expected {:?}, parsed {} {}", case.expect, req.method, req.path
                );
                if case.expect == Expect::Intact {
                    prop_assert_eq!(&req.method, &case.method);
                    prop_assert_eq!(&req.path, &case.path);
                    prop_assert_eq!(&req.body, &case.body);
                }
                "HTTP/1.1 200 OK"
            }
            Ok(None) => {
                prop_assert!(case.bytes.is_empty(), "nothing parsed from {:?}", case.bytes);
                ""
            }
            Err(e) => {
                let kind = e.kind();
                prop_assert_eq!(kind, io::ErrorKind::InvalidData, "{} on {:?}", e, case.bytes);
                match case.expect {
                    Expect::Intact => prop_assert!(false, "intact request refused: {}", e),
                    Expect::Refused(why) => {
                        prop_assert!(e.to_string().contains(why), "{} is not {:?}", e, why)
                    }
                    Expect::Either => {}
                }
                "HTTP/1.1 400 Bad Request"
            }
        };
        let status = status_from_server(LOOPBACK.with(|(_, server)| server.addr()), case.bytes);
        prop_assert_eq!(status, expected_status, "the server disagrees with the parser");
    }
}
