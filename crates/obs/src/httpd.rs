//! Minimal std-only HTTP/1.1 plumbing: the one server every endpoint in
//! the workspace runs on, and the client that tests, the load generator
//! and the router speak through.
//!
//! * [`HttpServer`] — the one accept loop. It binds, runs each
//!   connection on its own thread through the keep-alive
//!   `read_request` → handler → respond loop, answers malformed framing
//!   with a `400`, and counts every connection that dies with an I/O
//!   error in `mqo_http_errors_total`. The classification service
//!   (`mqo serve`), the shard router (`mqo route`) and the live metrics
//!   endpoint ([`serve_metrics`], behind `mqo classify --serve-metrics`)
//!   differ only in the handler they mount.
//! * [`HttpConnection`] — the per-connection parser that reads requests
//!   and writes responses.
//! * [`HttpClient`] plus the blocking one-shot helpers [`http_get`] and
//!   [`http_post`].
//!
//! [`HttpServer::stop`] drains in a fixed order: stop accepting and drop
//! the listener (later connections are refused at the socket), half-close
//! the read side of live connections (a handler idling between
//! keep-alive requests wakes at once instead of waiting out its read
//! timeout, while an in-flight response can still be written), then join
//! the connection threads.
//!
//! It is deliberately not a web framework: headers folded to lowercase
//! names, bodies only via `Content-Length`, no chunked encoding. But it
//! is careful about the things a trustworthy serving layer must get
//! right:
//!
//! * **Keep-alive.** HTTP/1.1 connections persist across requests by
//!   default (`Connection: close` or HTTP/1.0 opt out), so a loaded
//!   client pays connection setup once, not per request.
//! * **Bounded framing.** Total header bytes and header count are
//!   capped ([`MAX_HEADER_BYTES`], [`MAX_HEADERS`]), and a line is read
//!   only as far as the header cap allows, so a slow-loris client
//!   cannot grow server memory without limit; bodies are capped at
//!   [`MAX_BODY_BYTES`] before allocation.
//! * **Strict framing.** Conflicting duplicate `Content-Length` headers
//!   (the classic request-smuggling shape) and EOF before the blank
//!   header terminator (a truncated request) are hard errors, never
//!   silently accepted.
//! * **Buffer reuse.** The connection owns its line, header, and
//!   response buffers; steady-state request parsing allocates nothing
//!   per header line.
//! * **Binary-safe responses.** The client frames response bodies by
//!   `Content-Length` as raw bytes and decodes them lossily; a non-UTF-8
//!   body is data, not an I/O error.

use crate::event::escape_json;
use crate::metrics::Counter;
use crate::registry::{MetricsSink, Registry};
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Cap on accepted request bodies: a classification batch is a few KB of
/// node ids; anything near this size is a client bug or abuse.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Cap on total request-line + header bytes per request. Part of the
/// admission story: a client drip-feeding header lines is cut off here,
/// before it can tie up memory.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Cap on the number of headers per request.
pub const MAX_HEADERS: usize = 64;

/// One parsed HTTP request. Reused across requests on a connection: all
/// internal storage (method/path strings, the header arena, the body
/// buffer) retains its capacity between [`HttpConnection::read_request`]
/// calls.
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Request path, query string included.
    pub path: String,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Flat arena holding lowercased header names and raw values.
    head: String,
    /// `(name_start, value_start, value_end)` spans into `head`; the name
    /// ends where the value starts.
    spans: Vec<(u32, u32, u32)>,
    /// What the request's framing said about connection reuse.
    keep_alive: bool,
}

impl Request {
    /// Value of header `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// All headers, lowercased names, in arrival order.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        self.spans.iter().map(|&(n, v, e)| {
            (&self.head[n as usize..v as usize], &self.head[v as usize..e as usize])
        })
    }

    /// Number of headers.
    pub fn num_headers(&self) -> usize {
        self.spans.len()
    }

    /// The body as UTF-8, or an empty string if it is not valid UTF-8.
    pub fn body_utf8(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }

    /// Whether the request's framing permits reusing the connection.
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    fn clear(&mut self) {
        self.method.clear();
        self.path.clear();
        self.body.clear();
        self.head.clear();
        self.spans.clear();
        self.keep_alive = false;
    }

    fn push_header(&mut self, name: &str, value: &str) {
        let n = self.head.len() as u32;
        for c in name.chars() {
            self.head.push(c.to_ascii_lowercase());
        }
        let v = self.head.len() as u32;
        self.head.push_str(value);
        self.spans.push((n, v, self.head.len() as u32));
    }
}

/// What [`HttpConnection::read_request`] found on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// A complete request was parsed into the caller's [`Request`].
    Request,
    /// The peer closed (or idled out) cleanly between requests — the
    /// normal end of a keep-alive conversation, not an error.
    Closed,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Server side of one TCP connection: parses a stream of requests and
/// writes framed responses, reusing every internal buffer across
/// requests. [`HttpServer`] creates one per accepted socket and loops:
///
/// ```text
/// let mut conn = HttpConnection::new(stream)?;
/// let mut req = Request::default();
/// loop {
///     match conn.read_request(&mut req)? {
///         ReadOutcome::Closed => break,
///         ReadOutcome::Request => { /* route, conn.respond(...) */ }
///     }
///     if !conn.keep_alive() { break; }
/// }
/// ```
pub struct HttpConnection {
    reader: BufReader<TcpStream>,
    /// Reused line buffer — the "no per-request `String` per header
    /// line" part of the contract.
    line: String,
    /// Reused response assembly buffer (head + body, one `write_all`).
    write_buf: Vec<u8>,
    keep_alive: bool,
    /// Cumulative wall-clock budget for reading one request body. The
    /// socket read timeout alone resets on every received byte, so a
    /// slow-loris client trickling the body one byte at a time would pin
    /// the connection thread forever; the body loop clamps the socket
    /// timeout to what remains of this budget instead.
    body_budget: Duration,
}

impl HttpConnection {
    /// Wrap an accepted stream: 5s read/write timeouts, `TCP_NODELAY`
    /// (responses are written whole; Nagle only adds latency here).
    pub fn new(stream: TcpStream) -> io::Result<HttpConnection> {
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        stream.set_nodelay(true)?;
        Ok(HttpConnection {
            reader: BufReader::with_capacity(8 * 1024, stream),
            line: String::with_capacity(256),
            write_buf: Vec::with_capacity(1024),
            keep_alive: false,
            body_budget: Duration::from_secs(5),
        })
    }

    /// Shrink the cumulative body-read budget (tests use this to exercise
    /// the stalled-body path without waiting out the 5s default).
    pub fn set_body_budget(&mut self, budget: Duration) {
        self.body_budget = budget;
    }

    /// Whether the connection should be kept open after the response to
    /// the last parsed request.
    pub fn keep_alive(&self) -> bool {
        self.keep_alive
    }

    /// Force `Connection: close` (or allow reuse) on the next response
    /// regardless of what the request asked for — a draining server uses
    /// this so its connection threads wind down promptly.
    pub fn set_keep_alive(&mut self, keep_alive: bool) {
        self.keep_alive = keep_alive;
    }

    /// Read one request into `req` (previous contents are cleared, the
    /// allocations reused). Returns [`ReadOutcome::Closed`] on clean EOF
    /// or idle timeout *between* requests; fails on malformed framing —
    /// truncated requests, conflicting duplicate `Content-Length`,
    /// header floods, oversized bodies. Callers should answer
    /// `InvalidData` errors with a `400` and drop the connection.
    pub fn read_request(&mut self, req: &mut Request) -> io::Result<ReadOutcome> {
        req.clear();
        self.keep_alive = false;

        match self.read_line_within(MAX_HEADER_BYTES) {
            Ok(0) => return Ok(ReadOutcome::Closed),
            // An idle timeout with no bytes of a new request on the wire
            // is a clean keep-alive expiry, not an error; a timeout
            // mid-line means a stalled client and stays fatal.
            Err(e) if is_timeout(&e) && self.line.is_empty() => return Ok(ReadOutcome::Closed),
            Err(e) => return Err(e),
            Ok(_) => {}
        }
        let mut header_bytes = self.line.len();
        if header_bytes > MAX_HEADER_BYTES {
            return Err(invalid("header block too large"));
        }
        {
            let mut parts = self.line.split_whitespace();
            let (Some(method), Some(path)) = (parts.next(), parts.next()) else {
                return Err(invalid("malformed request line"));
            };
            req.method.push_str(method);
            req.path.push_str(path);
            // HTTP/1.1 defaults to keep-alive; HTTP/1.0 (and anything
            // unrecognized) to close. A `Connection` header overrides.
            req.keep_alive = parts.next() == Some("HTTP/1.1");
        }

        let mut content_length: Option<usize> = None;
        loop {
            let n = match self.read_line_within(MAX_HEADER_BYTES - header_bytes) {
                Ok(n) => n,
                Err(e) if is_timeout(&e) => {
                    return Err(invalid("timed out mid-headers (truncated request)"))
                }
                Err(e) => return Err(e),
            };
            header_bytes += n;
            if header_bytes > MAX_HEADER_BYTES {
                return Err(invalid("header block too large"));
            }
            if n == 0 || !self.line.ends_with('\n') {
                // EOF before the blank terminator line — whether between
                // header lines or mid-line: the request is truncated, not
                // complete. (This used to parse as a finished header
                // block — a framing hole.)
                return Err(invalid("EOF mid-headers (truncated request)"));
            }
            let line = self.line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                break;
            }
            if req.num_headers() >= MAX_HEADERS {
                return Err(invalid("too many headers"));
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(invalid("malformed header"));
            };
            let (name, value) = (name.trim(), value.trim());
            if name.eq_ignore_ascii_case("content-length") {
                let parsed: usize = value.parse().map_err(|_| invalid("bad content-length"))?;
                match content_length {
                    // Conflicting duplicates are the request-smuggling
                    // shape: two framings of one message. Reject.
                    Some(prev) if prev != parsed => {
                        return Err(invalid("conflicting duplicate content-length headers"))
                    }
                    _ => content_length = Some(parsed),
                }
                if parsed > MAX_BODY_BYTES {
                    return Err(invalid("body too large"));
                }
            }
            req.push_header(name, value);
        }

        match req.header("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => req.keep_alive = false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => req.keep_alive = true,
            _ => {}
        }

        if let Some(n) = content_length.filter(|&n| n > 0) {
            req.body.resize(n, 0);
            let result = self.read_body_within_budget(&mut req.body);
            // Restore the steady-state socket timeout whatever happened
            // mid-body; the next request (or the error response) must not
            // inherit a shrunken timeout.
            self.reader.get_ref().set_read_timeout(Some(Duration::from_secs(5)))?;
            result?;
        }
        self.keep_alive = req.keep_alive;
        Ok(ReadOutcome::Request)
    }

    /// Read one line into the reused line buffer, but at most `budget + 1`
    /// bytes of it: a line longer than what is left of the header budget
    /// stops there instead of being buffered whole, and the caller sees
    /// the overrun as a count above `budget`.
    fn read_line_within(&mut self, budget: usize) -> io::Result<usize> {
        self.line.clear();
        (&mut self.reader).take(budget as u64 + 1).read_line(&mut self.line)
    }

    /// Read exactly `buf.len()` body bytes under one cumulative
    /// wall-clock budget. Unlike `read_exact`, whose socket timeout
    /// resets on every received byte, the remaining budget here shrinks
    /// with elapsed time and the socket timeout is clamped to it — a
    /// stalled or trickling body fails within ~[`body_budget`] total, no
    /// matter how the client paces its bytes.
    ///
    /// [`body_budget`]: HttpConnection::set_body_budget
    fn read_body_within_budget(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let started = Instant::now();
        let mut filled = 0;
        while filled < buf.len() {
            let remaining = self
                .body_budget
                .checked_sub(started.elapsed())
                .filter(|d| !d.is_zero())
                .ok_or_else(|| invalid("timed out mid-body (stalled client)"))?;
            self.reader.get_ref().set_read_timeout(Some(remaining))?;
            match self.reader.read(&mut buf[filled..]) {
                Ok(0) => return Err(invalid("EOF mid-body (truncated request)")),
                Ok(n) => filled += n,
                Err(e) if is_timeout(&e) => {
                    return Err(invalid("timed out mid-body (stalled client)"))
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Write a complete response with no extra headers.
    pub fn respond(&mut self, status: &str, content_type: &str, body: &str) -> io::Result<()> {
        self.respond_with_headers(status, content_type, &[], body)
    }

    /// Write a complete response with extra headers (e.g. `Retry-After`).
    /// The `Connection` header reflects [`HttpConnection::keep_alive`];
    /// head and body go out in a single `write_all`.
    pub fn respond_with_headers(
        &mut self,
        status: &str,
        content_type: &str,
        extra_headers: &[(&str, String)],
        body: &str,
    ) -> io::Result<()> {
        self.write_buf.clear();
        let _ = write!(
            self.write_buf,
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n",
            body.len()
        );
        for (name, value) in extra_headers {
            let _ = write!(self.write_buf, "{name}: {value}\r\n");
        }
        let connection = if self.keep_alive { "keep-alive" } else { "close" };
        let _ = write!(self.write_buf, "Connection: {connection}\r\n\r\n");
        self.write_buf.extend_from_slice(body.as_bytes());
        let stream = self.reader.get_mut();
        stream.write_all(&self.write_buf)?;
        stream.flush()
    }
}

/// How often the accept loop re-checks its stop flag while no connection
/// is waiting.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Live connection threads, each with a clone of its socket so
/// [`HttpServer::stop`] can half-close a handler parked in a blocking
/// read.
type Connections = Arc<Mutex<Vec<(JoinHandle<()>, TcpStream)>>>;

/// The workspace's one HTTP/1.1 server; see the module docs. Every
/// request is handed to one handler, which writes the response on the
/// connection and returns the status code it sent. Stop with
/// [`HttpServer::stop`]; dropping the server stops it too.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Connections,
}

impl HttpServer {
    /// Bind `addr` (port 0 picks a free port) and serve every request
    /// with `handler`. Connections that die with an I/O error — framing
    /// errors included — count in `mqo_http_errors_total` on `registry`.
    pub fn start<H>(addr: &str, registry: &Registry, handler: H) -> io::Result<HttpServer>
    where
        H: Fn(&Request, &mut HttpConnection) -> io::Result<u16> + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Nonblocking accept so the loop notices the stop flag.
        listener.set_nonblocking(true)?;
        let errors = registry
            .counter("mqo_http_errors_total", "HTTP connections that died with an I/O error");
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Connections::default();
        let accept = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let handler = Arc::new(handler);
            thread::Builder::new().name("mqo-http-accept".into()).spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if spawn_connection(stream, &handler, &errors, &connections)
                                .is_err()
                            {
                                errors.inc();
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            thread::sleep(ACCEPT_POLL)
                        }
                        Err(_) => {
                            errors.inc();
                            thread::sleep(ACCEPT_POLL);
                        }
                    }
                }
            })?
        };
        Ok(HttpServer { addr, stop, accept: Some(accept), connections })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop serving, in the order the module docs give: stop accepting
    /// and drop the listener, half-close the read side of live
    /// connections, then join their threads. A request already being
    /// handled finishes and its response is written. Idempotent.
    pub fn stop(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.stop.store(true, Ordering::Relaxed);
        let _ = accept.join();
        let live = std::mem::take(&mut *self.connections.lock().expect("connection registry"));
        for (_, stream) in &live {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (thread, _) in live {
            let _ = thread.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Start a thread serving one accepted connection and register it.
fn spawn_connection<H>(
    stream: TcpStream,
    handler: &Arc<H>,
    errors: &Arc<Counter>,
    connections: &Connections,
) -> io::Result<()>
where
    H: Fn(&Request, &mut HttpConnection) -> io::Result<u16> + Send + Sync + 'static,
{
    stream.set_nonblocking(false)?;
    let waker = stream.try_clone()?;
    let conn = HttpConnection::new(stream)?;
    let handler = Arc::clone(handler);
    let errors = Arc::clone(errors);
    let thread = thread::Builder::new()
        .name("mqo-http-conn".into())
        .spawn(move || serve_connection(conn, &*handler, &errors))?;
    let mut live = connections.lock().expect("connection registry");
    // Reap finished threads so the registry stays bounded under load.
    live.retain(|(t, _)| !t.is_finished());
    live.push((thread, waker));
    Ok(())
}

/// The keep-alive loop: read a request, hand it to `handler`, repeat
/// while the connection stays reusable. Malformed framing gets a
/// best-effort `400`; it and every other I/O error end the connection
/// and count in `errors` — the server itself stays up.
fn serve_connection<H>(mut conn: HttpConnection, handler: &H, errors: &Counter)
where
    H: Fn(&Request, &mut HttpConnection) -> io::Result<u16>,
{
    let mut req = Request::default();
    loop {
        match conn.read_request(&mut req) {
            Ok(ReadOutcome::Request) => {}
            Ok(ReadOutcome::Closed) => break,
            Err(e) => {
                // Counted before the 400 goes out, so a client that has
                // read the refusal already sees it in `/metrics`.
                errors.inc();
                if e.kind() == ErrorKind::InvalidData {
                    conn.set_keep_alive(false);
                    let mut body = String::from("{\"error\":");
                    escape_json(&mut body, &e.to_string());
                    body.push_str("}\n");
                    let _ = conn.respond("400 Bad Request", "application/json", &body);
                }
                break;
            }
        }
        match handler(&req, &mut conn) {
            Ok(_) if conn.keep_alive() => {}
            Ok(_) => break,
            Err(_) => {
                errors.inc();
                break;
            }
        }
    }
    // The registry holds a clone of this socket, so dropping `conn` alone
    // would not send FIN: a client reading to EOF would hang until the
    // clone is reaped.
    let _ = conn.reader.get_ref().shutdown(Shutdown::Both);
}

/// The live-metrics routes over `sink`: `GET /metrics` (Prometheus text
/// exposition of its registry) and `GET /progress` (its compact JSON
/// snapshot); anything else is a `404`. Returns the status sent.
pub fn metrics_routes(
    sink: &MetricsSink,
    req: &Request,
    conn: &mut HttpConnection,
) -> io::Result<u16> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/metrics") => {
            let body = sink.registry().render_prometheus();
            conn.respond("200 OK", "text/plain; version=0.0.4", &body).map(|()| 200)
        }
        ("GET", "/progress") => {
            let mut body = sink.progress_json();
            body.push('\n');
            conn.respond("200 OK", "application/json", &body).map(|()| 200)
        }
        _ => conn
            .respond("404 Not Found", "text/plain", "try /metrics or /progress\n")
            .map(|()| 404),
    }
}

/// Serve [`metrics_routes`] for `sink` on `addr`, counting connection
/// errors on the sink's own registry — a broken scrape shows up in the
/// very endpoint it scrapes.
pub fn serve_metrics(addr: &str, sink: Arc<MetricsSink>) -> io::Result<HttpServer> {
    let registry = Arc::clone(sink.registry());
    HttpServer::start(addr, &registry, move |req, conn| metrics_routes(&sink, req, conn))
}

/// A persistent HTTP/1.1 client over one TCP connection: requests reuse
/// the connection (and the internal buffers) until the server closes it.
/// Response bodies are framed by `Content-Length` and read as raw bytes;
/// [`HttpClient::get`] / [`HttpClient::post`] decode them lossily, so a
/// binary body can never turn into an I/O error.
///
/// An exchange also splits into its two halves, [`HttpClient::send`] and
/// [`HttpClient::recv`], so one thread can put requests on several
/// connections before it waits for any answer.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    line: String,
    /// Status line of the last response.
    status: String,
    write_buf: Vec<u8>,
    body_buf: Vec<u8>,
    /// Headers of the last response, in arrival order (names lowercased).
    resp_headers: Vec<(String, String)>,
    /// Set when the last response said `Connection: close` (or the
    /// stream died): the next request must reconnect.
    dead: bool,
    addr: SocketAddr,
}

impl HttpClient {
    /// Connect to `addr` with 30s timeouts and `TCP_NODELAY`.
    pub fn connect(addr: SocketAddr) -> io::Result<HttpClient> {
        Ok(HttpClient {
            reader: BufReader::with_capacity(16 * 1024, Self::open(addr)?),
            line: String::with_capacity(256),
            status: String::new(),
            write_buf: Vec::with_capacity(512),
            body_buf: Vec::new(),
            resp_headers: Vec::new(),
            dead: false,
            addr,
        })
    }

    fn open(addr: SocketAddr) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    /// Blocking `GET`: returns `(status line, lossily decoded body)`.
    pub fn get(&mut self, path: &str) -> io::Result<(String, String)> {
        self.request("GET", path, None, false, None)
    }

    /// Blocking `POST` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<(String, String)> {
        self.request("POST", path, Some(body), false, None)
    }

    /// Blocking `POST` carrying one extra request header (e.g. a
    /// caller-supplied trace id).
    pub fn post_with_header(
        &mut self,
        path: &str,
        body: &str,
        header: (&str, &str),
    ) -> io::Result<(String, String)> {
        self.request("POST", path, Some(body), false, Some(header))
    }

    /// A header of the last response, by case-insensitive name.
    pub fn last_header(&self, name: &str) -> Option<&str> {
        self.resp_headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Write one request (a JSON `body` if given, plus one optional extra
    /// header) without waiting for the answer. Each `send` must be
    /// followed by one [`HttpClient::recv`] before the connection carries
    /// anything else. A connection the server closed is redialed first.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra_header: Option<(&str, &str)>,
    ) -> io::Result<()> {
        self.send_framed(method, path, body, false, extra_header)
    }

    /// Read the answer to the request last sent and return its status
    /// code; the body is then [`HttpClient::body`].
    pub fn recv(&mut self) -> io::Result<u16> {
        let result = self.read_response();
        if result.is_err() {
            self.dead = true;
        }
        result
    }

    /// The body of the last response read, as raw bytes.
    pub fn body(&self) -> &[u8] {
        &self.body_buf
    }

    /// Whether the next request can go out on the current connection:
    /// false once the server announced a close or the stream failed.
    pub fn is_open(&self) -> bool {
        !self.dead
    }

    /// One request/response exchange. `close` asks the server to close
    /// afterwards (used by the one-shot helpers).
    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
        extra_header: Option<(&str, &str)>,
    ) -> io::Result<(String, String)> {
        self.send_framed(method, path, body, close, extra_header)?;
        self.recv()?;
        Ok((self.status.clone(), String::from_utf8_lossy(&self.body_buf).into_owned()))
    }

    fn send_framed(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        close: bool,
        extra_header: Option<(&str, &str)>,
    ) -> io::Result<()> {
        if self.dead {
            self.reader = BufReader::with_capacity(16 * 1024, Self::open(self.addr)?);
            self.dead = false;
        }
        self.write_buf.clear();
        let _ = write!(self.write_buf, "{method} {path} HTTP/1.1\r\nHost: mqo\r\n");
        if let Some((name, value)) = extra_header {
            let _ = write!(self.write_buf, "{name}: {value}\r\n");
        }
        if let Some(body) = body {
            let _ = write!(
                self.write_buf,
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            );
        }
        if close {
            let _ = write!(self.write_buf, "Connection: close\r\n");
        }
        let _ = write!(self.write_buf, "\r\n");
        if let Some(body) = body {
            self.write_buf.extend_from_slice(body.as_bytes());
        }
        let stream = self.reader.get_mut();
        let result = stream.write_all(&self.write_buf).and_then(|()| stream.flush());
        if result.is_err() {
            self.dead = true;
        }
        result
    }

    fn read_response(&mut self) -> io::Result<u16> {
        self.status.clear();
        if self.reader.read_line(&mut self.status)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a status line arrived",
            ));
        }
        let trimmed = self.status.trim_end_matches(['\r', '\n']).len();
        self.status.truncate(trimmed);
        let code = self
            .status
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse::<u16>().ok())
            .ok_or_else(|| invalid("malformed response status line"))?;

        let mut content_length: Option<usize> = None;
        let mut server_closes = false;
        self.resp_headers.clear();
        loop {
            self.line.clear();
            if self.reader.read_line(&mut self.line)? == 0 {
                return Err(invalid("EOF mid-headers in response"));
            }
            let line = self.line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                break;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(invalid("malformed response header"));
            };
            let (name, value) = (name.trim(), value.trim());
            self.resp_headers.push((name.to_ascii_lowercase(), value.to_string()));
            if name.eq_ignore_ascii_case("content-length") {
                let parsed: usize =
                    value.parse().map_err(|_| invalid("bad response content-length"))?;
                match content_length {
                    Some(prev) if prev != parsed => {
                        return Err(invalid("conflicting response content-length headers"))
                    }
                    _ => content_length = Some(parsed),
                }
            } else if name.eq_ignore_ascii_case("connection")
                && value.eq_ignore_ascii_case("close")
            {
                server_closes = true;
            }
        }

        // Body: framed by Content-Length when present; otherwise (a
        // close-delimited response) everything until EOF. Bytes, not
        // UTF-8 — decoding is lossy, never an error.
        self.body_buf.clear();
        match content_length {
            Some(n) => {
                self.body_buf.resize(n, 0);
                self.reader.read_exact(&mut self.body_buf)?;
            }
            None => {
                self.reader.read_to_end(&mut self.body_buf)?;
                server_closes = true;
            }
        }
        if server_closes {
            self.dead = true;
        }
        Ok(code)
    }
}

fn one_shot(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(String, String)> {
    let mut client = HttpClient::connect(addr)?;
    let result = client.request(method, path, body, true, None);
    // Politely signal we are done writing even if the server ignored
    // `Connection: close`.
    let _ = client.reader.get_ref().shutdown(Shutdown::Write);
    result
}

/// Blocking one-shot `GET`: returns `(status line, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(String, String)> {
    one_shot(addr, "GET", path, None)
}

/// Blocking one-shot `POST` with a JSON body: returns `(status line, body)`.
pub fn http_post(addr: SocketAddr, path: &str, body: &str) -> io::Result<(String, String)> {
    one_shot(addr, "POST", path, Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::sink::EventSink;

    /// Serve exactly one connection with `handler`, return the bound addr.
    fn serve_once(
        handler: impl FnOnce(&Request, &mut HttpConnection) + Send + 'static,
    ) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = HttpConnection::new(stream).unwrap();
            let mut req = Request::default();
            match conn.read_request(&mut req) {
                Ok(ReadOutcome::Request) => handler(&req, &mut conn),
                Ok(ReadOutcome::Closed) => {}
                Err(e) => {
                    let _ = conn.respond("400 Bad Request", "text/plain", &e.to_string());
                }
            }
        });
        addr
    }

    /// Send raw bytes, optionally half-close, and read whatever comes
    /// back (bytes, lossily decoded).
    fn raw_exchange(addr: SocketAddr, raw: &[u8], half_close: bool) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        stream.write_all(raw).unwrap();
        stream.flush().unwrap();
        if half_close {
            stream.shutdown(Shutdown::Write).unwrap();
        }
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        String::from_utf8_lossy(&buf).into_owned()
    }

    #[test]
    fn get_round_trips_method_path_and_headers() {
        let addr = serve_once(|req, conn| {
            assert_eq!(req.method, "GET");
            assert_eq!(req.path, "/hello?x=1");
            assert_eq!(req.header("host"), Some("mqo"));
            assert!(req.body.is_empty());
            conn.respond("200 OK", "text/plain", "hi\n").unwrap();
        });
        let (status, body) = http_get(addr, "/hello?x=1").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert_eq!(body, "hi\n");
    }

    #[test]
    fn post_carries_the_body_both_ways() {
        let addr = serve_once(|req, conn| {
            assert_eq!(req.method, "POST");
            assert_eq!(req.body_utf8(), "{\"nodes\":[1,2]}");
            assert_eq!(req.header("content-type"), Some("application/json"));
            conn.respond("200 OK", "application/json", "{\"ok\":true}").unwrap();
        });
        let (status, body) = http_post(addr, "/v1/classify", "{\"nodes\":[1,2]}").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert_eq!(body, "{\"ok\":true}");
    }

    #[test]
    fn extra_headers_reach_the_client() {
        let addr = serve_once(|_, conn| {
            conn.respond_with_headers(
                "429 Too Many Requests",
                "application/json",
                &[("Retry-After", "2".to_string())],
                "{\"error\":\"saturated\"}",
            )
            .unwrap();
        });
        let raw = raw_exchange(
            addr,
            b"GET / HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
            false,
        );
        assert!(raw.contains("429 Too Many Requests"), "got: {raw}");
        assert!(raw.contains("Retry-After: 2\r\n"), "got: {raw}");
        assert!(raw.ends_with("{\"error\":\"saturated\"}"), "got: {raw}");
    }

    #[test]
    fn malformed_request_lines_are_errors() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"\r\n").unwrap();
            stream.flush().unwrap();
            // Keep the stream open until the server has parsed.
            let mut buf = String::new();
            let _ = stream.read_to_string(&mut buf);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = HttpConnection::new(stream).unwrap();
        let mut req = Request::default();
        assert!(conn.read_request(&mut req).is_err(), "empty request line must fail");
        drop(conn);
        client.join().unwrap();
    }

    #[test]
    fn oversized_bodies_are_rejected_without_allocation() {
        let addr = serve_once(|_, _| panic!("request must not parse"));
        let raw = raw_exchange(
            addr,
            format!("POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1)
                .as_bytes(),
            false,
        );
        assert!(raw.contains("400"), "got: {raw}");
        assert!(raw.contains("too large"), "got: {raw}");
    }

    /// Bugfix regression: duplicate `Content-Length` headers with
    /// *conflicting* values used to let the last one win — the classic
    /// request-smuggling framing ambiguity. They must be a 400 now.
    #[test]
    fn conflicting_duplicate_content_length_is_rejected() {
        let addr = serve_once(|_, _| panic!("request must not parse"));
        let raw = raw_exchange(
            addr,
            b"POST /v1/classify HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\nContent-Length: 7\r\n\r\nhello",
            false,
        );
        assert!(raw.contains("400"), "got: {raw}");
        assert!(raw.contains("conflicting"), "got: {raw}");
    }

    /// Bugfix regression: the body used to be read with one `read_exact`,
    /// whose socket timeout resets on every received byte — a client that
    /// sends headers then stalls the body pinned the connection thread
    /// for the full socket timeout (and a trickling client, forever). The
    /// body read now runs under one cumulative budget.
    #[test]
    fn stalled_body_times_out_within_the_cumulative_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\nhel").unwrap();
            stream.flush().unwrap();
            // Stall: keep the socket open, never send the remaining bytes.
            let mut buf = Vec::new();
            let _ = stream.read_to_end(&mut buf);
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = HttpConnection::new(stream).unwrap();
        conn.set_body_budget(Duration::from_millis(100));
        let mut req = Request::default();
        let started = Instant::now();
        let err = conn.read_request(&mut req).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "stalled body must fail within the budget, not the 5s socket timeout"
        );
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mid-body"), "got: {err}");
        drop(conn);
        client.join().unwrap();
    }

    /// The slow-loris shape proper: each byte arrives inside the socket
    /// timeout, so per-byte timeouts never fire — only the cumulative
    /// budget can cut the client off.
    #[test]
    fn trickled_body_cannot_extend_the_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n").unwrap();
            stream.flush().unwrap();
            for _ in 0..20 {
                if stream.write_all(b"x").is_err() {
                    break;
                }
                let _ = stream.flush();
                thread::sleep(Duration::from_millis(25));
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = HttpConnection::new(stream).unwrap();
        conn.set_body_budget(Duration::from_millis(120));
        let mut req = Request::default();
        let started = Instant::now();
        let err = conn.read_request(&mut req).unwrap_err();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "trickled body must fail once the cumulative budget drains"
        );
        assert!(err.to_string().contains("mid-body"), "got: {err}");
        drop(conn);
        client.join().unwrap();
    }

    /// Duplicate `Content-Length` headers that *agree* are harmless
    /// redundancy, not smuggling; the request still parses.
    #[test]
    fn agreeing_duplicate_content_length_is_accepted() {
        let addr = serve_once(|req, conn| {
            assert_eq!(req.body_utf8(), "hello");
            conn.respond("200 OK", "text/plain", "ok").unwrap();
        });
        let raw = raw_exchange(
            addr,
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
            false,
        );
        assert!(raw.contains("200"), "got: {raw}");
    }

    /// Bugfix regression: EOF in the middle of the header block used to
    /// look like the blank end-of-headers line, so a truncated request
    /// parsed as complete. It must be an error now.
    #[test]
    fn eof_mid_headers_is_a_truncated_request_not_a_complete_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            // No terminating blank line; half-close instead.
            stream.write_all(b"POST /x HTTP/1.1\r\nHost: x\r\nContent-Le").unwrap();
            stream.shutdown(Shutdown::Write).unwrap();
            let mut buf = String::new();
            let _ = stream.read_to_string(&mut buf);
            buf
        });
        let (stream, _) = listener.accept().unwrap();
        let mut conn = HttpConnection::new(stream).unwrap();
        let mut req = Request::default();
        let err = conn.read_request(&mut req).unwrap_err();
        assert!(err.to_string().contains("truncated"), "got: {err}");
        drop(conn);
        client.join().unwrap();
    }

    /// Bugfix regression: header bytes are bounded, so a client feeding
    /// an endless header block is cut off instead of growing memory.
    #[test]
    fn header_floods_are_rejected() {
        // Byte flood: one huge header value.
        let addr = serve_once(|_, _| panic!("request must not parse"));
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(b"X-Flood: ");
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES));
        raw.extend_from_slice(b"\r\n\r\n");
        let got = raw_exchange(addr, &raw, false);
        assert!(got.contains("400"), "got: {got}");
        assert!(got.contains("too large"), "got: {got}");

        // Count flood: too many small headers.
        let addr = serve_once(|_, _| panic!("request must not parse"));
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..=MAX_HEADERS {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let got = raw_exchange(addr, &raw, false);
        assert!(got.contains("400"), "got: {got}");
        assert!(got.contains("too many"), "got: {got}");
    }

    /// Bugfix regression: each line used to be read whole before the
    /// header budget was checked, so a request line with no `\n` was
    /// buffered without limit until the socket timed out. A line is now
    /// cut off where the budget ends.
    #[test]
    fn an_endless_line_is_cut_off_at_the_header_budget() {
        let server = HttpServer::start(
            "127.0.0.1:0",
            &Registry::new(),
            |_: &Request, _: &mut HttpConnection| -> io::Result<u16> {
                panic!("request must not parse")
            },
        )
        .unwrap();
        let started = Instant::now();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Written from another thread: the server may refuse before it
        // has read it all, and a failed write must not hide the answer.
        let mut writer = stream.try_clone().unwrap();
        let sender = thread::spawn(move || writer.write_all(&[b'a'; 4 * MAX_HEADER_BYTES]));
        // No newline, no half-close: the socket stays open while we read.
        let mut buf = Vec::new();
        let _ = stream.read_to_end(&mut buf);
        let _ = sender.join().unwrap();
        let got = String::from_utf8_lossy(&buf);
        assert!(got.contains("400 Bad Request"), "got: {got}");
        assert!(got.contains("too large"), "got: {got}");
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "refused at the budget, not the timeout"
        );
    }

    /// Bugfix regression: the one-shot client used `read_to_string`, so
    /// a non-UTF-8 response body became an I/O error. Bodies are bytes;
    /// invalid UTF-8 decodes lossily instead of failing.
    #[test]
    fn binary_response_bodies_round_trip_lossily() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut conn = HttpConnection::new(stream.try_clone().unwrap()).unwrap();
            let mut req = Request::default();
            conn.read_request(&mut req).unwrap();
            // 0xFF 0xFE is invalid UTF-8; the body also contains the
            // \r\n\r\n separator to make naive whole-response splitting
            // misbehave.
            let body: &[u8] = b"\xff\xfebinary\r\n\r\ntail";
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
                 Content-Length: {}\r\nConnection: close\r\n\r\n",
                body.len()
            );
            stream.write_all(head.as_bytes()).unwrap();
            stream.write_all(body).unwrap();
        });
        let (status, body) = http_get(addr, "/blob").expect("binary body is not an I/O error");
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("binary"), "body: {body:?}");
        assert!(body.ends_with("tail"), "body split on the wrong \\r\\n\\r\\n: {body:?}");
        assert!(body.contains('\u{FFFD}'), "invalid bytes decode lossily: {body:?}");
    }

    /// Keep-alive: one connection serves several requests, reusing the
    /// parser's buffers; a `Connection: close` request ends it.
    #[test]
    fn keep_alive_serves_multiple_requests_on_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = HttpConnection::new(stream).unwrap();
            let mut req = Request::default();
            let mut served = 0usize;
            loop {
                match conn.read_request(&mut req).unwrap() {
                    ReadOutcome::Closed => break,
                    ReadOutcome::Request => {
                        served += 1;
                        let body = format!("echo {}", req.path);
                        conn.respond("200 OK", "text/plain", &body).unwrap();
                        if !conn.keep_alive() {
                            break;
                        }
                    }
                }
            }
            served
        });
        let mut client = HttpClient::connect(addr).unwrap();
        for i in 0..5 {
            let (status, body) = client.get(&format!("/r{i}")).unwrap();
            assert!(status.contains("200"), "status: {status}");
            assert_eq!(body, format!("echo /r{i}"));
        }
        drop(client);
        assert_eq!(server.join().unwrap(), 5, "all requests rode one connection");
    }

    /// HTTP/1.0 requests and explicit `Connection: close` both disable
    /// keep-alive; `Connection: keep-alive` re-enables it on HTTP/1.0.
    #[test]
    fn connection_reuse_follows_version_and_header() {
        let cases: &[(&[u8], bool)] = &[
            (b"GET / HTTP/1.1\r\n\r\n", true),
            (b"GET / HTTP/1.0\r\n\r\n", false),
            (b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            (b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ];
        for (raw, expect) in cases {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let raw = raw.to_vec();
            let client = thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream.write_all(&raw).unwrap();
                let mut buf = String::new();
                let _ = stream.read_to_string(&mut buf);
            });
            let (stream, _) = listener.accept().unwrap();
            let mut conn = HttpConnection::new(stream).unwrap();
            let mut req = Request::default();
            assert_eq!(conn.read_request(&mut req).unwrap(), ReadOutcome::Request);
            assert_eq!(conn.keep_alive(), *expect, "request: {:?}", req.method);
            conn.respond("200 OK", "text/plain", "ok").unwrap();
            drop(conn);
            client.join().unwrap();
        }
    }

    fn sink_with_traffic() -> Arc<MetricsSink> {
        let sink = Arc::new(MetricsSink::new());
        sink.emit(&Event::QueryExecuted {
            node: 1,
            prompt_tokens: 120,
            pruned: false,
            parse_failed: false,
            wall_micros: 80,
        });
        sink.emit(&Event::RoundCompleted {
            round: 0,
            executed: 1,
            gamma1: 3,
            gamma2: 2,
            pseudo_label_uses: 0,
        });
        sink
    }

    #[test]
    fn serves_prometheus_text_and_progress_json() {
        let server = serve_metrics("127.0.0.1:0", sink_with_traffic()).unwrap();
        let (status, body) = http_get(server.addr(), "/metrics").unwrap();
        assert!(status.contains("200"), "status: {status}");
        assert!(body.contains("mqo_queries_total 1"), "body: {body}");
        assert!(body.contains("# TYPE mqo_prompt_tokens histogram"));
        let (status, body) = http_get(server.addr(), "/progress").unwrap();
        assert!(status.contains("200"));
        assert!(body.contains("\"queries\":1"), "body: {body}");
        assert!(body.contains("\"rounds_completed\":1"));
    }

    #[test]
    fn unknown_paths_get_404() {
        let server = serve_metrics("127.0.0.1:0", Arc::new(MetricsSink::new())).unwrap();
        let (status, _) = http_get(server.addr(), "/nope").unwrap();
        assert!(status.contains("404"), "status: {status}");
    }

    #[test]
    fn scrapes_see_live_updates() {
        let sink = Arc::new(MetricsSink::new());
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&sink)).unwrap();
        // One keep-alive connection for both scrapes.
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let (_, before) = client.get("/metrics").unwrap();
        assert!(before.contains("mqo_queries_total 0"));
        sink.emit(&Event::QueryExecuted {
            node: 9,
            prompt_tokens: 64,
            pruned: true,
            parse_failed: false,
            wall_micros: 10,
        });
        let (_, after) = client.get("/metrics").unwrap();
        assert!(after.contains("mqo_queries_total 1"), "scrape is live: {after}");
    }

    #[test]
    fn connection_errors_are_counted_not_swallowed() {
        let sink = Arc::new(MetricsSink::new());
        let server = serve_metrics("127.0.0.1:0", Arc::clone(&sink)).unwrap();
        // A client that sends garbage framing: it gets a 400, and the
        // error is counted before the refusal is written.
        let raw = raw_exchange(server.addr(), b"\r\n", true);
        assert!(raw.contains("400 Bad Request"), "got: {raw}");
        assert!(raw.contains("malformed request line"), "got: {raw}");
        let (_, body) = http_get(server.addr(), "/metrics").unwrap();
        assert!(body.contains("mqo_http_errors_total 1"), "errors stayed invisible: {body}");
    }

    #[test]
    fn drop_frees_the_port() {
        let server = serve_metrics("127.0.0.1:0", Arc::new(MetricsSink::new())).unwrap();
        let addr = server.addr();
        drop(server);
        // The listener is gone; a fresh bind to the same port succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok(), "port still held after drop");
    }
}
