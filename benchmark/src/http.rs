//! The benchmark's own HTTP/1.1 keep-alive client.
//!
//! Deliberately independent of the repository's HTTP code, so a change
//! to the server's framing or to its client library cannot change how
//! the load is generated or timed.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One persistent connection; reconnects after the server closes it.
pub struct Client {
    addr: SocketAddr,
    host: String,
    conn: Option<BufReader<TcpStream>>,
    out: Vec<u8>,
    line: String,
    /// Body of the last response.
    pub body: Vec<u8>,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn open(addr: SocketAddr) -> io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    Ok(BufReader::with_capacity(64 * 1024, stream))
}

impl Client {
    /// A client for `addr`; the connection opens on first use.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            host: addr.to_string(),
            conn: None,
            out: Vec::new(),
            line: String::new(),
            body: Vec::new(),
        }
    }

    /// Send one request and read the whole response; returns the status
    /// code, with the body in [`Client::body`]. Any I/O or framing error
    /// drops the connection so the next call starts clean.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<u16> {
        let result = self.exchange(method, path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }

    /// `GET path`, body as (lossy) text.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, String)> {
        let status = self.request("GET", path, b"")?;
        Ok((status, String::from_utf8_lossy(&self.body).into_owned()))
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<u16> {
        if self.conn.is_none() {
            self.conn = Some(open(self.addr)?);
        }
        let Client { host, conn: slot, out, line, body: resp, .. } = self;
        let conn = slot.as_mut().expect("connected above");
        encode_request(out, host, method, path, body);
        conn.get_mut().write_all(out)?;
        let (status, close) = read_response(conn, line, resp)?;
        if close {
            *slot = None;
        }
        Ok(status)
    }
}

/// One request, head and body, into a reused buffer.
pub fn encode_request(out: &mut Vec<u8>, host: &str, method: &str, path: &str, body: &[u8]) {
    out.clear();
    let _ = write!(
        out,
        "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(body);
}

/// Read one `Content-Length`-framed response from `conn` into `body`
/// (`line` is a reused buffer). Returns the status code and whether the
/// server will close the connection.
pub fn read_response(
    conn: &mut impl BufRead,
    line: &mut String,
    body: &mut Vec<u8>,
) -> io::Result<(u16, bool)> {
    line.clear();
    if conn.read_line(line)? == 0 {
        return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"));
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length: Option<usize> = None;
    let mut close = false;
    loop {
        line.clear();
        if conn.read_line(line)? == 0 {
            return Err(bad("EOF in response headers"));
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        let (name, value) = h.split_once(':').ok_or_else(|| bad("malformed header"))?;
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("response without content-length"))?;
    body.resize(length, 0);
    conn.read_exact(body)?;
    Ok((status, close))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Answer two requests per connection with "echo <body>"; the second
    /// connection's last reply says `Connection: close`, the first
    /// connection is dropped without notice.
    fn echo_server(listener: TcpListener) {
        for last in [false, true] {
            let (stream, _) = listener.accept().unwrap();
            let mut r = BufReader::new(stream);
            for i in 0..2 {
                let mut len = 0usize;
                loop {
                    let mut l = String::new();
                    r.read_line(&mut l).unwrap();
                    if let Some(v) = l.to_ascii_lowercase().strip_prefix("content-length:") {
                        len = v.trim().parse().unwrap();
                    }
                    if l == "\r\n" {
                        break;
                    }
                }
                let mut body = vec![0; len];
                r.read_exact(&mut body).unwrap();
                let conn = if last && i == 1 { "close" } else { "keep-alive" };
                let reply = format!("echo {}", String::from_utf8(body).unwrap());
                write!(
                    r.get_mut(),
                    "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{reply}",
                    reply.len()
                )
                .unwrap();
            }
        }
    }

    #[test]
    fn keep_alive_round_trips_and_reconnects_after_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || echo_server(listener));
        let mut c = Client::new(addr);
        assert_eq!(c.request("POST", "/x", b"a").unwrap(), 200);
        assert_eq!(c.body, b"echo a");
        assert_eq!(c.request("POST", "/x", b"bb").unwrap(), 200);
        assert_eq!(c.body, b"echo bb");
        // The server dropped the first connection after two replies.
        assert!(c.request("POST", "/x", b"lost").is_err());
        assert_eq!(c.request("POST", "/x", b"c").unwrap(), 200);
        assert_eq!(c.get("/y").unwrap(), (200, "echo ".to_string()));
        assert!(c.conn.is_none(), "Connection: close drops the connection");
        server.join().unwrap();
    }
}
