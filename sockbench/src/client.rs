//! A minimal HTTP/1.1 client: one connection per request,
//! `Connection: close`, so every request pays the server's accept, thread
//! spawn, parse and respond path the way an independent caller would.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// No single request may take longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A response: status, headers (names lowercased), body, and the client's
/// round-trip time from connect to the last body byte.
#[derive(Debug)]
pub struct Reply {
    /// Numeric status code.
    pub status: u16,
    /// Header pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Body bytes (`Content-Length` delimited).
    pub body: Vec<u8>,
    /// Connect to last body byte.
    pub rtt: Duration,
}

impl Reply {
    /// First value of header `name` (lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Header `name` as an unsigned integer.
    pub fn header_u64(&self, name: &str) -> Result<u64, String> {
        let v = self
            .header(name)
            .ok_or_else(|| format!("no {name} header"))?;
        v.parse().map_err(|e| format!("{name}: {v:?}: {e}"))
    }

    /// Body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Send one request over a fresh connection and read the whole reply.
pub fn request(addr: &str, method: &str, path: &str, body: &[u8]) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|_| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| format!("socket timeouts: {e}"))?;
    stream
        .write_all(&request_bytes(addr, method, path, body))
        .map_err(|e| format!("send {method} {path}: {e}"))?;
    let mut r = BufReader::new(stream);
    let mut line = String::new();
    r.read_line(&mut line)
        .map_err(|e| format!("{method} {path}: read status line: {e}"))?;
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: bad status line {line:?}"))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        r.read_line(&mut line)
            .map_err(|e| format!("{method} {path}: read header: {e}"))?;
        let h = line.trim_end_matches(['\r', '\n']);
        if h.is_empty() {
            break;
        }
        if let Some((k, v)) = h.split_once(':') {
            headers.push((k.to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| format!("{method} {path}: reply without content-length"))?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)
        .map_err(|e| format!("{method} {path}: read {len}-byte body: {e}"))?;
    Ok(Reply {
        status,
        headers,
        body,
        rtt: t0.elapsed(),
    })
}

/// The exact bytes [`request`] sends — also what the traced replay hands
/// to the server's request parser.
pub fn request_bytes(addr: &str, method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut msg = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    msg.extend_from_slice(body);
    msg
}

/// GET a text endpoint; any status but 200 is an error.
pub fn get_text(addr: &str, path: &str) -> Result<String, String> {
    let reply = request(addr, "GET", path, &[])?;
    if reply.status != 200 {
        return Err(format!(
            "GET {path}: status {}: {}",
            reply.status,
            reply.text().trim()
        ));
    }
    Ok(reply.text())
}
