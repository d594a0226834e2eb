//! A minimal blocking HTTP/1.1 client for the in-process server: one
//! keep-alive connection, `Content-Length` and chunked bodies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long one read may block before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// A complete response.
#[derive(Debug)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Body bytes (de-chunked).
    pub body: Vec<u8>,
}

impl Response {
    /// The body as text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One client connection, reopened lazily after the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    pub fn new(addr: SocketAddr) -> Conn {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads the whole response.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let out = self.exchange(method, path, body);
        if out.is_err() {
            self.stream = None;
        }
        out
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connection opened above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let w = reader.get_mut();
        w.write_all(head.as_bytes())?;
        w.write_all(body)?;
        w.flush()?;

        let status_line = read_line(reader)?;
        let status = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad(format!("bad status line `{status_line}`")))?;
        let mut length = None;
        let mut chunked = false;
        let mut close = false;
        loop {
            let line = read_line(reader)?;
            if line.is_empty() {
                break;
            }
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let (k, v) = (k.trim().to_ascii_lowercase(), v.trim().to_ascii_lowercase());
            match k.as_str() {
                "content-length" => length = v.parse::<usize>().ok(),
                "transfer-encoding" => chunked = v.contains("chunked"),
                "connection" => close = v == "close",
                _ => {}
            }
        }
        let mut body = Vec::new();
        if chunked {
            loop {
                let size_line = read_line(reader)?;
                let hex = size_line.split(';').next().unwrap_or("").trim();
                let size = usize::from_str_radix(hex, 16)
                    .map_err(|_| bad(format!("bad chunk size `{size_line}`")))?;
                if size == 0 {
                    // trailers, then the blank line that ends the message
                    while !read_line(reader)?.is_empty() {}
                    break;
                }
                let at = body.len();
                body.resize(at + size, 0);
                reader.read_exact(&mut body[at..])?;
                read_line(reader)?;
            }
        } else if let Some(n) = length {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        } else {
            reader.read_to_end(&mut body)?;
            close = true;
        }
        if close {
            self.stream = None;
        }
        Ok(Response { status, body })
    }
}

fn read_line(r: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        ));
    }
    Ok(line.trim_end_matches(['\r', '\n']).to_string())
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}
