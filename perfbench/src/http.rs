//! A blocking keep-alive HTTP/1.1 client: the load generator's side of the
//! loopback socket.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One status line plus body. Headers are not kept: nothing the benchmark
/// checks travels in them.
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One keep-alive connection. After a `Connection: close` answer or an I/O
/// error the next request dials a fresh socket.
pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None }
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, &[], "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Response> {
        self.request("POST", path, &[], body)
    }

    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<Response> {
        let outcome = self.exchange(method, path, headers, body);
        if !matches!(outcome, Ok((_, true))) {
            self.conn = None;
        }
        outcome.map(|(response, _)| response)
    }

    /// Sends one request and reads its answer; the flag says whether the
    /// connection may be reused.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> io::Result<(Response, bool)> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        let (stream, reader) = self.conn.as_mut().expect("connected above");
        let mut head = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;

        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        let status = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut length = 0usize;
        let mut keep_alive = true;
        loop {
            line.clear();
            reader.read_line(&mut line)?;
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let (name, value) = (name.trim(), value.trim());
                if name.eq_ignore_ascii_case("content-length") {
                    length = value
                        .parse()
                        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok((Response { status, body }, keep_alive))
    }
}
