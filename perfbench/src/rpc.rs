//! The driver's request/response calls into `armada-wire`, optionally
//! split into encode / write / wait / read / decode spans, and a
//! pipelined connection for open loops too fast to wait out each reply.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use armada_wire::{decode_response, write_frame, Codec, Request, Response};

use crate::spans::SpanLog;

/// Budget for one exchange; a reply later than this is a failure.
pub const RPC_TIMEOUT: Duration = Duration::from_secs(2);

/// Latency recorded for a failed, refused or timed-out operation: it
/// misses any latency limit below the RPC budget.
pub const FAILED_US: f64 = 2_000_000.0;

/// One held connection to a server.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, RPC_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(RPC_TIMEOUT))?;
        stream.set_write_timeout(Some(RPC_TIMEOUT))?;
        Ok(Conn { addr, stream })
    }

    /// Replaces a connection whose exchange failed: a late reply must
    /// not be read as the answer to the next request.
    pub fn reopen(&mut self) -> io::Result<()> {
        *self = Conn::open(self.addr)?;
        Ok(())
    }

    /// One exchange in the binary codec. With `spans`, each step is
    /// recorded under `kind` for operation `op`.
    pub fn call(
        &mut self,
        request: &Request,
        spans: Option<(&mut SpanLog, &'static str, u64)>,
    ) -> io::Result<Response> {
        let Some((log, kind, op)) = spans else {
            self.send(request)?;
            return self.recv();
        };
        let t0 = Instant::now();
        let body = Codec::Binary.encode_request(request);
        let t1 = Instant::now();
        write_frame(&mut self.stream, &body)?;
        let t2 = Instant::now();
        let len = self.read_prefix()?;
        let t3 = Instant::now();
        let reply = self.read_exact(len)?;
        let t4 = Instant::now();
        let response = decode(&reply);
        let t5 = Instant::now();
        log.record("encode", kind, op, t0, t1);
        log.record("write", kind, op, t1, t2);
        log.record("wait", kind, op, t2, t3);
        log.record("read", kind, op, t3, t4);
        log.record("decode", kind, op, t4, t5);
        log.record(kind, "rpc", op, t0, t5);
        response
    }

    /// Sends one request without waiting for its reply, so several can
    /// be in flight on the connection; replies come back in order.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        write_frame(&mut self.stream, &Codec::Binary.encode_request(request))
    }

    /// Reads the reply to the oldest request in flight.
    pub fn recv(&mut self) -> io::Result<Response> {
        let len = self.read_prefix()?;
        decode(&self.read_exact(len)?)
    }

    fn read_prefix(&mut self) -> io::Result<usize> {
        let mut prefix = [0u8; 4];
        self.stream.read_exact(&mut prefix)?;
        Ok(u32::from_be_bytes(prefix) as usize)
    }

    fn read_exact(&mut self, len: usize) -> io::Result<Vec<u8>> {
        if len > armada_reactor::MAX_FRAME_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "oversize reply"));
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        Ok(body)
    }
}

/// A connection with many requests in flight whose replies are taken
/// without blocking as they arrive, in request order.
pub struct Pipe {
    addr: SocketAddr,
    stream: TcpStream,
    /// Reply bytes read but not yet taken.
    buf: Vec<u8>,
}

impl Pipe {
    pub fn open(addr: SocketAddr) -> io::Result<Pipe> {
        let stream = TcpStream::connect_timeout(&addr, RPC_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Pipe {
            addr,
            stream,
            buf: Vec::new(),
        })
    }

    /// Replaces a connection whose replies were lost: every request in
    /// flight on the old one is given up.
    pub fn reopen(&mut self) -> io::Result<()> {
        *self = Pipe::open(self.addr)?;
        Ok(())
    }

    /// Sends one request in the binary codec; a full socket buffer is
    /// waited out for at most the RPC budget.
    pub fn send(&mut self, request: &Request) -> io::Result<()> {
        let mut frame = Vec::new();
        write_frame(&mut frame, &Codec::Binary.encode_request(request))?;
        let deadline = Instant::now() + RPC_TIMEOUT;
        let mut rest = &frame[..];
        while !rest.is_empty() {
            match self.stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(io::ErrorKind::TimedOut.into());
                    }
                    std::thread::yield_now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// The reply to the oldest request in flight, if it has arrived.
    pub fn try_recv(&mut self) -> io::Result<Option<Response>> {
        if self.frame_len()?.is_none() {
            self.fill()?;
        }
        let Some(len) = self.frame_len()? else {
            return Ok(None);
        };
        let body: Vec<u8> = self.buf.drain(..4 + len).skip(4).collect();
        decode(&body).map(Some)
    }

    /// Body length of the first buffered frame, once it is complete.
    fn frame_len(&self) -> io::Result<Option<usize>> {
        let Some(prefix) = self.buf.first_chunk::<4>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*prefix) as usize;
        if len > armada_reactor::MAX_FRAME_BYTES {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "oversize reply"));
        }
        Ok((self.buf.len() >= 4 + len).then_some(len))
    }

    /// Reads everything the socket holds now.
    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn decode(body: &[u8]) -> io::Result<Response> {
    decode_response(body)
        .map(|(response, _)| response)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
}
