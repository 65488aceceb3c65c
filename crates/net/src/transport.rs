//! The byte-stream abstraction under [`RemoteSession`](crate::RemoteSession).
//!
//! A [`Transport`] is an ordered, reliable, bidirectional byte stream
//! with read deadlines, so a reply that never arrives surfaces as
//! `WouldBlock`/`TimedOut` instead of hanging the caller. The client
//! keeps one request in flight and holds the whole transport for each
//! exchange, so one object serves both directions. TCP provides it as a
//! buffered socket; the deterministic simulation harness (`ks-dst`)
//! provides it as an in-memory link with a logical clock. Everything
//! above this trait — framing, correlation, retry/backoff, poisoning —
//! is identical on both, so the simulator exercises the same client code
//! that talks to production sockets.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// An ordered reliable byte stream with read deadlines.
///
/// `read` must honor the last deadline set: if no bytes become available
/// in time it fails with [`io::ErrorKind::WouldBlock`] or
/// [`io::ErrorKind::TimedOut`] (the client maps both to
/// [`ServerError::Timeout`](ks_server::ServerError::Timeout) and poisons
/// the connection). `write`/`flush` failures mean the peer is gone.
pub trait Transport: Read + Write {
    /// Bound subsequent reads; `None` blocks indefinitely.
    fn set_read_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()>;
}

/// The production [`Transport`]: a TCP stream, buffered in both
/// directions over two handles onto the same socket.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpTransport {
    /// Buffer an already-connected stream.
    pub fn new(stream: TcpStream) -> io::Result<TcpTransport> {
        Ok(TcpTransport {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }
}

impl Read for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reader.read(buf)
    }
}

impl Write for TcpTransport {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writer.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }
}

impl Transport for TcpTransport {
    fn set_read_deadline(&mut self, deadline: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(deadline)
    }
}
