//! A small blocking client for the `dualminer serve` protocol.
//!
//! Used by the `dualminer request` subcommand, the integration tests, and
//! the benchmarks. One [`Conn`] is one connection; requests are sent as
//! protocol lines and events come back as parsed [`Event`]s in server
//! order.

use std::io::{self, BufRead, BufReader};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use dualminer_obs::Json;

use crate::proto;

/// How long [`Conn::next_event`] waits for one line before giving up,
/// unless reconfigured with [`Conn::set_read_timeout`]. Generous: a
/// single event line arrives as soon as the job finishes, and jobs that
/// outlive this are expected to stream progress events.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(120);

/// The typed payload behind a [`Conn::next_event`] timeout: an
/// [`io::Error`] with kind [`io::ErrorKind::TimedOut`] whose source is
/// this type, carrying the configured timeout so callers can report it
/// (and distinguish a client-side wait expiring from any other I/O
/// failure). Test with [`is_timeout`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeoutError {
    /// The read timeout that expired.
    pub after: Duration,
}

impl std::fmt::Display for TimeoutError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no server event within {:.3}s (client read timeout)",
            self.after.as_secs_f64()
        )
    }
}

impl std::error::Error for TimeoutError {}

/// Whether `e` is a client-side read timeout from [`Conn::next_event`].
pub fn is_timeout(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::TimedOut
        && e.get_ref().is_some_and(|inner| inner.is::<TimeoutError>())
}

/// One event line from the server, parsed.
#[derive(Clone, Debug)]
pub struct Event {
    /// The event kind (`accepted`, `progress`, `note`, `result`, `error`,
    /// `cancelled`, `server-stats`, `shutdown`).
    pub kind: String,
    /// The request id the event answers.
    pub id: u64,
    /// The full parsed object, for kind-specific fields.
    pub fields: Json,
}

impl Event {
    /// A string field of the event, if present.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Json::as_str)
    }

    /// An integer field of the event, if present.
    pub fn int_field(&self, key: &str) -> Option<i64> {
        self.fields.get(key).and_then(Json::as_int)
    }
}

enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// The client's read buffer: a megabyte result frame arrives in ~16
/// reads instead of the ~130 that `BufReader`'s 8 KiB default takes.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// A blocking client connection.
pub struct Conn {
    reader: BufReader<Stream>,
    writer: Stream,
    read_timeout: Duration,
    /// The line buffer every [`Conn::next_event`] reads into, kept so a
    /// stream of megabyte frames does not regrow one per event.
    line: String,
}

impl io::Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl io::Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Stream::Unix(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

impl Conn {
    fn new(reader: Stream, writer: Stream) -> Conn {
        Conn {
            reader: BufReader::with_capacity(READ_BUFFER_BYTES, reader),
            writer,
            read_timeout: DEFAULT_READ_TIMEOUT,
            line: String::new(),
        }
    }

    /// Connects to a TCP address (`host:port`).
    pub fn connect_tcp(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        let writer = Stream::Tcp(stream.try_clone()?);
        Ok(Conn::new(Stream::Tcp(stream), writer))
    }

    /// Connects to a unix socket path.
    #[cfg(unix)]
    pub fn connect_unix(path: &str) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(DEFAULT_READ_TIMEOUT))?;
        let writer = Stream::Unix(stream.try_clone()?);
        Ok(Conn::new(Stream::Unix(stream), writer))
    }

    /// Reconfigures how long [`next_event`](Conn::next_event) waits for a
    /// line before failing with a typed [`TimeoutError`]. A zero duration
    /// is rejected (the socket layer reserves it for "no timeout", which
    /// would reintroduce the unbounded wait this bound exists to prevent).
    pub fn set_read_timeout(&mut self, timeout: Duration) -> io::Result<()> {
        if timeout.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "read timeout must be nonzero",
            ));
        }
        match self.reader.get_ref() {
            Stream::Tcp(s) => s.set_read_timeout(Some(timeout))?,
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(Some(timeout))?,
        }
        self.read_timeout = timeout;
        Ok(())
    }

    /// The currently configured read timeout.
    pub fn read_timeout(&self) -> Duration {
        self.read_timeout
    }

    /// Connects to `addr`: a unix socket path when it contains a `/` (or
    /// is prefixed `unix:`), a TCP `host:port` otherwise.
    pub fn connect(addr: &str) -> io::Result<Conn> {
        if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            return Conn::connect_unix(path);
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(io::Error::new(
                    io::ErrorKind::Unsupported,
                    "unix sockets are not supported on this platform",
                ));
            }
        }
        #[cfg(unix)]
        if addr.contains('/') {
            return Conn::connect_unix(addr);
        }
        Conn::connect_tcp(addr)
    }

    /// Sends one raw request line, line and newline in one write.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        proto::write_line(&mut self.writer, &[line.as_bytes()])
    }

    /// Reads and parses the next event line. `Ok(None)` means the server
    /// closed the connection.
    pub fn next_event(&mut self) -> io::Result<Option<Event>> {
        let line = &mut self.line;
        loop {
            line.clear();
            match self.reader.read_line(line) {
                Ok(0) => return Ok(None),
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        TimeoutError {
                            after: self.read_timeout,
                        },
                    ))
                }
                Err(e) => return Err(e),
            }
            if line.trim().is_empty() {
                continue;
            }
            let fields = Json::parse(line.trim_end()).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unparseable server event: {e}"),
                )
            })?;
            let kind = fields
                .get("event")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            let id = fields.get("id").and_then(Json::as_uint).unwrap_or(0);
            return Ok(Some(Event { kind, id, fields }));
        }
    }

    /// Sends a request line and collects events until the terminal event
    /// for `id` (`result`, `error`, `cancelled`, `server-stats`, or
    /// `shutdown`) arrives; returns all events for that id, terminal
    /// last. Events for other ids (interleaved jobs on this connection)
    /// are skipped.
    pub fn roundtrip(&mut self, line: &str, id: u64) -> io::Result<Vec<Event>> {
        self.send_line(line)?;
        let mut events = Vec::new();
        loop {
            let Some(event) = self.next_event()? else {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before a terminal event",
                ));
            };
            if event.id != id {
                continue;
            }
            let terminal = matches!(
                event.kind.as_str(),
                "result" | "error" | "cancelled" | "server-stats" | "shutdown"
            );
            events.push(event);
            if terminal {
                return Ok(events);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_errors_are_typed_and_recognizable() {
        let e = io::Error::new(
            io::ErrorKind::TimedOut,
            TimeoutError {
                after: Duration::from_millis(1500),
            },
        );
        assert!(is_timeout(&e));
        assert!(e.to_string().contains("1.500s"), "{e}");
        // A bare TimedOut from the OS is not a client read timeout.
        assert!(!is_timeout(&io::Error::new(io::ErrorKind::TimedOut, "os")));
        assert!(!is_timeout(&io::Error::other("nope")));
    }
}
