//! A blocking JSON-lines client for `phast-serve`, shared by the CLI
//! (`phast-serve --client ...`), the CI `service` job, and the daemon
//! tests — which also use it to *misbehave*: dropping the connection
//! mid-stream is one line ([`Client::into_stream`] + drop).

use super::proto::{self, Event, Request};
use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Maps a protocol-level defect (unparseable event) onto `io::Error` so
/// callers handle one error type.
fn protocol_err(reason: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, reason)
}

impl Client {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// Connects, retrying with a capped doubling delay (20 ms up to
    /// 500 ms) for up to `patience` while the daemon binds — for scripts
    /// that start the daemon and connect immediately.
    ///
    /// # Errors
    ///
    /// The final connection failure once patience is exhausted.
    pub fn connect_with_patience(addr: &str, patience: Duration) -> std::io::Result<Client> {
        let deadline = std::time::Instant::now() + patience;
        let mut delay = Duration::from_millis(20);
        loop {
            match Client::connect(addr) {
                Ok(c) => return Ok(c),
                Err(e) if std::time::Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(Duration::from_millis(500));
                }
            }
        }
    }

    /// Sends one request line.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        let mut line = proto::render_request(req);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()
    }

    /// Reads the next event line (blocking). Lines beyond
    /// [`proto::MAX_EVENT_LINE`] are refused fail-closed — a daemon that
    /// abandons framing cannot be trusted to resume it.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if the daemon closed the connection; `InvalidData`
    /// for an unparseable or oversized event; socket errors otherwise.
    pub fn recv(&mut self) -> std::io::Result<Event> {
        let mut line = String::new();
        loop {
            let n = proto::read_line_capped(&mut self.reader, &mut line, proto::MAX_EVENT_LINE)
                .map_err(std::io::Error::from)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection",
                ));
            }
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return proto::parse_event(trimmed).map_err(protocol_err);
            }
        }
    }

    /// Sends a request and returns the single reply event.
    ///
    /// # Errors
    ///
    /// As for [`Client::send`] and [`Client::recv`].
    pub fn request(&mut self, req: &Request) -> std::io::Result<Event> {
        self.send(req)?;
        self.recv()
    }

    /// Submits a sweep with `watch` on and returns the first reply
    /// (`accepted`, `rejected`, or `error`); stream the cells with
    /// [`Client::recv`] until [`Event::Done`].
    ///
    /// # Errors
    ///
    /// As for [`Client::request`].
    pub fn submit_watch(
        &mut self,
        id: &str,
        kinds: &[&str],
        budget: &str,
    ) -> std::io::Result<Event> {
        self.request(&Request::Submit {
            id: id.to_string(),
            kinds: kinds.iter().map(|k| k.to_string()).collect(),
            budget: budget.to_string(),
            watch: true,
        })
    }

    /// Reads events until [`Event::Done`] (returned last) or EOF.
    ///
    /// # Errors
    ///
    /// As for [`Client::recv`].
    pub fn stream_to_done(&mut self) -> std::io::Result<Vec<Event>> {
        let mut events = Vec::new();
        loop {
            let ev = self.recv()?;
            let done = matches!(ev, Event::Done { .. });
            events.push(ev);
            if done {
                return Ok(events);
            }
        }
    }

    /// Fetches a finished artifact body by digest.
    ///
    /// # Errors
    ///
    /// `InvalidData` carrying the daemon's reason if the digest is
    /// unknown (or the reply is not an artifact); socket errors
    /// otherwise.
    pub fn fetch(&mut self, digest: &str) -> std::io::Result<String> {
        match self.request(&Request::Fetch { digest: digest.to_string() })? {
            Event::Artifact { body, .. } => Ok(body),
            Event::Error { reason } => Err(protocol_err(reason)),
            other => Err(protocol_err(format!("unexpected reply to fetch: {other:?}"))),
        }
    }

    /// Surrenders the underlying stream — dropping the return value
    /// tears the connection, which is exactly what the daemon tests do to
    /// simulate a client dying mid-watch.
    pub fn into_stream(self) -> TcpStream {
        self.writer
    }
}
