//! A small blocking client for the `polytopsd` line protocol, plus
//! [`RetryClient`] — the restart-riding wrapper that resubmits through
//! daemon kills and connection drops.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use polytops_core::json::{self, Json};

/// A connected client: line-oriented send/receive plus op helpers.
///
/// Schedule responses to one connection arrive in request order (see
/// `docs/SERVICE.md`), so the simple pattern "send N lines, read N
/// lines" is valid for a stream of schedule requests.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Requests are complete lines; coalescing them behind Nagle
        // only adds delayed-ACK latency.
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// [`connect`](Client::connect) with retries until `timeout` — for
    /// scripts (and CI) racing a freshly spawned daemon.
    ///
    /// # Errors
    ///
    /// Returns the last connection error once the timeout elapses.
    pub fn connect_retry(
        addr: impl ToSocketAddrs + Copy,
        timeout: Duration,
    ) -> std::io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(addr) {
                Ok(client) => return Ok(client),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Sends one request line (the newline is appended here).
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        // One write per line — a separate 1-byte `\n` write would trip
        // Nagle against the daemon's delayed ACK.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        self.writer.flush()
    }

    /// Receives one response line (without the trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates read errors; a closed connection reports
    /// `UnexpectedEof`.
    pub fn recv_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends a request and waits for one response line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from either direction.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        self.send_line(line)?;
        self.recv_line()
    }

    /// Sends a request and parses the response as JSON.
    ///
    /// # Errors
    ///
    /// I/O errors, plus `InvalidData` when the response is not valid
    /// JSON (which would be a daemon bug).
    pub fn roundtrip_json(&mut self, line: &str) -> std::io::Result<Json> {
        let response = self.roundtrip(line)?;
        json::parse(&response).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The `stats` op.
    ///
    /// # Errors
    ///
    /// Same contract as [`roundtrip_json`](Client::roundtrip_json).
    pub fn stats(&mut self) -> std::io::Result<Json> {
        self.roundtrip_json(r#"{"op":"stats"}"#)
    }

    /// The `shutdown` op: asks the daemon to finish in-flight batches
    /// and stop, returning its acknowledgement.
    ///
    /// # Errors
    ///
    /// Same contract as [`roundtrip_json`](Client::roundtrip_json).
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.roundtrip_json(r#"{"op":"shutdown"}"#)
    }
}

/// Bounded exponential backoff for [`RetryClient`].
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per request (connect + send + receive counts as
    /// one attempt).
    pub attempts: u32,
    /// Delay after the first failed attempt; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            attempts: 10,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (0-based).
    fn delay(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.min(10);
        self.base_delay.saturating_mul(factor).min(self.max_delay)
    }
}

/// Whether an error is worth a reconnect-and-resend. Connection-level
/// failures (the daemon died, is restarting, or dropped us mid-stream)
/// qualify; protocol-level errors (a well-formed error response) do
/// not — those arrive as successful roundtrips.
///
/// `InvalidData` is retryable because the daemon never *writes* invalid
/// JSON: a response that fails to parse is the truncated tail of a
/// dying connection.
fn retryable(kind: std::io::ErrorKind) -> bool {
    use std::io::ErrorKind;
    matches!(
        kind,
        ErrorKind::ConnectionRefused
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
            | ErrorKind::UnexpectedEof
            | ErrorKind::TimedOut
            | ErrorKind::NotConnected
            | ErrorKind::Interrupted
            | ErrorKind::InvalidData
    )
}

/// A client that survives daemon restarts: on any connection-level
/// failure it reconnects (with [`RetryPolicy`] backoff) and resends the
/// request. Safe because the daemon's responses are deterministic and
/// requests are idempotent — a resend can only produce the same bytes,
/// so a request submitted during a kill/restart window still gets its
/// bit-identical answer.
#[derive(Debug)]
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    inner: Option<Client>,
}

impl RetryClient {
    /// Creates a lazy retrying client for `addr` (no connection is
    /// attempted until the first request).
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RetryClient {
        RetryClient {
            addr: addr.into(),
            policy,
            inner: None,
        }
    }

    /// The configured daemon address.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// One attempt: reuse (or establish) the connection, send, receive,
    /// and validate that the response parses as JSON (a torn line from
    /// a dying daemon must count as a failed attempt, not a response).
    fn attempt(&mut self, line: &str) -> std::io::Result<String> {
        if self.inner.is_none() {
            self.inner = Some(Client::connect(&self.addr)?);
        }
        let client = self.inner.as_mut().expect("connected above");
        let response = client.roundtrip(line)?;
        json::parse(&response)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        Ok(response)
    }

    /// Sends a request, retrying through connection failures, and
    /// returns the response line.
    ///
    /// # Errors
    ///
    /// Returns the last error once the attempt budget is exhausted, or
    /// immediately for non-retryable I/O errors.
    pub fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let mut retry = 0;
        loop {
            match self.attempt(line) {
                Ok(response) => return Ok(response),
                Err(e) => {
                    // The connection is suspect after any failure;
                    // rebuild it on the next attempt.
                    self.inner = None;
                    if !retryable(e.kind()) || retry + 1 >= self.policy.attempts {
                        return Err(e);
                    }
                    std::thread::sleep(self.policy.delay(retry));
                    retry += 1;
                }
            }
        }
    }

    /// [`roundtrip`](RetryClient::roundtrip), parsed as JSON.
    ///
    /// # Errors
    ///
    /// Same contract as [`roundtrip`](RetryClient::roundtrip); the
    /// response is already parse-validated.
    pub fn roundtrip_json(&mut self, line: &str) -> std::io::Result<Json> {
        let response = self.roundtrip(line)?;
        json::parse(&response).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}
