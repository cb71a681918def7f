//! The readiness event loop: one thread, nonblocking sockets, every
//! connection.
//!
//! The crate forbids `unsafe` and takes no libc dependency, so there is
//! no raw `poll(2)`/`epoll(7)` here; instead the loop is the safe-Rust
//! equivalent of a readiness loop — every socket is nonblocking, and
//! one thread sweeps them all, treating `WouldBlock` as "not ready".
//! When a sweep makes no progress the loop parks on the outbound
//! response channel, so a computed response wakes it immediately. The
//! park starts at [`MIN_PARK`], doubles with every further quiet sweep
//! up to [`IDLE_PARK`] and resets on progress: a client that answers a
//! response with its next request is read within tens of microseconds,
//! while an idle daemon settles at ~2k wakeups/s instead of a spinning
//! core. The trade against a real poller is that bounded read latency
//! (≤ [`IDLE_PARK`] on a daemon that has been quiet, far less on a
//! busy one) — nothing else sits between a request's bytes and the
//! batcher, which dispatches at once.
//!
//! Per connection the loop keeps a read buffer (bytes up to the next
//! `\n`, searched once each however the client splits its writes) and a
//! write buffer (queued response lines); only this thread touches
//! either, which is what makes response bytes on one connection
//! impossible to interleave.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::protocol::{self, Request};
use crate::service::{Admitted, RequestTrace, Shared, TuneJob};

/// The longest a no-progress sweep parks on the response channel: what
/// the back-off settles at on an idle daemon.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// The park after a sweep that made progress; each further quiet sweep
/// doubles it up to [`IDLE_PARK`].
const MIN_PARK: Duration = Duration::from_micros(20);

/// How long a graceful shutdown keeps flushing write buffers before
/// abandoning unread responses (the client stopped reading).
const FLUSH_GRACE: Duration = Duration::from_secs(2);

/// A response line on its way from a worker thread to a connection.
pub(crate) struct Outbound {
    /// Target connection id (from [`Conn::id`]); a since-closed id is
    /// silently dropped, like a vanished client's response always was.
    pub(crate) conn: u64,
    /// The response line, without the trailing newline.
    pub(crate) line: String,
    /// The request's still-open "request" span, when traced; the event
    /// loop finishes it (under a "write" child) once the line's last
    /// byte reaches the socket.
    pub(crate) trace: Option<polytops_obs::SpanHandle>,
}

/// A connection's unhandled input: the bytes received since the last
/// handled `\n`, and how far the newline search has already looked, so
/// a line dripped in small writes is searched once, not once per write.
#[derive(Default)]
struct LineBuf {
    bytes: Vec<u8>,
    /// `bytes[..scanned]` holds no `\n` but the ends of lines already
    /// handed out by [`LineBuf::next_newline`].
    scanned: usize,
}

impl LineBuf {
    /// The index of the next `\n`, searching only bytes not searched
    /// before; the line it ends starts after the previous one returned.
    fn next_newline(&mut self) -> Option<usize> {
        match self.bytes[self.scanned..].iter().position(|&b| b == b'\n') {
            Some(len) => {
                let end = self.scanned + len;
                self.scanned = end + 1;
                Some(end)
            }
            None => {
                self.scanned = self.bytes.len();
                None
            }
        }
    }

    /// Drops the first `n` bytes: lines [`next_newline`] handed out.
    ///
    /// [`next_newline`]: LineBuf::next_newline
    fn consume(&mut self, n: usize) {
        self.bytes.drain(..n);
        self.scanned -= n;
    }
}

/// One live connection's state.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet terminated by `\n`.
    rbuf: LineBuf,
    /// Response bytes accepted but not yet written to the socket.
    wbuf: Vec<u8>,
    /// Close (after flushing `wbuf`) instead of reading further — set
    /// by protocol errors that poison the stream framing, and by the
    /// `drop_response` fault.
    close_after_flush: bool,
    /// Remove this connection at the end of the sweep.
    dead: bool,
    /// When the first bytes of the request currently being assembled
    /// arrived — the start of its "read"/"request" spans. Cleared after
    /// each complete line so pipelined requests get fresh stamps.
    read_started: Option<Instant>,
    /// Cumulative bytes ever queued to / written from `wbuf`, so a
    /// traced response's completion point survives partial writes.
    queued_bytes: u64,
    written_bytes: u64,
    /// Traced responses in `wbuf` order: (cumulative offset of the
    /// response's final byte, open "write" span, open "request" root).
    /// Both spans finish when `written_bytes` passes the offset.
    pending_traces: Vec<(u64, polytops_obs::SpanHandle, polytops_obs::SpanHandle)>,
}

impl Conn {
    /// Queues one line (newline appended) for writing.
    fn push_line(&mut self, line: &str) {
        self.wbuf.reserve(line.len() + 1);
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        self.queued_bytes += line.len() as u64 + 1;
    }
}

/// Runs the daemon's event loop until shutdown or crash. Owns the
/// listener, all connections, the admission sender and the tune sender
/// — dropping them on exit is what lets the batcher and tuner observe
/// disconnection and finish.
pub(crate) fn event_loop(
    listener: TcpListener,
    shared: &Arc<Shared>,
    admit: &SyncSender<Admitted>,
    tune: &Sender<TuneJob>,
    out: &Receiver<Outbound>,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_id: u64 = 0;
    let mut outbound_open = true;
    let mut flush_deadline: Option<Instant> = None;
    let mut park = MIN_PARK;
    // One read buffer for every connection and every sweep.
    let mut chunk = vec![0u8; 64 * 1024];
    loop {
        if shared.is_crashed() {
            // A crash drops every connection unflushed: clients observe
            // EOF (possibly mid-response) exactly as with `kill -9`.
            return;
        }
        let mut progress = false;

        // Accept as long as the backlog has connections (not while
        // shutting down — the next generation owns new clients).
        while !shared.is_shutting_down() {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if conns.len() >= shared.config.max_connections {
                        // Beyond capacity: close immediately; clients
                        // see EOF and retry with backoff.
                        drop(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Responses are complete lines; never hold them
                    // back for coalescing.
                    let _ = stream.set_nodelay(true);
                    let id = next_id;
                    next_id += 1;
                    conns.insert(
                        id,
                        Conn {
                            stream,
                            rbuf: LineBuf::default(),
                            wbuf: Vec::new(),
                            close_after_flush: false,
                            dead: false,
                            read_started: None,
                            queued_bytes: 0,
                            written_bytes: 0,
                            pending_traces: Vec::new(),
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }

        // Drain computed responses into their connections' buffers.
        while let Ok(outbound) = out.try_recv() {
            progress = true;
            queue_response(shared, &mut conns, outbound);
        }

        // Sweep every connection: read what's ready, handle complete
        // lines, write what fits.
        for (&id, conn) in &mut conns {
            if !conn.close_after_flush && read_ready(conn, &mut chunk, shared.config.max_line_bytes)
            {
                progress = true;
            }
            // Handle complete lines (may queue inline responses or
            // forward to workers). The buffer leaves the connection
            // meanwhile, so each line is parsed where it was read.
            let mut rbuf = std::mem::take(&mut conn.rbuf);
            let mut handled = 0;
            while !conn.dead && !conn.close_after_flush {
                let Some(end) = rbuf.next_newline() else {
                    break;
                };
                let text = String::from_utf8_lossy(&rbuf.bytes[handled..end]);
                if !text.trim().is_empty() {
                    handle_line(shared, conn, id, &text, admit, tune);
                }
                // The next pipelined line's read time starts fresh.
                conn.read_started = None;
                handled = end + 1;
            }
            rbuf.consume(handled);
            conn.rbuf = rbuf;
            let written = write_ready(conn);
            if written > 0 {
                progress = true;
            }
            conn.written_bytes += written as u64;
            // Finish the write+request spans of every traced response
            // whose final byte just reached the socket, and publish its
            // trace id as "most recent" for the `trace` op.
            while conn
                .pending_traces
                .first()
                .is_some_and(|&(end, _, _)| conn.written_bytes >= end)
            {
                let (_, write_span, root) = conn.pending_traces.remove(0);
                write_span.finish();
                let trace = root.trace_id();
                root.finish();
                if trace != 0 {
                    shared.obs.last_trace.store(trace, Ordering::Relaxed);
                }
            }
            if conn.close_after_flush && conn.wbuf.is_empty() {
                conn.dead = true;
            }
        }
        conns.retain(|_, conn| !conn.dead);

        // Graceful exit: workers drained, responses delivered (or the
        // flush grace expired on clients that stopped reading).
        if shared.is_shutting_down() {
            let deadline = *flush_deadline.get_or_insert_with(|| Instant::now() + FLUSH_GRACE);
            let workers_done = shared.batcher_done.load(Ordering::SeqCst)
                && shared.tuner_done.load(Ordering::SeqCst);
            let flushed = conns.values().all(|c| c.wbuf.is_empty());
            if workers_done && !outbound_open && (flushed || Instant::now() >= deadline) {
                return;
            }
        }

        if !progress {
            if outbound_open {
                // Park on the response channel: a computed response is
                // the latency-critical wakeup.
                match out.recv_timeout(park) {
                    Ok(outbound) => {
                        queue_response(shared, &mut conns, outbound);
                        progress = true;
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => outbound_open = false,
                }
            } else {
                std::thread::sleep(park);
            }
        }
        park = if progress {
            MIN_PARK
        } else {
            (park * 2).min(IDLE_PARK)
        };
    }
}

/// Queues one worker response, applying the `drop_response` fault: the
/// Nth response daemon-wide is truncated at half its bytes and its
/// connection closed — a torn line then EOF, from the client's side.
fn queue_response(shared: &Arc<Shared>, conns: &mut HashMap<u64, Conn>, outbound: Outbound) {
    let Some(conn) = conns.get_mut(&outbound.conn) else {
        return; // client vanished; drop the response as always
    };
    let nth = usize::try_from(shared.obs.responses.inc()).unwrap_or(usize::MAX);
    if shared.config.faults.drop_response == Some(nth) {
        let torn = outbound.line.len() / 2;
        conn.wbuf
            .extend_from_slice(&outbound.line.as_bytes()[..torn]);
        conn.queued_bytes += torn as u64;
        // The dropped response's spans auto-finish with `outbound`.
        conn.close_after_flush = true;
        return;
    }
    conn.push_line(&outbound.line);
    if let Some(root) = outbound.trace {
        let write_span = root.child("write");
        conn.pending_traces
            .push((conn.queued_bytes, write_span, root));
    }
}

/// Reads everything the socket has ready into `rbuf`, through the event
/// loop's one `chunk` buffer. Returns whether any bytes arrived. EOF and
/// hard errors mark the connection dead; a line overflowing
/// `max_line_bytes` queues a protocol error and closes (resynchronizing
/// mid-stream is not worth the buffer exposure).
fn read_ready(conn: &mut Conn, chunk: &mut [u8], max_line_bytes: usize) -> bool {
    let mut any = false;
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                if !any && conn.rbuf.bytes.is_empty() {
                    // First bytes of a new request: the lifecycle's
                    // "read" phase starts here.
                    conn.read_started = Some(Instant::now());
                }
                any = true;
                conn.rbuf.bytes.extend_from_slice(&chunk[..n]);
                if conn.rbuf.bytes.len() > max_line_bytes && !conn.rbuf.bytes.contains(&b'\n') {
                    conn.push_line(&protocol::error_response(
                        &polytops_core::json::Json::Null,
                        "request line exceeds the size limit",
                    ));
                    conn.close_after_flush = true;
                    conn.rbuf = LineBuf::default();
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    any
}

/// Writes as much buffered response data as the socket accepts.
/// Returns how many bytes left. A hard write error marks the
/// connection dead (the response was undeliverable anyway).
fn write_ready(conn: &mut Conn) -> usize {
    let mut written = 0;
    while written < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[written..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    conn.wbuf.drain(..written);
    written
}

/// Handles one complete request line: immediate ops are answered into
/// the connection's write buffer; schedule/autotune are forwarded to
/// their worker threads.
fn handle_line(
    shared: &Arc<Shared>,
    conn: &mut Conn,
    id: u64,
    line: &str,
    admit: &SyncSender<Admitted>,
    tune: &Sender<TuneJob>,
) {
    match protocol::parse_request(line) {
        Err(e) => conn.push_line(&protocol::error_response(
            &polytops_core::json::Json::Null,
            &e,
        )),
        Ok(Request::Ping) => conn.push_line(r#"{"ok":true,"pong":true}"#),
        Ok(Request::Stats) => conn.push_line(&shared.stats_line()),
        Ok(Request::Trace) => conn.push_line(&shared.trace_line()),
        Ok(Request::Shutdown) => {
            conn.push_line(r#"{"ok":true,"shutting_down":true}"#);
            shared.begin_shutdown();
        }
        Ok(Request::Autotune(req)) => {
            if shared.is_shutting_down() {
                conn.push_line(&protocol::error_response(&req.id, "shutting down"));
            } else if let Err(e) = tune.send(TuneJob {
                req: *req,
                conn: id,
            }) {
                conn.push_line(&protocol::error_response(&e.0.req.id, "shutting down"));
            }
        }
        Ok(Request::Schedule(req)) => {
            if shared.is_shutting_down() {
                conn.push_line(&protocol::error_response(&req.id, "shutting down"));
                return;
            }
            // Open the request's lifecycle spans: the "read" phase ran
            // from the first byte's arrival to now; "admission" stays
            // open until the batcher's window closes. The root adopts
            // the envelope's trace id when the router stamped one.
            let recorder = &shared.obs.recorder;
            let trace = if recorder.spans_enabled() {
                let start_ns = conn
                    .read_started
                    .take()
                    .map_or_else(|| recorder.now_ns(), |at| recorder.ns_of(at));
                let root = recorder.root_span_at("request", req.trace, start_ns);
                root.child_at("read", start_ns).finish();
                let admission = root.child("admission");
                Some(RequestTrace {
                    root,
                    admission: Some(admission),
                })
            } else {
                None
            };
            let mut admitted = Admitted {
                req: *req,
                conn: id,
                trace,
            };
            // The admission channel is bounded; brief full intervals
            // apply backpressure to this one connection's request,
            // briefly pausing the sweep — which is the point: a flood
            // must slow intake, not grow memory.
            loop {
                match admit.try_send(admitted) {
                    Ok(()) => break,
                    Err(TrySendError::Full(back)) => {
                        if shared.is_shutting_down() || shared.is_crashed() {
                            conn.push_line(&protocol::error_response(
                                &back.req.id,
                                "shutting down",
                            ));
                            break;
                        }
                        admitted = back;
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Err(TrySendError::Disconnected(back)) => {
                        conn.push_line(&protocol::error_response(&back.req.id, "shutting down"));
                        break;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::LineBuf;

    /// Feeds `input` to a [`LineBuf`] in `chunk`-byte reads, taking the
    /// complete lines off after every read as the event loop does.
    /// Returns the lines and the unterminated rest.
    fn split(input: &[u8], chunk: usize) -> (Vec<Vec<u8>>, Vec<u8>) {
        let mut buf = LineBuf::default();
        let mut lines = Vec::new();
        for piece in input.chunks(chunk) {
            buf.bytes.extend_from_slice(piece);
            let mut handled = 0;
            while let Some(end) = buf.next_newline() {
                lines.push(buf.bytes[handled..end].to_vec());
                handled = end + 1;
            }
            buf.consume(handled);
            // Everything left was searched: the next read's search
            // starts at its own first byte.
            assert_eq!(buf.scanned, buf.bytes.len());
        }
        (lines, buf.bytes)
    }

    #[test]
    fn lines_are_the_same_however_the_bytes_arrive() {
        let input = b"{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n\xc3\xa9\n\ntail";
        let want: Vec<Vec<u8>> = input.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        let (complete, rest) = want.split_at(want.len() - 1);
        // Every chunk size puts a read boundary everywhere: inside a
        // line, just before and just after a newline, inside a UTF-8
        // sequence; chunk = len is several lines in one read.
        for chunk in 1..=input.len() {
            assert_eq!(split(input, chunk), (complete.to_vec(), rest[0].clone()));
        }
    }

    #[test]
    fn a_sweep_that_stops_early_resumes_at_the_next_line() {
        // A protocol error closes the stream after the first line; the
        // lines behind it stay in the buffer, found again if searched.
        let mut buf = LineBuf::default();
        buf.bytes.extend_from_slice(b"a\nb\nc");
        let end = buf.next_newline().unwrap();
        assert_eq!(&buf.bytes[..end], b"a");
        buf.consume(end + 1);
        assert_eq!(buf.scanned, 0);
        assert_eq!(buf.next_newline(), Some(1));
        buf.consume(2);
        assert_eq!(buf.next_newline(), None);
        assert_eq!((buf.bytes.as_slice(), buf.scanned), (&b"c"[..], 1));
    }
}
