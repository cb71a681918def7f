//! The daemon's connections: one acceptor thread and, per connection, a
//! reader thread and a writer thread, all on blocking sockets.
//!
//! The reader frames `\n`-terminated lines of at most
//! [`ServerConfig::max_line_bytes`](crate::ServerConfig::max_line_bytes)
//! and handles each: `ping` and `shutdown` are answered at once, and a
//! `schedule` or `autotune` line goes through the bounded admission
//! queue to the batcher with the connection's reply sender. A request
//! line is parsed here only as far as its JSON envelope
//! (`protocol::parse_wire_request`): the SCoP text travels on unparsed,
//! and the registry parses it on the batcher only when it has not seen
//! that text.
//!
//! The writer drains the connection's own reply queue, so the bytes of
//! one response are never interleaved with another's. A `stats` or
//! `trace` line is answered by the writer when it reaches it: after
//! everything queued before it on the connection is written, so a
//! `trace` sent right after a response reads that response's finished
//! spans.
//!
//! An idle connection is two threads blocked in the kernel, and costs
//! no CPU. A client that stops reading blocks only its own writer.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use polytops_core::json::Json;
use polytops_obs::SpanHandle;

use crate::protocol::{self, Request};
use crate::service::{Admitted, Shared, Work};

/// How long the acceptor sleeps when no connection is waiting. The
/// listener is nonblocking so that the acceptor can look at the
/// shutdown and crash flags before every `accept`.
const ACCEPT_POLL: Duration = Duration::from_micros(500);

/// How long a graceful shutdown keeps flushing responses, once the
/// batcher is done, before it closes connections whose clients stopped
/// reading.
const FLUSH_GRACE: Duration = Duration::from_secs(2);

/// The error a line longer than the cap gets before its connection
/// closes (resynchronizing mid-stream is not worth the buffer exposure).
pub(crate) fn line_too_long() -> String {
    protocol::error_response(&Json::Null, "request line exceeds the size limit")
}

/// One entry of a connection's reply queue; the writer writes them in
/// queue order.
pub(crate) enum Reply {
    /// A line answered on the reader thread (ping, shutdown, errors).
    Line(String),
    /// `stats` or `trace`, built when the writer reaches it.
    Later(fn(&Shared) -> String),
    /// The batcher's answer to a schedule or autotune request. The
    /// `drop_response` fault counts these daemon-wide.
    Response {
        line: String,
        /// The request's open "request" root and its "write" child,
        /// finished once the line's last byte reaches the socket.
        root: SpanHandle,
        write: SpanHandle,
    },
}

impl Reply {
    /// The batcher's response; the request's "write" phase starts here,
    /// at the hand-off to the connection.
    pub(crate) fn response(line: String, root: SpanHandle) -> Reply {
        let write = root.child("write");
        Reply::Response { line, root, write }
    }
}

/// How a call to [`read_line`] ended.
pub(crate) enum Line {
    /// A whole line, its newline dropped.
    Complete,
    /// More than the cap arrived without a newline.
    TooLong,
    /// The peer closed; a line it cut short is dropped.
    Eof,
}

/// Reads the next `\n`-terminated line into `line` (cleared first), at
/// most `max` bytes of it. A client that streams bytes without a newline
/// costs at most `max + 1` buffered bytes. The daemon and the router
/// frame their requests with it.
///
/// # Errors
///
/// Propagates read errors.
pub(crate) fn read_line(
    reader: &mut impl BufRead,
    line: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<Line> {
    line.clear();
    let limit = u64::try_from(max).unwrap_or(u64::MAX).saturating_add(1);
    reader.take(limit).read_until(b'\n', line)?;
    if line.last() == Some(&b'\n') {
        line.pop();
        Ok(Line::Complete)
    } else if line.len() > max {
        Ok(Line::TooLong)
    } else {
        Ok(Line::Eof)
    }
}

/// The open connections' sockets: what `max_connections` counts, and
/// what a crash or the end of a graceful shutdown closes, which wakes
/// each connection's blocked threads. Responses never pass through it.
#[derive(Default)]
struct Open(Mutex<Vec<Arc<TcpStream>>>);

impl Open {
    fn with<T>(&self, f: impl FnOnce(&mut Vec<Arc<TcpStream>>) -> T) -> T {
        // Every update leaves the list whole, and `Entry::drop` must not
        // panic: a poisoned lock is used as it is.
        f(&mut self.0.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn insert(&self, stream: TcpStream) -> Entry<'_> {
        let stream = Arc::new(stream);
        self.with(|open| open.push(Arc::clone(&stream)));
        Entry { open: self, stream }
    }

    fn close_all(&self, how: Shutdown) {
        self.with(|open| {
            for stream in open.iter() {
                let _ = stream.shutdown(how);
            }
        });
    }
}

/// A connection's place in [`Open`]. Dropping it, however the
/// connection's threads end (a panic included), removes it.
struct Entry<'a> {
    open: &'a Open,
    stream: Arc<TcpStream>,
}

impl Drop for Entry<'_> {
    fn drop(&mut self) {
        let stream = &self.stream;
        self.open
            .with(|open| open.retain(|s| !Arc::ptr_eq(s, stream)));
    }
}

/// Runs the acceptor until shutdown or crash, then closes the daemon's
/// connections and returns once their threads, scoped to it, are done.
///
/// It never accepts once a crash or shutdown has begun: connects wait in
/// the backlog for the next daemon generation on the same listener
/// ([`Server::start_on`](crate::Server::start_on)). A crash closes every
/// connection unflushed. A graceful shutdown waits for the batcher to
/// finish (meanwhile readers answer new schedule and autotune requests
/// with "shutting down"), stops reading, lets each writer flush for at
/// most [`FLUSH_GRACE`], then closes.
pub(crate) fn accept_loop(listener: &TcpListener, shared: &Shared, admit: &SyncSender<Admitted>) {
    let open = Open::default();
    std::thread::scope(|s| {
        while !shared.is_shutting_down() && !shared.is_crashed() {
            let Ok((stream, _)) = listener.accept() else {
                std::thread::sleep(ACCEPT_POLL);
                continue;
            };
            if open.with(|open| open.len()) >= shared.config.max_connections {
                // Beyond capacity: the client sees EOF and retries.
                continue;
            }
            // Responses are complete lines; never hold them back for
            // coalescing.
            let _ = stream.set_nodelay(true);
            // Some platforms hand out accepted sockets in the listener's
            // nonblocking mode; the connection threads block.
            if stream.set_nonblocking(false).is_err() {
                continue;
            }
            let entry = open.insert(stream);
            // The reader parses request lines, so it keeps the default
            // thread stack (2 MiB), which `json::MAX_DEPTH` was sized
            // for. A failed spawn drops the entry, closing the connection.
            let _ = std::thread::Builder::new()
                .spawn_scoped(s, move || serve(&entry.stream, shared, admit));
        }
        if !shared.is_crashed() {
            while !shared.batcher_done.load(Ordering::SeqCst) {
                std::thread::sleep(ACCEPT_POLL);
            }
            // Readers see EOF and leave; each writer drains its queue and
            // closes its connection.
            open.close_all(Shutdown::Read);
            let deadline = Instant::now() + FLUSH_GRACE;
            while !open.with(|open| open.is_empty()) && Instant::now() < deadline {
                std::thread::sleep(ACCEPT_POLL);
            }
        }
        // A crash, or clients that stopped reading past the grace: close
        // unflushed, which fails a blocked write.
        open.close_all(Shutdown::Both);
    });
}

/// Serves one connection: this thread reads, a scoped thread writes.
fn serve(stream: &TcpStream, shared: &Shared, admit: &SyncSender<Admitted>) {
    let (reply, replies) = mpsc::channel();
    std::thread::scope(|s| {
        let writer = std::thread::Builder::new().spawn_scoped(s, || {
            write_loop(stream, replies, shared);
        });
        if writer.is_ok() {
            read_loop(stream, reply, shared, admit);
        }
    });
}

/// Reads and handles request lines until EOF, an error or an oversized
/// line. Returning drops this connection's `reply` sender: the writer
/// stops once the batcher has answered what is still in flight.
fn read_loop(
    stream: &TcpStream,
    reply: Sender<Reply>,
    shared: &Shared,
    admit: &SyncSender<Admitted>,
) {
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // A request's "read" phase starts when its first bytes arrive.
        if !reader.fill_buf().is_ok_and(|bytes| !bytes.is_empty()) {
            return;
        }
        let started = Instant::now();
        match read_line(&mut reader, &mut line, shared.config.max_line_bytes) {
            Ok(Line::Complete) => {}
            Ok(Line::TooLong) => {
                let _ = reply.send(Reply::Line(line_too_long()));
                return;
            }
            Ok(Line::Eof) | Err(_) => return,
        }
        let text = String::from_utf8_lossy(&line);
        if !text.trim().is_empty() {
            handle_line(shared, &text, started, &reply, admit);
        }
    }
}

/// Writes the connection's replies in queue order until every sender is
/// gone, a crash, a write error or the `drop_response` fault, then shuts
/// the socket down, which also wakes a reader blocked on the client.
fn write_loop(stream: &TcpStream, replies: Receiver<Reply>, shared: &Shared) {
    let mut stream = stream;
    for reply in replies {
        if shared.is_crashed() {
            break;
        }
        let inert = SpanHandle::disabled;
        let (mut line, root, write) = match reply {
            Reply::Line(line) => (line, inert(), inert()),
            Reply::Later(answer) => (answer(shared), inert(), inert()),
            Reply::Response { line, root, write } => {
                let nth = usize::try_from(shared.obs.responses.inc()).unwrap_or(usize::MAX);
                if shared.config.faults.drop_response == Some(nth) {
                    // A torn line, then EOF; the spans finish on drop.
                    let _ = stream.write_all(&line.as_bytes()[..line.len() / 2]);
                    break;
                }
                (line, root, write)
            }
        };
        // One write per line: a separate newline would go out as a
        // packet of its own.
        line.push('\n');
        if stream.write_all(line.as_bytes()).is_err() {
            break;
        }
        // The response is on the socket: its trace, if it has one,
        // becomes the one the `trace` op returns.
        write.finish();
        let id = root.trace_id();
        root.finish();
        if id != 0 {
            shared.obs.last_trace.store(id, Ordering::Relaxed);
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Handles one complete request line: immediate ops are queued to the
/// writer; schedule and autotune requests go to the batcher, which
/// answers through `reply`.
fn handle_line(
    shared: &Shared,
    line: &str,
    started: Instant,
    reply: &Sender<Reply>,
    admit: &SyncSender<Admitted>,
) {
    let answer = |line: String| {
        let _ = reply.send(Reply::Line(line));
    };
    let later = |answer: fn(&Shared) -> String| {
        let _ = reply.send(Reply::Later(answer));
    };
    let shutting_down = |id: &Json| answer(protocol::error_response(id, "shutting down"));
    let work = match protocol::parse_wire_request(line) {
        Err(e) => return answer(protocol::error_response(&Json::Null, &e)),
        Ok(Request::Ping) => return answer(r#"{"ok":true,"pong":true}"#.to_string()),
        Ok(Request::Stats) => return later(Shared::stats_line),
        Ok(Request::Trace) => return later(Shared::trace_line),
        Ok(Request::Shutdown) => {
            answer(r#"{"ok":true,"shutting_down":true}"#.to_string());
            shared.begin_shutdown();
            return;
        }
        Ok(Request::Schedule(req)) => Work::Schedule(*req),
        Ok(Request::Autotune(req)) => Work::Autotune(*req),
    };
    if shared.is_shutting_down() {
        return shutting_down(work.id());
    }
    // Open a schedule request's lifecycle spans: the "read" phase ran
    // from the first byte's arrival to now; "admission" stays open
    // until the batcher takes the request. The root adopts the
    // envelope's trace id when the router stamped one. Autotunes run
    // untraced.
    let recorder = &shared.obs.recorder;
    let (root, admission) = match &work {
        Work::Schedule(req) => {
            let start_ns = recorder.ns_of(started);
            let root = recorder.root_span_at("request", req.trace, start_ns);
            root.child_at("read", start_ns).finish();
            let admission = root.child("admission");
            (root, admission)
        }
        Work::Autotune(_) => (SpanHandle::disabled(), SpanHandle::disabled()),
    };
    // The admission channel is bounded: a full one blocks this
    // connection's reader only, so a flood slows its own intake instead
    // of growing memory.
    if let Err(e) = admit.send(Admitted {
        work,
        reply: reply.clone(),
        root,
        admission,
    }) {
        shutting_down(e.0.work.id());
    }
}

#[cfg(test)]
mod tests {
    use std::io::{BufReader, Read};

    use super::{read_line, Line};

    /// A stream that hands out at most `chunk` bytes a read, as a socket
    /// does with a client's writes.
    struct Drip<'a> {
        bytes: &'a [u8],
        chunk: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The lines [`read_line`] frames from `input` read `chunk` bytes at
    /// a time under cap `max`, and whether the framing ended at EOF or
    /// on an oversized line.
    fn frame(input: &[u8], chunk: usize, max: usize) -> (Vec<Vec<u8>>, bool) {
        let mut reader = BufReader::new(Drip {
            bytes: input,
            chunk,
        });
        let (mut line, mut lines) = (Vec::new(), Vec::new());
        loop {
            match read_line(&mut reader, &mut line, max).unwrap() {
                Line::Complete => lines.push(line.clone()),
                Line::TooLong => return (lines, false),
                Line::Eof => return (lines, true),
            }
        }
    }

    #[test]
    fn lines_are_the_same_however_the_bytes_arrive() {
        let input = b"{\"op\":\"ping\"}\n\n{\"op\":\"stats\"}\n\xc3\xa9\n\ntail";
        let want: Vec<Vec<u8>> = input.split(|&b| b == b'\n').map(<[u8]>::to_vec).collect();
        // Every chunk size puts a read boundary everywhere: inside a
        // line, just before and just after a newline, inside a UTF-8
        // sequence; chunk = len is several lines in one read. The
        // unterminated tail is dropped at EOF.
        for chunk in 1..=input.len() {
            assert_eq!(frame(input, chunk, 64), (want[..5].to_vec(), true));
        }
    }

    #[test]
    fn a_line_one_byte_over_the_cap_is_refused() {
        let (abcd, efgh) = (b"abcd".to_vec(), b"efgh".to_vec());
        for chunk in [1, 3, 4096] {
            assert_eq!(
                frame(b"abcd\nefgh\n", chunk, 4),
                (vec![abcd.clone(), efgh.clone()], true)
            );
            assert_eq!(
                frame(b"abcd\nefghi\n", chunk, 4),
                (vec![abcd.clone()], false)
            );
            assert_eq!(frame(b"abcdefghij", chunk, 4), (vec![], false));
        }
    }
}
