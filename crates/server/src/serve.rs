//! The resident TCP server: accept loop, connection handlers, and
//! graceful shutdown.
//!
//! One dedicated thread runs the admission dispatcher and each accepted
//! connection gets its own OS thread (`c4cam-conn`), at most
//! [`MAX_CONNECTIONS`] at once: a handler blocks on its socket for as
//! long as the client stays, so it must not occupy a worker of the
//! engine's shard pool, which batches need. A connection past the cap
//! is answered one `overloaded` line and closed, and one that sends
//! nothing for [`ServeConfig::idle_timeout`] is closed. The accept loop
//! blocks on the socket — a connection is accepted the moment it
//! arrives, not at the next tick of a poll. Shutdown is cooperative: a
//! SIGTERM / SIGINT (ctrl-c) or a `{"cmd":"shutdown"}` request flips
//! one flag and wakes the loop (a byte down a pipe, a loopback
//! connection); it stops admitting connections, the admission queue
//! drains every in-flight batch, and [`serve`] returns a final
//! [`ServeReport`] so the process can exit 0.

use crate::admission::{Admission, AdmissionConfig, AdmitError};
use crate::cache::PlanCache;
use crate::protocol::{
    classify_response, error_response, parse_request, ClassifyReply, Cmd, ErrorCode, PlanKey,
    Request,
};
use crate::PlanSource;
use c4cam_telemetry::{cat, json, ArgValue, Telemetry};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind host (default loopback).
    pub host: String,
    /// Bind port; `0` picks an ephemeral port (reported via the
    /// `on_ready` callback and the startup line).
    pub port: u16,
    /// Batching and backpressure knobs.
    pub admission: AdmissionConfig,
    /// Maximum compiled plans kept resident.
    pub cache_capacity: usize,
    /// Telemetry handle shared by compilation, batches, and requests.
    pub telemetry: Telemetry,
    /// How long a connection may go without sending a byte before it
    /// is closed and its [`MAX_CONNECTIONS`] slot freed (default 60 s;
    /// `None` waits forever). A peer that trickles bytes more often
    /// than this keeps its slot.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            admission: AdmissionConfig::default(),
            cache_capacity: 8,
            telemetry: Telemetry::disabled(),
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// Final counters reported when the server exits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Classify requests admitted and answered.
    pub requests: u64,
    /// Requests rejected (overloaded / too large / shutting down /
    /// bad request).
    pub rejected: u64,
    /// Coalesced device batches executed.
    pub batches: u64,
    /// Query rows across all batches.
    pub batched_rows: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses (compiles).
    pub cache_misses: u64,
}

impl ServeReport {
    /// One-line human summary for the CLI.
    pub fn summary(&self) -> String {
        format!(
            "served {} requests in {} batches ({} rows; {:.2} requests/batch), \
             cache {} hits / {} misses, {} rejected",
            self.requests,
            self.batches,
            self.batched_rows,
            self.requests as f64 / (self.batches.max(1)) as f64,
            self.cache_hits,
            self.cache_misses,
            self.rejected
        )
    }
}

#[cfg(unix)]
mod signals {
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;
    use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
    use std::sync::Once;

    static SIGNALLED: AtomicBool = AtomicBool::new(false);
    /// Read and write end of the pipe the handler wakes the accept
    /// loops through, `-1` until [`install`] and if `pipe` failed
    /// (`poll` skips a negative descriptor and `write` refuses one, so
    /// a signal then still ends a loop that `poll` sees interrupted).
    /// A signal can run its handler on any thread and between a loop's
    /// look at [`SIGNALLED`] and its `poll`; the byte, never read, keeps
    /// every `poll` from then on returning at once.
    static WAKE: [AtomicI32; 2] = [AtomicI32::new(-1), AtomicI32::new(-1)];

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    const POLLIN: i16 = 1;
    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn pipe(fds: *mut i32) -> i32;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: i32) -> i32;
    }

    extern "C" fn handle(_sig: i32) {
        if !SIGNALLED.swap(true, Ordering::SeqCst) {
            // SAFETY: `write` is async-signal-safe, the buffer is one
            // live byte, and the descriptor is the pipe's or `-1`.
            unsafe { write(WAKE[1].load(Ordering::SeqCst), [1u8].as_ptr(), 1) };
        }
    }

    /// Route SIGINT (2) and SIGTERM (15) to a flag and the wake pipe,
    /// once per process. Uses the libc symbols std already links; the
    /// handler does an atomic swap and at most one `write` ever, both
    /// async-signal-safe.
    pub fn install() {
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let mut fds = [-1i32; 2];
            // SAFETY: `pipe` writes two descriptors into the array it
            // is given, or fails and leaves it alone.
            if unsafe { pipe(fds.as_mut_ptr()) } == 0 {
                WAKE[0].store(fds[0], Ordering::SeqCst);
                WAKE[1].store(fds[1], Ordering::SeqCst);
            }
            // SAFETY: `handle` is an `extern "C" fn(i32)`, what
            // `signal` expects, and the statics it touches are set.
            unsafe {
                signal(2, handle as *const () as usize);
                signal(15, handle as *const () as usize);
            }
        });
    }

    pub fn signalled() -> bool {
        SIGNALLED.load(Ordering::SeqCst)
    }

    /// Block, with no timeout, until `listener` has a connection to
    /// accept or a signal arrived. May also return early (`EINTR`); the
    /// caller loops.
    pub fn wait_for_connection(listener: &TcpListener) {
        let watch = |fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let mut fds = [
            watch(listener.as_raw_fd()),
            watch(WAKE[0].load(Ordering::SeqCst)),
        ];
        // SAFETY: `fds` is a live array of the two `pollfd`s counted.
        unsafe { poll(fds.as_mut_ptr(), 2, -1) };
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}
    pub fn signalled() -> bool {
        false
    }
    /// Nothing to wait on: without signals the listener stays in
    /// blocking mode and `accept` itself waits.
    pub fn wait_for_connection(_listener: &std::net::TcpListener) {}
}

/// Connections served at once; the next one is answered one
/// `overloaded` error line and closed.
pub const MAX_CONNECTIONS: usize = 256;

struct Shared {
    admission: Admission,
    cache: PlanCache,
    source: Arc<dyn PlanSource>,
    telemetry: Telemetry,
    shutdown: AtomicBool,
    requests: AtomicU64,
    rejected: AtomicU64,
    /// Live connection handlers (see [`ConnectionSlot`]).
    connections: AtomicUsize,
    /// A loopback address of the listener: a `shutdown` request
    /// connects to it to wake the accept loop.
    wake_addr: SocketAddr,
    started: Instant,
    default_key: PlanKey,
}

/// One of the [`MAX_CONNECTIONS`] slots, released on drop so a
/// panicking handler frees it too.
struct ConnectionSlot(Arc<Shared>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Run the resident server until shutdown; returns the final report.
///
/// `on_ready` fires once, after the default plan is precompiled and
/// the socket is bound, with the actual listening address (useful with
/// `port: 0`).
///
/// # Errors
/// Bind failures and a default plan that does not compile are startup
/// errors; per-request failures are reported to the requesting client
/// instead.
pub fn serve(
    cfg: &ServeConfig,
    source: Arc<dyn PlanSource>,
    on_ready: impl FnOnce(SocketAddr),
) -> Result<ServeReport, String> {
    let listener = TcpListener::bind((cfg.host.as_str(), cfg.port))
        .map_err(|e| format!("bind {}:{}: {e}", cfg.host, cfg.port))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("local_addr: {e}"))?;
    // After `wait_for_connection` says there is one, `accept` must
    // still not block (the peer may have reset it meanwhile): a signal
    // would find nobody waiting on the pipe.
    listener
        .set_nonblocking(cfg!(unix))
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    signals::install();
    let mut wake_addr = addr;
    if addr.ip().is_unspecified() {
        wake_addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }

    let default_key = source.default_key();
    let shared = Arc::new(Shared {
        admission: Admission::new(cfg.admission.clone()),
        cache: PlanCache::new(cfg.cache_capacity),
        source,
        telemetry: cfg.telemetry.clone(),
        shutdown: AtomicBool::new(false),
        requests: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        connections: AtomicUsize::new(0),
        wake_addr,
        started: Instant::now(),
        default_key,
    });
    // Compile the default plan up front: the first request hits a warm
    // cache, and a misconfigured server fails at startup, not on
    // first traffic.
    shared
        .cache
        .get_or_compile(&shared.default_key, shared.source.as_ref())
        .map_err(|e| format!("precompile {}: {e}", shared.default_key))?;

    let dispatcher = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("c4cam-dispatch".into())
            .spawn(move || shared.admission.dispatch_loop(&shared.telemetry))
            .map_err(|e| format!("spawn dispatcher: {e}"))?
    };

    on_ready(addr);

    loop {
        signals::wait_for_connection(&listener);
        if shared.shutdown.load(Ordering::SeqCst) || signals::signalled() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Accepted sockets can inherit the listener's
                // non-blocking mode on some platforms; handlers use
                // blocking reads, which fail once the peer has been
                // silent for the idle timeout (a zero one is refused
                // and waits forever, as `None` does).
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                let _ = stream.set_read_timeout(cfg.idle_timeout);
                spawn_connection(stream, &shared);
            }
            // Woken by a signal, or the peer reset before we got here.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
            // Out of descriptors, say: the connection stays queued and
            // the wait above would return at once, so give the handlers
            // a moment to close some instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }

    // Drain: no new admissions; the dispatcher finishes every queued
    // batch, then exits.
    shared.admission.drain();
    dispatcher.join().map_err(|_| "dispatcher panicked")?;

    let cache = shared.cache.stats();
    let (batches, batched_rows, _max) = shared.admission.batch_stats();
    Ok(ServeReport {
        requests: shared.requests.load(Ordering::SeqCst),
        rejected: shared.rejected.load(Ordering::SeqCst),
        batches,
        batched_rows,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    })
}

/// Serve `stream` on a thread of its own, or — at the connection cap,
/// or when the thread cannot be spawned — refuse it.
fn spawn_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let refuse = |mut stream: &TcpStream, detail: &str| {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        let line = error_response(0, ErrorCode::Overloaded, detail);
        let _ = stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"));
    };
    // Only the accept loop takes slots, so check-then-add cannot overshoot.
    if shared.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
        return refuse(&stream, &format!("{MAX_CONNECTIONS} connections are open"));
    }
    shared.connections.fetch_add(1, Ordering::SeqCst);
    let slot = ConnectionSlot(Arc::clone(shared));
    // Shared, so a failed spawn (which drops the closure) can still be
    // answered.
    let stream = Arc::new(stream);
    let theirs = Arc::clone(&stream);
    // Detached: the handler ends when its peer closes, which shutdown
    // must not wait for. A panic in it prints through the panic hook
    // and unwinds `slot`.
    let spawned = std::thread::Builder::new()
        .name("c4cam-conn".into())
        .spawn(move || handle_connection(&theirs, &slot.0));
    if let Err(e) = spawned {
        refuse(&stream, &format!("cannot spawn a connection thread: {e}"));
    }
}

/// Longest request line accepted, newline excluded: bounds what one
/// connection can make the server buffer.
const MAX_LINE_BYTES: usize = 1 << 20;

fn handle_connection(stream: &TcpStream, shared: &Shared) {
    let mut reader = BufReader::new(stream);
    let mut writer = stream;
    let reject = |code, detail: &str| {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        error_response(0, code, detail)
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        // One byte past the cap tells an over-long line from a full one.
        let mut capped = (&mut reader).take(MAX_LINE_BYTES as u64 + 1);
        match capped.read_until(b'\n', &mut line) {
            // The peer went away, or was silent past the idle timeout.
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let (response, then) = if line.len() > MAX_LINE_BYTES && !line.ends_with(b"\n") {
            // The rest of the line is unread: the stream cannot be
            // resynchronized, so answer and hang up.
            let detail = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            (reject(ErrorCode::TooLarge, &detail), Then::Close)
        } else {
            match std::str::from_utf8(&line).map(str::trim) {
                Ok("") => continue,
                Ok(text) => handle_line(text, shared),
                Err(e) => (
                    reject(ErrorCode::BadRequest, &e.to_string()),
                    Then::Continue,
                ),
            }
        };
        let written = writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        match then {
            Then::Continue if written.is_ok() => {}
            Then::Continue | Then::Close => break,
            Then::ShutDown => {
                // Only now that the reply is on the wire (or its peer
                // is gone): this thread is detached, and `serve`
                // returning lets the process exit underneath an
                // unwritten one.
                shared.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(shared.wake_addr);
                break;
            }
        }
    }
}

/// What a connection does once its response has been written.
enum Then {
    /// Read the next request line.
    Continue,
    /// Hang up.
    Close,
    /// Stop the server (flag, then wake the accept loop), and hang up.
    ShutDown,
}

/// Handle one request line; returns the response line and what follows
/// it.
fn handle_line(line: &str, shared: &Shared) -> (String, Then) {
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(detail) => {
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            let response = error_response(0, ErrorCode::BadRequest, &detail);
            return (response, Then::Continue);
        }
    };
    match request.cmd {
        Cmd::Classify { .. } => (classify(&request, shared), Then::Continue),
        Cmd::Info => (info_response(shared), Then::Continue),
        Cmd::Stats => (stats_response(shared), Then::Continue),
        Cmd::Shutdown => {
            let reply = json::object(|o| {
                o.put("id", request.id)
                    .put("ok", true)
                    .put("shutting_down", true);
            });
            (reply, Then::ShutDown)
        }
    }
}

fn classify(request: &Request, shared: &Shared) -> String {
    let Cmd::Classify { rows, key } = &request.cmd else {
        unreachable!("caller matched Classify");
    };
    let id = request.id;
    let t0 = Instant::now();
    let key = key.resolve(&shared.default_key);
    let mut span = shared.telemetry.span(format!("req-{id}"), cat::REQUEST);
    span.arg("key", ArgValue::Str(key.to_string()));
    span.arg("rows", ArgValue::Int(rows.len() as i64));

    let (runner, cache_hit) = match shared.cache.get_or_compile(&key, shared.source.as_ref()) {
        Ok(x) => x,
        Err(detail) => {
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            return error_response(id, ErrorCode::CompileFailed, &detail);
        }
    };
    span.arg("cache_hit", ArgValue::Int(i64::from(cache_hit)));
    let pool = runner.pool_size();
    if let Some(&bad) = rows.iter().find(|&&r| r >= pool) {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        return error_response(
            id,
            ErrorCode::BadRequest,
            &format!("row {bad} out of range (query pool has {pool} rows)"),
        );
    }
    let ticket = match shared.admission.submit(&key, runner, rows.clone()) {
        Ok(t) => t,
        Err(e) => {
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            let code = match e {
                AdmitError::Overloaded { .. } => ErrorCode::Overloaded,
                AdmitError::TooLarge { .. } => ErrorCode::TooLarge,
                AdmitError::ShuttingDown => ErrorCode::ShuttingDown,
            };
            return error_response(id, code, &e.to_string());
        }
    };
    match ticket.recv() {
        Ok(Ok(slice)) => {
            shared.requests.fetch_add(1, Ordering::SeqCst);
            let reply = ClassifyReply {
                predictions: slice.predictions,
                classes: slice.classes,
                cache_hit,
                batch_rows: slice.batch_rows,
                batch_requests: slice.batch_requests,
                sim_latency_ns_per_query: slice.sim_latency_ns_per_query,
                sim_energy_pj_per_query: slice.sim_energy_pj_per_query,
                host_us: t0.elapsed().as_secs_f64() * 1e6,
            };
            classify_response(id, &reply)
        }
        Ok(Err(detail)) => {
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            error_response(id, ErrorCode::ExecFailed, &detail)
        }
        Err(_) => {
            // Dispatcher exited mid-drain before reaching this batch.
            shared.rejected.fetch_add(1, Ordering::SeqCst);
            error_response(
                id,
                ErrorCode::ShuttingDown,
                "server drained before execution",
            )
        }
    }
}

fn info_response(shared: &Shared) -> String {
    let (capacity, pool_size) = match shared
        .cache
        .get_or_compile(&shared.default_key, shared.source.as_ref())
    {
        Ok((runner, _)) => (runner.capacity(), runner.pool_size()),
        Err(_) => (0, 0),
    };
    let config = shared.admission.config();
    let cached_keys: Vec<String> = shared.cache.keys().iter().map(PlanKey::to_string).collect();
    json::object(|o| {
        o.put("ok", true)
            .put("default_key", shared.default_key.to_string())
            .put("capacity", capacity)
            .put("pool_size", pool_size)
            .put("queue_depth", config.queue_depth)
            .put("cached_plans", shared.cache.len())
            .put("cached_keys", &cached_keys[..]);
    })
}

fn stats_response(shared: &Shared) -> String {
    let cache = shared.cache.stats();
    let (batches, batched_rows, max_batch_requests) = shared.admission.batch_stats();
    json::object(|o| {
        o.put("ok", true)
            .put("requests", shared.requests.load(Ordering::SeqCst))
            .put("rejected", shared.rejected.load(Ordering::SeqCst))
            .put("pending", shared.admission.pending())
            .put("batches", batches)
            .put("batched_rows", batched_rows)
            .put("max_batch_requests", max_batch_requests)
            .put("cache_hits", cache.hits)
            .put("cache_misses", cache.misses)
            .put("cache_evictions", cache.evictions)
            .put("uptime_s", shared.started.elapsed().as_secs_f64());
    })
}
