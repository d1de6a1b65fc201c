//! Service-mode integration tests: dynamic batching bit-identity
//! against sequential per-request execution for every registered
//! backend, bounded-queue backpressure, compiled-plan cache behaviour
//! (second request skips Parse/Place/Compile), and the TCP server +
//! load generator end to end.

use c4cam::service::{reference_pool_classes, DatasetPlanSource};
use c4cam_datasets::mini_mnist;
use c4cam_hal::BackendRegistry;
use c4cam_server::json::Json;
use c4cam_server::protocol::PlanKey;
use c4cam_server::{
    loadgen, serve, Admission, AdmissionConfig, AdmitError, BatchSlice, LoadMode, LoadgenConfig,
    PlanCache, PlanSource, ServeConfig, ServeReport, MAX_CONNECTIONS,
};
use c4cam_telemetry::{CollectingRecorder, Event, Telemetry};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

fn key(backend: &str) -> PlanKey {
    PlanKey {
        task: "hdc".to_string(),
        bits: 2,
        subarray: 32,
        backend: backend.to_string(),
    }
}

fn source_with(backend: &str, max_batch: usize, telemetry: Telemetry) -> DatasetPlanSource {
    DatasetPlanSource::new(mini_mnist::dataset(), key(backend), max_batch, 1, telemetry)
}

/// Submit every request, then drain and run the dispatcher inline:
/// deterministic coalescing regardless of wall-clock timing.
fn run_coalesced(
    admission: &Admission,
    source: &DatasetPlanSource,
    backend: &str,
    requests: &[Vec<usize>],
) -> Vec<BatchSlice> {
    let k = key(backend);
    let runner = source.compile(&k).unwrap();
    let tickets: Vec<_> = requests
        .iter()
        .map(|rows| {
            admission
                .submit(&k, Arc::clone(&runner), rows.clone())
                .unwrap()
        })
        .collect();
    admission.drain();
    admission.dispatch_loop(&Telemetry::disabled());
    tickets
        .into_iter()
        .map(|t| t.recv().expect("dispatcher answers every ticket").unwrap())
        .collect()
}

#[test]
fn coalesced_batches_match_sequential_per_request_for_every_backend() {
    // Interleavings with mixed request sizes, crossing batch
    // boundaries at both capacities below.
    let patterns: &[&[&[usize]]] = &[
        &[&[0], &[1, 2], &[3, 4, 5], &[6], &[7, 8]],
        &[&[7, 8], &[6], &[3, 4, 5], &[0], &[1, 2]],
        &[&[10, 11, 12, 13], &[14], &[15, 16], &[17, 18, 19]],
    ];
    for backend in BackendRegistry::global().names() {
        for capacity in [4, 8] {
            let source = source_with(backend, capacity, Telemetry::disabled());
            let runner = source.compile(&key(backend)).unwrap();
            for pattern in patterns {
                let requests: Vec<Vec<usize>> = pattern.iter().map(|r| r.to_vec()).collect();
                // Sequential reference: one device run per request.
                let sequential: Vec<_> = requests
                    .iter()
                    .map(|rows| runner.run_rows(rows).unwrap())
                    .collect();
                let admission = Admission::new(AdmissionConfig { queue_depth: 64 });
                let slices = run_coalesced(&admission, &source, backend, &requests);
                for (i, (slice, seq)) in slices.iter().zip(&sequential).enumerate() {
                    assert_eq!(
                        slice.predictions, seq.predictions,
                        "{backend} capacity {capacity} request {i}: predictions diverged"
                    );
                    assert_eq!(
                        slice.classes, seq.classes,
                        "{backend} capacity {capacity} request {i}: classes diverged"
                    );
                }
                // The controller actually coalesced: fewer batches
                // than requests whenever two requests fit together.
                let (batches, rows, max_requests) = admission.batch_stats();
                let total_rows: usize = requests.iter().map(Vec::len).sum();
                assert_eq!(rows as usize, total_rows);
                assert!(batches < requests.len() as u64, "{backend}: no coalescing");
                assert!(max_requests >= 2, "{backend}: no batch held two requests");
            }
        }
    }
}

#[test]
fn bounded_queue_rejects_structurally_instead_of_hanging() {
    let source = source_with("tape", 4, Telemetry::disabled());
    let k = key("tape");
    let runner = source.compile(&k).unwrap();
    let admission = Admission::new(AdmissionConfig { queue_depth: 2 });
    let t1 = admission.submit(&k, Arc::clone(&runner), vec![0]).unwrap();
    let t2 = admission.submit(&k, Arc::clone(&runner), vec![1]).unwrap();
    // Third submission: immediate structured rejection, no blocking.
    match admission.submit(&k, Arc::clone(&runner), vec![2]) {
        Err(AdmitError::Overloaded { depth }) => assert_eq!(depth, 2),
        other => panic!("expected Overloaded, got {other:?}"),
    }
    // Oversize requests are rejected before touching the queue.
    match admission.submit(&k, Arc::clone(&runner), vec![0, 1, 2, 3, 4]) {
        Err(AdmitError::TooLarge { rows, capacity }) => {
            assert_eq!((rows, capacity), (5, 4));
        }
        other => panic!("expected TooLarge, got {other:?}"),
    }
    // The admitted requests still complete.
    admission.drain();
    admission.dispatch_loop(&Telemetry::disabled());
    assert!(t1.recv().unwrap().is_ok());
    assert!(t2.recv().unwrap().is_ok());
    // And post-drain submissions report the shutdown.
    match admission.submit(&k, runner, vec![0]) {
        Err(AdmitError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
}

#[test]
fn cached_plans_skip_parse_place_compile_on_later_requests() {
    let recorder = Arc::new(CollectingRecorder::new());
    let telemetry = Telemetry::new(Arc::clone(&recorder) as Arc<dyn c4cam_telemetry::Recorder>);
    let source = source_with("tape", 4, telemetry.clone());
    let cache = PlanCache::new(4);
    let k = key("tape");

    let span_count = |name: &str| {
        recorder
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Span(s) if s.name == name))
            .count()
    };

    let (runner, hit) = cache.get_or_compile(&k, &source).unwrap();
    assert!(!hit);
    runner.run_rows(&[0, 1]).unwrap();
    assert_eq!(span_count("Parse"), 1);
    assert_eq!(span_count("Place"), 1);
    assert_eq!(span_count("Compile"), 1);
    assert_eq!(span_count("Execute"), 1);

    // Second and third requests for the same key: execution only.
    for round in 2..=3 {
        let (runner, hit) = cache.get_or_compile(&k, &source).unwrap();
        assert!(hit, "round {round} should be a cache hit");
        runner.run_rows(&[2, 3]).unwrap();
        assert_eq!(span_count("Parse"), 1, "round {round} re-parsed");
        assert_eq!(span_count("Place"), 1, "round {round} re-placed");
        assert_eq!(span_count("Compile"), 1, "round {round} re-compiled");
        assert_eq!(span_count("Execute"), round);
    }

    // A different key pays its own pipeline exactly once.
    let (runner, hit) = cache.get_or_compile(&key("walk"), &source).unwrap();
    assert!(!hit);
    runner.run_rows(&[0]).unwrap();
    assert_eq!(span_count("Parse"), 2);
    assert_eq!(span_count("Compile"), 2);
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        // A server that never answers is a failure, not a hang.
        let timeout = Some(Duration::from_secs(20));
        stream.set_read_timeout(timeout).unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn roundtrip(&mut self, line: &str) -> Json {
        self.roundtrip_bytes(format!("{line}\n").as_bytes())
    }

    fn roundtrip_bytes(&mut self, bytes: &[u8]) -> Json {
        self.writer.write_all(bytes).unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).unwrap();
        Json::parse(response.trim()).unwrap_or_else(|e| panic!("bad response {response:?}: {e}"))
    }
}

fn start_server(max_batch: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeReport>) {
    start_server_on(source_with("tape", max_batch, Telemetry::disabled()))
}

fn start_server_on(
    source: DatasetPlanSource,
) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeReport>) {
    start_server_idling(source, ServeConfig::default().idle_timeout)
}

fn start_server_idling(
    source: DatasetPlanSource,
    idle_timeout: Option<Duration>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<ServeReport>) {
    let cfg = ServeConfig {
        admission: AdmissionConfig { queue_depth: 256 },
        cache_capacity: 4,
        idle_timeout,
        ..ServeConfig::default()
    };
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        serve(&cfg, Arc::new(source), |addr| tx.send(addr).unwrap()).unwrap()
    });
    (
        rx.recv_timeout(Duration::from_secs(60))
            .expect("server ready"),
        handle,
    )
}

#[test]
fn tcp_server_classifies_verifies_and_shuts_down_gracefully() {
    let (addr, handle) = start_server(4);
    let expected = reference_pool_classes(&mini_mnist::dataset(), &key("tape")).unwrap();
    let mut client = Client::connect(addr);

    // The default plan was precompiled at startup: first classify is
    // already a cache hit.
    let v = client.roundtrip(r#"{"id":1,"cmd":"classify","rows":[0,1,2]}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(v.get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(v.get("cache_hit").and_then(Json::as_bool), Some(true));
    let classes: Vec<usize> = v
        .get("classes")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|c| c.as_u64().unwrap() as usize)
        .collect();
    assert_eq!(classes, expected[0..3], "CAM classes diverged from CPU");

    // info reports the pool and capacity the client needs.
    let info = client.roundtrip(r#"{"cmd":"info"}"#);
    assert_eq!(info.get("capacity").and_then(Json::as_u64), Some(4));
    assert_eq!(
        info.get("pool_size").and_then(Json::as_u64),
        Some(expected.len() as u64)
    );

    // Structured errors: malformed line, out-of-pool row, oversize
    // request — all answered, never a hang or a dropped connection.
    let bad = client.roundtrip("this is not json");
    assert_eq!(bad.get("error").and_then(Json::as_str), Some("bad_request"));
    let oob = client.roundtrip(r#"{"id":7,"cmd":"classify","rows":[9999]}"#);
    assert_eq!(oob.get("error").and_then(Json::as_str), Some("bad_request"));
    let big = client.roundtrip(r#"{"id":8,"cmd":"classify","rows":[0,1,2,3,4]}"#);
    assert_eq!(big.get("error").and_then(Json::as_str), Some("too_large"));

    // A per-request backend override compiles (miss) then caches.
    let miss = client.roundtrip(r#"{"id":9,"cmd":"classify","rows":[5],"backend":"walk"}"#);
    assert_eq!(miss.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(miss.get("cache_hit").and_then(Json::as_bool), Some(false));
    let hit = client.roundtrip(r#"{"id":10,"cmd":"classify","rows":[5],"backend":"walk"}"#);
    assert_eq!(hit.get("cache_hit").and_then(Json::as_bool), Some(true));
    assert_eq!(
        hit.get("classes").and_then(Json::as_arr).unwrap()[0].as_u64(),
        Some(expected[5] as u64)
    );

    let stats = client.roundtrip(r#"{"cmd":"stats"}"#);
    assert!(stats.get("requests").and_then(Json::as_u64).unwrap() >= 3);
    assert!(stats.get("batches").and_then(Json::as_u64).unwrap() >= 1);

    // Graceful shutdown by admin request: the server drains and the
    // serve() call returns its report with exit status for the CLI.
    let bye = client.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(bye.get("shutting_down").and_then(Json::as_bool), Some(true));
    let report = handle.join().unwrap();
    assert_eq!(report.requests, 3, "{report:?}");
    // Default 'tape' plan + walk override = exactly two compiles.
    assert_eq!(report.cache_misses, 2, "{report:?}");
    assert!(report.cache_hits >= 2, "{report:?}");
    assert!(report.rejected >= 3, "{report:?}");
}

#[test]
fn an_over_long_line_is_answered_too_large_and_the_connection_closed() {
    let (addr, handle) = start_server(4);
    let mut client = Client::connect(addr);
    // One byte past the server's 1 MiB line cap, no newline in sight.
    let reply = client.roundtrip_bytes(&vec![b'x'; (1 << 20) + 1]);
    assert_eq!(reply.get("error").and_then(Json::as_str), Some("too_large"));
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).unwrap(), 0, "{rest:?}");

    let mut fresh = Client::connect(addr);
    let v = fresh.roundtrip(r#"{"id":1,"cmd":"classify","rows":[0]}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    fresh.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(handle.join().unwrap().rejected, 1);
}

#[test]
fn invalid_utf8_is_answered_bad_request_and_the_connection_keeps_serving() {
    let (addr, handle) = start_server(4);
    let mut client = Client::connect(addr);
    let reply = client.roundtrip_bytes(b"{\"cmd\":\"info\xff\"}\n");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("bad_request")
    );
    let v = client.roundtrip(r#"{"id":1,"cmd":"classify","rows":[0]}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));

    let mut fresh = Client::connect(addr);
    let v = fresh.roundtrip(r#"{"id":2,"cmd":"classify","rows":[1]}"#);
    assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
    fresh.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(handle.join().unwrap().rejected, 1);
}

#[test]
fn hostile_request_lines_are_answered_in_bounded_time_and_size_and_the_server_keeps_serving() {
    let (addr, handle) = start_server(4);
    let mut client = Client::connect(addr);
    let long = "x".repeat(1_000_000);
    let started = std::time::Instant::now();
    for (line, code, needle) in [
        // Overflowed the handler's stack and aborted the process.
        ("[".repeat(10_000), "bad_request", "nesting deeper than 64"),
        // Was truncated to 2 and served from the default plan.
        (
            r#"{"id":1,"cmd":"classify","rows":[0],"bits":4294967298}"#.to_string(),
            "bad_request",
            "'bits'",
        ),
        // Was read as infinity.
        (
            r#"{"id":1e999,"cmd":"info"}"#.to_string(),
            "bad_request",
            "out of range",
        ),
        // What Python's `json.dumps` sends for U+1F600; was two U+FFFD.
        (
            r#"{"cmd":"\ud83d\ude00"}"#.to_string(),
            "bad_request",
            "unknown cmd '😀'",
        ),
        // Took tens of seconds to scan and came back whole.
        (format!(r#"{{"cmd":"{long}"}}"#), "bad_request", "xxx…'"),
        (
            format!(r#"{{"id":2,"cmd":"classify","rows":[0],"task":"{long}"}}"#),
            "compile_failed",
            "xxx…'",
        ),
    ] {
        let reply = client.roundtrip(&line);
        let shown = &line[..line.len().min(60)];
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some(code),
            "{shown}"
        );
        let detail = reply.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains(needle), "{shown}: {detail}");
        assert!(detail.len() < 200, "{shown}: {} bytes echoed", detail.len());
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "{:?}",
        started.elapsed()
    );

    let mut fresh = Client::connect(addr);
    let info = fresh.roundtrip(r#"{"cmd":"info"}"#);
    assert_eq!(info.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(info.get("cached_plans").and_then(Json::as_u64), Some(1));
    fresh.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert_eq!(handle.join().unwrap().rejected, 6);
}

#[test]
fn loadgen_sustains_throughput_with_exact_agreement() {
    let (addr, handle) = start_server(8);
    let expected = reference_pool_classes(&mini_mnist::dataset(), &key("tape")).unwrap();
    let pool_size = expected.len();
    let report = loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        requests: 48,
        concurrency: 4,
        rows_per_request: 1,
        mode: LoadMode::Closed,
        pool_size,
        expected_classes: Some(expected),
        shutdown_after: true,
    })
    .unwrap();
    assert_eq!(report.ok, 48, "{}", report.summary());
    assert_eq!(report.errors, 0, "{}", report.summary());
    assert_eq!(report.overloaded, 0, "{}", report.summary());
    assert!(report.qps > 0.0, "{}", report.summary());
    assert_eq!(report.agreement, Some(1.0), "{}", report.summary());
    assert!(report.p50_us <= report.p90_us && report.p90_us <= report.p99_us);
    assert!(report.cache_hit_rate > 0.99, "{}", report.summary());
    let server = handle.join().unwrap();
    assert_eq!(server.requests, 48, "{server:?}");
    assert_eq!(server.batched_rows, 48, "{server:?}");
}

#[test]
fn open_loop_loadgen_reports_latency_under_scheduled_arrivals() {
    let (addr, handle) = start_server(8);
    let info_pool = c4cam_server::probe_info(&addr.to_string()).unwrap();
    assert_eq!(info_pool.1, 8, "capacity from info");
    let report = loadgen(&LoadgenConfig {
        addr: addr.to_string(),
        requests: 16,
        concurrency: 2,
        rows_per_request: 2,
        mode: LoadMode::Open { rate: 400.0 },
        pool_size: info_pool.0,
        expected_classes: None,
        shutdown_after: true,
    })
    .unwrap();
    assert_eq!(report.ok, 16, "{}", report.summary());
    assert_eq!(report.agreement, None);
    assert!(report.qps > 0.0);
    // 16 requests at 400/s need at least ~37 ms of wall clock.
    assert!(report.wall_s >= 0.035, "{}", report.summary());
    let server = handle.join().unwrap();
    assert_eq!(server.requests, 16);
    assert_eq!(server.batched_rows, 32, "2 rows per request");
}

/// Connection handlers own their threads and the shard pool runs
/// shards: a server full of idle connections refuses the next one with
/// an answer, and keeps serving sharded batches on the ones it has.
#[test]
fn a_full_server_refuses_new_connections_and_keeps_serving_established_ones() {
    let source = DatasetPlanSource::new(
        mini_mnist::dataset(),
        key("tape"),
        4,
        2,
        Telemetry::disabled(),
    );
    let (addr, handle) = start_server_on(source);
    let expected = reference_pool_classes(&mini_mnist::dataset(), &key("tape")).unwrap();
    let mut established = Client::connect(addr);
    // Connections are accepted in order, so these take every slot.
    let mut idle: Vec<Client> = (1..MAX_CONNECTIONS)
        .map(|_| Client::connect(addr))
        .collect();

    let mut refused = Client::connect(addr);
    let mut line = String::new();
    refused.reader.read_line(&mut line).unwrap();
    let v = Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad refusal {line:?}: {e}"));
    assert_eq!(v.get("error").and_then(Json::as_str), Some("overloaded"));
    line.clear();
    assert_eq!(refused.reader.read_line(&mut line).unwrap(), 0, "{line:?}");

    let v = established.roundtrip(r#"{"id":1,"cmd":"classify","rows":[0,1,2]}"#);
    let classes: Vec<usize> = v
        .get("classes")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{v:?}"))
        .iter()
        .map(|c| c.as_u64().unwrap() as usize)
        .collect();
    assert_eq!(classes, expected[0..3]);

    // A closed peer frees its slot as soon as its handler sees the EOF.
    drop(idle.pop());
    assert!(
        admits_a_connection(addr),
        "no connection was admitted after a peer closed"
    );

    established.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert!(handle.join().unwrap().rejected >= 1);
}

/// Whether a fresh connection is served within five seconds of retries
/// (a slot frees when its handler thread ends, just after the peer sees
/// the close).
fn admits_a_connection(addr: std::net::SocketAddr) -> bool {
    (0..500).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        let mut fresh = Client::connect(addr);
        let mut reply = String::new();
        let answered = fresh.writer.write_all(b"{\"cmd\":\"info\"}\n").is_ok()
            && fresh.reader.read_line(&mut reply).is_ok();
        answered && reply.contains("\"pool_size\"")
    })
}

/// A client that connects and sends nothing is hung up on once the idle
/// timeout has passed, and its slot is freed: a server whose every slot
/// such clients took admits connections again.
#[test]
fn silent_connections_are_closed_after_the_idle_timeout_and_free_their_slots() {
    let timeout = Duration::from_millis(300);
    let source = source_with("tape", 4, Telemetry::disabled());
    let (addr, handle) = start_server_idling(source, Some(timeout));
    let connected = std::time::Instant::now();
    let mut silent: Vec<Client> = (0..MAX_CONNECTIONS)
        .map(|_| Client::connect(addr))
        .collect();
    for client in &mut silent {
        let mut line = String::new();
        let read = client.reader.read_line(&mut line);
        assert_eq!(
            read.unwrap(),
            0,
            "expected the server's close, got {line:?}"
        );
    }
    let waited = connected.elapsed();
    assert!(
        waited >= timeout,
        "closed after {waited:?}, before the timeout"
    );
    assert!(
        admits_a_connection(addr),
        "no connection was admitted after the silent ones were closed"
    );
    let mut client = Client::connect(addr);
    client.roundtrip(r#"{"cmd":"shutdown"}"#);
    handle.join().unwrap();
}

/// A `c4cam serve` child on an ephemeral port, and the address it
/// printed once it was listening.
struct ServeChild {
    child: std::process::Child,
    stdout: BufReader<std::process::ChildStdout>,
    addr: String,
}

impl ServeChild {
    fn spawn() -> ServeChild {
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/mini-mnist");
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_c4cam"))
            .args(["serve", "--dataset", fixture, "--port", "0"])
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn c4cam serve");
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut line = String::new();
        stdout.read_line(&mut line).unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("startup line: {line:?}"))
            .to_string();
        ServeChild {
            child,
            stdout,
            addr,
        }
    }

    /// Everything the child printed after its startup line and whether
    /// it exited 0, or `None` if it is still running after `patience`
    /// (it is killed then).
    fn finish(self, patience: Duration) -> Option<(String, bool)> {
        let ServeChild {
            mut child,
            mut stdout,
            ..
        } = self;
        let (tx, rx) = channel();
        let reader = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = std::io::Read::read_to_string(&mut stdout, &mut rest);
            let _ = tx.send(rest);
        });
        let rest = rx.recv_timeout(patience).ok();
        if rest.is_none() {
            child.kill().unwrap();
        }
        let status = child.wait().unwrap();
        reader.join().unwrap();
        rest.map(|rest| (rest, status.success()))
    }
}

/// The reply used to be written by a detached thread after `serve` had
/// been told to return: a client in another process read an empty line
/// in about half its tries.
#[test]
fn the_shutdown_reply_reaches_a_client_in_another_process_every_time() {
    for id in 1..=20 {
        let server = ServeChild::spawn();
        let mut stream = TcpStream::connect(&server.addr).unwrap();
        stream
            .write_all(format!("{{\"id\":{id},\"cmd\":\"shutdown\"}}\n").as_bytes())
            .unwrap();
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).unwrap();
        assert_eq!(
            reply,
            format!("{{\"id\":{id},\"ok\":true,\"shutting_down\":true}}\n"),
            "cycle {id}"
        );
        let (report, ok) = server
            .finish(Duration::from_secs(20))
            .expect("the server exits after a shutdown request");
        assert!(ok && report.starts_with("served 0 requests"), "{report:?}");
    }
}

/// The accept loop blocks on the socket; a signal must still end it at
/// once, with nobody connected to wake it.
#[cfg(unix)]
#[test]
fn sigterm_ends_an_idle_server_with_its_report_within_a_second() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let server = ServeChild::spawn();
    // SAFETY: `kill` takes two integers; the pid is our own child's.
    assert_eq!(unsafe { kill(server.child.id() as i32, 15) }, 0);
    let (report, ok) = server
        .finish(Duration::from_secs(1))
        .expect("SIGTERM ends a server nobody is connected to");
    assert!(ok && report.starts_with("served 0 requests"), "{report:?}");
}
