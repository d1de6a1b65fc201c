//! `serve-closed` — the resident service, in process: `c4cam_server::serve`
//! over `DatasetPlanSource` on the committed mini-MNIST fixture with the
//! CLI's defaults (task hdc, 2-bit cells, 32 × 32 subarrays, `max_batch`
//! 16, linger 2 ms, queue 256, cache 8), driven by two closed-loop TCP
//! clients sending one seeded pool row per request. The search itself
//! costs microseconds, so admission linger, padding to capacity, JSON,
//! thread hand-offs and the socket are the whole latency.
//!
//! An open-loop rate ladder is left out deliberately: two vCPUs shared
//! between server and generator cannot hold a schedule. Closed-loop
//! capacity plus the request median stand in for it.

use super::{
    fill_bench, fill_compile_layers, fill_end_to_end, fill_run_layers, finish, write_trace, Counts,
};
use crate::estimator::{collect, tail, Estimate, Round};
use crate::expected::{self, Pinned};
use crate::harness::{
    anchor_ms, measure_setup, InputHash, Opts, SplitMix, Tally, MIN_SAMPLES, MIN_TRACED_SAMPLES,
};
use crate::layers::{compile_decomposed, run_decomposed, DeviceOps, BACKEND};
use crate::metrics::Report;
use crate::spans::SpanLog;
use c4cam::arch::Optimization;
use c4cam::datasets::{Dataset, DatasetTask, DatasetWorkload};
use c4cam::driver::build_arch;
use c4cam::service::{reference_pool_classes, DatasetPlanSource};
use c4cam::telemetry::Telemetry;
use c4cam_server::json::Json;
use c4cam_server::protocol::PlanKey;
use c4cam_server::{
    classify_response, parse_request, send_shutdown, serve, Admission, AdmissionConfig,
    BatchRunner, ClassifyReply, Cmd, PlanCache, PlanSource, ServeConfig, ServeReport,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::{mpsc, Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Closed-loop client connections (`nproc` on the reference host).
const CLIENTS: usize = 2;
/// `c4cam serve --max-batch` default.
const MAX_BATCH: usize = 16;

/// The served dataset, the default plan key, and the CPU reference the
/// replies are held against.
pub struct ServeCase {
    dataset: Dataset,
    key: PlanKey,
    /// Reference class per pool row (`service::reference_pool_classes`).
    expected: Vec<usize>,
    seed: u64,
}

impl ServeCase {
    /// The case at `seed` (the seed feeds the clients' row streams).
    ///
    /// # Errors
    /// The fixture does not load or the reference cannot be built.
    pub fn new(seed: u64) -> Result<ServeCase, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/data/mini-mnist");
        let dataset = Dataset::load(Path::new(path), None).map_err(|e| e.to_string())?;
        let key = PlanKey {
            task: "hdc".into(),
            bits: 2,
            subarray: 32,
            backend: BACKEND.into(),
        };
        let expected = reference_pool_classes(&dataset, &key)?;
        Ok(ServeCase {
            dataset,
            key,
            expected,
            seed,
        })
    }

    fn source(&self) -> DatasetPlanSource {
        DatasetPlanSource::new(
            self.dataset.clone(),
            self.key.clone(),
            MAX_BATCH,
            1,
            Telemetry::disabled(),
        )
    }

    fn rows(&self, client: usize) -> SplitMix {
        SplitMix(self.seed ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Fingerprint of the first 64 rows of every client's stream.
    pub fn input_hash(&self) -> u64 {
        let pool = self.expected.len();
        (0..CLIENTS)
            .fold(InputHash::new(), |hash, c| {
                let mut rows = self.rows(c);
                hash.words((0..64).map(|_| rows.below(pool) as u32))
            })
            .finish()
    }

    fn start(&self) -> Result<Server, String> {
        let source: Arc<dyn PlanSource> = Arc::new(self.source());
        let (ready, addr) = mpsc::channel();
        let thread = std::thread::spawn(move || {
            serve(&ServeConfig::default(), source, move |a| {
                // The receiver only goes away if start() already gave up.
                let _ = ready.send(a);
            })
        });
        match addr.recv() {
            Ok(addr) => Ok(Server { addr, thread }),
            // serve() returned before on_ready: its error says why.
            Err(_) => Err(thread
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .err()
                .unwrap_or_else(|| "server exited before it was ready".into())),
        }
    }

    /// One cold set-up: plan source, server up to `on_ready`, the first
    /// verified round-trip, shutdown.
    fn setup(&self, tally: &mut Tally) -> Result<(), String> {
        let server = self.start()?;
        let mut client = Client::connect(server.addr)?;
        tally.record(client.request(0).and_then(|class| self.verify(0, class)));
        drop(client);
        server.stop().map(|_| ())
    }

    fn verify(&self, row: usize, class: usize) -> Result<(), String> {
        if class == self.expected[row] {
            Ok(())
        } else {
            Err(format!(
                "row {row}: served class {class}, CPU reference says {}",
                self.expected[row]
            ))
        }
    }
}

struct Server {
    addr: SocketAddr,
    thread: JoinHandle<Result<ServeReport, String>>,
}

impl Server {
    fn stop(self) -> Result<ServeReport, String> {
        send_shutdown(&self.addr.to_string())?;
        self.thread
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
        })
    }

    /// Classify pool row `row`; the served class, or why the request
    /// failed or was refused.
    fn request(&mut self, row: usize) -> Result<usize, String> {
        let line = format!(
            "{{\"id\":{},\"cmd\":\"classify\",\"rows\":[{row}]}}\n",
            self.next_id
        );
        self.next_id += 1;
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        let n = self
            .reader
            .read_line(&mut response)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        let reply = Json::parse(response.trim()).map_err(|e| format!("reply: {e}"))?;
        if reply.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!("refused: {}", response.trim()));
        }
        reply
            .get("classes")
            .and_then(Json::as_arr)
            .and_then(|c| c.first())
            .and_then(Json::as_u64)
            .map(|c| c as usize)
            .ok_or_else(|| format!("reply without classes: {}", response.trim()))
    }
}

/// The closed loop: `CLIENTS` persistent connections, each sending its
/// next request when the previous reply arrives.
struct Load<'c> {
    case: &'c ServeCase,
    clients: Vec<(Client, SplitMix)>,
}

impl<'c> Load<'c> {
    fn connect(case: &'c ServeCase, addr: SocketAddr) -> Result<Load<'c>, String> {
        let clients = (0..CLIENTS)
            .map(|c| Ok((Client::connect(addr)?, case.rows(c))))
            .collect::<Result<_, String>>()?;
        Ok(Load { case, clients })
    }

    /// One round of `per_client` requests on every connection; the
    /// round's summary, its samples, and its tally.
    fn round(&mut self, per_client: usize) -> (Round, Vec<f64>, Tally) {
        let case = self.case;
        let pool = case.expected.len();
        let barrier = Barrier::new(CLIENTS + 1);
        let mut samples = Vec::with_capacity(CLIENTS * per_client);
        let mut tally = Tally::default();
        let wall_s = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .map(|(client, rows)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut samples = Vec::with_capacity(per_client);
                        let mut tally = Tally::default();
                        barrier.wait();
                        for _ in 0..per_client {
                            let row = rows.below(pool);
                            let t = Instant::now();
                            let reply = client.request(row);
                            samples.push(t.elapsed().as_secs_f64());
                            tally.record(reply.and_then(|class| case.verify(row, class)));
                        }
                        (samples, tally)
                    })
                })
                .collect();
            barrier.wait();
            let wall = Instant::now();
            for h in handles {
                let (s, t) = h.join().expect("client thread panicked");
                samples.extend(s);
                tally.absorb(t);
            }
            wall.elapsed().as_secs_f64()
        });
        let round = Round::from_samples(&samples, samples.len() as f64, wall_s);
        (round, samples, tally)
    }

    /// Warm up, size the rounds, and measure.
    fn measure(
        &mut self,
        opts: &Opts,
        min_samples: usize,
        tally: &mut Tally,
    ) -> (Estimate, Vec<f64>) {
        let (warm, _, t) = self.round(20);
        tally.absorb(t);
        let per_client = opts.ops_per_round(warm.latency_s, min_samples);
        let mut all = Vec::new();
        let est = collect(opts.plan(), || {
            let (round, samples, t) = self.round(per_client);
            tally.absorb(t);
            all.extend(samples);
            round
        });
        (est, all)
    }
}

/// Run `serve-closed`.
///
/// # Errors
/// The server does not start, or a layer fails (nothing to measure).
pub fn run(opts: &Opts) -> Result<Report, String> {
    let case = ServeCase::new(opts.seed)?;
    let mut tally = Tally::default();
    let report = if opts.trace {
        traced(&case, opts, &mut tally)?
    } else {
        untraced(&case, opts, &mut tally)?
    };
    Ok(finish(report, tally, case.input_hash()))
}

fn untraced(case: &ServeCase, opts: &Opts, tally: &mut Tally) -> Result<Report, String> {
    // The simulated metrics come from one full-capacity batch here, not
    // from live traffic: live batch composition depends on timing.
    let runner = case.source().compile(&case.key)?;
    let rows: Vec<usize> = (0..runner.capacity()).collect();
    let batch = runner.run_rows(&rows)?;
    tally.record(
        rows.iter()
            .zip(&batch.classes)
            .try_for_each(|(&row, &class)| case.verify(row, class)),
    );
    let mut pinned = Pinned::new();
    pinned.insert(
        "batch.sim_latency_ns_per_query".into(),
        batch.sim_latency_ns_per_query,
    );
    pinned.insert(
        "batch.sim_energy_pj_per_query".into(),
        batch.sim_energy_pj_per_query,
    );
    pinned.insert("batch.capacity".into(), runner.capacity() as f64);
    pinned.insert("pool.rows".into(), case.expected.len() as f64);
    let class_sum: usize = case
        .expected
        .iter()
        .enumerate()
        .map(|(i, c)| (i + 1) * c)
        .sum();
    pinned.insert("pool.reference_class_checksum".into(), class_sum as f64);
    expected::check("serve-closed", &pinned, opts, tally);

    let mut broken = None;
    let reps = if opts.quick { 1 } else { 5 };
    let setup = measure_setup(opts.plan(), reps, || {
        if let Err(e) = case.setup(tally) {
            broken = Some(e);
        }
    });
    if let Some(e) = broken {
        return Err(format!("serve-closed: set-up failed: {e}"));
    }

    let server = case.start()?;
    let mut load = Load::connect(case, server.addr)?;
    let (steady, _) = load.measure(opts, MIN_SAMPLES, tally);
    drop(load);
    let served = server.stop()?;

    let mut report = Report::default();
    fill_end_to_end(&mut report, &setup, &steady);
    report.set(
        "sim_latency_us_per_query",
        batch.sim_latency_ns_per_query / 1e3,
    );
    report.set(
        "sim_energy_nj_per_query",
        batch.sim_energy_pj_per_query / 1e3,
    );
    report.note("served", served.summary());
    Ok(report)
}

/// What the traced request path needs besides the span log.
struct InProcess<'a> {
    case: &'a ServeCase,
    source: DatasetPlanSource,
    cache: PlanCache,
    admission: &'a Admission,
    runner: Arc<dyn BatchRunner>,
    rows: SplitMix,
}

impl InProcess<'_> {
    /// One request through the server's public functions, in process,
    /// without the socket: parse, plan-cache lookup, admission (which
    /// holds the linger and the batch run), response encoding.
    fn request(&mut self, log: &mut SpanLog, ids: (u32, u64)) -> Result<(), String> {
        let row = self.rows.below(self.case.expected.len());
        let line = format!("{{\"id\":{},\"cmd\":\"classify\",\"rows\":[{row}]}}", ids.1);
        let started = Instant::now();
        let (_, request) = log.time("server.parse_request", None, ids, || parse_request(&line));
        let Cmd::Classify { rows: asked, key } = request?.cmd else {
            return Err("classify request parsed as another command".into());
        };
        let key = key.resolve(&self.case.key);
        let (_, cached) = log.time("server.cache_hit", None, ids, || {
            self.cache.get_or_compile(&key, &self.source)
        });
        let (runner, cache_hit) = cached?;
        let (_, slice) = log.time("server.admission", None, ids, || {
            self.admission
                .submit(&key, runner, asked)
                .map_err(|e| e.to_string())
                .and_then(|ticket| ticket.recv().map_err(|e| e.to_string())?)
        });
        let slice = slice?;
        let class = slice.classes[0];
        let (_, response) = log.time("server.encode_response", None, ids, || {
            classify_response(
                ids.1,
                &ClassifyReply {
                    predictions: slice.predictions,
                    classes: slice.classes,
                    cache_hit,
                    batch_rows: slice.batch_rows,
                    batch_requests: slice.batch_requests,
                    sim_latency_ns_per_query: slice.sim_latency_ns_per_query,
                    sim_energy_pj_per_query: slice.sim_energy_pj_per_query,
                    host_us: started.elapsed().as_secs_f64() * 1e6,
                },
            )
        });
        std::hint::black_box(response);
        self.case.verify(row, class)
    }

    /// The batch itself, alone and at capacity (their ratio is what
    /// padding a one-row batch costs), and a cold plan-cache lookup.
    fn batches(&mut self, log: &mut SpanLog, ids: (u32, u64)) -> Result<(), String> {
        let row = self.rows.below(self.case.expected.len());
        let full: Vec<usize> = (0..self.runner.capacity()).collect();
        let (_, one) = log.time("service.batch_run_1row", None, ids, || {
            self.runner.run_rows(&[row])
        });
        let (_, all) = log.time("service.batch_run_full", None, ids, || {
            self.runner.run_rows(&full)
        });
        all?;
        let (_, missed) = log.time("server.cache_miss", None, ids, || {
            PlanCache::new(1).get_or_compile(&self.case.key, &self.source)
        });
        missed?;
        self.case.verify(row, one?.classes[0])
    }
}

fn traced(case: &ServeCase, opts: &Opts, tally: &mut Tally) -> Result<Report, String> {
    let plan = opts.plan();
    let anchor = anchor_ms(plan);
    let server = case.start()?;
    let mut load = Load::connect(case, server.addr)?;
    let (warm, _, t) = load.round(20);
    tally.absorb(t);
    let n = opts.ops_per_round(warm.latency_s, MIN_TRACED_SAMPLES);

    let source = case.source();
    let cache = PlanCache::new(ServeConfig::default().cache_capacity);
    let (runner, _) = cache.get_or_compile(&case.key, &source)?;
    let admission = Admission::new(AdmissionConfig::default());
    let mut log = SpanLog::new();
    let mut samples = Vec::new();
    let mut op_id = 0u64;
    // Each round measures the closed loop over the socket (the untraced
    // reference) and then the same requests in process, back to back,
    // so both see the same phase of the host.
    let reference = std::thread::scope(|scope| -> Result<Estimate, String> {
        let dispatcher = scope.spawn(|| admission.dispatch_loop(&Telemetry::disabled()));
        let mut inproc = InProcess {
            case,
            source,
            cache,
            admission: &admission,
            runner: Arc::clone(&runner),
            rows: case.rows(CLIENTS),
        };
        let mut round = 0u32;
        let reference = collect(plan, || {
            let (summary, s, t) = load.round(n);
            tally.absorb(t);
            samples.extend(s);
            for i in 0..n + MIN_SAMPLES {
                op_id += 1;
                let ids = (round, op_id);
                // A request that errors or is refused is a failed
                // operation, exactly as over the socket.
                tally.record(if i < n {
                    inproc.request(&mut log, ids)
                } else {
                    inproc.batches(&mut log, ids)
                });
            }
            round += 1;
            summary
        });
        admission.drain();
        dispatcher
            .join()
            .map_err(|_| "dispatcher thread panicked".to_string())?;
        Ok(reference)
    })?;
    drop(load);
    let served = server.stop()?;
    let op_secs = reference.best_latency_s();

    // The plan under the service, piece by piece like the scans.
    let workload = DatasetWorkload::new(case.dataset.clone(), DatasetTask::Hdc, Some(MAX_BATCH))
        .map_err(|e| e.to_string())?;
    let spec = build_arch(
        (case.key.subarray, case.key.subarray),
        (4, 4, 8),
        Optimization::Base,
        case.key.bits,
    )
    .map_err(|e| e.to_string())?;
    let mut parts = None;
    for round in 0..plan.rounds as u32 {
        for _ in 0..if opts.quick { 1 } else { MIN_SAMPLES } {
            op_id += 1;
            let ids = (round, op_id);
            let lowered = compile_decomposed(&mut log, None, ids, &workload, &spec)?;
            let dev = DeviceOps::record(&lowered)?;
            let facts = run_decomposed(&mut log, None, ids, &lowered, &dev, tally)?;
            parts = Some((lowered, dev, facts));
        }
    }
    let (lowered, dev, facts) = parts.expect("at least one decomposition round ran");

    let mut report = Report::default();
    fill_bench(&mut report, &reference, &samples, anchor);
    fill_compile_layers(&mut report, &log);
    fill_run_layers(&mut report, &log);
    Counts::of(&lowered, &dev, &facts).fill(&mut report);

    let us = |span: &str| log.best_ms(span) * 1e3;
    let (parse_us, hit_us, encode_us) = (
        us("server.parse_request"),
        us("server.cache_hit"),
        us("server.encode_response"),
    );
    let run_1row = log.best_ms("service.batch_run_1row");
    let admission_ms = log.best_ms("server.admission");
    let wait_ms = (admission_ms - run_1row).max(0.0);
    let op_ms = op_secs * 1e3;
    let wire_ms = op_ms - wait_ms - run_1row;
    let (tail_pct, tail_s) = tail(&samples);
    let cache = served.cache_hits + served.cache_misses;
    for (metric, value) in [
        ("server.parse_request_us", parse_us),
        ("server.encode_response_us", encode_us),
        ("server.cache_hit_us", hit_us),
        ("server.cache_miss_ms", log.best_ms("server.cache_miss")),
        ("server.admission_wait_ms", wait_ms),
        ("service.batch_run_1row_ms", run_1row),
        (
            "service.batch_run_full_ms",
            log.best_ms("service.batch_run_full"),
        ),
        (
            "server.batch_fill",
            served.batched_rows as f64 / (served.batches.max(1) * runner.capacity() as u64) as f64,
        ),
        ("server.batches", served.batches as f64),
        (
            "server.cache_hit_rate",
            served.cache_hits as f64 / cache.max(1) as f64,
        ),
        ("server.rejected", served.rejected as f64),
        ("server.request_tail_ms", tail_s * 1e3),
        ("server.request_tail_pct", tail_pct),
        ("server.request_samples", samples.len() as f64),
        ("server.wire_self_ms", wire_ms),
        // What of the request's time outside admission and the batch no
        // timed server function explains: the socket, syscalls and
        // thread wake-ups.
        (
            "bench.unattributed_ms",
            wire_ms - (parse_us + hit_us + encode_us) / 1e3,
        ),
        // The traced request skips the socket, so this reads below 1.
        (
            "bench.trace_overhead_ratio",
            (admission_ms + (parse_us + hit_us + encode_us) / 1e3) / op_ms,
        ),
    ] {
        report.set(metric, value);
    }
    report.note("op_p50_ms", format!("{op_ms}"));
    report.note("served", served.summary());
    report.note("traced_ops_per_round", n.to_string());
    write_trace(&mut report, "serve-closed", &log);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_SEED;

    #[test]
    fn the_seed_feeds_the_row_streams() {
        let a = ServeCase::new(DEFAULT_SEED).unwrap();
        let b = ServeCase::new(DEFAULT_SEED).unwrap();
        let c = ServeCase::new(DEFAULT_SEED + 1).unwrap();
        assert_eq!(a.input_hash(), b.input_hash());
        assert_ne!(a.input_hash(), c.input_hash());
        // The program's dataset and reference do not depend on the seed.
        assert_eq!(a.expected, c.expected);
    }

    #[test]
    fn one_cold_set_up_serves_a_verified_reply_and_shuts_down() {
        let case = ServeCase::new(DEFAULT_SEED).unwrap();
        let mut tally = Tally::default();
        case.setup(&mut tally).unwrap();
        assert_eq!(
            (tally.attempted, tally.failed),
            (1, 0),
            "{:?}",
            tally.first_failure
        );
    }
}
