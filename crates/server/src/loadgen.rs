//! Load generator for the resident server: open- and closed-loop
//! traffic, latency percentiles, and optional exact-agreement
//! verification against a caller-supplied reference.
//!
//! Closed-loop mode models a fixed client population: each of
//! `concurrency` workers keeps exactly one request outstanding, so
//! the measured rate is the server's sustained throughput at that
//! concurrency. Open-loop mode fires requests on a fixed global
//! schedule (`rate` requests/second) regardless of completions, so
//! queueing delay shows up in the latency tail instead of throttling
//! the arrival process.

use c4cam_telemetry::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Arrival process of the generated load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// Each worker sends its next request as soon as the previous one
    /// completes (fixed concurrency, self-throttling).
    Closed,
    /// Requests depart on a fixed schedule of `rate` requests/second
    /// across all workers, independent of completions.
    Open {
        /// Target request rate, requests/second.
        rate: f64,
    },
}

impl LoadMode {
    /// The wire keyword (`closed` / `open`).
    pub fn keyword(&self) -> &'static str {
        match self {
            LoadMode::Closed => "closed",
            LoadMode::Open { .. } => "open",
        }
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Total requests to send.
    pub requests: usize,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Query-pool rows per request.
    pub rows_per_request: usize,
    /// Arrival process.
    pub mode: LoadMode,
    /// Row-index space to draw from (the server's query-pool size;
    /// discover it with the `info` command).
    pub pool_size: usize,
    /// Expected class per pool row, when verifying (from the CPU
    /// reference classifier). `None` skips verification.
    pub expected_classes: Option<Vec<usize>>,
    /// Send `{"cmd":"shutdown"}` after the run.
    pub shutdown_after: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: String::new(),
            requests: 64,
            concurrency: 4,
            rows_per_request: 1,
            mode: LoadMode::Closed,
            pool_size: 1,
            expected_classes: None,
            shutdown_after: false,
        }
    }
}

/// Aggregated results of one load-generation run.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Arrival mode keyword (`closed` / `open`).
    pub mode: String,
    /// Requests attempted.
    pub requests: usize,
    /// Concurrent connections.
    pub concurrency: usize,
    /// Rows per request.
    pub rows_per_request: usize,
    /// Requests answered `ok`.
    pub ok: usize,
    /// Structured `overloaded` rejections.
    pub overloaded: usize,
    /// Other errors (transport, exec, bad request).
    pub errors: usize,
    /// Wall time of the whole run, seconds.
    pub wall_s: f64,
    /// Sustained query rows classified per second.
    pub qps: f64,
    /// Sustained requests per second.
    pub rps: f64,
    /// Request latency percentiles/aggregates, µs.
    pub p50_us: f64,
    /// 90th-percentile request latency, µs.
    pub p90_us: f64,
    /// 99th-percentile request latency, µs.
    pub p99_us: f64,
    /// Mean request latency, µs.
    pub mean_us: f64,
    /// Maximum request latency, µs.
    pub max_us: f64,
    /// Fraction of rows whose predicted class matched the reference
    /// (`None` when verification was off).
    pub agreement: Option<f64>,
    /// Mean rows per coalesced server batch (from responses).
    pub mean_batch_rows: f64,
    /// Largest number of requests the server coalesced into one batch.
    pub max_batch_requests: u64,
    /// Fraction of `ok` responses served from the plan cache.
    pub cache_hit_rate: f64,
}

impl LoadgenReport {
    /// Human-readable multi-line summary.
    pub fn summary(&self) -> String {
        let agreement = match self.agreement {
            Some(a) => format!("{a:.4}"),
            None => "n/a".to_string(),
        };
        format!(
            "loadgen: {} mode, {} requests x {} rows @ concurrency {}\n\
             throughput: {:.1} queries/s ({:.1} requests/s) over {:.3} s\n\
             latency (us): p50 {:.0}  p90 {:.0}  p99 {:.0}  mean {:.0}  max {:.0}\n\
             ok {}  overloaded {}  errors {}  agreement {}\n\
             batching: {:.2} rows/batch mean, {} requests max; cache hit rate {:.3}",
            self.mode,
            self.requests,
            self.rows_per_request,
            self.concurrency,
            self.qps,
            self.rps,
            self.wall_s,
            self.p50_us,
            self.p90_us,
            self.p99_us,
            self.mean_us,
            self.max_us,
            self.ok,
            self.overloaded,
            self.errors,
            agreement,
            self.mean_batch_rows,
            self.max_batch_requests,
            self.cache_hit_rate,
        )
    }

    /// Serialize as a JSON document with stable keys (`loadgen --out`).
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.put("bench", "pr9_serve_loadgen")
                .put("mode", &self.mode)
                .put("requests", self.requests)
                .put("concurrency", self.concurrency)
                .put("rows_per_request", self.rows_per_request)
                .put("ok", self.ok)
                .put("overloaded", self.overloaded)
                .put("errors", self.errors)
                .put("wall_s", self.wall_s)
                .put("qps", self.qps)
                .put("rps", self.rps)
                .object("latency_us", |o| {
                    o.put("p50", self.p50_us)
                        .put("p90", self.p90_us)
                        .put("p99", self.p99_us)
                        .put("mean", self.mean_us)
                        .put("max", self.max_us);
                })
                // `null` when verification was off.
                .put("agreement", self.agreement.unwrap_or(f64::NAN))
                .object("batch", |o| {
                    o.put("mean_rows", self.mean_batch_rows)
                        .put("max_requests", self.max_batch_requests);
                })
                .put("cache_hit_rate", self.cache_hit_rate);
        })
    }
}

/// Nearest-rank percentile of an unsorted sample (p in [0, 100]).
///
/// Total on degenerate inputs: an empty sample reports `0.0`
/// (`--requests 1` with the lone request failing gets here), a
/// one-element sample reports that element for every `p`, and `p = 0`
/// reports the minimum. The rank is bounded with saturating `max`/`min`
/// — unlike `clamp(1, len)`, which panics when `len == 0` — so no
/// input can index out of range.
pub fn percentile_us(latencies_us: &mut [f64], p: f64) -> f64 {
    let n = latencies_us.len();
    if n == 0 {
        return 0.0;
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    latencies_us[rank.max(1).min(n) - 1]
}

#[derive(Default)]
struct Tally {
    latencies_us: Vec<f64>,
    ok: usize,
    overloaded: usize,
    errors: usize,
    rows_ok: usize,
    rows_matched: usize,
    batch_rows_sum: u64,
    max_batch_requests: u64,
    cache_hits: usize,
}

/// Send the argument-less command `cmd` on a fresh connection and
/// return the stream its reply arrives on.
fn send_command(addr: &str, cmd: &str) -> Result<BufReader<TcpStream>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let line = json::object(|o| {
        o.put("cmd", cmd);
    });
    writer
        .write_all(line.as_bytes())
        .and_then(|()| writer.write_all(b"\n"))
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send {cmd}: {e}"))?;
    Ok(BufReader::new(stream))
}

/// Discover the server's query-pool size and batch capacity with an
/// `info` request.
///
/// # Errors
/// Transport failures and malformed server responses.
pub fn probe_info(addr: &str) -> Result<(usize, usize), String> {
    let mut line = String::new();
    send_command(addr, "info")?
        .read_line(&mut line)
        .map_err(|e| format!("read info: {e}"))?;
    let v = Json::parse(line.trim()).map_err(|e| format!("info response: {e}"))?;
    let pool = v
        .get("pool_size")
        .and_then(Json::as_u64)
        .ok_or("info response missing pool_size")?;
    let capacity = v
        .get("capacity")
        .and_then(Json::as_u64)
        .ok_or("info response missing capacity")?;
    Ok((pool as usize, capacity as usize))
}

/// Ask the server to shut down (fire-and-forget admin request).
///
/// # Errors
/// Transport failures.
pub fn send_shutdown(addr: &str) -> Result<(), String> {
    let mut line = String::new();
    let _ = send_command(addr, "shutdown")?.read_line(&mut line);
    Ok(())
}

/// Drive the server and aggregate latency/throughput/verification.
///
/// # Errors
/// Configuration problems and total connection failure; individual
/// request errors are counted in the report instead.
pub fn loadgen(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if cfg.requests == 0 || cfg.concurrency == 0 || cfg.rows_per_request == 0 {
        return Err("requests, concurrency, and rows-per-request must all be >= 1".into());
    }
    if cfg.pool_size == 0 {
        return Err("pool_size must be >= 1 (probe the server with `info`)".into());
    }
    if let Some(expected) = &cfg.expected_classes {
        if expected.len() < cfg.pool_size {
            return Err(format!(
                "expected_classes covers {} rows but the pool has {}",
                expected.len(),
                cfg.pool_size
            ));
        }
    }

    let next = AtomicUsize::new(0);
    let tally = Mutex::new(Tally::default());
    let cfg_arc = Arc::new(cfg.clone());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..cfg.concurrency {
            let cfg = Arc::clone(&cfg_arc);
            let next = &next;
            let tally = &tally;
            scope.spawn(move || {
                let mut local = Tally::default();
                if let Ok(stream) = TcpStream::connect(&cfg.addr) {
                    let _ = stream.set_nodelay(true);
                    let mut writer = match stream.try_clone() {
                        Ok(w) => w,
                        Err(_) => return,
                    };
                    let mut reader = BufReader::new(stream);
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= cfg.requests {
                            break;
                        }
                        if let LoadMode::Open { rate } = cfg.mode {
                            // Global schedule: request i departs at
                            // i / rate seconds after start.
                            let due = started + Duration::from_secs_f64(i as f64 / rate.max(1e-9));
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        }
                        let rows: Vec<usize> = (0..cfg.rows_per_request)
                            .map(|j| (i * cfg.rows_per_request + j) % cfg.pool_size)
                            .collect();
                        let mut line = json::object(|o| {
                            o.put("id", i + 1)
                                .put("cmd", "classify")
                                .put("rows", &rows[..]);
                        });
                        line.push('\n');
                        let t0 = Instant::now();
                        if writer
                            .write_all(line.as_bytes())
                            .and_then(|()| writer.flush())
                            .is_err()
                        {
                            local.errors += 1;
                            break;
                        }
                        let mut response = String::new();
                        match reader.read_line(&mut response) {
                            Ok(n) if n > 0 => {}
                            _ => {
                                local.errors += 1;
                                break;
                            }
                        }
                        let latency_us = t0.elapsed().as_secs_f64() * 1e6;
                        record_response(&mut local, &cfg, &rows, response.trim(), latency_us);
                    }
                } else {
                    // Connection refused: every request this worker
                    // would have sent counts as an error.
                    local.errors += 1;
                }
                let mut t = tally.lock().expect("tally lock");
                t.latencies_us.extend(local.latencies_us);
                t.ok += local.ok;
                t.overloaded += local.overloaded;
                t.errors += local.errors;
                t.rows_ok += local.rows_ok;
                t.rows_matched += local.rows_matched;
                t.batch_rows_sum += local.batch_rows_sum;
                t.max_batch_requests = t.max_batch_requests.max(local.max_batch_requests);
                t.cache_hits += local.cache_hits;
            });
        }
    });
    let wall_s = started.elapsed().as_secs_f64().max(1e-9);

    if cfg.shutdown_after {
        send_shutdown(&cfg.addr)?;
    }

    let mut t = tally.into_inner().expect("tally lock");
    let n = t.latencies_us.len().max(1) as f64;
    let mean_us = t.latencies_us.iter().sum::<f64>() / n;
    let max_us = t.latencies_us.iter().fold(0.0f64, |a, &b| a.max(b));
    let (p50, p90, p99) = (
        percentile_us(&mut t.latencies_us, 50.0),
        percentile_us(&mut t.latencies_us, 90.0),
        percentile_us(&mut t.latencies_us, 99.0),
    );
    Ok(LoadgenReport {
        mode: cfg.mode.keyword().to_string(),
        requests: cfg.requests,
        concurrency: cfg.concurrency,
        rows_per_request: cfg.rows_per_request,
        ok: t.ok,
        overloaded: t.overloaded,
        errors: t.errors,
        wall_s,
        qps: t.rows_ok as f64 / wall_s,
        rps: t.ok as f64 / wall_s,
        p50_us: p50,
        p90_us: p90,
        p99_us: p99,
        mean_us,
        max_us,
        agreement: cfg
            .expected_classes
            .as_ref()
            .map(|_| t.rows_matched as f64 / t.rows_ok.max(1) as f64),
        mean_batch_rows: t.batch_rows_sum as f64 / t.ok.max(1) as f64,
        max_batch_requests: t.max_batch_requests,
        cache_hit_rate: t.cache_hits as f64 / t.ok.max(1) as f64,
    })
}

fn record_response(
    local: &mut Tally,
    cfg: &LoadgenConfig,
    rows: &[usize],
    response: &str,
    latency_us: f64,
) {
    let v = match Json::parse(response) {
        Ok(v) => v,
        Err(_) => {
            local.errors += 1;
            return;
        }
    };
    if v.get("ok").and_then(Json::as_bool) != Some(true) {
        match v.get("error").and_then(Json::as_str) {
            Some("overloaded") => local.overloaded += 1,
            _ => local.errors += 1,
        }
        return;
    }
    local.ok += 1;
    local.latencies_us.push(latency_us);
    if v.get("cache_hit").and_then(Json::as_bool) == Some(true) {
        local.cache_hits += 1;
    }
    if let Some(n) = v.get("batch_rows").and_then(Json::as_u64) {
        local.batch_rows_sum += n;
    }
    if let Some(n) = v.get("batch_requests").and_then(Json::as_u64) {
        local.max_batch_requests = local.max_batch_requests.max(n);
    }
    let classes: Vec<usize> = v
        .get("classes")
        .and_then(Json::as_arr)
        .map(|a| {
            a.iter()
                .filter_map(Json::as_u64)
                .map(|c| c as usize)
                .collect()
        })
        .unwrap_or_default();
    local.rows_ok += rows.len();
    if let Some(expected) = &cfg.expected_classes {
        local.rows_matched += rows
            .iter()
            .zip(&classes)
            .filter(|(&row, &class)| expected[row] == class)
            .count();
    } else {
        local.rows_matched += rows.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_us(&mut xs, 50.0), 50.0);
        assert_eq!(percentile_us(&mut xs, 90.0), 90.0);
        assert_eq!(percentile_us(&mut xs, 99.0), 99.0);
        assert_eq!(percentile_us(&mut xs, 100.0), 100.0);
        let mut one = vec![42.0];
        assert_eq!(percentile_us(&mut one, 50.0), 42.0);
        assert_eq!(percentile_us(&mut one, 99.0), 42.0);
        let mut none: Vec<f64> = vec![];
        assert_eq!(percentile_us(&mut none, 50.0), 0.0);
    }

    #[test]
    fn percentile_rank_selection_is_total_at_the_boundaries() {
        // Every percentile of the empty sample is 0 (no panic — the
        // `--requests 1` loadgen with a failed request lands here).
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let mut none: Vec<f64> = vec![];
            assert_eq!(percentile_us(&mut none, p), 0.0, "p={p}");
        }
        // A single sample (`--requests 1`) answers every percentile,
        // including the rank-0 edge at p = 0.
        for p in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let mut one = vec![7.5];
            assert_eq!(percentile_us(&mut one, p), 7.5, "p={p}");
        }
        // Two samples: nearest-rank puts p <= 50 on the first element
        // and everything above on the second; p = 0 is the minimum.
        let mut two = vec![20.0, 10.0];
        assert_eq!(percentile_us(&mut two, 0.0), 10.0);
        assert_eq!(percentile_us(&mut two, 50.0), 10.0);
        assert_eq!(percentile_us(&mut two, 50.1), 20.0);
        assert_eq!(percentile_us(&mut two, 99.0), 20.0);
        assert_eq!(percentile_us(&mut two, 100.0), 20.0);
        // An over-range p saturates to the maximum instead of indexing
        // out of bounds.
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile_us(&mut xs, 150.0), 10.0);
    }

    #[test]
    fn report_json_is_parseable_and_complete() {
        let r = LoadgenReport {
            mode: "closed".into(),
            requests: 64,
            concurrency: 4,
            rows_per_request: 1,
            ok: 64,
            overloaded: 0,
            errors: 0,
            wall_s: 0.5,
            qps: 128.0,
            rps: 128.0,
            p50_us: 100.0,
            p90_us: 200.0,
            p99_us: 300.0,
            mean_us: 120.0,
            max_us: 400.0,
            agreement: Some(1.0),
            mean_batch_rows: 2.5,
            max_batch_requests: 4,
            cache_hit_rate: 0.98,
        };
        let v = Json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("pr9_serve_loadgen"));
        assert_eq!(v.get("qps").unwrap().as_f64(), Some(128.0));
        assert_eq!(v.get("agreement").unwrap().as_f64(), Some(1.0));
        let lat = v.get("latency_us").unwrap();
        assert_eq!(lat.get("p99").unwrap().as_f64(), Some(300.0));
        assert!(r.summary().contains("queries/s"));
    }

    #[test]
    fn record_response_tallies_agreement_and_batching() {
        let cfg = LoadgenConfig {
            pool_size: 4,
            expected_classes: Some(vec![7, 8, 9, 9]),
            ..LoadgenConfig::default()
        };
        let mut t = Tally::default();
        record_response(
            &mut t,
            &cfg,
            &[0, 2],
            r#"{"id":1,"ok":true,"predictions":[0,2],"classes":[7,9],"cache_hit":true,"batch_rows":3,"batch_requests":2}"#,
            150.0,
        );
        record_response(
            &mut t,
            &cfg,
            &[1],
            r#"{"id":2,"ok":true,"predictions":[5],"classes":[5],"cache_hit":false,"batch_rows":1,"batch_requests":1}"#,
            250.0,
        );
        record_response(
            &mut t,
            &cfg,
            &[3],
            r#"{"id":3,"ok":false,"error":"overloaded","detail":"full"}"#,
            50.0,
        );
        assert_eq!(t.ok, 2);
        assert_eq!(t.overloaded, 1);
        assert_eq!(t.rows_ok, 3);
        assert_eq!(t.rows_matched, 2, "row 1 predicted class 5 != 8");
        assert_eq!(t.batch_rows_sum, 4);
        assert_eq!(t.max_batch_requests, 2);
        assert_eq!(t.cache_hits, 1);
        assert_eq!(t.latencies_us, [150.0, 250.0]);
    }
}
