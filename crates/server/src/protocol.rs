//! The line-delimited JSON wire protocol of `c4cam serve`.
//!
//! One request per line, one response line per request, over a plain
//! TCP stream. Requests address queries by *row index into the
//! server's dataset query pool*, which keeps the wire format tiny and
//! makes verification exact: a load generator holding the same dataset
//! can compute the CPU reference for every row it sends.
//!
//! ```text
//! → {"id":1,"cmd":"classify","rows":[0,1,2]}
//! ← {"id":1,"ok":true,"predictions":[3,7,1],"classes":[3,7,1],...}
//! → {"cmd":"stats"}
//! ← {"ok":true,"requests":12,"batches":5,...}
//! → {"cmd":"shutdown"}
//! ← {"ok":true,"shutting_down":true}
//! ```
//!
//! A `classify` request may override the plan-cache key fields
//! (`task`, `bits`, `subarray`, `backend`); omitted fields take the
//! server's startup defaults. Errors are structured:
//! `{"id":1,"ok":false,"error":"overloaded","detail":"..."}` with
//! stable `error` codes (`bad_request`, `overloaded`, `too_large`,
//! `compile_failed`, `exec_failed`, `shutting_down`).

use c4cam_telemetry::json::{self, Json};
use std::fmt;

/// Identity of one compiled plan in the service cache: the workload
/// task shape plus the architecture knobs that change the compiled
/// tape, plus the executing backend.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Workload task shape (`hdc` / `knn`).
    pub task: String,
    /// Cell width in bits (changes the quantizer and the CAM kind).
    pub bits: u32,
    /// Square subarray dimension.
    pub subarray: usize,
    /// Backend registry name executing the plan.
    pub backend: String,
}

impl fmt::Display for PlanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}b/{}x{}/{}",
            self.task, self.bits, self.subarray, self.subarray, self.backend
        )
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen request id, echoed in the response (0 if absent).
    pub id: u64,
    /// The command.
    pub cmd: Cmd,
}

/// Protocol commands.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// Classify the given query-pool rows.
    Classify {
        /// Query-pool row indices to classify.
        rows: Vec<usize>,
        /// Plan-key field overrides (defaults fill the gaps).
        key: KeyOverride,
    },
    /// Describe the server (defaults, capacity, pool size, cache).
    Info,
    /// Serving statistics so far.
    Stats,
    /// Drain in-flight batches and exit.
    Shutdown,
}

/// Optional plan-key fields on a `classify` request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeyOverride {
    /// Task override (`hdc` / `knn`).
    pub task: Option<String>,
    /// Bits-per-cell override.
    pub bits: Option<u32>,
    /// Subarray-dimension override.
    pub subarray: Option<usize>,
    /// Backend override.
    pub backend: Option<String>,
}

impl KeyOverride {
    /// Resolve against the server's default key.
    pub fn resolve(&self, defaults: &PlanKey) -> PlanKey {
        PlanKey {
            task: self.task.clone().unwrap_or_else(|| defaults.task.clone()),
            bits: self.bits.unwrap_or(defaults.bits),
            subarray: self.subarray.unwrap_or(defaults.subarray),
            backend: self
                .backend
                .clone()
                .unwrap_or_else(|| defaults.backend.clone()),
        }
    }
}

/// Stable error codes carried in `{"ok":false,"error":...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed request line or invalid field values.
    BadRequest,
    /// The bounded admission queue is full; retry later.
    Overloaded,
    /// More rows in one request than the compiled batch capacity, or a
    /// request line over the server's 1 MiB cap.
    TooLarge,
    /// The requested plan key failed to compile.
    CompileFailed,
    /// Plan execution failed.
    ExecFailed,
    /// The server is draining and no longer admits work.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire-format code string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::CompileFailed => "compile_failed",
            ErrorCode::ExecFailed => "exec_failed",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// Client text as it may be echoed in a response or kept in a plan
/// key: at most 64 characters, then `…`. No valid command, task or
/// backend name is that long, so a cut name stays an unknown one.
pub(crate) fn bounded(text: &str) -> String {
    match text.char_indices().nth(64) {
        Some((cut, _)) => format!("{}…", &text[..cut]),
        None => text.to_string(),
    }
}

/// A non-negative integer that fits `T`.
fn int<T: TryFrom<u64>>(j: &Json) -> Option<T> {
    j.as_u64().and_then(|n| T::try_from(n).ok())
}

/// The optional member `name` as `read` reads it; one that is present
/// and unreadable is an error saying `what` it must be.
fn field<T>(
    v: &Json,
    name: &str,
    what: &str,
    read: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(name)
        .map(|j| read(j).ok_or_else(|| format!("'{name}' must be {what}")))
        .transpose()
}

const INT: &str = "a non-negative integer in range";

/// Parse one request line.
///
/// # Errors
/// A human-readable description of the first problem (syntax or
/// unknown/ill-typed fields).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v = Json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let id = field(&v, "id", INT, int)?.unwrap_or(0);
    let cmd = v
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or("missing string field 'cmd'")?;
    let cmd = match cmd {
        "classify" => {
            let rows = v
                .get("rows")
                .and_then(Json::as_arr)
                .ok_or("classify requires an array field 'rows'")?;
            if rows.is_empty() {
                return Err("'rows' must be non-empty".to_string());
            }
            let rows: Vec<usize> = rows
                .iter()
                .map(|r| int(r).ok_or("'rows' entries must be non-negative integers"))
                .collect::<Result<_, _>>()?;
            let key = KeyOverride {
                task: field(&v, "task", "a string", |j| j.as_str().map(bounded))?,
                bits: field(&v, "bits", INT, int)?,
                subarray: field(&v, "subarray", INT, int)?,
                backend: field(&v, "backend", "a string", |j| j.as_str().map(bounded))?,
            };
            Cmd::Classify { rows, key }
        }
        "info" => Cmd::Info,
        "stats" => Cmd::Stats,
        "shutdown" => Cmd::Shutdown,
        other => return Err(format!("unknown cmd '{}'", bounded(other))),
    };
    Ok(Request { id, cmd })
}

/// Result payload of one classified request (the per-request slice of
/// a coalesced batch).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifyReply {
    /// Predicted stored-row index per requested row.
    pub predictions: Vec<usize>,
    /// Predicted class per requested row (rows mapped through the
    /// workload's row→class function).
    pub classes: Vec<usize>,
    /// Whether the plan came out of the cache (no Parse/Place/Compile).
    pub cache_hit: bool,
    /// Total query rows in the coalesced device batch.
    pub batch_rows: usize,
    /// Number of requests coalesced into the batch.
    pub batch_requests: usize,
    /// Simulated device latency per query in the batch, ns.
    pub sim_latency_ns_per_query: f64,
    /// Simulated device energy per query in the batch, pJ.
    pub sim_energy_pj_per_query: f64,
    /// Host-side wall time from admission to response, µs.
    pub host_us: f64,
}

/// Serialize an `ok` classify response line (no trailing newline).
pub fn classify_response(id: u64, r: &ClassifyReply) -> String {
    json::object(|o| {
        o.put("id", id)
            .put("ok", true)
            .put("predictions", &r.predictions[..])
            .put("classes", &r.classes[..])
            .put("cache_hit", r.cache_hit)
            .put("batch_rows", r.batch_rows)
            .put("batch_requests", r.batch_requests)
            .put("sim_latency_ns_per_query", r.sim_latency_ns_per_query)
            .put("sim_energy_pj_per_query", r.sim_energy_pj_per_query)
            .put("host_us", r.host_us);
    })
}

/// Serialize an error response line (no trailing newline).
pub fn error_response(id: u64, code: ErrorCode, detail: &str) -> String {
    json::object(|o| {
        o.put("id", id)
            .put("ok", false)
            .put("error", code.as_str())
            .put("detail", detail);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_classify_with_overrides() {
        let r = parse_request(
            r#"{"id":9,"cmd":"classify","rows":[4,0],"task":"knn","bits":1,"subarray":16,"backend":"walk"}"#,
        )
        .unwrap();
        assert_eq!(r.id, 9);
        match r.cmd {
            Cmd::Classify { rows, key } => {
                assert_eq!(rows, [4, 0]);
                assert_eq!(key.task.as_deref(), Some("knn"));
                assert_eq!(key.bits, Some(1));
                assert_eq!(key.subarray, Some(16));
                assert_eq!(key.backend.as_deref(), Some("walk"));
            }
            other => panic!("wrong cmd: {other:?}"),
        }
    }

    #[test]
    fn parses_admin_commands_without_ids() {
        for (line, want) in [
            (r#"{"cmd":"info"}"#, Cmd::Info),
            (r#"{"cmd":"stats"}"#, Cmd::Stats),
            (r#"{"cmd":"shutdown"}"#, Cmd::Shutdown),
        ] {
            let r = parse_request(line).unwrap();
            assert_eq!(r.id, 0);
            assert_eq!(r.cmd, want);
        }
    }

    #[test]
    fn rejects_malformed_requests_with_reasons() {
        for (line, needle) in [
            ("{", "invalid JSON"),
            (r#"{"cmd":"fly"}"#, "unknown cmd"),
            (r#"{"id":"x","cmd":"info"}"#, "'id'"),
            (r#"{"cmd":"classify"}"#, "'rows'"),
            (r#"{"cmd":"classify","rows":[]}"#, "non-empty"),
            (r#"{"cmd":"classify","rows":[-1]}"#, "non-negative"),
            (r#"{"cmd":"classify","rows":[0],"bits":"two"}"#, "'bits'"),
            // 2^32 + 2 used to truncate to the default 2-bit plan.
            (
                r#"{"cmd":"classify","rows":[0],"bits":4294967298}"#,
                "'bits'",
            ),
            (
                r#"{"cmd":"classify","rows":[0],"subarray":18446744073709551616}"#,
                "'subarray'",
            ),
            (r#"{"cmd":"classify","rows":[0],"task":7}"#, "'task'"),
            (r#"{"cmd":"info","id":1e999}"#, "out of range"),
            // What Python's `json.dumps` sends for U+1F600.
            (r#"{"cmd":"\ud83d\ude00"}"#, "unknown cmd '😀'"),
        ] {
            let e = parse_request(line).unwrap_err();
            assert!(e.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn client_text_is_echoed_and_kept_bounded() {
        let long = "é".repeat(400_000);
        let e = parse_request(&format!(r#"{{"cmd":"{long}"}}"#)).unwrap_err();
        assert_eq!(e, format!("unknown cmd '{}…'", "é".repeat(64)));
        let line = format!(r#"{{"cmd":"classify","rows":[0],"task":"{long}","backend":"{long}"}}"#);
        match parse_request(&line).unwrap().cmd {
            Cmd::Classify { key, .. } => {
                assert_eq!(key.task.unwrap().chars().count(), 65);
                assert_eq!(key.backend.unwrap().chars().count(), 65);
            }
            other => panic!("wrong cmd: {other:?}"),
        }
        assert_eq!(bounded(&"x".repeat(64)), "x".repeat(64));
    }

    #[test]
    fn key_override_resolution_fills_defaults() {
        let defaults = PlanKey {
            task: "hdc".into(),
            bits: 2,
            subarray: 32,
            backend: "tape".into(),
        };
        let k = KeyOverride::default().resolve(&defaults);
        assert_eq!(k, defaults);
        let k = KeyOverride {
            backend: Some("walk".into()),
            ..Default::default()
        }
        .resolve(&defaults);
        assert_eq!(k.backend, "walk");
        assert_eq!(k.task, "hdc");
        assert_eq!(k.to_string(), "hdc/2b/32x32/walk");
    }

    #[test]
    fn each_response_is_one_line_of_json() {
        let reply = ClassifyReply {
            predictions: vec![3, 1],
            classes: vec![3, 1],
            cache_hit: true,
            batch_rows: 4,
            batch_requests: 2,
            sim_latency_ns_per_query: 12.5,
            sim_energy_pj_per_query: 0.75,
            host_us: 310.0,
        };
        let line = classify_response(7, &reply);
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("cache_hit").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("batch_requests").unwrap().as_u64(), Some(2));
        assert!(!line.contains('\n'));

        let line = error_response(8, ErrorCode::Overloaded, "queue full (depth 4)");
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("overloaded"));
        assert!(v.get("detail").unwrap().as_str().unwrap().contains("depth"));
    }
}
