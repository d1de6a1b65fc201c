//! Golden telemetry tests: the Chrome trace-event export for a
//! deterministic mini-MNIST HDC run (manual clock, sequential tape
//! backend) is pinned byte-exact against a committed fixture, and the
//! emitted JSON is validated with a dependency-free parser.
//!
//! Regenerate the fixture after an intentional span-taxonomy or
//! exporter-format change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test telemetry_golden
//! ```

use c4cam::arch::{ArchSpec, Optimization};
use c4cam::datasets::{Dataset, DatasetTask, DatasetWorkload};
use c4cam::driver::{build_arch, Experiment};
use c4cam::telemetry::clock::ManualClock;
use c4cam::telemetry::export::{chrome_trace, json_lines};
use c4cam::telemetry::{cat, CollectingRecorder, Event, Phase, Telemetry};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn golden_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/mini_mnist_hdc_telemetry.json")
}

fn mini_mnist_hdc() -> DatasetWorkload {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/data/mini-mnist");
    let dataset = Dataset::load(&fixture, None).expect("committed fixture");
    DatasetWorkload::new(dataset, DatasetTask::Hdc, Some(2)).expect("fixture covers all classes")
}

fn spec() -> ArchSpec {
    build_arch((32, 32), (2, 2, 4), Optimization::Base, 1).unwrap()
}

/// Run the experiment on a manual clock: every `now_ns` call advances
/// time by exactly 1 µs, so the recorded events — and therefore the
/// exported trace — are bit-identical on every run.
fn record_events() -> Vec<Event> {
    let recorder = Arc::new(CollectingRecorder::with_clock(Box::new(ManualClock::new(
        1_000,
    ))));
    let telemetry = Telemetry::new(Arc::clone(&recorder) as _);
    Experiment::new(&mini_mnist_hdc())
        .arch(spec())
        .backend("tape")
        .threads(1)
        .telemetry(telemetry)
        .run()
        .unwrap();
    recorder.events()
}

fn read_golden() -> String {
    std::fs::read_to_string(golden_path())
        .expect("committed golden telemetry trace (regenerate with UPDATE_GOLDEN=1)")
}

#[test]
fn chrome_trace_export_is_byte_exact_against_the_committed_golden() {
    let text = chrome_trace(&record_events());
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(golden_path(), &text).unwrap();
    }
    let golden = read_golden();
    assert_eq!(
        text, golden,
        "telemetry export drifted from tests/golden/mini_mnist_hdc_telemetry.json; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn recorded_events_cover_the_full_span_taxonomy() {
    let events = record_events();
    let spans: Vec<_> = events.iter().filter_map(Event::as_span).collect();
    // All four pipeline phases, in chronological order on the main lane.
    let phase_names: Vec<&str> = spans
        .iter()
        .filter(|s| s.cat == cat::PHASE)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(phase_names, Phase::ALL.map(|p| p.name()).to_vec());
    let phase_starts: Vec<u64> = spans
        .iter()
        .filter(|s| s.cat == cat::PHASE)
        .map(|s| s.start_ns)
        .collect();
    assert!(
        phase_starts.windows(2).all(|w| w[0] < w[1]),
        "phases out of order: {phase_starts:?}"
    );
    // The backend span and sampled per-op children, with simulator
    // attribution on the search ops.
    assert!(spans
        .iter()
        .any(|s| s.cat == cat::BACKEND && s.name == "backend:tape"));
    let searches: Vec<_> = spans
        .iter()
        .filter(|s| s.cat == cat::OP && s.name == "cam.search")
        .collect();
    assert!(!searches.is_empty(), "no per-op search spans");
    for s in &searches {
        let arg = |key: &str| -> f64 {
            s.args
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| match v {
                    c4cam::telemetry::ArgValue::Int(i) => *i as f64,
                    c4cam::telemetry::ArgValue::Num(n) => *n,
                    c4cam::telemetry::ArgValue::Str(_) => panic!("numeric arg expected"),
                })
                .unwrap_or_else(|| panic!("missing arg {key}"))
        };
        // Latency can be deferred to a parallel-scope pop (`max` of
        // the lane latencies), so only energy and the searched-word
        // count are attributable per op unconditionally.
        assert!(arg("sim_latency_ns") >= 0.0);
        assert!(arg("sim_energy_fj") > 0.0);
        assert!(arg("searched_words") > 0.0);
    }
    // The post-run counters carry the simulator totals.
    let counters: Vec<&'static str> = events
        .iter()
        .filter_map(|e| match e {
            Event::Counter { name, .. } => Some(*name),
            _ => None,
        })
        .collect();
    for name in [
        "sim.latency_ns",
        "sim.energy_fj",
        "sim.search_ops",
        "sim.searched_words",
        "sim.heap_bytes",
    ] {
        assert!(counters.contains(&name), "missing counter {name}");
    }
}

#[test]
fn json_lines_export_matches_the_event_stream() {
    let events = record_events();
    let text = json_lines(&events);
    assert_eq!(text.lines().count(), events.len());
    for line in text.lines() {
        parse_json(line);
    }
    assert!(text.lines().any(|l| l.contains("\"name\":\"Execute\"")));
}

#[test]
fn golden_chrome_trace_is_valid_perfetto_loadable_json() {
    let golden = read_golden();
    let root = parse_json(&golden);
    let Json::Obj(fields) = &root else {
        panic!("trace root must be an object")
    };
    assert_eq!(
        fields
            .iter()
            .find(|(k, _)| k == "displayTimeUnit")
            .map(|(_, v)| v),
        Some(&Json::Str("ms".to_string()))
    );
    let events = fields
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .map(|(_, v)| v)
        .expect("traceEvents array");
    let Json::Arr(events) = events else {
        panic!("traceEvents must be an array")
    };
    assert!(!events.is_empty());
    let mut phase_names = Vec::new();
    for event in events {
        let Json::Obj(e) = event else {
            panic!("trace event must be an object")
        };
        let field = |key: &str| e.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let ph = match field("ph") {
            Some(Json::Str(s)) => s.as_str(),
            other => panic!("event without ph: {other:?}"),
        };
        assert!(matches!(ph, "X" | "C" | "i"), "unexpected ph {ph}");
        assert!(
            matches!(field("ts"), Some(Json::Num(_))),
            "ts must be a number"
        );
        assert_eq!(field("pid"), Some(&Json::Num(1.0)));
        if ph == "X" {
            assert!(matches!(field("dur"), Some(Json::Num(_))));
            if field("cat") == Some(&Json::Str("phase".to_string())) {
                if let Some(Json::Str(name)) = field("name") {
                    phase_names.push(name.clone());
                }
            }
        }
    }
    assert_eq!(
        phase_names,
        vec!["Parse", "Place", "Compile", "Execute"],
        "golden trace must carry all four pipeline phases"
    );
}

// ---------------------------------------------------------------------
// Dependency-free JSON validation (mirrors tests/sweep.rs).
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn parse_json(text: &str) -> Json {
    let bytes: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    let value = parse_value(&bytes, &mut pos);
    skip_ws(&bytes, &mut pos);
    assert_eq!(pos, bytes.len(), "trailing input after JSON value");
    value
}

fn skip_ws(b: &[char], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(b: &[char], pos: &mut usize, c: char) {
    skip_ws(b, pos);
    assert!(*pos < b.len() && b[*pos] == c, "expected '{c}' at {pos}");
    *pos += 1;
}

fn parse_value(b: &[char], pos: &mut usize) -> Json {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some('{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&'}') {
                *pos += 1;
                return Json::Obj(fields);
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos) {
                    Json::Str(s) => s,
                    other => panic!("object key must be a string, got {other:?}"),
                };
                expect(b, pos, ':');
                fields.push((key, parse_value(b, pos)));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some('}') => {
                        *pos += 1;
                        return Json::Obj(fields);
                    }
                    other => panic!("expected ',' or '}}', got {other:?}"),
                }
            }
        }
        Some('[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&']') {
                *pos += 1;
                return Json::Arr(items);
            }
            loop {
                items.push(parse_value(b, pos));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(',') => *pos += 1,
                    Some(']') => {
                        *pos += 1;
                        return Json::Arr(items);
                    }
                    other => panic!("expected ',' or ']', got {other:?}"),
                }
            }
        }
        Some('"') => {
            *pos += 1;
            let mut s = String::new();
            while *pos < b.len() && b[*pos] != '"' {
                if b[*pos] == '\\' {
                    *pos += 1;
                }
                s.push(b[*pos]);
                *pos += 1;
            }
            assert!(*pos < b.len(), "unterminated string");
            *pos += 1;
            Json::Str(s)
        }
        Some('t') => {
            assert_eq!(b[*pos..*pos + 4].iter().collect::<String>(), "true");
            *pos += 4;
            Json::Bool(true)
        }
        Some('f') => {
            assert_eq!(b[*pos..*pos + 5].iter().collect::<String>(), "false");
            *pos += 5;
            Json::Bool(false)
        }
        Some('n') => {
            assert_eq!(b[*pos..*pos + 4].iter().collect::<String>(), "null");
            *pos += 4;
            Json::Null
        }
        _ => {
            let start = *pos;
            while *pos < b.len() && "+-0123456789.eE".contains(b[*pos]) {
                *pos += 1;
            }
            assert!(*pos > start, "unexpected character at {pos}");
            Json::Num(
                b[start..*pos]
                    .iter()
                    .collect::<String>()
                    .parse()
                    .expect("number"),
            )
        }
    }
}
