//! Golden telemetry tests: the Chrome trace-event export for a
//! deterministic mini-MNIST HDC run (manual clock, sequential tape
//! backend) is pinned byte-exact against a committed fixture, and the
//! emitted JSON is validated with the server's strict parser.
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
use c4cam::telemetry::export::chrome_trace;
use c4cam::telemetry::{cat, CollectingRecorder, Event, Phase, Telemetry};
use c4cam_server::json::Json;
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
fn golden_chrome_trace_is_valid_perfetto_loadable_json() {
    let root = Json::parse(&read_golden()).expect("the golden trace is JSON");
    assert_eq!(
        root.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = root
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut phase_names = Vec::new();
    for event in events {
        assert!(
            matches!(event, Json::Obj(_)),
            "trace event must be an object"
        );
        let text = |key: &str| event.get(key).and_then(Json::as_str);
        let ph = text("ph").unwrap_or_else(|| panic!("event without ph: {event:?}"));
        assert!(matches!(ph, "X" | "C" | "i"), "unexpected ph {ph}");
        assert!(
            matches!(event.get("ts"), Some(Json::Num(_))),
            "ts must be a number"
        );
        assert_eq!(event.get("pid"), Some(&Json::Num(1.0)));
        if ph == "X" {
            assert!(matches!(event.get("dur"), Some(Json::Num(_))));
            if text("cat") == Some("phase") {
                phase_names.extend(text("name"));
            }
        }
    }
    assert_eq!(
        phase_names,
        vec!["Parse", "Place", "Compile", "Execute"],
        "golden trace must carry all four pipeline phases"
    );
}
