//! Properties of the workspace's one JSON module
//! (`c4cam::telemetry::json`), over every document type the
//! repository emits:
//!
//! - emit → [`Json::parse`] round-trips: the text parses, carries
//!   exactly the listed keys in the listed order, numbers come back
//!   equal to the bit (non-finite ones as `null`), strings come back
//!   equal — including names made of quotes, backslashes, control and
//!   non-BMP characters;
//! - the CSV header of a report is the key list of its JSON rows;
//! - mutated and truncated documents and request lines never panic the
//!   reader or `parse_request`, errors point inside the input and stay
//!   short, and nothing parses deeper than `MAX_DEPTH`.

use c4cam::accuracy::{evaluate_faulty, AccuracyReport, AccuracyRow, FaultKnobs};
use c4cam::arch::Optimization;
use c4cam::camsim::ExecStats;
use c4cam::datasets::{mini_mnist, DatasetTask, DatasetWorkload};
use c4cam::driver::build_arch;
use c4cam::service::DatasetPlanSource;
use c4cam::sweep::{SweepOutcome, SweepPlan};
use c4cam::telemetry::export::chrome_trace;
use c4cam::telemetry::json::{Json, MAX_DEPTH};
use c4cam::telemetry::{ArgValue, Event, Span, Telemetry};
use c4cam::workloads::HdcWorkload;
use c4cam_server::protocol::PlanKey;
use c4cam_server::{
    classify_response, error_response, parse_request, serve, ClassifyReply, ErrorCode,
    LoadgenReport, ServeConfig,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::sync::{Arc, OnceLock};

/// Keys of the object that starts at byte 0 of `text`, in document
/// order ([`Json::Obj`] is a sorted map and cannot tell).
fn keys(text: &str) -> Vec<String> {
    assert!(text.starts_with('{'), "{text}");
    let mut keys = Vec::new();
    let mut depth = 0usize;
    let mut chars = text.char_indices();
    while let Some((start, c)) = chars.next() {
        match c {
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            '"' => {
                let mut end = start;
                while let Some((i, c)) = chars.next() {
                    match c {
                        '\\' => {
                            chars.next();
                        }
                        '"' => {
                            end = i;
                            break;
                        }
                        _ => {}
                    }
                }
                if depth == 1 && text[end + 1..].starts_with(':') {
                    let key = Json::parse(&text[start..=end]).unwrap();
                    keys.push(key.as_str().unwrap().to_string());
                }
            }
            _ => {}
        }
    }
    keys
}

/// The text of member `key`'s value onwards, for [`keys`] of a nested
/// object.
fn after<'a>(text: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\":");
    let at = text
        .find(&marker)
        .unwrap_or_else(|| panic!("no {key} in {text}"));
    &text[at + marker.len()..]
}

fn assert_num(doc: &Json, key: &str, want: f64) {
    let got = doc
        .get(key)
        .unwrap_or_else(|| panic!("missing {key}: {doc:?}"));
    if want.is_finite() {
        assert_eq!(
            got.as_f64().map(f64::to_bits),
            Some(want.to_bits()),
            "{key}"
        );
    } else {
        assert_eq!(got, &Json::Null, "{key}");
    }
}

fn assert_str(doc: &Json, key: &str, want: &str) {
    assert_eq!(doc.get(key).and_then(Json::as_str), Some(want), "{key}");
}

/// Every bit pattern (subnormals, NaNs, infinities, `-0.0`) plus an
/// ordinary range and the special values by name.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        -1e9f64..1e9,
        Just(f64::NAN),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
    ]
}

/// Counts an `f64` carries exactly.
fn any_count() -> impl Strategy<Value = u64> {
    0u64..(1 << 53)
}

const NASTY: [char; 24] = [
    'a',
    'Z',
    '7',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\r',
    '\t',
    '\0',
    '\u{1f}',
    '\u{7f}',
    'é',
    '—',
    '\u{fffd}',
    '😀',
    '\u{10ffff}',
    ',',
    ':',
    '{',
    ']',
    'u',
    '\'',
];

/// Names built from the characters an escaper can get wrong.
fn any_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..NASTY.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| NASTY[i]).collect())
}

const STATS_KEYS: [&str; 22] = [
    "search_ops",
    "searched_words",
    "write_ops",
    "read_ops",
    "merge_ops",
    "cell_energy_fj",
    "periph_energy_fj",
    "merge_energy_fj",
    "write_energy_fj",
    "static_energy_fj",
    "total_energy_fj",
    "latency_ns",
    "power_w",
    "queries_per_second",
    "edp_nj_s",
    "banks_allocated",
    "mats_allocated",
    "arrays_allocated",
    "subarrays_allocated",
    "fault_cells",
    "fault_transients",
    "rows_remapped",
];

fn stats_from(counts: &[u64], floats: &[f64]) -> ExecStats {
    ExecStats {
        search_ops: counts[0],
        searched_words: counts[1],
        write_ops: counts[2],
        read_ops: counts[3],
        merge_ops: counts[4],
        fault_cells: counts[5],
        fault_transients: counts[6],
        rows_remapped: counts[7],
        cell_energy_fj: floats[0],
        periph_energy_fj: floats[1],
        merge_energy_fj: floats[2],
        write_energy_fj: floats[3],
        static_energy_fj: floats[4],
        latency_ns: floats[5],
        banks_allocated: counts[8] as usize,
        mats_allocated: counts[9] as usize,
        arrays_allocated: counts[10] as usize,
        subarrays_allocated: counts[11] as usize,
    }
}

/// `doc` is the parsed stats object whose text starts at `text`.
fn check_stats(text: &str, doc: &Json, s: &ExecStats) {
    assert_eq!(keys(text), STATS_KEYS);
    for (key, want) in [
        ("search_ops", s.search_ops),
        ("searched_words", s.searched_words),
        ("write_ops", s.write_ops),
        ("read_ops", s.read_ops),
        ("merge_ops", s.merge_ops),
        ("banks_allocated", s.banks_allocated as u64),
        ("mats_allocated", s.mats_allocated as u64),
        ("arrays_allocated", s.arrays_allocated as u64),
        ("subarrays_allocated", s.subarrays_allocated as u64),
        ("fault_cells", s.fault_cells),
        ("fault_transients", s.fault_transients),
        ("rows_remapped", s.rows_remapped),
    ] {
        assert_eq!(doc.get(key).and_then(Json::as_u64), Some(want), "{key}");
    }
    for (key, want) in [
        ("cell_energy_fj", s.cell_energy_fj),
        ("periph_energy_fj", s.periph_energy_fj),
        ("merge_energy_fj", s.merge_energy_fj),
        ("write_energy_fj", s.write_energy_fj),
        ("static_energy_fj", s.static_energy_fj),
        ("total_energy_fj", s.total_energy_fj()),
        ("latency_ns", s.latency_ns),
        ("power_w", s.power_w()),
        ("queries_per_second", s.queries_per_second()),
        ("edp_nj_s", s.edp_nj_s()),
    ] {
        assert_num(doc, key, want);
    }
}

/// One real 2-point sweep, mutated per case.
fn sweep_base() -> &'static SweepOutcome {
    static BASE: OnceLock<SweepOutcome> = OnceLock::new();
    BASE.get_or_init(|| {
        let hdc = HdcWorkload {
            classes: 4,
            dims: 64,
            queries: 2,
            flip_rate: 0.1,
            seed: 1,
        };
        SweepPlan::new(&hdc)
            .square_subarrays([32])
            .optimizations([Optimization::Base, Optimization::Power])
            .run()
            .unwrap()
    })
}

/// One fault-free and one faulty accuracy row, mutated per case.
fn accuracy_base() -> &'static [AccuracyRow] {
    static BASE: OnceLock<Vec<AccuracyRow>> = OnceLock::new();
    BASE.get_or_init(|| {
        let w = DatasetWorkload::new(mini_mnist::dataset(), DatasetTask::Hdc, Some(4)).unwrap();
        let spec = build_arch((32, 32), (4, 4, 8), Optimization::Base, 2).unwrap();
        [None, Some(FaultKnobs::new(0.05, 7))]
            .iter()
            .map(|knobs| {
                evaluate_faulty(&w, &spec, "tape", 1, knobs.as_ref(), &Telemetry::default())
                    .unwrap()
            })
            .collect()
    })
}

/// `header` names == `names`, and every row has one cell per name.
fn check_csv(csv: &str, names: &[String], rows: usize) {
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().unwrap().split(',').collect();
    assert_eq!(header, names);
    let cells: Vec<usize> = lines.map(|l| l.split(',').count()).collect();
    assert_eq!(cells, vec![names.len(); rows], "{csv}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exec_stats_round_trip(
        counts in proptest::collection::vec(any_count(), 12),
        floats in proptest::collection::vec(any_f64(), 6),
    ) {
        let stats = stats_from(&counts, &floats);
        let text = stats.to_json();
        check_stats(&text, &Json::parse(&text).unwrap(), &stats);
    }

    #[test]
    fn sweep_reports_round_trip_and_csv_names_are_the_json_keys(
        names in proptest::collection::vec(any_text(), 3),
        floats in proptest::collection::vec(any_f64(), 8),
        counts in proptest::collection::vec(any_count(), 12),
        pareto_only in any::<bool>(),
    ) {
        let mut outcome = sweep_base().clone();
        outcome.workload = names[0].clone();
        for (i, p) in outcome.points.iter_mut().enumerate() {
            p.grid.tech_name = names[1].clone();
            p.grid.engine = names[2].clone();
            p.grid.fault_rate = floats[i];
            p.outcome.query_phase = stats_from(&counts, &floats[i..i + 6]);
        }
        let text = outcome.to_json(pareto_only);
        prop_assert_eq!(keys(&text), ["workload", "points"]);
        let doc = Json::parse(&text).unwrap();
        assert_str(&doc, "workload", &outcome.workload);
        let selected: Vec<usize> = (0..outcome.points.len())
            .filter(|&i| !pareto_only || outcome.is_pareto(i))
            .collect();
        let points = doc.get("points").and_then(Json::as_arr).unwrap();
        prop_assert_eq!(points.len(), selected.len());
        for (got, &i) in points.iter().zip(&selected) {
            let p = &outcome.points[i];
            assert_str(got, "technology", &p.grid.tech_name);
            assert_str(got, "engine", &p.grid.engine);
            assert_str(got, "optimization", p.grid.optimization.keyword());
            assert_num(got, "latency_per_query_ns", p.latency_per_query_ns());
            assert_num(got, "energy_per_query_pj", p.energy_per_query_pj());
            assert_num(got, "power_mw", p.power_mw());
            assert_num(got, "fault_rate", p.grid.fault_rate);
            assert_num(got, "accuracy", p.outcome.accuracy());
            prop_assert_eq!(got.get("area_cells").and_then(Json::as_u64), Some(p.area_cells()));
            prop_assert_eq!(
                got.get("pareto").and_then(Json::as_bool),
                Some(outcome.is_pareto(i))
            );
        }
        let mut names = vec!["workload".to_string()];
        if let Some(&first) = selected.first() {
            let row = after(&text, "points").strip_prefix('[').unwrap();
            let mut row_keys = keys(row);
            prop_assert_eq!(row_keys.pop().as_deref(), Some("query_phase"));
            check_stats(
                after(row, "query_phase"),
                points[0].get("query_phase").unwrap(),
                &outcome.points[first].outcome.query_phase,
            );
            names.extend(row_keys);
            check_csv(&outcome.to_csv(pareto_only), &names, selected.len());
        }
    }

    #[test]
    fn accuracy_reports_round_trip_and_csv_names_are_the_json_keys(
        names in proptest::collection::vec(any_text(), 3),
        floats in proptest::collection::vec(any_f64(), 4),
        seed in any_count(),
    ) {
        let mut rows = accuracy_base().to_vec();
        for r in &mut rows {
            r.task = names[0].clone();
            r.dataset = names[1].clone();
            r.engine = names[2].clone();
            r.cam_accuracy = floats[0];
            r.cpu_accuracy = floats[1];
            r.agreement = floats[2];
            r.fault_rate *= floats[3];
            r.fault_seed = seed;
        }
        let report = AccuracyReport { rows };
        let text = report.to_json();
        prop_assert_eq!(keys(&text), ["rows"]);
        let doc = Json::parse(&text).unwrap();
        let got = doc.get("rows").and_then(Json::as_arr).unwrap();
        prop_assert_eq!(got.len(), report.rows.len());
        for (got, r) in got.iter().zip(&report.rows) {
            assert_str(got, "task", &r.task);
            assert_str(got, "dataset", &r.dataset);
            assert_str(got, "engine", &r.engine);
            assert_num(got, "cam_accuracy", r.cam_accuracy);
            assert_num(got, "cpu_accuracy", r.cpu_accuracy);
            assert_num(got, "agreement", r.agreement);
            assert_num(got, "latency_per_query_ns", r.latency_per_query_ns());
            assert_num(got, "energy_per_query_pj", r.energy_per_query_pj());
            assert_num(got, "fault_rate", r.fault_rate);
            for (key, want) in [
                ("stored_rows", r.stored_rows as u64),
                ("queries", r.queries as u64),
                ("dims", r.dims as u64),
                ("classes", r.classes as u64),
                ("bits_per_cell", r.bits_per_cell.into()),
                ("threads", r.threads as u64),
                ("fault_seed", r.fault_seed),
                ("fault_cells", r.fault_cells()),
                ("fault_transients", r.fault_transients()),
                ("rows_remapped", r.rows_remapped()),
            ] {
                prop_assert_eq!(got.get(key).and_then(Json::as_u64), Some(want), "{}", key);
            }
        }
        // The faulty row really carries fault counters.
        prop_assert!(report.rows[1].fault_cells() > 0);
        let row = after(&text, "rows").strip_prefix('[').unwrap();
        let mut row_keys = keys(row);
        prop_assert_eq!(row_keys.pop().as_deref(), Some("query_phase"));
        check_stats(
            after(row, "query_phase"),
            got[0].get("query_phase").unwrap(),
            report.rows[0].query_phase(),
        );
        check_csv(&report.to_csv(), &row_keys, report.rows.len());
    }

    #[test]
    fn load_reports_round_trip(
        mode in any_text(),
        counts in proptest::collection::vec(any_count(), 7),
        floats in proptest::collection::vec(any_f64(), 10),
        agreement in proptest::option::of(any_f64()),
    ) {
        let r = LoadgenReport {
            mode,
            requests: counts[0] as usize,
            concurrency: counts[1] as usize,
            rows_per_request: counts[2] as usize,
            ok: counts[3] as usize,
            overloaded: counts[4] as usize,
            errors: counts[5] as usize,
            wall_s: floats[0],
            qps: floats[1],
            rps: floats[2],
            p50_us: floats[3],
            p90_us: floats[4],
            p99_us: floats[5],
            mean_us: floats[6],
            max_us: floats[7],
            agreement,
            mean_batch_rows: floats[8],
            max_batch_requests: counts[6],
            cache_hit_rate: floats[9],
        };
        let text = r.to_json();
        prop_assert_eq!(
            keys(&text),
            [
                "bench", "mode", "requests", "concurrency", "rows_per_request", "ok",
                "overloaded", "errors", "wall_s", "qps", "rps", "latency_us", "agreement",
                "batch", "cache_hit_rate",
            ]
        );
        prop_assert_eq!(keys(after(&text, "latency_us")), ["p50", "p90", "p99", "mean", "max"]);
        prop_assert_eq!(keys(after(&text, "batch")), ["mean_rows", "max_requests"]);
        let doc = Json::parse(&text).unwrap();
        assert_str(&doc, "bench", "pr9_serve_loadgen");
        assert_str(&doc, "mode", &r.mode);
        prop_assert_eq!(doc.get("errors").and_then(Json::as_u64), Some(counts[5]));
        assert_num(&doc, "wall_s", r.wall_s);
        assert_num(&doc, "qps", r.qps);
        assert_num(&doc, "cache_hit_rate", r.cache_hit_rate);
        assert_num(&doc, "agreement", r.agreement.unwrap_or(f64::NAN));
        let latency = doc.get("latency_us").unwrap();
        assert_num(latency, "p50", r.p50_us);
        assert_num(latency, "max", r.max_us);
        let batch = doc.get("batch").unwrap();
        assert_num(batch, "mean_rows", r.mean_batch_rows);
        prop_assert_eq!(batch.get("max_requests").and_then(Json::as_u64), Some(counts[6]));
    }

    #[test]
    fn protocol_replies_round_trip(
        id in any_count(),
        rows in proptest::collection::vec(0usize..100_000, 0..6),
        cache_hit in any::<bool>(),
        floats in proptest::collection::vec(any_f64(), 3),
        detail in any_text(),
    ) {
        let reply = ClassifyReply {
            predictions: rows.clone(),
            classes: rows.iter().map(|r| r % 10).collect(),
            cache_hit,
            batch_rows: rows.len(),
            batch_requests: 1,
            sim_latency_ns_per_query: floats[0],
            sim_energy_pj_per_query: floats[1],
            host_us: floats[2],
        };
        let text = classify_response(id, &reply);
        prop_assert!(!text.contains('\n'));
        prop_assert_eq!(
            keys(&text),
            [
                "id", "ok", "predictions", "classes", "cache_hit", "batch_rows",
                "batch_requests", "sim_latency_ns_per_query", "sim_energy_pj_per_query",
                "host_us",
            ]
        );
        let doc = Json::parse(&text).unwrap();
        prop_assert_eq!(doc.get("id").and_then(Json::as_u64), Some(id));
        prop_assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        prop_assert_eq!(doc.get("cache_hit").and_then(Json::as_bool), Some(cache_hit));
        let list = |key: &str| -> Vec<usize> {
            let items = doc.get(key).and_then(Json::as_arr).unwrap();
            items.iter().map(|j| j.as_u64().unwrap() as usize).collect()
        };
        prop_assert_eq!(list("predictions"), reply.predictions.clone());
        prop_assert_eq!(list("classes"), reply.classes.clone());
        assert_num(&doc, "sim_latency_ns_per_query", floats[0]);
        assert_num(&doc, "sim_energy_pj_per_query", floats[1]);
        assert_num(&doc, "host_us", floats[2]);

        let text = error_response(id, ErrorCode::ExecFailed, &detail);
        prop_assert!(!text.contains('\n'));
        prop_assert_eq!(keys(&text), ["id", "ok", "error", "detail"]);
        let doc = Json::parse(&text).unwrap();
        prop_assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_str(&doc, "error", "exec_failed");
        assert_str(&doc, "detail", &detail);
    }

    #[test]
    fn chrome_traces_round_trip(
        names in proptest::collection::vec(any_text(), 4),
        times in proptest::collection::vec(any::<u64>(), 4),
        value in any_f64(),
        int in any::<i64>(),
    ) {
        // Argument and counter names are `&'static str` in the event
        // model; leaking a few short strings per case is fine in a test.
        let leak = |s: &String| -> &'static str { Box::leak(s.clone().into_boxed_str()) };
        let args = vec![
            ("int", ArgValue::Int(int)),
            (leak(&names[1]), ArgValue::Num(value)),
            ("text", ArgValue::Str(names[2].clone())),
        ];
        let events = vec![
            Event::Span(Span {
                name: names[0].clone(),
                cat: leak(&names[3]),
                tid: times[0] as u32,
                start_ns: times[1],
                dur_ns: times[2],
                args: args.clone(),
            }),
            Event::Span(Span {
                name: names[1].clone(),
                cat: "op",
                tid: 0,
                start_ns: times[2],
                dur_ns: 0,
                args: vec![],
            }),
            Event::Counter { name: leak(&names[2]), t_ns: times[3], value },
            Event::Instant { name: names[3].clone(), cat: "grid", tid: 1, t_ns: times[0] },
        ];
        let text = chrome_trace(&events);
        prop_assert_eq!(keys(&text), ["traceEvents", "displayTimeUnit"]);
        // One event per line between the two frame lines.
        let lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.len(), events.len() + 2);
        let line = |i: usize| lines[i + 1].trim_end_matches(',');
        prop_assert_eq!(keys(line(0)), ["name", "cat", "ph", "pid", "tid", "ts", "dur", "args"]);
        prop_assert_eq!(keys(after(line(0), "args")).len(), args.len());
        prop_assert_eq!(keys(line(1)), ["name", "cat", "ph", "pid", "tid", "ts", "dur"]);
        prop_assert_eq!(keys(line(2)), ["name", "ph", "pid", "tid", "ts", "args"]);
        prop_assert_eq!(keys(line(3)), ["name", "cat", "ph", "s", "pid", "tid", "ts"]);

        let doc = Json::parse(&text).unwrap();
        assert_str(&doc, "displayTimeUnit", "ms");
        let got = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        prop_assert_eq!(got.len(), events.len());
        let us = |ns: u64| ns as f64 / 1000.0;
        assert_str(&got[0], "name", &names[0]);
        assert_str(&got[0], "cat", &names[3]);
        assert_str(&got[0], "ph", "X");
        assert_num(&got[0], "tid", f64::from(times[0] as u32));
        assert_num(&got[0], "ts", us(times[1]));
        assert_num(&got[0], "dur", us(times[2]));
        let got_args = got[0].get("args").unwrap();
        // `names[1]` may spell "int" or "text"; the later member wins
        // in the parsed map, as in any JSON reader.
        if names[1] != "int" && names[1] != "text" {
            assert_num(got_args, "int", int as f64);
            assert_num(got_args, &names[1], value);
        }
        assert_str(got_args, "text", &names[2]);
        assert_str(&got[2], "ph", "C");
        assert_num(got[2].get("args").unwrap(), &names[2], value);
        assert_str(&got[3], "name", &names[3]);
        assert_num(&got[3], "ts", us(times[0]));
    }
}

/// Valid documents and request lines for the mutation harness.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let stats = stats_from(&[3; 12], &[1.5, 2.5e-7, 0.0, -0.0, 1e300, 42.0]);
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
        let events = [
            Event::Span(Span {
                name: "a\"b\\c\n😀".into(),
                cat: "op",
                tid: 2,
                start_ns: 1500,
                dur_ns: 250,
                args: vec![("pc", ArgValue::Int(-4)), ("e", ArgValue::Num(f64::NAN))],
            }),
            Event::Counter {
                name: "sim.latency_ns",
                t_ns: 4000,
                value: 12.5,
            },
        ];
        vec![
            stats.to_json(),
            sweep_base().to_json(false),
            AccuracyReport {
                rows: accuracy_base().to_vec(),
            }
            .to_json(),
            classify_response(7, &reply),
            error_response(8, ErrorCode::Overloaded, "queue full (depth 4) \u{1f600}"),
            chrome_trace(&events),
            r#"{"id":9,"cmd":"classify","rows":[4,0],"task":"knn","bits":1,"subarray":16,"backend":"walk"}"#.to_string(),
            r#"{"cmd":"info"}"#.to_string(),
            r#"{"id":1,"cmd":"😀 é\n","rows":[1e2,-0.5e-3]}"#.to_string(),
        ]
    })
}

fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(map) => 1 + map.values().map(depth).max().unwrap_or(0),
        _ => 0,
    }
}

/// Bytes a mutation writes: structure, escapes, number syntax, a
/// control character and three bytes that break UTF-8.
const BYTES: &[u8] = b"{}[]\",:\\ueE-+.0919tfn \n\x00\xff\xf0\x80";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn mutated_and_truncated_input_never_panics_and_errors_stay_bounded(
        which in 0usize..9,
        ops in proptest::collection::vec((0u8..5, any::<usize>(), any::<usize>()), 1..4),
    ) {
        let mut bytes = corpus()[which].clone().into_bytes();
        for (op, pos, k) in ops {
            let pos = pos % (bytes.len() + 1);
            match op {
                0 => bytes.truncate(pos),
                1 if pos < bytes.len() => bytes[pos] = BYTES[k % BYTES.len()],
                2 => {
                    let unit: &[u8] = if k % 2 == 0 { b"[" } else { b"{\"a\":" };
                    let burst = unit.repeat(1 + k % 300);
                    bytes.splice(pos..pos, burst);
                }
                3 => {
                    let slice = bytes[pos..(pos + k % 16).min(bytes.len())].to_vec();
                    bytes.splice(pos..pos, slice);
                }
                _ if pos < bytes.len() => {
                    bytes.remove(pos);
                }
                _ => {}
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        match Json::parse(&text) {
            Ok(v) => prop_assert!(depth(&v) <= MAX_DEPTH),
            Err(e) => {
                prop_assert!(e.offset <= text.len(), "{e}");
                prop_assert!(e.message.len() <= 64, "{e}");
            }
        }
        if let Err(e) = parse_request(&text) {
            prop_assert!(e.len() <= 400, "{} bytes: {e}", e.len());
        }
    }
}

#[test]
fn the_corpus_is_valid_before_it_is_mutated() {
    for text in corpus() {
        Json::parse(text).unwrap_or_else(|e| panic!("{text}: {e}"));
    }
    assert!(parse_request(&corpus()[6]).is_ok());
    assert!(parse_request(&corpus()[7]).is_ok());
}

#[test]
fn info_stats_and_shutdown_replies_carry_their_keys_in_order() {
    let key = PlanKey {
        task: "hdc".to_string(),
        bits: 2,
        subarray: 32,
        backend: "tape".to_string(),
    };
    let source = DatasetPlanSource::new(mini_mnist::dataset(), key, 4, 1, Telemetry::disabled());
    let (tx, rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        serve(&ServeConfig::default(), Arc::new(source), |addr| {
            tx.send(addr).unwrap()
        })
        .unwrap()
    });
    let stream = std::net::TcpStream::connect(rx.recv().unwrap()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |line: &str| -> String {
        (&stream).write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        Json::parse(reply.trim()).unwrap_or_else(|e| panic!("{reply}: {e}"));
        reply
    };
    let info = ask(r#"{"cmd":"info"}"#);
    assert_eq!(
        keys(&info),
        [
            "ok",
            "default_key",
            "capacity",
            "pool_size",
            "queue_depth",
            "cached_plans",
            "cached_keys"
        ]
    );
    assert!(
        info.contains(r#""cached_keys":["hdc/2b/32x32/tape"]"#),
        "{info}"
    );
    assert_eq!(
        keys(&ask(r#"{"cmd":"stats"}"#)),
        [
            "ok",
            "requests",
            "rejected",
            "pending",
            "batches",
            "batched_rows",
            "max_batch_requests",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "uptime_s"
        ]
    );
    assert_eq!(
        ask(r#"{"id":5,"cmd":"shutdown"}"#).trim(),
        r#"{"id":5,"ok":true,"shutting_down":true}"#
    );
    server.join().unwrap();
}
