//! The metric and workload registry (mirrored by `BENCHMARK.json`, and
//! a test holds the two equal) and the report a workload run produces.

use crate::estimator::{quiet_among, PROCESSES};
use c4cam::telemetry::json::{num_f64, string};
use c4cam_server::json::Json;
use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// `<module>.<metric>` for layers, a bare name end to end.
    pub name: &'static str,
    /// Unit, spelled as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's value an end-to-end metric may worsen by
    /// before a change counts as a regression (0 on layer metrics,
    /// which have no bound).
    pub bound: f64,
    /// Deterministic for a fixed seed: two runs must agree to the bit.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: false,
    }
}

const fn exact_count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: 0.0,
        exact: false,
    }
}

/// Bound of the simulated metrics: they are deterministic, so any
/// change at all is a regression; a non-zero epsilon keeps the number a
/// valid "share of the parent's value" and lets a pure re-association
/// of a float sum (1e-16) through.
pub const EXACT_BOUND: f64 = 1e-9;

/// The six end-to-end metrics, the same on every workload. The timing
/// bounds are sized by the widest quartile spread seen over ten seeds
/// on the 2-vCPU reference host (10.5 %, in a set that straddled a
/// shift of the host's floor; under 3.6 % on a quiet host — README,
/// "Repeatability"): a bound inside the host's noise rejects correct
/// changes at random.
pub const END_TO_END: [MetricDef; 6] = [
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    MetricDef {
        name: "work_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        exact: false,
    },
    MetricDef {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.20,
        exact: false,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        exact: false,
    },
    MetricDef {
        name: "sim_latency_us_per_query",
        unit: "us/query",
        better: Better::Lower,
        bound: EXACT_BOUND,
        exact: true,
    },
    MetricDef {
        name: "sim_energy_nj_per_query",
        unit: "nJ/query",
        better: Better::Lower,
        bound: EXACT_BOUND,
        exact: true,
    },
];

/// The per-layer metrics of the traced pass. A metric that does not
/// apply to a workload (`server.*` on a scan, `sweep.*` off the sweep)
/// reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    // driver
    timing("driver.compile_ms", "ms"),
    timing("driver.run_ms", "ms"),
    timing("driver.run_self_ms", "ms"),
    // workloads / datasets
    timing("workloads.build_module_ms", "ms"),
    timing("workloads.inputs_ms", "ms"),
    // core / ir
    timing("core.place_ms", "ms"),
    timing("core.pipeline_ms", "ms"),
    exact_count("core.pipeline_passes", "count"),
    exact_count("ir.ops_after_lowering", "count"),
    // hal / engine
    timing("hal.plan_compile_ms", "ms"),
    timing("engine.tape_compile_ms", "ms"),
    exact_count("engine.tape_len", "count"),
    timing("hal.execute_ms", "ms"),
    timing("hal.execute_self_ms", "ms"),
    timing("engine.tape_run_ms", "ms"),
    timing("engine.vm_self_ms", "ms"),
    timing("engine.trace_replay_ms", "ms"),
    timing("engine.replay_self_ms", "ms"),
    exact_count("engine.trace_ops", "count"),
    timing("engine.vm_ns_per_device_op", "ns"),
    // camsim
    timing("camsim.machine_new_ms", "ms"),
    timing("camsim.write_ms", "ms"),
    timing("camsim.search_ms", "ms"),
    timing("camsim.subarray_search_ns", "ns"),
    exact_count("camsim.search_ops", "count"),
    exact_count("camsim.searched_words", "count"),
    exact_count("camsim.write_ops", "count"),
    timing("camsim.ns_per_searched_word", "ns"),
    exact_count("camsim.plane_bytes_per_batch", "B"),
    higher("camsim.plane_gbps", "GB/s"),
    // sweep
    timing("sweep.point_p50_ms", "ms"),
    timing("sweep.compile_share", "ratio"),
    timing("sweep.self_ms", "ms"),
    // server / service
    timing("server.parse_request_us", "us"),
    timing("server.encode_response_us", "us"),
    timing("server.cache_hit_us", "us"),
    timing("server.cache_miss_ms", "ms"),
    timing("server.admission_wait_ms", "ms"),
    timing("service.batch_run_1row_ms", "ms"),
    timing("service.batch_run_full_ms", "ms"),
    higher("server.batch_fill", "ratio"),
    timing("server.batches", "count"),
    higher("server.cache_hit_rate", "ratio"),
    timing("server.rejected", "count"),
    timing("server.request_tail_ms", "ms"),
    timing("server.request_tail_pct", "%"),
    higher("server.request_samples", "count"),
    timing("server.wire_self_ms", "ms"),
    // telemetry
    timing("telemetry.on_overhead_ratio", "ratio"),
    // bench
    timing("bench.unattributed_ms", "ms"),
    timing("bench.trace_overhead_ratio", "ratio"),
    timing("bench.round_spread", "ratio"),
    higher("bench.quiet_rounds", "count"),
    timing("bench.extra_rounds", "count"),
    timing("bench.anchor_ms", "ms"),
    higher("bench.samples", "count"),
    timing("bench.op_tail_ms", "ms"),
    timing("bench.op_tail_pct", "%"),
];

/// The four workloads and why each exists (one line each; the README
/// has the long form).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "knn-scan",
        "8 MB of level/care planes (4x L2) swept once per query: plane kernels and Subarray::search do nearly all the work; VM dispatch, compile and the socket almost none",
    ),
    (
        "hdc-dispatch",
        "cache-resident planes and tiny searches: tape-VM dispatch, tensor slicing, CamMachine bookkeeping and result assembly dominate; kernel changes must not show",
    ),
    (
        "dse-sweep",
        "the paper's headline use: 40 compile pipelines, machine constructions and full programmings against 4 queries each, so slower writes or compile show as a loss",
    ),
    (
        "serve-closed",
        "the search costs microseconds, so admission linger, padding, JSON, thread hand-offs and the socket are the whole latency; kernel work predicts no change",
    ),
];

/// What one measurement of a workload (one pass: untraced or traced)
/// produced — in one process, or folded over several by [`merge`].
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metric values by registry name.
    pub values: BTreeMap<&'static str, f64>,
    /// Context that is not a metric (kernel tier, input hash, sizes, the
    /// first failure), printed on the info line.
    pub info: Vec<(String, String)>,
    /// Latency of every steady-state round, milliseconds: what the
    /// quiet-round rule is applied to once processes are folded.
    pub round_ms: Vec<f64>,
}

impl Report {
    /// Set metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Metric `name` (0 when the workload did not set it).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Set info entry `key`, replacing an earlier one.
    pub fn note(&mut self, key: &str, value: impl Into<String>) {
        let value = value.into();
        match self.info.iter_mut().find(|(k, _)| k == key) {
            Some(entry) => entry.1 = value,
            None => self.info.push((key.to_string(), value)),
        }
    }

    /// Whether every operation succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `"name":{"value":…,"unit":…}` for every entry of `defs`, in
    /// registry order.
    pub fn metric_entries(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .map(|d| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    string(d.name),
                    num_f64(self.get(d.name)),
                    string(d.unit)
                )
            })
            .collect()
    }

    /// `"key":"value"` for every info entry.
    pub fn info_entries(&self) -> Vec<String> {
        self.info
            .iter()
            .map(|(k, v)| format!("{}:{}", string(k), string(v)))
            .collect()
    }

    /// The result line of the driver contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics being every
    /// entry of `defs`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metric_entries(defs).join(",")
        )
    }

    /// The info line printed before the result line.
    pub fn info_line(&self) -> String {
        let rounds: Vec<String> = self.round_ms.iter().map(|&ms| num_f64(ms)).collect();
        format!(
            "{{\"info\":{{{}}},\"round_ms\":[{}]}}",
            self.info_entries().join(","),
            rounds.join(",")
        )
    }

    /// Read back what a process printed with [`Report::info_line`] and
    /// [`Report::result_line`] over `defs`.
    ///
    /// # Errors
    /// Lines that are not what those two functions print.
    pub fn parse(info_line: &str, result_line: &str, defs: &[MetricDef]) -> Result<Report, String> {
        let info = Json::parse(info_line).map_err(|e| format!("info line: {e}"))?;
        let result = Json::parse(result_line).map_err(|e| format!("result line: {e}"))?;
        let count = |key: &str| {
            result
                .get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("result line: no {key}"))
        };
        let mut report = Report {
            attempted: count("attempted")?,
            failed: count("failed")?,
            ..Report::default()
        };
        for d in defs {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(d.name)?.get("value")?.as_f64())
                .ok_or(format!("result line: no {}", d.name))?;
            report.set(d.name, value);
        }
        if let Some(Json::Obj(map)) = info.get("info") {
            for (k, v) in map {
                report.note(k, v.as_str().unwrap_or_default());
            }
        }
        let rounds = info.get("round_ms").and_then(Json::as_arr).unwrap_or(&[]);
        report.round_ms = rounds.iter().filter_map(Json::as_f64).collect();
        Ok(report)
    }
}

/// Fold the untraced reports of the processes that measured one
/// workload. Every host-side metric takes its best reading across the
/// processes — the best round of any of them, since each process
/// reports its own best — and the quiet-round rule is applied to all
/// their rounds together. The simulated metrics must agree to the bit:
/// a process that simulated something else is a failed operation.
///
/// # Panics
/// Panics on an empty slice.
pub fn merge(reports: &[Report]) -> Report {
    let first = reports.first().expect("at least one process measured");
    let mut merged = Report {
        info: first.info.clone(),
        ..Report::default()
    };
    for r in reports {
        merged.attempted += r.attempted;
        merged.failed += r.failed;
        merged.round_ms.extend(&r.round_ms);
    }
    for d in &END_TO_END {
        let readings = reports.iter().map(|r| r.get(d.name));
        let best = match d.better {
            Better::Lower => readings.fold(f64::INFINITY, f64::min),
            Better::Higher => readings.fold(f64::NEG_INFINITY, f64::max),
        };
        merged.set(d.name, best);
        if d.exact {
            merged.attempted += 1;
            if reports
                .iter()
                .any(|r| r.get(d.name).to_bits() != best.to_bits())
            {
                merged.failed += 1;
                merged.note(
                    "first_failure",
                    format!("{} differs between processes at one seed", d.name),
                );
            }
        }
    }
    // A process's own first failure (already in `info` when it is the
    // first process's) outranks the disagreement note.
    let own = reports
        .iter()
        .find_map(|r| r.info.iter().find(|(k, _)| k == "first_failure"));
    if let Some((_, why)) = own {
        merged.note("first_failure", why.clone());
    }
    let planned = reports.len().min(PROCESSES) * first.round_ms.len();
    merged.note("processes", reports.len().to_string());
    merged.note("rounds", merged.round_ms.len().to_string());
    merged.note("quiet_rounds", quiet_among(&merged.round_ms).to_string());
    merged.note(
        "extra_rounds",
        merged.round_ms.len().saturating_sub(planned).to_string(),
    );
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `name` fits the contract: starts with a letter or digit,
    /// at most 64 of `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn keyword(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[test]
    fn names_use_the_contract_charset_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.0));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for bad in ["", "-x", ".x", "a b", "a/b", "ü", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name("9lives_ok.a-b"));
    }

    #[test]
    fn units_and_whys_fit_the_contract() {
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(unit_ok(d.unit), "{}: unit {:?}", d.name, d.unit);
        }
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|d| d.bound == 0.0));
    }

    #[test]
    fn benchmark_json_mirrors_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let check = |key: &str, defs: &[MetricDef], bounded: bool| {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (j, d) in listed.iter().zip(defs) {
                let s = |k: &str| j.get(k).and_then(Json::as_str).expect(k).to_string();
                assert_eq!(s("name"), d.name);
                assert_eq!(s("unit"), d.unit, "{}", d.name);
                assert_eq!(s("better"), keyword(d.better), "{}", d.name);
                let bound = j.get("bound").and_then(Json::as_f64);
                assert_eq!(bound, bounded.then_some(d.bound), "{}", d.name);
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", PER_LAYER, false);
        let listed = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (j, (name, why)) in listed.iter().zip(WORKLOADS) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(j.get("why").and_then(Json::as_str), Some(why));
        }
        let seconds = doc.get("run_seconds").and_then(Json::as_f64);
        assert_eq!(seconds, Some(crate::harness::DEFAULT_SECONDS));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 12,
            ..Report::default()
        };
        r.set("p50_ms", 1.25);
        let line = r.result_line(&END_TO_END);
        let doc = Json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_u64), Some(12));
        assert_eq!(doc.get("failed").and_then(Json::as_u64), Some(0));
        let m = doc.get("metrics").unwrap();
        for d in END_TO_END {
            let entry = m
                .get(d.name)
                .unwrap_or_else(|| panic!("{} missing", d.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(d.unit));
        }
        let p50 = m.get("p50_ms").and_then(|e| e.get("value"));
        assert_eq!(p50.and_then(Json::as_f64), Some(1.25));
        r.failed = 1;
        assert!(r.result_line(&END_TO_END).starts_with("{\"correct\":false"));
    }

    /// One process's untraced report: `p50` ms per round, the best first.
    fn process(p50: &[f64], rss: f64, sim: f64) -> Report {
        let mut r = Report {
            attempted: 10,
            round_ms: p50.to_vec(),
            ..Report::default()
        };
        r.set("setup_s", p50[0] / 10.0);
        r.set("work_per_s", 1e3 / p50[0]);
        r.set("p50_ms", p50[0]);
        r.set("peak_rss_mb", rss);
        r.set("sim_latency_us_per_query", sim);
        r.set("sim_energy_nj_per_query", 0.5);
        r.note("workload", "hdc-dispatch");
        r
    }

    #[test]
    fn printed_lines_parse_back_to_the_same_report() {
        let mut r = process(&[10.5, 10.75, 11.0], 8.125, 0.1 + 0.2);
        r.note("first_failure", "said \"no\"");
        let back = Report::parse(&r.info_line(), &r.result_line(&END_TO_END), &END_TO_END).unwrap();
        assert_eq!((back.attempted, back.failed), (10, 0));
        assert_eq!(back.round_ms, r.round_ms);
        // Info comes back in key order.
        r.info.sort();
        assert_eq!(back.info, r.info);
        for d in END_TO_END {
            assert_eq!(
                back.get(d.name).to_bits(),
                r.get(d.name).to_bits(),
                "{}",
                d.name
            );
        }
        assert!(Report::parse("{}", "{\"attempted\":1}", &END_TO_END).is_err());
        assert!(Report::parse("not json", "{}", &END_TO_END).is_err());
    }

    #[test]
    fn processes_fold_to_the_best_reading_of_each_metric() {
        // The second process ran every round 13 % slower and grew a
        // bigger heap; the third extends the run.
        let reports = [
            process(&[10.0, 10.2, 11.0], 8.2, 0.25),
            process(&[11.3, 11.4, 11.5], 9.0, 0.25),
            process(&[10.1, 10.6, 10.7], 8.1, 0.25),
        ];
        let m = merge(&reports);
        assert_eq!((m.attempted, m.failed), (30 + 2, 0));
        assert_eq!(m.get("p50_ms"), 10.0);
        assert_eq!(m.get("work_per_s"), 100.0);
        assert_eq!(m.get("setup_s"), 1.0);
        assert_eq!(m.get("peak_rss_mb"), 8.1);
        assert_eq!(m.get("sim_latency_us_per_query"), 0.25);
        assert_eq!(m.round_ms.len(), 9);
        let note = |k: &str| m.info.iter().find(|e| e.0 == k).map(|e| e.1.as_str());
        assert_eq!(note("quiet_rounds"), Some("3"), "10.0, 10.2 and 10.1");
        assert_eq!(note("extra_rounds"), Some("0"));
        assert_eq!(note("processes"), Some("3"));
        assert_eq!(note("workload"), Some("hdc-dispatch"));

        let extended = merge(&[&reports[..], &[process(&[9.9, 10.0, 10.0], 8.0, 0.25)]].concat());
        let note = |k: &str| extended.info.iter().find(|e| e.0 == k).map(|e| e.1.clone());
        assert_eq!(note("extra_rounds").as_deref(), Some("3"));
        assert_eq!(extended.get("p50_ms"), 9.9);
    }

    #[test]
    fn processes_that_simulate_different_work_fail_the_run() {
        let m = merge(&[
            process(&[10.0], 8.0, 0.25),
            process(&[10.0], 8.0, 0.25 + f64::EPSILON),
        ]);
        assert_eq!(m.failed, 1);
        let why = &m.info.iter().find(|e| e.0 == "first_failure").unwrap().1;
        assert!(why.contains("sim_latency_us_per_query"), "{why}");
    }
}
