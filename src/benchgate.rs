//! **Perf-regression gate** (`c4cam bench-gate`): run the search/engine
//! microbenchmark workloads — and one that only builds and programs a
//! machine — in-process at short duration and compare against a
//! committed baseline, failing on significant regressions.
//!
//! The full `criterion` benches under `crates/bench` answer "how fast
//! is it"; this gate answers the CI question "did this change make it
//! slower" cheaply enough to run on every push. Wall-clock numbers are
//! not portable across hosts, so the baseline also records a
//! **calibration anchor** — a deterministic, CPU-bound scalar loop
//! measured at bless time and again at gate time. Each bench budget is
//! scaled by `anchor_now / anchor_baseline` (clamped to
//! [`SCALE_CLAMP`]) before the [`THRESHOLD`] comparison, absorbing
//! moderate host-speed differences while still catching real
//! slowdowns.
//!
//! Bless a new baseline with `UPDATE_BASELINE=1 c4cam bench-gate`.
//! `C4CAM_GATE_INJECT_SLOWDOWN=<factor>` multiplies the measured times
//! — it exists only to verify the gate actually trips.

use c4cam_arch::{ArchSpec, CamKind};
use c4cam_camsim::CamMachine;
use c4cam_core::dialects::{cim, torch};
use c4cam_core::pipeline::C4camPipeline;
use c4cam_engine::Tape;
use c4cam_ir::Module;
use c4cam_runtime::Value;
use c4cam_telemetry::json::Json;
use c4cam_tensor::Tensor;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Relative slowdown that fails the gate: measured time may be at most
/// 25% over the (host-scaled) baseline.
pub const THRESHOLD: f64 = 1.25;

/// Clamp on the anchor-derived host-speed scale. A ratio outside this
/// range means the hosts are too dissimilar for wall-clock comparison;
/// clamping keeps the gate conservative instead of silently lax.
pub const SCALE_CLAMP: (f64, f64) = (0.25, 4.0);

/// Arguments of `c4cam bench-gate`.
#[derive(Debug, Clone)]
pub struct BenchGateArgs {
    /// Path of the committed baseline JSON.
    pub baseline: String,
    /// Short CI mode: smaller measurement window per bench.
    pub short: bool,
    /// Optional path to write the measurement report JSON (artifact).
    pub out: Option<String>,
}

/// One measured workload.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Bench name (stable across runs; the baseline key).
    pub name: String,
    /// Mean wall-clock nanoseconds per iteration.
    pub ns_per_iter: f64,
}

/// Committed reference numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Calibration-anchor time on the bless host, ns per run.
    pub anchor_ns: f64,
    /// Bench name → ns per iteration on the bless host.
    pub benches: Vec<(String, f64)>,
}

/// Per-bench gate verdict.
#[derive(Debug, Clone)]
pub struct GateRow {
    /// Bench name.
    pub name: String,
    /// Measured ns/iter on this host.
    pub measured_ns: f64,
    /// Host-scaled budget (baseline × scale × threshold), ns.
    pub budget_ns: f64,
    /// measured / (baseline × scale); > [`THRESHOLD`] fails.
    pub ratio: f64,
    /// Whether this bench passed.
    pub pass: bool,
}

/// The full gate outcome: rows plus the anchor-derived scale.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Host-speed scale actually applied (after clamping).
    pub scale: f64,
    /// Per-bench verdicts, in measurement order.
    pub rows: Vec<GateRow>,
}

impl GateOutcome {
    /// Whether every bench passed.
    pub fn pass(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }
}

/// Compare measurements against a baseline. Benches missing from the
/// baseline fail (ratio ∞): a new workload must be blessed before it
/// can gate.
pub fn evaluate(baseline: &Baseline, measured: &[Measurement], anchor_now_ns: f64) -> GateOutcome {
    let raw_scale = if baseline.anchor_ns > 0.0 {
        anchor_now_ns / baseline.anchor_ns
    } else {
        1.0
    };
    let scale = raw_scale.clamp(SCALE_CLAMP.0, SCALE_CLAMP.1);
    let rows = measured
        .iter()
        .map(|m| {
            let base = baseline
                .benches
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, ns)| ns);
            match base {
                Some(ns) if ns > 0.0 => {
                    let budget = ns * scale * THRESHOLD;
                    let ratio = m.ns_per_iter / (ns * scale);
                    GateRow {
                        name: m.name.clone(),
                        measured_ns: m.ns_per_iter,
                        budget_ns: budget,
                        ratio,
                        pass: ratio <= THRESHOLD,
                    }
                }
                _ => GateRow {
                    name: m.name.clone(),
                    measured_ns: m.ns_per_iter,
                    budget_ns: 0.0,
                    ratio: f64::INFINITY,
                    pass: false,
                },
            }
        })
        .collect();
    GateOutcome { scale, rows }
}

/// Serialize a baseline/report document. The same shape serves both
/// the committed baseline and the `--out` artifact.
pub fn to_json(anchor_ns: f64, benches: &[Measurement]) -> String {
    let mut body = String::from("{\n");
    let _ = writeln!(body, "  \"version\": 1,");
    let _ = writeln!(body, "  \"threshold\": {THRESHOLD},");
    let _ = writeln!(body, "  \"anchor_ns\": {anchor_ns:.1},");
    body.push_str("  \"benches\": {\n");
    for (i, m) in benches.iter().enumerate() {
        let comma = if i + 1 == benches.len() { "" } else { "," };
        let _ = writeln!(body, "    \"{}\": {:.1}{comma}", m.name, m.ns_per_iter);
    }
    body.push_str("  }\n}\n");
    body
}

/// Parse a baseline document written by [`to_json`].
///
/// # Errors
/// Fails on malformed JSON or missing/mistyped fields.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let root = Json::parse(text).map_err(|e| format!("baseline JSON: {e}"))?;
    let anchor_ns = root
        .get("anchor_ns")
        .and_then(Json::as_f64)
        .ok_or("baseline JSON: missing numeric 'anchor_ns'")?;
    let benches = match root.get("benches") {
        Some(Json::Obj(map)) => map
            .iter()
            .map(|(name, v)| {
                v.as_f64()
                    .map(|ns| (name.clone(), ns))
                    .ok_or_else(|| format!("baseline JSON: bench '{name}' is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("baseline JSON: missing 'benches' object".to_string()),
    };
    Ok(Baseline { anchor_ns, benches })
}

/// Time `f`: one warm-up call, then iterate until `window` elapses
/// (at least two timed iterations). Returns mean ns per iteration.
fn measure_ns(window: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut iters = 0u64;
    loop {
        f();
        iters += 1;
        if (start.elapsed() >= window && iters >= 2) || iters >= 1_000_000 {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The calibration anchor: a deterministic, dependency-chained scalar
/// integer loop. Not vectorizable, no memory traffic — it tracks the
/// host's scalar clock, which is the right denominator for comparing
/// wall-clock budgets across machines.
fn anchor_run() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    acc
}

const QUERIES: usize = 1024;
const PATTERNS: usize = 256;
const DIMS: usize = 512;

/// MCAM-quantized synthetic kNN data (same generator as the
/// `search_micro` criterion bench): levels 0..=3.
fn knn_inputs() -> (Tensor, Tensor) {
    let mut stored = Vec::with_capacity(PATTERNS * DIMS);
    for p in 0..PATTERNS {
        for d in 0..DIMS {
            stored.push(((p * 7 + d * 3) % 4) as f32);
        }
    }
    let mut queries = Vec::with_capacity(QUERIES * DIMS);
    for q in 0..QUERIES {
        let base = q % PATTERNS;
        for d in 0..DIMS {
            let jitter = u8::from(d % 97 == q % 97);
            queries.push((((base * 7 + d * 3) % 4) as u8 + jitter).min(3) as f32);
        }
    }
    (
        Tensor::from_vec(vec![PATTERNS, DIMS], stored).expect("knn stored"),
        Tensor::from_vec(vec![QUERIES, DIMS], queries).expect("knn queries"),
    )
}

/// Bit `d` of HDC class vector `class` (same generator as
/// `search_micro`).
fn hdc_class_bit(class: usize, d: usize) -> u8 {
    u8::from((d * 7 + class * 3) % 5 < 2)
}

/// Binary HDC class/query data.
fn hdc_inputs(classes: usize, dims: usize) -> (Tensor, Tensor) {
    let mut stored = Vec::with_capacity(classes * dims);
    for c in 0..classes {
        for d in 0..dims {
            stored.push(f32::from(hdc_class_bit(c, d)));
        }
    }
    let mut queries = Vec::with_capacity(QUERIES * dims);
    for q in 0..QUERIES {
        let class = q % classes;
        for d in 0..dims {
            let base = hdc_class_bit(class, d);
            let flip = u8::from(d % 89 == q % 89 && d % 7 == 0);
            queries.push(f32::from(base ^ flip));
        }
    }
    (
        Tensor::from_vec(vec![classes, dims], stored).expect("hdc stored"),
        Tensor::from_vec(vec![QUERIES, dims], queries).expect("hdc queries"),
    )
}

struct GateBench {
    name: String,
    run_once: Box<dyn Fn()>,
}

impl GateBench {
    /// One batch of `tape` on a fresh machine.
    fn tape(name: String, spec: ArchSpec, tape: Tape, args: Vec<Value>) -> GateBench {
        let run_once = move || {
            let mut machine = CamMachine::new(&spec);
            tape.run(&mut machine, &args).expect("gate bench run");
        };
        GateBench {
            name,
            run_once: Box::new(run_once),
        }
    }
}

/// Machine construction + programming with no search behind it: the
/// paper's HDC geometry (10 class vectors × 8192 dims, Fig. 8/9) on
/// 64 × 64 subarrays — 128 of them, 10 rows each — through the public
/// `alloc_*` + `write_rows` calls a design-space sweep makes per point.
fn program_hdc_bench() -> Result<GateBench, String> {
    const CLASSES: usize = 10;
    const HDC_DIMS: usize = 8192;
    const SIDE: usize = 64;
    let spec = ArchSpec::builder()
        .subarray(SIDE, SIDE)
        .hierarchy(4, 4, 8)
        .build()
        .map_err(|e| format!("program spec: {e}"))?;
    let chunks: Vec<Vec<Vec<f32>>> = (0..HDC_DIMS / SIDE)
        .map(|chunk| {
            let dims = chunk * SIDE..(chunk + 1) * SIDE;
            (0..CLASSES)
                .map(|class| {
                    let bit = |d| f32::from(hdc_class_bit(class, d));
                    dims.clone().map(bit).collect()
                })
                .collect()
        })
        .collect();
    let run_once = move || {
        let mut machine = CamMachine::new(&spec);
        let bank = machine.alloc_bank().expect("bank");
        let mut chunks = chunks.iter();
        for _ in 0..4 {
            let mat = machine.alloc_mat(bank).expect("mat");
            for _ in 0..4 {
                let array = machine.alloc_array(mat).expect("array");
                for rows in chunks.by_ref().take(8) {
                    let sub = machine.alloc_subarray(array).expect("subarray");
                    machine.write_rows(sub, 0, rows).expect("program");
                }
            }
        }
        assert_eq!(machine.stats().write_ops, (HDC_DIMS / SIDE) as u64);
        std::hint::black_box(machine.heap_bytes());
    };
    Ok(GateBench {
        name: "program-hdc".to_string(),
        run_once: Box::new(run_once),
    })
}

/// Build the gated workloads: the `search_micro` kNN/HDC packed
/// batches, the `engine_micro` tape batch, and machine programming.
fn build_benches() -> Result<Vec<GateBench>, String> {
    let mut benches = Vec::new();

    // kNN: Euclidean over 2-bit MCAM cells (exact-integer kernel).
    let knn_spec = ArchSpec::builder()
        .subarray(128, 128)
        .hierarchy(2, 2, 4)
        .bits_per_cell(2)
        .cam_kind(CamKind::Mcam)
        .build()
        .map_err(|e| format!("knn spec: {e}"))?;
    let mut m = Module::new();
    cim::build_similarity_kernel(
        &mut m,
        "knn",
        "eucl",
        PATTERNS as i64,
        DIMS as i64,
        QUERIES as i64,
        1,
        false,
    );
    let knn = C4camPipeline::new(knn_spec.clone())
        .compile(m)
        .map_err(|e| format!("knn compile: {e}"))?;
    let (stored, queries) = knn_inputs();
    benches.push(GateBench::tape(
        format!("knn-packed/{QUERIES}q"),
        knn_spec,
        Tape::compile(&knn.module, "knn").map_err(|e| format!("knn tape: {e}"))?,
        vec![Value::Tensor(stored), Value::Tensor(queries)],
    ));

    // HDC: dot metric over TCAM bits (XOR/popcount kernel).
    let hdc_spec = ArchSpec::builder()
        .subarray(64, 64)
        .hierarchy(2, 2, 4)
        .build()
        .map_err(|e| format!("hdc spec: {e}"))?;
    let mut m = Module::new();
    torch::build_hdc_dot_with(&mut m, QUERIES as i64, 64, 512, 1, true);
    let hdc = C4camPipeline::new(hdc_spec.clone())
        .compile(m)
        .map_err(|e| format!("hdc compile: {e}"))?;
    let (stored, queries) = hdc_inputs(64, 512);
    benches.push(GateBench::tape(
        format!("hdc-packed/{QUERIES}q"),
        hdc_spec,
        Tape::compile(&hdc.module, "forward").map_err(|e| format!("hdc tape: {e}"))?,
        vec![Value::Tensor(queries), Value::Tensor(stored)],
    ));

    // Engine: the tape VM on the small-subarray HDC batch — this is
    // the workload where per-op overheads (allocation, dispatch)
    // dominate over kernel time, so it guards the zero-alloc paths.
    let eng_spec = ArchSpec::builder()
        .subarray(16, 16)
        .hierarchy(2, 2, 4)
        .build()
        .map_err(|e| format!("engine spec: {e}"))?;
    let mut m = Module::new();
    torch::build_hdc_dot_with(&mut m, QUERIES as i64, 8, 256, 1, true);
    let eng = C4camPipeline::new(eng_spec.clone())
        .compile(m)
        .map_err(|e| format!("engine compile: {e}"))?;
    let (stored, queries) = hdc_inputs(8, 256);
    benches.push(GateBench::tape(
        format!("engine-tape/{QUERIES}q"),
        eng_spec,
        Tape::compile(&eng.module, "forward").map_err(|e| format!("engine tape: {e}"))?,
        vec![Value::Tensor(queries), Value::Tensor(stored)],
    ));

    benches.push(program_hdc_bench()?);
    Ok(benches)
}

fn format_report(outcome: &GateOutcome, anchor_now: f64, baseline_anchor: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench gate: anchor {:.2} ms now vs {:.2} ms at bless (scale {:.3})",
        anchor_now / 1e6,
        baseline_anchor / 1e6,
        outcome.scale
    );
    for r in &outcome.rows {
        let verdict = if r.pass { "ok  " } else { "FAIL" };
        let _ = writeln!(
            out,
            "  {verdict} {:<24} {:>10.2} ms/iter  budget {:>10.2} ms  ratio {:.3}",
            r.name,
            r.measured_ns / 1e6,
            r.budget_ns / 1e6,
            r.ratio
        );
    }
    out
}

/// Run the gate end to end.
///
/// # Errors
/// Fails on build/measure errors, an unreadable baseline, or — the
/// point of the command — a perf regression beyond [`THRESHOLD`].
pub fn run_bench_gate(args: &BenchGateArgs) -> Result<String, String> {
    let window = if args.short {
        Duration::from_millis(40)
    } else {
        Duration::from_millis(250)
    };
    let inject: f64 = match std::env::var("C4CAM_GATE_INJECT_SLOWDOWN") {
        Ok(v) => v
            .parse()
            .ok()
            .filter(|f: &f64| f.is_finite() && *f > 0.0)
            .ok_or_else(|| format!("C4CAM_GATE_INJECT_SLOWDOWN: invalid factor '{v}'"))?,
        Err(_) => 1.0,
    };

    let benches = build_benches()?;
    let anchor_now = measure_ns(Duration::from_millis(30), || {
        std::hint::black_box(anchor_run());
    });
    let measured: Vec<Measurement> = benches
        .iter()
        .map(|b| Measurement {
            name: b.name.clone(),
            ns_per_iter: measure_ns(window, &b.run_once) * inject,
        })
        .collect();

    if let Some(path) = &args.out {
        std::fs::write(path, to_json(anchor_now, &measured))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }

    if std::env::var("UPDATE_BASELINE").as_deref() == Ok("1") {
        std::fs::write(&args.baseline, to_json(anchor_now, &measured))
            .map_err(|e| format!("writing {}: {e}", args.baseline))?;
        let mut out = format!("bench gate: baseline blessed to {}\n", args.baseline);
        for m in &measured {
            let _ = writeln!(
                out,
                "  {:<24} {:>10.2} ms/iter",
                m.name,
                m.ns_per_iter / 1e6
            );
        }
        return Ok(out);
    }

    let text = std::fs::read_to_string(&args.baseline).map_err(|e| {
        format!(
            "reading baseline {}: {e}\n(bless one with UPDATE_BASELINE=1 c4cam bench-gate)",
            args.baseline
        )
    })?;
    let baseline = parse_baseline(&text)?;
    let outcome = evaluate(&baseline, &measured, anchor_now);
    let report = format_report(&outcome, anchor_now, baseline.anchor_ns);
    if outcome.pass() {
        Ok(report + "bench gate: PASS\n")
    } else {
        Err(report + "bench gate: FAIL (regression beyond the 25% budget)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Baseline {
        Baseline {
            anchor_ns: 1000.0,
            benches: vec![("a".to_string(), 100.0), ("b".to_string(), 200.0)],
        }
    }

    fn m(name: &str, ns: f64) -> Measurement {
        Measurement {
            name: name.to_string(),
            ns_per_iter: ns,
        }
    }

    #[test]
    fn gate_passes_within_budget_and_fails_beyond_it() {
        let out = evaluate(&baseline(), &[m("a", 120.0), m("b", 200.0)], 1000.0);
        assert_eq!(out.scale, 1.0);
        assert!(out.pass(), "{out:?}");
        let out = evaluate(&baseline(), &[m("a", 126.0)], 1000.0);
        assert!(!out.pass(), "26% over must fail: {out:?}");
        // The acceptance check: an injected 2x slowdown trips the gate.
        let out = evaluate(&baseline(), &[m("a", 200.0), m("b", 400.0)], 1000.0);
        assert!(out.rows.iter().all(|r| !r.pass), "{out:?}");
    }

    #[test]
    fn anchor_scale_absorbs_host_speed_but_is_clamped() {
        // Host is 2x slower than the bless host: 2x the wall clock
        // still passes because the anchor scaled the budget.
        let out = evaluate(&baseline(), &[m("a", 200.0)], 2000.0);
        assert_eq!(out.scale, 2.0);
        assert!(out.pass(), "{out:?}");
        // A 100x anchor ratio is not believable; the scale clamps at
        // 4x and the comparison stays conservative.
        let out = evaluate(&baseline(), &[m("a", 100_000.0)], 100_000.0);
        assert_eq!(out.scale, SCALE_CLAMP.1);
        assert!(!out.pass(), "{out:?}");
    }

    #[test]
    fn benches_missing_from_the_baseline_fail() {
        let out = evaluate(&baseline(), &[m("new-bench", 1.0)], 1000.0);
        assert!(!out.pass());
        assert!(out.rows[0].ratio.is_infinite());
    }

    #[test]
    fn baseline_json_round_trips() {
        let doc = to_json(
            12345.6,
            &[m("knn-packed/1024q", 1e6), m("hdc-packed/1024q", 2e6)],
        );
        let parsed = parse_baseline(&doc).unwrap();
        assert!((parsed.anchor_ns - 12345.6).abs() < 0.1);
        assert_eq!(parsed.benches.len(), 2);
        let knn = parsed
            .benches
            .iter()
            .find(|(n, _)| n == "knn-packed/1024q")
            .unwrap();
        assert!((knn.1 - 1e6).abs() < 0.1);
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        assert!(parse_baseline("{").is_err());
        assert!(parse_baseline("{}").is_err());
        assert!(parse_baseline(r#"{"anchor_ns": 1.0}"#).is_err());
        assert!(parse_baseline(r#"{"anchor_ns": 1.0, "benches": {"a": "x"}}"#).is_err());
    }
}
