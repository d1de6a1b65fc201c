//! The four workloads and the report plumbing they share.

pub mod scan;
pub mod serve;
pub mod sweep;

use crate::estimator::{tail, Estimate};
use crate::harness::{peak_rss_mb, Opts, Tally};
use crate::layers::{plane_bytes, DeviceOps, Lowered, RunFacts};
use crate::metrics::Report;
use crate::spans::{chain_self_times, SpanLog};
use c4cam::camsim::KernelTier;
use std::path::PathBuf;

/// Run workload `name` once (one pass: untraced, or traced under
/// `opts.trace`).
///
/// # Errors
/// Unknown names and failures that prevent measuring at all (wrong
/// outputs are counted in the report instead).
pub fn run(name: &str, opts: &Opts) -> Result<Report, String> {
    let mut report = match name {
        "knn-scan" => scan::run(scan::knn, opts),
        "hdc-dispatch" => scan::run(scan::hdc, opts),
        "dse-sweep" => sweep::run(opts),
        "serve-closed" => serve::run(opts),
        other => Err(format!("unknown workload '{other}'")),
    }?;
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    for (key, value) in [
        ("workload", name.to_string()),
        ("seed", opts.seed.to_string()),
        ("comparable", (!opts.quick).to_string()),
        ("backend", crate::layers::BACKEND.to_string()),
        ("threads", "1".to_string()),
        ("telemetry", "off".to_string()),
        ("kernel_tier", KernelTier::detect().keyword().to_string()),
        ("nproc", nproc.to_string()),
    ] {
        report.note(key, value);
    }
    Ok(report)
}

/// Close a pass's report with the operation tally and the input
/// fingerprint.
fn finish(mut report: Report, tally: Tally, input_hash: u64) -> Report {
    report.attempted = tally.attempted;
    report.failed = tally.failed;
    if let Some(why) = tally.first_failure {
        report.note("first_failure", why);
    }
    report.note("input_hash", format!("{input_hash:016x}"));
    report
}

/// This process's reading of the four host-side end-to-end metrics
/// (the simulated two are the workload's to set) and its rounds, for
/// `metrics::merge` to fold with the other processes'.
fn fill_end_to_end(report: &mut Report, setup: &Estimate, steady: &Estimate) {
    report.set("setup_s", setup.best_latency_s());
    report.set("work_per_s", steady.best_rate());
    report.set("p50_ms", steady.best_latency_s() * 1e3);
    report.set("peak_rss_mb", peak_rss_mb());
    report.round_ms = steady.rounds.iter().map(|r| r.latency_s * 1e3).collect();
}

/// The `bench.*` metrics describing the untraced reference measurement
/// of a traced pass.
fn fill_bench(report: &mut Report, reference: &Estimate, samples: &[f64], anchor_ms: f64) {
    let (pct, value) = tail(samples);
    report.set("bench.round_spread", reference.spread());
    report.set("bench.quiet_rounds", reference.quiet() as f64);
    report.set("bench.extra_rounds", reference.extra as f64);
    report.set("bench.samples", samples.len() as f64);
    report.set("bench.op_tail_ms", value * 1e3);
    report.set("bench.op_tail_pct", pct);
    report.set("bench.anchor_ms", anchor_ms);
}

/// `driver.compile` and its pieces, best-round medians per operation.
fn fill_compile_layers(report: &mut Report, log: &SpanLog) {
    for (metric, span) in [
        ("driver.compile_ms", "driver.compile"),
        ("workloads.build_module_ms", "workloads.build_module"),
        ("workloads.inputs_ms", "workloads.inputs"),
        ("core.place_ms", "core.place"),
        ("core.pipeline_ms", "core.pipeline"),
        ("hal.plan_compile_ms", "hal.plan_compile"),
        ("engine.tape_compile_ms", "engine.tape_compile"),
    ] {
        report.set(metric, log.best_ms(span));
    }
}

/// The run waterfall: each level, its self time, and the device
/// leaves. Returns the milliseconds the waterfall attributes (self
/// times plus leaves).
fn fill_run_layers(report: &mut Report, log: &SpanLog) -> f64 {
    let levels = [
        log.best_ms("driver.run"),
        log.best_ms("hal.execute"),
        log.best_ms("engine.tape_run"),
    ];
    let leaves = [
        ("camsim.machine_new_ms", log.best_ms("camsim.machine_new")),
        ("camsim.write_ms", log.best_ms("camsim.write")),
        ("camsim.search_ms", log.best_ms("camsim.search")),
    ];
    let leaf_sum: f64 = leaves.iter().map(|l| l.1).sum();
    let selfs = chain_self_times(&levels, leaf_sum);
    // The replayer runs the same device calls beside the chain.
    let replay = log.best_ms("engine.trace_replay");
    for (metric, value) in [
        ("driver.run_ms", levels[0]),
        ("hal.execute_ms", levels[1]),
        ("engine.tape_run_ms", levels[2]),
        ("driver.run_self_ms", selfs[0]),
        ("hal.execute_self_ms", selfs[1]),
        ("engine.vm_self_ms", selfs[2]),
        ("engine.trace_replay_ms", replay),
        ("engine.replay_self_ms", (replay - leaf_sum).max(0.0)),
    ]
    .into_iter()
    .chain(leaves)
    {
        report.set(metric, value);
    }
    selfs.iter().sum::<f64>() + leaf_sum
}

/// Exact counts of one operation (a sweep pass sums its grid points
/// with [`Counts::add`]), and the ratios of host time to them.
struct Counts {
    passes: u64,
    ir_ops: u64,
    tape_len: u64,
    trace_ops: u64,
    search_ops: u64,
    searched_words: u64,
    write_ops: u64,
    plane_bytes: u64,
}

impl Counts {
    fn of(lowered: &Lowered, dev: &DeviceOps, facts: &RunFacts) -> Counts {
        let total = &facts.outcome.total;
        Counts {
            passes: lowered.passes as u64,
            ir_ops: lowered.ir_ops as u64,
            tape_len: lowered.tape.len() as u64,
            trace_ops: dev.len() as u64,
            search_ops: total.search_ops,
            searched_words: total.searched_words,
            write_ops: total.write_ops,
            plane_bytes: plane_bytes(&lowered.spec, facts.active_rows),
        }
    }

    fn add(&mut self, other: &Counts) {
        self.passes += other.passes;
        self.ir_ops += other.ir_ops;
        self.tape_len += other.tape_len;
        self.trace_ops += other.trace_ops;
        self.search_ops += other.search_ops;
        self.searched_words += other.searched_words;
        self.write_ops += other.write_ops;
        self.plane_bytes += other.plane_bytes;
    }

    /// Set the count metrics and the per-count ratios (call after
    /// [`fill_run_layers`], whose timings the ratios divide).
    fn fill(&self, report: &mut Report) {
        for (metric, value) in [
            ("core.pipeline_passes", self.passes),
            ("ir.ops_after_lowering", self.ir_ops),
            ("engine.tape_len", self.tape_len),
            ("engine.trace_ops", self.trace_ops),
            ("camsim.search_ops", self.search_ops),
            ("camsim.searched_words", self.searched_words),
            ("camsim.write_ops", self.write_ops),
            ("camsim.plane_bytes_per_batch", self.plane_bytes),
        ] {
            report.set(metric, value as f64);
        }
        let search_ns = report.get("camsim.search_ms") * 1e6;
        report.set(
            "engine.vm_ns_per_device_op",
            report.get("engine.vm_self_ms") * 1e6 / self.trace_ops as f64,
        );
        report.set(
            "camsim.ns_per_searched_word",
            search_ns / self.searched_words as f64,
        );
        // bytes per nanosecond = GB/s
        report.set("camsim.plane_gbps", self.plane_bytes as f64 / search_ns);
    }
}

/// Write the traced pass's spans as Chrome-trace JSON under
/// `benchmark/out/`; the path goes on the info line.
fn write_trace(report: &mut Report, workload: &str, log: &SpanLog) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, log.chrome_trace()));
    let note = match written {
        Ok(()) => format!("{} ({} spans)", path.display(), log.spans().len()),
        Err(e) => format!("not written: {e}"),
    };
    report.note("chrome_trace", note);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::DEFAULT_SEED;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// The `--quick` smoke: one round, tiny op counts, both passes of
    /// the three workloads whose set-up is milliseconds (`knn-scan`
    /// shares `hdc-dispatch`'s code and takes ~6 s even in `--quick`).
    #[test]
    fn quick_runs_finish_fast_verify_everything_and_are_flagged() {
        let started = std::time::Instant::now();
        for name in ["hdc-dispatch", "dse-sweep", "serve-closed"] {
            for trace in [false, true] {
                let opts = Opts {
                    seed: DEFAULT_SEED,
                    seconds: 1.0,
                    trace,
                    quick: true,
                    bless: false,
                };
                let report = run(name, &opts).unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(report.attempted > 0, "{name}");
                assert_eq!(report.failed, 0, "{name}: {:?}", report.info);
                let flagged = report
                    .info
                    .iter()
                    .any(|(k, v)| k == "comparable" && v == "false");
                assert!(flagged, "{name}: {:?}", report.info);
                if trace {
                    let known = |m: &str| PER_LAYER.iter().any(|d| d.name == m);
                    assert!(report.values.keys().all(|m| known(m)), "{name}");
                    assert!(report.get("driver.run_ms") > 0.0, "{name}");
                    assert!(report.get("camsim.search_ops") > 0.0, "{name}");
                } else {
                    for d in END_TO_END {
                        assert!(report.get(d.name) > 0.0, "{name}: {} is never 0", d.name);
                    }
                }
            }
        }
        // ~5 s optimised; an unoptimised build's time says nothing.
        if !cfg!(debug_assertions) {
            assert!(started.elapsed().as_secs() < 30, "{:?}", started.elapsed());
        }
    }
}
