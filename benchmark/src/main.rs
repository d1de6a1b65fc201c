//! `c4cam-benchmark` — the repository's one repeatable benchmark, kernel
//! to socket. See `README.md` beside this package.
//!
//! ```text
//! c4cam-benchmark run       [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--bless]
//! c4cam-benchmark selfcheck [--seed N] [--seconds S] [--trace] [--quick]
//! c4cam-benchmark measure   --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--bless]
//! ```
//!
//! `run` measures every workload (or the one `--workload` names). This
//! process only orchestrates: the untraced pass of a workload is spread
//! over several `measure` child processes and folded (`metrics::merge`),
//! the traced pass runs in one, so `peak_rss_mb` is always a workload's
//! own. With `--workload W --trace 0|1` — the benchmark driver's
//! invocation — the contract's result line is printed last (`--trace 1`:
//! the per-layer metrics of the traced pass; `--trace 0`: the end-to-end
//! metrics); otherwise one JSON document covers the suite, and a bare
//! `--trace` adds the traced pass after the untraced one. `measure` is
//! one process's share: one workload, one pass, measured right here.
//! `selfcheck` runs the suite twice and holds the two runs against the
//! benchmark's own bounds.

mod estimator;
mod expected;
mod harness;
mod layers;
mod metrics;
mod spans;
mod workloads;

use c4cam::telemetry::json::{num_f64, string};
use estimator::{quiet_among, MAX_EXTRA_PROCESSES, MIN_QUIET, PROCESSES};
use harness::{Opts, DEFAULT_SECONDS, DEFAULT_SEED};
use metrics::{merge, MetricDef, Report, END_TO_END, PER_LAYER, WORKLOADS};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  c4cam-benchmark run       [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick] [--bless]
  c4cam-benchmark selfcheck [--seed N] [--seconds S] [--trace] [--quick]
  c4cam-benchmark measure   --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--bless]

workloads: knn-scan, hdc-dispatch, dse-sweep, serve-closed (default: all)
  --seed N      seed of the generated inputs (default 1; pinned statistics are checked at 1 only)
  --seconds S   measured seconds per workload and pass (default 15)
  --trace       also run the traced pass (per-layer metrics); `--trace 1` runs only it
  --quick       one process, one round, tiny op counts, a few seconds; output flagged \"comparable\": false
  --bless       rewrite expected/<workload>.json from this run
`measure` is one process's share of `run` (one workload, one pass, in this process).";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Run,
    Selfcheck,
    Measure,
}

#[derive(Debug, PartialEq)]
struct Cli {
    mode: Mode,
    workload: Option<String>,
    opts: Opts,
    /// A bare `--trace`: the traced pass after the untraced one.
    both_passes: bool,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut it = args.iter().peekable();
    let mode = match it.next().map(String::as_str) {
        Some("run") => Mode::Run,
        Some("selfcheck") => Mode::Selfcheck,
        Some("measure") => Mode::Measure,
        Some(other) => return Err(format!("unknown command '{other}'")),
        None => return Err("missing command".into()),
    };
    let mut cli = Cli {
        mode,
        workload: None,
        opts: Opts {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            quick: false,
            bless: false,
        },
        both_passes: false,
    };
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} expects {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.iter().any(|(name, _)| *name == w) {
                    return Err(format!("unknown workload '{w}'"));
                }
                cli.workload = Some(w);
            }
            "--seed" => {
                cli.opts.seed = value("an integer")?
                    .parse()
                    .map_err(|_| "--seed expects a non-negative integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds expects a number".to_string())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds expects a positive number".into());
                }
                cli.opts.seconds = s;
            }
            "--trace" => {
                (cli.opts.trace, cli.both_passes) = match it.peek().map(|s| s.as_str()) {
                    Some("0") => (false, false),
                    Some("1") => (true, false),
                    _ => (true, true),
                };
                if !cli.both_passes {
                    it.next();
                }
            }
            "--quick" => cli.opts.quick = true,
            "--bless" => cli.opts.bless = true,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    match cli.mode {
        Mode::Selfcheck if cli.workload.is_some() || cli.opts.bless => {
            Err("selfcheck takes neither --workload nor --bless".into())
        }
        Mode::Measure if cli.workload.is_none() || cli.both_passes => {
            Err("measure takes --workload and one pass (--trace 0 or --trace 1)".into())
        }
        _ => Ok(cli),
    }
}

fn defs(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Print `report` as the info line, then the contract's result line;
/// whether every operation succeeded.
fn print_lines(workload: &str, report: &Report, trace: bool) -> bool {
    println!("{}", report.info_line());
    println!("{}", report.result_line(defs(trace)));
    if !report.correct() {
        eprintln!(
            "{workload}: {} of {} operations failed",
            report.failed, report.attempted
        );
    }
    report.correct()
}

/// Measure one pass of `workload` in a `measure` child of this
/// executable.
fn spawn_measure(workload: &str, opts: &Opts) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["measure", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    if opts.bless {
        cmd.arg("--bless");
    }
    // stderr is inherited: the child's diagnostics reach the user.
    let out = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(info)) = (lines.next(), lines.next()) else {
        return Err(format!(
            "{workload}: the child printed no result ({})",
            out.status
        ));
    };
    let report = Report::parse(info, result, defs(opts.trace))
        .map_err(|e| format!("{workload}: child output: {e}"))?;
    if out.status.success() != report.correct() {
        return Err(format!(
            "{workload}: the child's result and its {} disagree",
            out.status
        ));
    }
    Ok(report)
}

/// Measure one pass of `workload`. The traced pass runs in one child
/// process. The untraced pass is spread over [`PROCESSES`] children
/// (one under `--quick`), each given its share of the seconds, and
/// folded; while fewer than [`MIN_QUIET`] of all their rounds are
/// quiet, up to [`MAX_EXTRA_PROCESSES`] more are added.
fn measure_workload(workload: &str, opts: &Opts) -> Result<Report, String> {
    if opts.trace {
        return spawn_measure(workload, opts);
    }
    let (processes, max_extra) = if opts.quick {
        (1, 0)
    } else {
        (PROCESSES, MAX_EXTRA_PROCESSES)
    };
    let share = Opts {
        seconds: opts.seconds / processes as f64,
        ..*opts
    };
    let mut reports = Vec::new();
    for _ in 0..processes {
        reports.push(spawn_measure(workload, &share)?);
    }
    let mut merged = merge(&reports);
    while quiet_among(&merged.round_ms) < MIN_QUIET && reports.len() < processes + max_extra {
        reports.push(spawn_measure(workload, &share)?);
        merged = merge(&reports);
    }
    Ok(merged)
}

/// One workload's entry of the suite document: a metric per line.
fn render_workload(untraced: &Report, traced: Option<&Report>) -> String {
    let block =
        |entries: Vec<String>| format!("{{\n        {}\n      }}", entries.join(",\n        "));
    let mut fields = vec![
        format!(
            "\"correct\": {}",
            untraced.correct() && traced.is_none_or(Report::correct)
        ),
        format!("\"attempted\": {}", untraced.attempted),
        format!("\"failed\": {}", untraced.failed),
        format!("\"info\": {{{}}}", untraced.info_entries().join(",")),
        format!(
            "\"metrics\": {}",
            block(untraced.metric_entries(&END_TO_END))
        ),
    ];
    if let Some(t) = traced {
        fields.extend([
            format!("\"traced_attempted\": {}", t.attempted),
            format!("\"traced_failed\": {}", t.failed),
            format!("\"traced_info\": {{{}}}", t.info_entries().join(",")),
            format!("\"layers\": {}", block(t.metric_entries(PER_LAYER))),
        ]);
    }
    format!("{{\n      {}\n    }}", fields.join(",\n      "))
}

/// Measure every selected workload and print the suite document.
fn run_suite(cli: &Cli) -> Result<bool, String> {
    let mut all_ok = true;
    let mut entries = Vec::new();
    for (name, _) in WORKLOADS {
        if cli.workload.as_deref().is_some_and(|w| w != name) {
            continue;
        }
        eprintln!("[{name}] untraced pass ...");
        let untraced = measure_workload(
            name,
            &Opts {
                trace: false,
                ..cli.opts
            },
        )?;
        let traced = if cli.opts.trace {
            eprintln!("[{name}] traced pass ...");
            Some(measure_workload(name, &cli.opts)?)
        } else {
            None
        };
        all_ok &= untraced.correct() && traced.as_ref().is_none_or(Report::correct);
        entries.push(format!(
            "    {}: {}",
            string(name),
            render_workload(&untraced, traced.as_ref())
        ));
    }
    println!(
        "{{\n  \"schema\": \"c4cam-benchmark/1\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"comparable\": {},\n  \"correct\": {all_ok},\n  \"workloads\": {{\n{}\n  }}\n}}",
        cli.opts.seed,
        num_f64(cli.opts.seconds),
        !cli.opts.quick,
        entries.join(",\n")
    );
    Ok(all_ok)
}

/// Relative disagreement of two readings of a metric, as a share of
/// the first.
fn disagreement(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs()
    }
}

/// Whether readings `a` and `b` of `def` agree: to the bit when the
/// metric is exact, within its bound when it has one; unbounded layer
/// timings are printed but never fail the check.
fn agrees(def: &MetricDef, a: f64, b: f64) -> bool {
    if def.exact {
        a.to_bits() == b.to_bits()
    } else {
        def.bound == 0.0 || disagreement(a, b) <= def.bound
    }
}

/// The repeatability acceptance test: the suite twice, side by side.
fn selfcheck(cli: &Cli) -> Result<bool, String> {
    let mut all_ok = true;
    let mut passes = vec![false];
    if cli.opts.trace {
        passes.push(true);
    }
    println!(
        "{:<14} {:<30} {:>16} {:>16} {:>9} {:>8}  verdict",
        "workload", "metric", "run 1", "run 2", "diff", "bound"
    );
    for (name, _) in WORKLOADS {
        for &trace in &passes {
            let opts = Opts { trace, ..cli.opts };
            eprintln!(
                "[{name}] {} pass, twice ...",
                if trace { "traced" } else { "untraced" }
            );
            let (a, b) = (
                measure_workload(name, &opts)?,
                measure_workload(name, &opts)?,
            );
            if !(a.correct() && b.correct()) {
                println!(
                    "{name:<14} operations failed (run 1: {} of {}, run 2: {} of {})",
                    a.failed, a.attempted, b.failed, b.attempted
                );
                all_ok = false;
            }
            for def in defs(trace) {
                let (x, y) = (a.get(def.name), b.get(def.name));
                let ok = agrees(def, x, y);
                all_ok &= ok;
                let bound = if def.exact {
                    "exact".to_string()
                } else if def.bound > 0.0 {
                    format!("{:.0}%", def.bound * 100.0)
                } else {
                    "-".to_string()
                };
                println!(
                    "{name:<14} {:<30} {x:>16.6} {y:>16.6} {:>8.2}% {bound:>8}  {}",
                    def.name,
                    disagreement(x, y) * 100.0,
                    if ok { "ok" } else { "DISAGREE" }
                );
            }
        }
    }
    println!("selfcheck: {}", if all_ok { "PASS" } else { "FAIL" });
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (cli.mode, cli.workload.as_deref()) {
        (Mode::Measure, workload) => {
            let workload = workload.expect("parse_args rejects measure without --workload");
            workloads::run(workload, &cli.opts)
                .map(|report| print_lines(workload, &report, cli.opts.trace))
        }
        // The driver names one workload and one pass per invocation.
        (Mode::Run, Some(workload)) if !cli.both_passes => measure_workload(workload, &cli.opts)
            .map(|report| print_lines(workload, &report, cli.opts.trace)),
        (Mode::Run, _) => run_suite(&cli),
        (Mode::Selfcheck, _) => selfcheck(&cli),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_invocation_selects_one_workload_and_one_pass() {
        let tail = [
            "--workload",
            "hdc-dispatch",
            "--seed",
            "7",
            "--seconds",
            "15",
        ];
        let untraced = parse(&[&["run"], &tail[..], &["--trace", "0"]].concat()).unwrap();
        assert_eq!(untraced.workload.as_deref(), Some("hdc-dispatch"));
        assert_eq!((untraced.opts.seed, untraced.opts.seconds), (7, 15.0));
        assert!(!untraced.opts.trace && !untraced.both_passes);
        let traced = parse(&[&["run"], &tail[..], &["--trace", "1"]].concat()).unwrap();
        assert!(traced.opts.trace && !traced.both_passes);
        // One process's share takes the same flags.
        let share = parse(&[&["measure"], &tail[..], &["--trace", "0"]].concat()).unwrap();
        assert_eq!(share.mode, Mode::Measure);
        assert_eq!(share.opts, untraced.opts);
    }

    #[test]
    fn a_bare_trace_flag_asks_for_both_passes() {
        let cli = parse(&["run", "--trace", "--quick"]).unwrap();
        assert!(cli.opts.trace && cli.both_passes && cli.opts.quick);
        assert_eq!(cli.opts.seed, DEFAULT_SEED);
        assert!(parse(&["run", "--trace"]).unwrap().both_passes);
    }

    #[test]
    fn bad_invocations_are_usage_errors() {
        for bad in [
            &[][..],
            &["measure"],
            &["run", "--workload", "nope"],
            &["run", "--seed", "-1"],
            &["run", "--seconds", "0"],
            &["run", "--seconds"],
            &["run", "--fast"],
            &["selfcheck", "--workload", "knn-scan"],
            &["selfcheck", "--bless"],
            &["measure"],
            &["measure", "--workload", "knn-scan", "--trace"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn selfcheck_holds_exact_metrics_to_the_bit_and_timings_to_their_bound() {
        let p50 = END_TO_END.iter().find(|d| d.name == "p50_ms").unwrap();
        assert!(agrees(p50, 10.0, 10.0 * (1.0 + p50.bound) - 1e-9));
        assert!(!agrees(p50, 10.0, 10.0 * (1.0 + p50.bound) + 1e-6));
        let sim = END_TO_END.iter().find(|d| d.exact).unwrap();
        assert!(agrees(sim, 0.25, 0.25));
        assert!(!agrees(sim, 0.25, 0.25 + f64::EPSILON));
        // Unbounded layer timings are shown, never failed; exact layer
        // counts are held to the bit.
        let layer = PER_LAYER
            .iter()
            .find(|d| d.name == "driver.run_ms")
            .unwrap();
        assert!(agrees(layer, 1.0, 5.0));
        let count = PER_LAYER
            .iter()
            .find(|d| d.name == "engine.tape_len")
            .unwrap();
        assert!(agrees(count, 81.0, 81.0) && !agrees(count, 81.0, 82.0));
        assert_eq!(disagreement(2.0, 2.5), 0.25);
    }
}
