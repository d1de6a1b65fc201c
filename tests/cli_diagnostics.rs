//! Process-level regression tests for the `c4cam` binary's diagnostic
//! contract: reports on stdout, errors on stderr, exit code 2 for
//! usage errors (rejected at parse time) and 1 for execution failures.

use std::process::{Command, Output};

fn c4cam(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_c4cam"))
        .args(args)
        .output()
        .expect("spawn c4cam")
}

fn fixture_path() -> String {
    concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/mini-mnist").to_string()
}

#[test]
fn usage_errors_exit_2_with_stderr_only() {
    for args in [
        vec!["frobnicate"],
        vec![],
        vec!["run", "--arch", "a", "--source", "s", "--threads", "0"],
        vec!["sweep", "--bits", "9"],
        vec!["accuracy"],
        vec!["accuracy", "--dataset", "d", "--fault-rate", "1.5"],
        vec!["accuracy", "--dataset", "d", "--engine", "nonsense"],
        vec!["sweep", "--spare-rows", "2"],
        // A flag the command does not read, and a bad keyword.
        "place --arch a --stored-rows 10 --dims 64 --engine walk"
            .split(' ')
            .collect(),
        vec!["accuracy", "--dataset", "d", "--workload", "bogus"],
        // `run` always lowers to the cam stage; it has no `--emit`.
        vec!["run", "--arch", "a", "--source", "s", "--emit", "cim"],
        // A retired engine name is an unknown one.
        vec!["run", "--dataset", "d", "--engine", "trace"],
        // So is the retired admission timer.
        vec!["serve", "--dataset", "d", "--linger-ms", "2"],
    ] {
        let out = c4cam(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

#[test]
fn execution_failures_exit_1_with_stderr_only() {
    // Valid flags, but the dataset does not exist: the parse succeeds
    // and the execution fails.
    let arch = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/arch_asplos.txt");
    let max = "18446744073709551615";
    for args in [
        vec!["accuracy", "--dataset", "/nonexistent/dataset"],
        vec!["run", "--dataset", "/nonexistent/dataset"],
        vec![
            "run",
            "--arch",
            "/nonexistent/spec.txt",
            "--source",
            "/nonexistent/kernel.py",
        ],
        // A placement whose tile count overflows `usize`.
        vec!["place", "--arch", arch, "--stored-rows", max, "--dims", max],
    ] {
        let out = c4cam(&args);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

/// A `run --source` shape whose element count overflows, or passes
/// `MAX_SHAPE_ELEMENTS`, is a bad value: refused while parsing, before
/// any tensor, placement or tape is built — not an abort, a panic or a
/// run that does not end.
#[test]
fn oversized_source_shapes_are_refused_while_parsing() {
    let arch = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/arch_asplos.txt");
    let source = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/knn_topk.py");
    let huge = "4611686018427387904";
    for (param, input) in [
        (format!("weight={huge}x64"), "4x64".to_string()),
        (format!("weight=10x{huge}"), format!("4x{huge}")),
        ("weight=10x64".to_string(), format!("{huge}x64")),
    ] {
        let start = std::time::Instant::now();
        let args = [
            "run", "--arch", arch, "--source", source, "--param", &param, "--input", &input,
        ];
        let out = c4cam(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        assert!(
            stderr.starts_with("error: shape '") && stderr.contains("more than 67108864 elements"),
            "{args:?}: {stderr}"
        );
        assert!(
            start.elapsed().as_secs() < 10,
            "{args:?}: {:?}",
            start.elapsed()
        );
    }
}

/// A geometry past `ArchSpec::MAX_CELLS_PER_SUBARRAY` is a config error
/// naming the bound, not a 100 000 × 100 000 subarray's planes of zero
/// pages at the sweep's one executed point.
#[test]
fn an_oversized_subarray_is_refused_at_validation() {
    let out = c4cam(&[
        "sweep",
        "--subarrays",
        "100000",
        "--opts",
        "base",
        "--queries",
        "2",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.starts_with("error: driver error [config]")
            && stderr.contains("exceeds the bound of 1048576 cells per subarray"),
        "{stderr}"
    );
}

#[test]
fn successful_runs_exit_0_with_stdout_only() {
    let dataset = fixture_path();
    let out = c4cam(&[
        "accuracy",
        "--dataset",
        &dataset,
        "--limit",
        "4",
        "--bits",
        "1",
        "--format",
        "csv",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(out.stderr.is_empty(), "clean runs keep stderr empty");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("task,dataset,"), "{stdout}");
    // Help is a successful command, not an error.
    let help = c4cam(&["help"]);
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).contains("usage:"));
}

/// `c4cam <command> --help` prints that command's synopsis, one line
/// per form, and exits 0; `--help` after an unknown command, and any
/// flag a command does not read, are still usage errors.
#[test]
fn every_command_prints_its_own_synopsis_on_help() {
    for (command, forms) in [
        ("compile", 1),
        ("run", 2),
        ("place", 1),
        ("sweep", 1),
        ("accuracy", 1),
        ("serve", 1),
        ("loadgen", 1),
        ("bench-gate", 1),
    ] {
        for help in ["--help", "-h"] {
            let out = c4cam(&[command, help]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(0), "{command} {help}: {stderr}");
            assert!(out.stderr.is_empty(), "{command} {help}: {stderr}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let mut lines = stdout.lines();
            assert_eq!(lines.next(), Some("usage:"), "{stdout}");
            let synopses: Vec<&str> = lines.filter(|l| !l.is_empty()).collect();
            assert_eq!(synopses.len(), forms, "{stdout}");
            let prefix = format!("  c4cam {command} ");
            assert!(synopses.iter().all(|l| l.starts_with(&prefix)), "{stdout}");
        }
        let out = c4cam(&[command, "--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{command} --bogus");
        assert!(out.stdout.is_empty(), "{command} --bogus wrote to stdout");
    }
    let out = c4cam(&["frobnicate", "--help"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: unknown command"));
}

/// A reader that closes before the report is written (`c4cam help |
/// head -0`) ends the report quietly: exit 0, nothing on stderr.
#[test]
fn a_closed_stdout_ends_the_report_quietly() {
    let dataset = fixture_path();
    let sweep = [
        "sweep",
        "--dataset",
        &dataset,
        "--limit",
        "4",
        "--subarrays",
        "32",
        "--opts",
        "base",
        "--format",
        "csv",
    ];
    for args in [&["help"][..], &sweep] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_c4cam"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn c4cam");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(out.stderr.is_empty(), "{args:?}: {stderr}");
    }
}

/// `--metrics full` attributes host memory: the input tensors' bytes
/// (4 per stored and query element), the planes, and what neither
/// accounts for of the peak resident set.
#[test]
fn full_metrics_attribute_host_memory_to_the_inputs() {
    let dataset = fixture_path();
    let report = stdout_of(&[
        "run",
        "--dataset",
        &dataset,
        "--workload",
        "knn",
        "--metrics",
        "full",
    ]);
    // "dataset mini-mnist (dataset-knn): 192 stored rows x 64 dims, 64 queries"
    let sizes: Vec<usize> = report
        .lines()
        .next()
        .and_then(|l| l.split_once("): "))
        .map(|(_, tail)| {
            tail.split(|c: char| !c.is_ascii_digit())
                .filter_map(|w| w.parse().ok())
                .collect()
        })
        .expect("a size line");
    let [stored, dims, queries] = sizes[..] else {
        panic!("{report}");
    };
    let census = &report[report.find("host memory (bytes):").expect(&report)..];
    let row = |name: &str| -> f64 {
        census
            .lines()
            .find_map(|l| l.trim().strip_prefix(name))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {name} row in {census}"))
    };
    assert_eq!(
        row("host.input_bytes"),
        (4 * (stored + queries) * dims) as f64
    );
    let attributed = row("host.input_bytes") + row("sim.heap_bytes");
    assert_eq!(row("unattributed"), row("VmHWM") - attributed);
}

fn stdout_of(args: &[&str]) -> String {
    let out = c4cam(args);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 report")
}

/// Threads shard queries and nothing else: every simulated figure a
/// fault-free run prints is the same at any thread count, to the byte.
#[test]
fn simulated_figures_do_not_depend_on_the_thread_count() {
    let dataset = fixture_path();
    let run = |threads: &str| {
        stdout_of(&[
            "run",
            "--dataset",
            &dataset,
            "--workload",
            "knn",
            "--format",
            "json",
            "--threads",
            threads,
        ])
    };
    let one = run("1");
    assert!(one.contains("\"latency_ns\":"), "{one}");
    for threads in ["2", "4"] {
        assert_eq!(run(threads), one, "run --threads {threads}");
    }

    // `accuracy` names its thread count in a column; every other
    // column must agree.
    let accuracy = |threads: &str| {
        let csv = stdout_of(&[
            "accuracy",
            "--dataset",
            &dataset,
            "--format",
            "csv",
            "--threads",
            threads,
        ]);
        let threads_col = csv
            .lines()
            .next()
            .and_then(|header| header.split(',').position(|c| c == "threads"))
            .expect("a threads column");
        let rows = csv.lines().map(|line| {
            let mut cells: Vec<&str> = line.split(',').collect();
            cells.remove(threads_col);
            cells.join(",")
        });
        rows.collect::<Vec<_>>()
    };
    let one = accuracy("1");
    assert!(one.len() > 1, "{one:?}");
    assert_eq!(accuracy("2"), one);
}

#[test]
fn fault_injection_smoke_run_parses_and_reports() {
    // The CI smoke command: a seeded fault-rate accuracy run whose CSV
    // must parse with the appended fault columns populated.
    let dataset = fixture_path();
    let out = c4cam(&[
        "accuracy",
        "--dataset",
        &dataset,
        "--limit",
        "8",
        "--bits",
        "2",
        "--fault-rate",
        "0.01",
        "--fault-seed",
        "7",
        "--format",
        "csv",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let header = lines.next().expect("header row");
    assert!(
        header.ends_with("fault_rate,fault_seed,fault_cells,fault_transients,rows_remapped"),
        "{header}"
    );
    let row: Vec<&str> = lines.next().expect("data row").split(',').collect();
    assert_eq!(row.len(), header.split(',').count(), "{stdout}");
    assert_eq!(row[14], "0.01", "{stdout}");
    assert_eq!(row[15], "7", "{stdout}");
    assert!(row[16].parse::<u64>().unwrap() > 0, "fault sites: {stdout}");
    // The seeded run is byte-reproducible.
    let again = c4cam(&[
        "accuracy",
        "--dataset",
        &dataset,
        "--limit",
        "8",
        "--bits",
        "2",
        "--fault-rate",
        "0.01",
        "--fault-seed",
        "7",
        "--format",
        "csv",
    ]);
    assert_eq!(out.stdout, again.stdout);
}
