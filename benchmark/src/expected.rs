//! Pinned simulated statistics: `expected/<workload>.json` holds the
//! simulator's counters, latency and energy for each workload at the
//! default seed. The simulator is deterministic, so any difference is
//! a failed operation — a change meant only to speed the program up
//! must leave every one of these identical. `--bless` rewrites them.

use crate::harness::{Opts, Tally, DEFAULT_SEED};
use c4cam::camsim::ExecStats;
use c4cam::telemetry::json::{num_f64, string};
use c4cam_server::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Flat `name → number` statistics of one workload.
pub type Pinned = BTreeMap<String, f64>;

/// The fields of `stats` worth pinning, keyed `<prefix>.<field>`.
pub fn pin_stats(into: &mut Pinned, prefix: &str, stats: &ExecStats) {
    let fields = [
        ("search_ops", stats.search_ops as f64),
        ("searched_words", stats.searched_words as f64),
        ("write_ops", stats.write_ops as f64),
        ("read_ops", stats.read_ops as f64),
        ("merge_ops", stats.merge_ops as f64),
        ("subarrays_allocated", stats.subarrays_allocated as f64),
        ("latency_ns", stats.latency_ns),
        ("energy_fj", stats.total_energy_fj()),
    ];
    for (field, value) in fields {
        into.insert(format!("{prefix}.{field}"), value);
    }
}

fn path_of(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.json"))
}

fn render(pinned: &Pinned) -> String {
    let lines: Vec<String> = pinned
        .iter()
        .map(|(k, v)| format!("  {}: {}", string(k), num_f64(*v)))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Every way `actual` departs from `expected`, one line each.
pub fn diff(expected: &Pinned, actual: &Pinned) -> Vec<String> {
    let mut out = Vec::new();
    for (k, want) in expected {
        match actual.get(k) {
            Some(got) if got.to_bits() == want.to_bits() => {}
            Some(got) => out.push(format!("{k}: pinned {want}, got {got}")),
            None => out.push(format!("{k}: pinned {want}, not produced")),
        }
    }
    for k in actual.keys().filter(|k| !expected.contains_key(*k)) {
        out.push(format!("{k}: produced but not pinned (run with --bless)"));
    }
    out
}

fn load(workload: &str) -> Result<Pinned, String> {
    let path = path_of(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    match Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))? {
        Json::Obj(map) => map
            .into_iter()
            .map(|(k, v)| {
                let n = v.as_f64().ok_or(format!("{k}: not a number"))?;
                Ok((k, n))
            })
            .collect(),
        _ => Err(format!("{}: not a JSON object", path.display())),
    }
}

/// Hold `actual` against the pinned file as one operation on `tally`
/// (only at the default seed: other seeds generate other inputs), or
/// rewrite the file under `--bless`.
pub fn check(workload: &str, actual: &Pinned, opts: &Opts, tally: &mut Tally) {
    if opts.seed != DEFAULT_SEED {
        return;
    }
    if opts.bless {
        let path = path_of(workload);
        let written = std::fs::write(&path, render(actual));
        tally.record(written.map_err(|e| format!("bless {}: {e}", path.display())));
        return;
    }
    tally.record(load(workload).and_then(|expected| {
        let lines = diff(&expected, actual);
        if lines.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "simulated statistics differ from expected/{workload}.json: {}",
                lines.join("; ")
            ))
        }
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pinned(pairs: &[(&str, f64)]) -> Pinned {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn identical_statistics_have_no_diff() {
        let a = pinned(&[("q.latency_ns", 1234.5678), ("q.search_ops", 16384.0)]);
        assert!(diff(&a, &a.clone()).is_empty());
    }

    #[test]
    fn any_difference_missing_or_extra_key_is_reported() {
        let want = pinned(&[("a", 1.0), ("b", 2.0)]);
        let got = pinned(&[("a", 1.0 + f64::EPSILON), ("c", 3.0)]);
        let lines = diff(&want, &got);
        assert_eq!(lines.len(), 3, "{lines:?}");
        assert!(lines[0].starts_with("a: pinned 1, got 1.0000000000000002"));
        assert!(lines[1].starts_with("b: pinned 2, not produced"));
        assert!(lines[2].starts_with("c: produced but not pinned"));
    }

    #[test]
    fn rendered_files_parse_back_bit_identically() {
        let a = pinned(&[
            ("x.energy_fj", 0.1 + 0.2),
            ("x.latency_ns", 1e-7),
            ("n", 3.0),
        ]);
        let text = render(&a);
        let Json::Obj(map) = Json::parse(&text).unwrap() else {
            panic!("not an object")
        };
        let back: Pinned = map
            .into_iter()
            .map(|(k, v)| (k, v.as_f64().unwrap()))
            .collect();
        assert!(diff(&a, &back).is_empty());
    }

    #[test]
    fn other_seeds_skip_the_pinned_check() {
        let opts = Opts {
            seed: DEFAULT_SEED + 1,
            seconds: 1.0,
            trace: false,
            quick: true,
            bless: false,
        };
        let mut tally = Tally::default();
        check("no-such-workload", &Pinned::new(), &opts, &mut tally);
        assert_eq!(tally.attempted, 0);
        // At the default seed a missing file is a failed operation.
        let opts = Opts {
            seed: DEFAULT_SEED,
            ..opts
        };
        check("no-such-workload", &Pinned::new(), &opts, &mut tally);
        assert_eq!((tally.attempted, tally.failed), (1, 1));
    }
}
