//! **Figure 9 (a, b)** — iso-capacity analysis: the per-array capacity
//! is fixed at 2^16 TCAM cells while the subarray size varies from
//! 16×16 (256 subarrays/array) to 256×256 (1 subarray/array); mats and
//! arrays are fixed at 4 each (§IV-C2).
//!
//! Shape requirements: iso-base energy stays nearly constant across
//! subarray sizes; execution time grows moderately (~2.5×) from 16 to
//! 256; the density configurations cut power significantly except at
//! the largest subarrays.

use c4cam::arch::{ArchSpec, CamKind, Optimization};
use c4cam::camsim::ExecStats;
use c4cam::driver::Experiment;
use c4cam::workloads::HdcWorkload;
use c4cam_bench::section;
use std::collections::HashMap;

fn iso_arch(n: usize, opt: Optimization) -> ArchSpec {
    let subarrays_per_array = (1usize << 16) / (n * n);
    ArchSpec::builder()
        .subarray(n, n)
        .hierarchy(4, 4, subarrays_per_array)
        .cam_kind(CamKind::Tcam)
        .optimization(opt)
        .build()
        .expect("iso spec")
}

fn main() {
    let full = 10_000usize;
    let sizes = [16usize, 32, 64, 128, 256];
    let configs = [
        ("iso-base", Optimization::Base),
        ("iso-density", Optimization::Density),
        ("iso-density+power", Optimization::PowerDensity),
    ];

    // Compiled once per point, never run: cost is a function of the
    // schedule, and the schedule does not depend on the query count.
    let workload = HdcWorkload::paper(1);
    let mut results: HashMap<(&str, usize), ExecStats> = HashMap::new();
    for (name, opt) in configs {
        for &n in &sizes {
            let compiled = Experiment::new(&workload)
                .arch(iso_arch(n, opt))
                .compile()
                .expect("compile");
            let cost = compiled.cost(full).expect("the tape backend prices");
            results.insert((name, n), cost.query_phase());
        }
    }

    section("Figure 9a: iso-capacity latency (ms, 10k HDC queries)");
    print_row_table(&results, &sizes, &configs, |s| s.latency_ms());
    section("Figure 9b: iso-capacity power (mW)");
    print_row_table(&results, &sizes, &configs, |s| s.power_mw());
    section("(aux) iso-capacity energy (µJ)");
    print_row_table(&results, &sizes, &configs, |s| s.energy_uj());

    // Shape assertions.
    // Energy of iso-base nearly constant: max/min within 2×.
    let base_energy: Vec<f64> = sizes
        .iter()
        .map(|&n| results[&("iso-base", n)].energy_uj())
        .collect();
    let emax = base_energy.iter().cloned().fold(f64::MIN, f64::max);
    let emin = base_energy.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        emax / emin < 2.2,
        "iso-base energy should be nearly constant (spread {:.2})",
        emax / emin
    );
    // Latency grows moderately from 16 to 256 (paper: 58µs → 150µs,
    // ~2.6×).
    let growth = results[&("iso-base", 256)].latency_ms() / results[&("iso-base", 16)].latency_ms();
    assert!(
        (1.5..6.0).contains(&growth),
        "iso-base latency growth 16→256 should be moderate (got {growth:.2})"
    );
    // Density configurations cut power at small/medium subarrays.
    for &n in &[16usize, 32, 64] {
        let base = results[&("iso-base", n)].power_mw();
        let dp = results[&("iso-density+power", n)].power_mw();
        assert!(
            dp < base * 0.8,
            "density+power must cut power at {n}x{n} ({dp:.3} vs {base:.3})"
        );
    }
    println!(
        "\nshape checks passed: flat iso-base energy, moderate latency growth, density power cuts"
    );
}

fn print_row_table(
    results: &HashMap<(&str, usize), ExecStats>,
    sizes: &[usize],
    configs: &[(&'static str, Optimization)],
    metric: impl Fn(&ExecStats) -> f64,
) {
    print!("{:<20}", "subarray size");
    for &n in sizes {
        print!(" {:>11}", format!("{n}x{n}"));
    }
    println!();
    for (name, _) in configs {
        print!("{name:<20}");
        for &n in sizes {
            print!(" {:>11.4}", metric(&results[&(*name, n)]));
        }
        println!();
    }
}
