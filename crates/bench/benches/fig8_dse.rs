//! **Figure 8 (a, b, c)** — impact of subarray size and the C4CAM
//! optimization configurations on energy, latency and power for HDC on
//! MNIST-scale data (10 classes × 8192 dims, the 10k-query test set
//! priced exactly from each compiled schedule).
//!
//! Shape requirements from §IV-C1:
//! * `cam-power` cuts power substantially (to ~0.2–0.6× of base) at the
//!   cost of 2–5× latency, growing with N; energy stays comparable;
//! * `cam-density` stretches latency (up to ~23× at 256×256) and its
//!   energy crosses from below base (small N) to above base (large N);
//! * `cam-power+density` has the lowest power of all configurations.

use c4cam::arch::Optimization;
use c4cam::camsim::ExecStats;
use c4cam::driver::{paper_arch, Experiment};
use c4cam::workloads::HdcWorkload;
use c4cam_bench::section;
use std::collections::HashMap;

fn main() {
    let full = 10_000usize;
    let sizes = [16usize, 32, 64, 128, 256];
    let configs = [
        ("cam-base", Optimization::Base),
        ("cam-power", Optimization::Power),
        ("cam-density", Optimization::Density),
        ("cam-density+power", Optimization::PowerDensity),
    ];

    // Compiled once per point, never run: cost is a function of the
    // schedule, and the schedule does not depend on the query count.
    let workload = HdcWorkload::paper(1);
    let mut results: HashMap<(&str, usize), ExecStats> = HashMap::new();
    for (name, opt) in configs {
        for &n in &sizes {
            let compiled = Experiment::new(&workload)
                .arch(paper_arch(n, opt, 1))
                .compile()
                .expect("compile");
            let cost = compiled.cost(full).expect("the tape backend prices");
            results.insert((name, n), cost.query_phase());
        }
    }

    section("Figure 8a: energy (µJ, 10k HDC queries)");
    print_table(&results, &sizes, &configs, |s| s.energy_uj());
    section("Figure 8b: latency (ms, 10k HDC queries)");
    print_table(&results, &sizes, &configs, |s| s.latency_ms());
    section("Figure 8c: power (mW)");
    print_table(&results, &sizes, &configs, |s| s.power_mw());

    // ------------------------------------------------------------------
    // Shape assertions.
    // ------------------------------------------------------------------
    for &n in &sizes {
        let base = &results[&("cam-base", n)];
        let power = &results[&("cam-power", n)];
        let density = &results[&("cam-density", n)];
        let pd = &results[&("cam-density+power", n)];

        assert!(
            power.power_mw() < base.power_mw(),
            "cam-power must reduce power (N={n})"
        );
        assert!(
            power.latency_ms() > base.latency_ms(),
            "cam-power trades latency (N={n})"
        );
        // Energy roughly preserved under cam-power (§IV-C1: "overall
        // energy consumption remains the same").
        // (the static-power term makes cam-power pay a little extra
        // energy at large N for its 5x longer runtime)
        let e_ratio = power.energy_uj() / base.energy_uj();
        assert!(
            (0.7..1.8).contains(&e_ratio),
            "cam-power energy ratio {e_ratio:.2} out of band (N={n})"
        );
        assert!(
            pd.power_mw() <= power.power_mw() * 1.05 && pd.power_mw() < base.power_mw(),
            "power+density must be the most power-frugal (N={n})"
        );
        assert!(
            density.latency_ms() >= base.latency_ms(),
            "density never beats base latency (N={n})"
        );
    }
    // Power-config latency penalty grows with N (paper: 2× at 32 up to
    // 4.86× at 256).
    let penalty =
        |n: usize| results[&("cam-power", n)].latency_ms() / results[&("cam-base", n)].latency_ms();
    assert!(penalty(256) > penalty(32), "power penalty must grow with N");
    assert!(
        (1.5..4.5).contains(&penalty(32)),
        "power penalty at 32 ({:.2}) should be near the paper's 2x",
        penalty(32)
    );
    assert!(
        (3.0..8.0).contains(&penalty(256)),
        "power penalty at 256 ({:.2}) should be near the paper's 4.86x",
        penalty(256)
    );
    // Density latency blow-up at 256×256 (paper: ~23×).
    let blowup =
        results[&("cam-density", 256)].latency_ms() / results[&("cam-base", 256)].latency_ms();
    assert!(
        (10.0..40.0).contains(&blowup),
        "density blow-up at 256 ({blowup:.1}) should be near the paper's 23x"
    );
    // Density energy crossover: cheaper than base at 32/64, costlier at 256.
    let e = |cfg: &'static str, n: usize| results[&(cfg, n)].energy_uj();
    assert!(
        e("cam-density", 32) < e("cam-base", 32),
        "density must save energy at 32"
    );
    assert!(
        e("cam-density", 64) < e("cam-base", 64),
        "density must save energy at 64"
    );
    assert!(
        e("cam-density", 256) > e("cam-base", 256),
        "density must cost energy at 256"
    );
    println!("\nshape checks passed (power/latency trade-offs, density crossover, blow-ups)");

    println!("\nratios vs cam-base:");
    println!(
        "{:<20} {:>6} {:>12} {:>12} {:>12}",
        "config", "N", "energy", "latency", "power"
    );
    for (name, _) in configs.iter().skip(1) {
        for &n in &sizes {
            let b = &results[&("cam-base", n)];
            let s = &results[&(*name, n)];
            println!(
                "{:<20} {:>6} {:>11.2}x {:>11.2}x {:>11.2}x",
                name,
                n,
                s.energy_uj() / b.energy_uj(),
                s.latency_ms() / b.latency_ms(),
                s.power_mw() / b.power_mw()
            );
        }
    }
}

fn print_table(
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
