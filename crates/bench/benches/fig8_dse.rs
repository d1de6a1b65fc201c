//! **Figure 8 (a, b, c)** — impact of subarray size and the C4CAM
//! optimization configurations on energy, latency and power for HDC on
//! MNIST-scale data (10 classes × 8192 dims). One sweep prices a single
//! query per point; the query phase is that trip replayed, so the
//! 10k-query test set is the per-query figure × 10 000.
//!
//! Shape requirements from §IV-C1 (asserted here and in
//! `tests/paper_figures.rs`, both through [`Fig8::trends`]):
//! * `cam-power` cuts power substantially (to ~0.2–0.6× of base) at the
//!   cost of 2–5× latency, growing with N; energy stays comparable;
//! * `cam-density` stretches latency (up to ~23× at 256×256) and its
//!   energy crosses from below base (small N) to above base (large N);
//! * `cam-power+density` has the lowest power of all configurations.

use c4cam::camsim::ExecStats;
use c4cam::sweep::DEFAULT_SUBARRAY_SIZES;
use c4cam_bench::{section, Fig8, FIG8_CONFIGS};

/// The paper's test-set size.
const QUERIES: f64 = 10_000.0;

fn main() {
    let fig8 = Fig8::compute();

    section("Figure 8a: energy (µJ, 10k HDC queries)");
    print_table(&fig8, |s| s.energy_uj() * QUERIES);
    section("Figure 8b: latency (ms, 10k HDC queries)");
    print_table(&fig8, |s| s.latency_ms() * QUERIES);
    section("Figure 8c: power (mW)");
    print_table(&fig8, ExecStats::power_mw);

    section("Shape checks (§IV-C1)");
    let trends = fig8.trends();
    for trend in &trends {
        println!("{} {trend}", if trend.holds() { "ok  " } else { "FAIL" });
    }
    let failed = trends.iter().filter(|t| !t.holds()).count();
    assert_eq!(failed, 0, "{failed} shape checks failed");
    println!("\nshape checks passed (power/latency trade-offs, density crossover, blow-ups)");

    println!("\nratios vs cam-base:");
    println!(
        "{:<20} {:>6} {:>12} {:>12} {:>12}",
        "config", "N", "energy", "latency", "power"
    );
    for (name, opt) in FIG8_CONFIGS.iter().skip(1) {
        for n in DEFAULT_SUBARRAY_SIZES {
            println!(
                "{:<20} {:>6} {:>11.2}x {:>11.2}x {:>11.2}x",
                name,
                n,
                fig8.ratio(*opt, n, ExecStats::energy_uj),
                fig8.ratio(*opt, n, ExecStats::latency_ms),
                fig8.ratio(*opt, n, ExecStats::power_mw)
            );
        }
    }
}

fn print_table(fig8: &Fig8, metric: impl Fn(&ExecStats) -> f64) {
    print!("{:<20}", "subarray size");
    for n in DEFAULT_SUBARRAY_SIZES {
        print!(" {:>11}", format!("{n}x{n}"));
    }
    println!();
    for (name, opt) in FIG8_CONFIGS {
        print!("{name:<20}");
        for n in DEFAULT_SUBARRAY_SIZES {
            print!(" {:>11.4}", metric(fig8.query(opt, n)));
        }
        println!();
    }
}
