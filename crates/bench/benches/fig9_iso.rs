//! **Figure 9 (a, b)** — iso-capacity analysis: the per-array capacity
//! is fixed at 2^16 TCAM cells while the subarray size varies from
//! 16×16 (256 subarrays/array) to 256×256 (1 subarray/array); mats and
//! arrays are fixed at 4 each (§IV-C2).
//!
//! Shape requirements (asserted here and in `tests/paper_figures.rs`,
//! both through [`Fig9Iso::trends`]): iso-base energy stays nearly
//! constant across subarray sizes; execution time grows moderately
//! (~2.5×) from 16 to 256; the density configurations cut power
//! significantly except at the largest subarrays.

use c4cam::camsim::ExecStats;
use c4cam::sweep::DEFAULT_SUBARRAY_SIZES;
use c4cam_bench::{section, Fig9Iso, FIG9_CONFIGS};

fn main() {
    let fig9 = Fig9Iso::compute();

    section("Figure 9a: iso-capacity latency (ms, 10k HDC queries)");
    print_row_table(&fig9, ExecStats::latency_ms);
    section("Figure 9b: iso-capacity power (mW)");
    print_row_table(&fig9, ExecStats::power_mw);
    section("(aux) iso-capacity energy (µJ)");
    print_row_table(&fig9, ExecStats::energy_uj);

    section("Shape checks (§IV-C2)");
    let trends = fig9.trends();
    for trend in &trends {
        println!("{} {trend}", if trend.holds() { "ok  " } else { "FAIL" });
    }
    let failed = trends.iter().filter(|t| !t.holds()).count();
    assert_eq!(failed, 0, "{failed} shape checks failed");
    println!(
        "\nshape checks passed: flat iso-base energy, moderate latency growth, density power cuts"
    );
}

fn print_row_table(fig9: &Fig9Iso, metric: impl Fn(&ExecStats) -> f64) {
    print!("{:<20}", "subarray size");
    for n in DEFAULT_SUBARRAY_SIZES {
        print!(" {:>11}", format!("{n}x{n}"));
    }
    println!();
    for (name, opt) in FIG9_CONFIGS {
        print!("{name:<20}");
        for n in DEFAULT_SUBARRAY_SIZES {
            print!(" {:>11.4}", metric(fig9.query_phase(opt, n)));
        }
        println!();
    }
}
