//! **Technology retargetability** (paper abstract & §I): "Depending on
//! the type and technology, CAM arrays exhibit varying latencies and
//! power profiles. Our framework allows analyzing the impact of such
//! differences in terms of system-level performance and energy
//! consumption, and thus supports designers in selecting appropriate
//! designs for a given application."
//!
//! This bench re-runs the identical HDC application on two CAM
//! technologies — the paper's 2FeFET CAM @45 nm and a CMOS TCAM
//! @16 nm — across subarray sizes, with zero application changes.
//! Expected shape (asserted here and in `tests/paper_figures.rs`, both
//! through [`TechDse::trends`]): CMOS is faster per query; FeFET is
//! substantially more energy-efficient (the NVM advantage §II-B
//! describes); the answers are identical.

use c4cam_bench::{section, TechDse, TECH_DSE_SIZES};

fn main() {
    let study = TechDse::compute();

    section("Technology DSE: same HDC application, two CAM technologies");
    println!(
        "{:<12} {:>6} {:>14} {:>14} {:>12}",
        "technology", "N", "lat/query ns", "E/query pJ", "power mW"
    );
    for (name, _) in TechDse::technologies() {
        for n in TECH_DSE_SIZES {
            let out = study.point(name, n);
            println!(
                "{:<12} {:>6} {:>14.3} {:>14.2} {:>12.3}",
                name,
                n,
                out.latency_per_query_ns(),
                out.energy_per_query_pj(),
                out.query_phase.power_mw()
            );
        }
        println!();
    }

    section("Shape checks (abstract, §I)");
    let trends = study.trends();
    for trend in &trends {
        println!("{} {trend}", if trend.holds() { "ok  " } else { "FAIL" });
    }
    let failed = trends.iter().filter(|t| !t.holds()).count();
    assert_eq!(failed, 0, "{failed} shape checks failed");
    println!(
        "\nshape checks passed: CMOS faster, FeFET >1.5x more energy-efficient, results identical"
    );
}
