//! **§IV-B GPU comparison** — end-to-end HDC on the CAM system vs the
//! analytic RTX-6000-class GPU model.
//!
//! The paper reports a 48× execution-time improvement (within 5% of the
//! manual design) and 46.8× energy improvement, noting that "CAMs
//! contribute minimally to the overall energy consumption in their CIM
//! system". The shape requirement (asserted here and in
//! `tests/paper_figures.rs`, both through [`GpuComparison::trends`]) is
//! a >40× win on both axes with the energy ratio tracking the latency
//! ratio, within 5% of the manual design.

use c4cam_bench::{section, GpuComparison};

fn main() {
    let cmp = GpuComparison::compute();
    let compiled = &cmp.compiled;

    section("GPU comparison (HDC, 10k queries x 10 classes x 8192 dims)");
    println!("GPU model: {}", cmp.gpu);
    println!(
        "  GPU:     {:>10.3} ms   {:>10.3} mJ",
        compiled.gpu_latency_s * 1e3,
        compiled.gpu_energy_j * 1e3
    );
    println!(
        "  C4CAM:   {:>10.3} ms   {:>10.3} mJ (CIM system incl. host)",
        compiled.cam_latency_s * 1e3,
        compiled.cim_energy_j * 1e3
    );
    println!(
        "\n  execution-time improvement: {:>6.1}x   (paper: 48x)",
        compiled.latency_improvement()
    );
    println!(
        "  energy improvement:         {:>6.1}x   (paper: 46.8x)",
        compiled.energy_improvement()
    );
    println!(
        "  deviation from the manual design's improvement: {:.2}% (paper: 5%)",
        cmp.deviation_from_manual_pct()
    );

    let failed: Vec<String> = cmp
        .trends()
        .iter()
        .filter(|t| !t.holds())
        .map(ToString::to_string)
        .collect();
    assert!(failed.is_empty(), "{}", failed.join("\n"));
    println!("\nshape checks passed: >40x on both axes, energy tracks latency");
}
