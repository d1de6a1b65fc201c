//! **§IV-B GPU comparison** — end-to-end HDC on the CAM system vs the
//! analytic RTX-6000-class GPU model.
//!
//! The paper reports a 48× execution-time improvement (within 5% of the
//! manual design) and 46.8× energy improvement, noting that "CAMs
//! contribute minimally to the overall energy consumption in their CIM
//! system". The shape requirement is a >40× win on both axes with the
//! energy ratio tracking the latency ratio.

use c4cam::arch::Optimization;
use c4cam::driver::{paper_arch, Experiment};
use c4cam::workloads::{GpuComparisonWorkload, HdcModel};
use c4cam_bench::{run_manual_hdc, section};

fn main() {
    let simulated_queries = 32usize;
    let full_queries = 10_000usize; // MNIST test set
    let spec = paper_arch(32, Optimization::Base, 1);

    // CAM side: the §IV-B comparison workload through the compiled
    // pipeline, its schedule priced at the full test set.
    let workload = GpuComparisonWorkload::paper(simulated_queries);
    let compiled = Experiment::new(&workload)
        .arch(spec.clone())
        .compile()
        .expect("cam compile");
    let cam = compiled
        .cost(full_queries)
        .expect("the tape backend prices")
        .query_phase();
    let cam_latency_s = cam.latency_ns * 1e-9;
    let cam_energy_j = cam.total_energy_fj() * 1e-15;

    // Manual design for the ±5% cross-check.
    let model = HdcModel::random(10, 8192, 1, 42);
    let (qs, _) = model.queries(simulated_queries, 0.1, 42);
    let manual = run_manual_hdc(&spec, &model, &qs);
    let manual_latency_s =
        manual.latency_ns / simulated_queries as f64 * full_queries as f64 * 1e-9;

    let gpu = workload.gpu.clone();
    let cmp = workload.comparison(full_queries, cam_latency_s, cam_energy_j);
    let manual_cmp = workload.comparison(full_queries, manual_latency_s, cam_energy_j);

    section("GPU comparison (HDC, 10k queries x 10 classes x 8192 dims)");
    println!("GPU model: {}", gpu.name);
    println!(
        "  GPU:     {:>10.3} ms   {:>10.3} mJ",
        cmp.gpu_latency_s * 1e3,
        cmp.gpu_energy_j * 1e3
    );
    println!(
        "  C4CAM:   {:>10.3} ms   {:>10.3} mJ (CIM system incl. host)",
        cmp.cam_latency_s * 1e3,
        cmp.cim_energy_j * 1e3
    );
    println!(
        "\n  execution-time improvement: {:>6.1}x   (paper: 48x)",
        cmp.latency_improvement()
    );
    println!(
        "  energy improvement:         {:>6.1}x   (paper: 46.8x)",
        cmp.energy_improvement()
    );
    let vs_manual = 100.0 * (cmp.latency_improvement() - manual_cmp.latency_improvement()).abs()
        / manual_cmp.latency_improvement();
    println!("  deviation from the manual design's improvement: {vs_manual:.2}% (paper: 5%)");

    assert!(
        cmp.latency_improvement() > 40.0,
        "CAM must win by >40x in latency (got {:.1}x)",
        cmp.latency_improvement()
    );
    assert!(
        cmp.energy_improvement() > 40.0,
        "CAM must win by >40x in energy (got {:.1}x)",
        cmp.energy_improvement()
    );
    let tracking = cmp.energy_improvement() / cmp.latency_improvement();
    assert!(
        (0.8..1.2).contains(&tracking),
        "energy ratio must track latency ratio (got {tracking:.2})"
    );
    println!("\nshape checks passed: >40x on both axes, energy tracks latency");
}
