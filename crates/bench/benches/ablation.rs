//! Ablations of the design choices docs/ARCHITECTURE.md calls out:
//!
//! 1. **Broadcast amortization** (selective search, paper \[27\]): energy
//!    effect of sharing one query broadcast across the co-resident
//!    batches of a density-packed subarray.
//! 2. **Winner-take-all sensing window** (paper \[19\]): accuracy impact
//!    of the bounded-mismatch best-match circuit across window sizes.

use c4cam::arch::Optimization;
use c4cam::driver::{paper_arch, Experiment};
use c4cam::workloads::{HdcModel, HdcWorkload};
use c4cam_bench::section;

fn hdc_experiment(workload: &HdcWorkload, n: usize, opt: Optimization) -> Experiment<'_> {
    Experiment::new(workload).arch(paper_arch(n, opt, 1))
}

fn main() {
    // ------------------------------------------------------------------
    // 1. Broadcast amortization under density packing
    // ------------------------------------------------------------------
    section("Ablation 1: selective-search broadcast amortization");
    let workload = HdcWorkload::paper(16);
    // With amortization (the shipped model), each of the `batches`
    // selective cycles pays 1/batches of the broadcast energy. The
    // un-amortized upper bound charges it fully — reconstructed here
    // analytically from the technology model.
    let tech = c4cam::arch::tech::TechnologyModel::fefet_45nm();
    for n in [64usize, 128, 256] {
        let out = hdc_experiment(&workload, n, Optimization::Density)
            .run()
            .expect("density");
        let batches = out.placement.batches_per_subarray as f64;
        let searches = out.query_phase.search_ops as f64;
        let amortized = out.query_phase.periph_energy_fj;
        let full_broadcast = searches * tech.periph_broadcast_energy_fj(n, 1);
        let row_part = amortized - full_broadcast / batches;
        let unamortized = row_part + full_broadcast;
        println!(
            "N={n:<4} batches={batches:<3} periph energy: amortized {:>10.1} pJ vs naive {:>10.1} pJ ({:.2}x saved)",
            amortized / 1e3,
            unamortized / 1e3,
            unamortized / amortized
        );
        assert!(
            unamortized > amortized,
            "amortization must save broadcast energy (N={n})"
        );
    }

    // ------------------------------------------------------------------
    // 2. WTA window vs accuracy
    // ------------------------------------------------------------------
    section("Ablation 2: winner-take-all sensing window (paper [19])");
    // Reference CPU accuracy at this noise level.
    let model = HdcModel::random(10, 8192, 1, 42);
    let (queries, labels) = model.queries(64, 0.1, 42);
    let cpu = model.predict_cpu(&queries);
    let cpu_acc = c4cam::workloads::accuracy(&cpu, &labels);
    println!("CPU reference accuracy: {:.1}%", cpu_acc * 100.0);

    let wta_workload = HdcWorkload::paper(64);
    let mut last_acc = 0.0;
    for window in [1u32, 2, 4, 8, 16] {
        let out = hdc_experiment(&wta_workload, 32, Optimization::Base)
            .wta_window(Some(window))
            .run()
            .expect("wta run");
        let acc = out.accuracy();
        println!(
            "window = {window:>3} mismatches per subarray: accuracy {:>5.1}%",
            acc * 100.0
        );
        if window >= 8 {
            assert!(
                acc >= last_acc - 0.05,
                "accuracy should recover as the window grows"
            );
        }
        last_acc = acc;
    }
    let out = hdc_experiment(&wta_workload, 32, Optimization::Base)
        .run()
        .expect("unbounded");
    println!(
        "window = unbounded: accuracy {:>5.1}% (matches CPU: {})",
        out.accuracy() * 100.0,
        (out.accuracy() - cpu_acc).abs() < 1e-9
    );
    assert!(
        out.accuracy() >= last_acc,
        "unbounded sensing is at least as accurate as any window"
    );
    println!("\nablation checks passed");
}
