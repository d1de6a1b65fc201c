//! HDC classification at the paper's scale (§IV-A3): 8192-dimensional
//! hypervectors, 10 classes, MNIST-like synthetic queries — compiled
//! through the full pipeline and executed on the simulated accelerator
//! in both the base and power-optimized configurations.
//!
//! ```text
//! cargo run --example hdc_mnist --release
//! ```

use c4cam::arch::Optimization;
use c4cam::driver::{paper_arch, Experiment};
use c4cam::workloads::HdcWorkload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let queries = 64; // simulated; the 10k-query figures are priced, not run
    println!("HDC on synthetic MNIST: 10 classes x 8192 dims, {queries} queries\n");

    let hdc = HdcWorkload::paper(queries);
    for (label, opt) in [
        ("cam-base ", Optimization::Base),
        ("cam-power", Optimization::Power),
    ] {
        let compiled = Experiment::new(&hdc)
            .arch(paper_arch(32, opt, 1))
            .compile()?;
        let out = compiled.run()?;
        println!(
            "{label}  subarrays={:4}  banks={}  accuracy={:5.1}%",
            out.placement.physical_subarrays,
            out.placement.banks,
            out.accuracy() * 100.0
        );
        println!(
            "          per query: {:7.2} ns, {:8.2} pJ   | power {:8.3} mW",
            out.latency_per_query_ns(),
            out.energy_per_query_pj(),
            out.query_phase.power_mw()
        );
        // The full 10k-query MNIST test set, priced from the schedule.
        let full = compiled.cost(10_000)?.query_phase();
        println!(
            "          10k queries: {:.3} ms, {:.3} µJ, EDP {:.4} nJ·s\n",
            full.latency_ms(),
            full.energy_uj(),
            full.edp_nj_s()
        );
    }

    // 2-bit (MCAM) variant — paper Fig. 7 validates both. The workload
    // picks its level count up from the architecture's bits_per_cell.
    let out = Experiment::new(&hdc)
        .arch(paper_arch(32, Optimization::Base, 2))
        .run()?;
    println!(
        "cam-base (2-bit MCAM)  per query: {:.2} ns, {:.2} pJ  accuracy={:.1}%",
        out.latency_per_query_ns(),
        out.energy_per_query_pj(),
        out.accuracy() * 100.0
    );
    Ok(())
}
