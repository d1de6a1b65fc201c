//! The paper's figures, asserted in `cargo test`.
//!
//! Each test recomputes a published result through the same calls its
//! `crates/bench` harness makes, so a change to the mapping or the cost
//! model that bends a reproduced figure fails `cargo test`, not only a
//! `harness = false` bench.

use c4cam::arch::Optimization;
use c4cam::compiler::mapping::{place, MappingProblem};
use c4cam::driver::paper_arch;

/// **Table I**: subarrays used to implement HDC (10 classes × 8192
/// dims) on square `N × N` subarrays, with the standard placement
/// (`cam-based`) and with selective-search packing (`cam-density`).
/// The counts are the paper's integers, exactly.
#[test]
fn table1_subarray_counts_are_the_papers() {
    let hdc = MappingProblem {
        stored_rows: 10,
        feature_dims: 8192,
        queries: 1,
    };
    let sizes = [16, 32, 64, 128, 256];
    for (opt, paper) in [
        (Optimization::Base, [512, 256, 128, 64, 32]),
        (Optimization::Density, [512, 86, 22, 6, 2]),
    ] {
        let counts: Vec<usize> = sizes
            .iter()
            .map(|&n| {
                place(&paper_arch(n, opt, 1), &hdc)
                    .unwrap()
                    .physical_subarrays
            })
            .collect();
        assert_eq!(counts, paper, "Table I, {opt}");
    }
}
