//! Placement arithmetic: how a similarity kernel's stored patterns are
//! tiled over subarrays and the hierarchy (paper §III-D2 and Table I).
//!
//! Shared by the `cam-map` pass and the evaluation harness, so Table I's
//! counts are produced by exactly the code that drives code generation.

use c4cam_arch::{ArchSpec, SpecError};

/// Problem geometry: what must be stored and searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingProblem {
    /// Number of stored rows (HDC: classes; KNN: training patterns).
    pub stored_rows: usize,
    /// Feature dimensionality of each row.
    pub feature_dims: usize,
    /// Number of queries per kernel invocation.
    pub queries: usize,
}

/// Result of placing a [`MappingProblem`] onto an [`ArchSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Stored rows per row-group (`min(N, R)`).
    pub rows_used: usize,
    /// Number of row groups (`ceil(N / rows_used)`).
    pub row_groups: usize,
    /// Column chunks per row group (`ceil(d / C)`).
    pub col_chunks: usize,
    /// Logical subarray-sized tiles = `row_groups × col_chunks`.
    pub logical_tiles: usize,
    /// Tiles co-resident per physical subarray via selective search
    /// (1 without density packing, else `floor(R / rows_used)`).
    pub batches_per_subarray: usize,
    /// Physical subarrays = `ceil(logical / batches)` (Table I).
    pub physical_subarrays: usize,
    /// Banks provisioned.
    pub banks: usize,
    /// Accumulator width: `row_groups × rows_used` (padded stored rows).
    pub padded_rows: usize,
}

impl Placement {
    /// Hierarchy capacity actually provisioned (subarray slots).
    pub fn provisioned_subarrays(&self, spec: &ArchSpec) -> usize {
        self.banks * spec.subarrays_per_bank()
    }
}

/// Place a problem onto an architecture.
///
/// # Errors
/// Fails on degenerate problems (zero rows/dims), on a problem whose
/// tile count or padded row count does not fit in `usize`, or if a
/// fixed bank budget cannot hold the data.
pub fn place(spec: &ArchSpec, problem: &MappingProblem) -> Result<Placement, SpecError> {
    if problem.stored_rows == 0 || problem.feature_dims == 0 || problem.queries == 0 {
        return Err(SpecError {
            message: "mapping problem must have nonzero rows, dims and queries".into(),
        });
    }
    let r = spec.rows_per_subarray;
    let c = spec.cols_per_subarray;
    let rows_used = problem.stored_rows.min(r);
    let row_groups = problem.stored_rows.div_ceil(rows_used);
    let col_chunks = problem.feature_dims.div_ceil(c);
    let too_large = || {
        SpecError {
        message: format!(
            "mapping problem is too large: {} rows x {} dims overflows the tile or padded-row count",
            problem.stored_rows, problem.feature_dims
        ),
    }
    };
    let logical_tiles = row_groups.checked_mul(col_chunks).ok_or_else(too_large)?;
    let padded_rows = row_groups.checked_mul(rows_used).ok_or_else(too_large)?;
    let batches_per_subarray = if spec.optimization.uses_selective_search() {
        (r / rows_used).max(1)
    } else {
        1
    };
    let physical_subarrays = logical_tiles.div_ceil(batches_per_subarray);
    let banks = spec.banks_for_subarrays(physical_subarrays)?;
    Ok(Placement {
        rows_used,
        row_groups,
        col_chunks,
        logical_tiles,
        batches_per_subarray,
        physical_subarrays,
        banks,
        padded_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use c4cam_arch::Optimization;

    /// HDC on MNIST with 8k dimensions and 10 classes (paper Table I).
    fn hdc() -> MappingProblem {
        MappingProblem {
            stored_rows: 10,
            feature_dims: 8192,
            queries: 1,
        }
    }

    fn square_spec(n: usize, opt: Optimization) -> ArchSpec {
        ArchSpec::builder()
            .subarray(n, n)
            .hierarchy(4, 4, 8)
            .optimization(opt)
            .build()
            .unwrap()
    }

    #[test]
    fn table1_cam_based_counts_match_exactly() {
        // Paper Table I, row "cam-based": 512, 256, 128, 64, 32.
        let expected = [(16, 512), (32, 256), (64, 128), (128, 64), (256, 32)];
        for (n, count) in expected {
            let p = place(&square_spec(n, Optimization::Base), &hdc()).unwrap();
            assert_eq!(p.physical_subarrays, count, "N={n}");
            assert_eq!(p.batches_per_subarray, 1);
        }
    }

    #[test]
    fn table1_cam_density_counts_match_exactly() {
        // Paper Table I, row "cam-density": 512, 86, 22, 6, 2.
        let expected = [(16, 512), (32, 86), (64, 22), (128, 6), (256, 2)];
        for (n, count) in expected {
            let p = place(&square_spec(n, Optimization::Density), &hdc()).unwrap();
            assert_eq!(p.physical_subarrays, count, "N={n}");
        }
    }

    #[test]
    fn banks_follow_subarray_demand() {
        // 512 subarrays at 128 per bank → 4 banks.
        let p = place(&square_spec(16, Optimization::Base), &hdc()).unwrap();
        assert_eq!(p.banks, 4);
        assert_eq!(
            p.provisioned_subarrays(&square_spec(16, Optimization::Base)),
            512
        );
        // 32 subarrays → 1 bank.
        let p = place(&square_spec(256, Optimization::Base), &hdc()).unwrap();
        assert_eq!(p.banks, 1);
    }

    #[test]
    fn row_groups_cover_large_stored_sets() {
        // KNN-like: 5216 patterns of 4096 dims on 16×16 subarrays.
        let spec = square_spec(16, Optimization::Base);
        let p = place(
            &spec,
            &MappingProblem {
                stored_rows: 5216,
                feature_dims: 4096,
                queries: 1,
            },
        )
        .unwrap();
        assert_eq!(p.rows_used, 16);
        assert_eq!(p.row_groups, 326);
        assert_eq!(p.col_chunks, 256);
        assert_eq!(p.logical_tiles, 326 * 256);
        assert_eq!(p.padded_rows, 326 * 16);
        assert!(p.banks >= (326usize * 256).div_ceil(128));
    }

    #[test]
    fn non_divisible_dims_round_up() {
        let spec = square_spec(32, Optimization::Base);
        let p = place(
            &spec,
            &MappingProblem {
                stored_rows: 33,
                feature_dims: 100,
                queries: 2,
            },
        )
        .unwrap();
        assert_eq!(p.row_groups, 2);
        assert_eq!(p.col_chunks, 4);
        assert_eq!(p.padded_rows, 64);
    }

    #[test]
    fn degenerate_problems_error() {
        let spec = square_spec(32, Optimization::Base);
        assert!(place(
            &spec,
            &MappingProblem {
                stored_rows: 0,
                feature_dims: 8,
                queries: 1
            }
        )
        .is_err());
        // Hostile sizes: the tile count, and the padded row count on
        // its own, overflow `usize` instead of wrapping to 0.
        for feature_dims in [usize::MAX, 8] {
            let e = place(
                &spec,
                &MappingProblem {
                    stored_rows: usize::MAX,
                    feature_dims,
                    queries: 1,
                },
            )
            .unwrap_err();
            assert!(e.message.contains("too large"), "{e}");
        }
    }

    #[test]
    fn power_config_does_not_change_placement() {
        let base = place(&square_spec(64, Optimization::Base), &hdc()).unwrap();
        let power = place(&square_spec(64, Optimization::Power), &hdc()).unwrap();
        assert_eq!(base, power);
    }
}
