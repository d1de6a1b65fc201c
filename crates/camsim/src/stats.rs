//! Execution statistics: energy, latency and derived metrics (power,
//! EDP) in the units the paper reports.

use std::fmt;

use c4cam_telemetry::json;

/// Accumulated costs of a simulated execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Number of subarray search operations issued.
    pub search_ops: u64,
    /// Packed plane words (or walked cells, for fallback rows and the
    /// naive kernel) visited by searches — the simulator-side work
    /// metric behind the packed match planes.
    pub searched_words: u64,
    /// Number of subarray write (program) operations.
    pub write_ops: u64,
    /// Number of result read-outs.
    pub read_ops: u64,
    /// Number of partial-result merge operations.
    pub merge_ops: u64,
    /// Cells whose programmed value a permanent fault (stuck-at /
    /// drift) altered. Zero on an ideal device.
    pub fault_cells: u64,
    /// Search-row distances a transient fault perturbed. Zero on an
    /// ideal device.
    pub fault_transients: u64,
    /// Logical rows remapped onto spare rows at allocation time.
    pub rows_remapped: u64,
    /// Dynamic cell search energy, fJ.
    pub cell_energy_fj: f64,
    /// Peripheral (sense amps, drivers, encoders) energy, fJ.
    pub periph_energy_fj: f64,
    /// Merge/accumulation energy, fJ.
    pub merge_energy_fj: f64,
    /// Write/program energy, fJ.
    pub write_energy_fj: f64,
    /// Static (leakage) energy of the provisioned system, fJ — derived
    /// as static power × elapsed time when the snapshot is taken.
    pub static_energy_fj: f64,
    /// End-to-end latency, ns (parallel scopes folded as max).
    pub latency_ns: f64,
    /// Banks allocated.
    pub banks_allocated: usize,
    /// Mats allocated.
    pub mats_allocated: usize,
    /// Arrays allocated.
    pub arrays_allocated: usize,
    /// Subarrays allocated.
    pub subarrays_allocated: usize,
}

impl ExecStats {
    /// Total energy, fJ.
    pub fn total_energy_fj(&self) -> f64 {
        self.cell_energy_fj
            + self.periph_energy_fj
            + self.merge_energy_fj
            + self.write_energy_fj
            + self.static_energy_fj
    }

    /// Total energy, pJ.
    pub fn energy_pj(&self) -> f64 {
        self.total_energy_fj() / 1e3
    }

    /// Total energy, µJ.
    pub fn energy_uj(&self) -> f64 {
        self.total_energy_fj() / 1e9
    }

    /// Latency, ms.
    pub fn latency_ms(&self) -> f64 {
        self.latency_ns / 1e6
    }

    /// Latency, µs.
    pub fn latency_us(&self) -> f64 {
        self.latency_ns / 1e3
    }

    /// Average power, W (energy / latency).
    ///
    /// Returns 0 for zero-latency executions.
    pub fn power_w(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            return 0.0;
        }
        // fJ / ns = µW; convert to W.
        (self.total_energy_fj() / self.latency_ns) * 1e-6
    }

    /// Average power, mW.
    pub fn power_mw(&self) -> f64 {
        self.power_w() * 1e3
    }

    /// Energy-delay product in nJ·s (Table II's unit).
    pub fn edp_nj_s(&self) -> f64 {
        let energy_nj = self.total_energy_fj() / 1e6;
        let latency_s = self.latency_ns / 1e9;
        energy_nj * latency_s
    }

    /// Query broadcasts (subarray search operations) per simulated
    /// second of device time.
    ///
    /// Returns 0 for zero-latency executions.
    pub fn queries_per_second(&self) -> f64 {
        if self.latency_ns <= 0.0 {
            return 0.0;
        }
        self.search_ops as f64 / (self.latency_ns * 1e-9)
    }

    /// Costs accumulated since the `earlier` snapshot (counter-wise
    /// subtraction; allocation gauges keep the later values).
    pub fn delta(&self, earlier: &ExecStats) -> ExecStats {
        ExecStats {
            search_ops: self.search_ops - earlier.search_ops,
            searched_words: self.searched_words - earlier.searched_words,
            write_ops: self.write_ops - earlier.write_ops,
            read_ops: self.read_ops - earlier.read_ops,
            merge_ops: self.merge_ops - earlier.merge_ops,
            fault_cells: self.fault_cells - earlier.fault_cells,
            fault_transients: self.fault_transients - earlier.fault_transients,
            // Alloc-time state, not a flow — gauge semantics like the
            // allocation counts below.
            rows_remapped: self.rows_remapped,
            cell_energy_fj: self.cell_energy_fj - earlier.cell_energy_fj,
            periph_energy_fj: self.periph_energy_fj - earlier.periph_energy_fj,
            merge_energy_fj: self.merge_energy_fj - earlier.merge_energy_fj,
            write_energy_fj: self.write_energy_fj - earlier.write_energy_fj,
            static_energy_fj: self.static_energy_fj - earlier.static_energy_fj,
            latency_ns: self.latency_ns - earlier.latency_ns,
            banks_allocated: self.banks_allocated,
            mats_allocated: self.mats_allocated,
            arrays_allocated: self.arrays_allocated,
            subarrays_allocated: self.subarrays_allocated,
        }
    }

    /// Serialize as a JSON object (stable field names; no trailing
    /// newline) for `--format json` CLI output and scripted DSE sweeps.
    pub fn to_json(&self) -> String {
        json::object(|o| {
            o.put("search_ops", self.search_ops)
                .put("searched_words", self.searched_words)
                .put("write_ops", self.write_ops)
                .put("read_ops", self.read_ops)
                .put("merge_ops", self.merge_ops)
                .put("cell_energy_fj", self.cell_energy_fj)
                .put("periph_energy_fj", self.periph_energy_fj)
                .put("merge_energy_fj", self.merge_energy_fj)
                .put("write_energy_fj", self.write_energy_fj)
                .put("static_energy_fj", self.static_energy_fj)
                .put("total_energy_fj", self.total_energy_fj())
                .put("latency_ns", self.latency_ns)
                .put("power_w", self.power_w())
                .put("queries_per_second", self.queries_per_second())
                .put("edp_nj_s", self.edp_nj_s())
                .put("banks_allocated", self.banks_allocated)
                .put("mats_allocated", self.mats_allocated)
                .put("arrays_allocated", self.arrays_allocated)
                .put("subarrays_allocated", self.subarrays_allocated)
                .put("fault_cells", self.fault_cells)
                .put("fault_transients", self.fault_transients)
                .put("rows_remapped", self.rows_remapped);
        })
    }

    /// Merge another stats record into this one (sequential composition:
    /// latencies add).
    pub fn absorb(&mut self, other: &ExecStats) {
        self.search_ops += other.search_ops;
        self.searched_words += other.searched_words;
        self.write_ops += other.write_ops;
        self.read_ops += other.read_ops;
        self.merge_ops += other.merge_ops;
        self.fault_cells += other.fault_cells;
        self.fault_transients += other.fault_transients;
        self.rows_remapped = self.rows_remapped.max(other.rows_remapped);
        self.cell_energy_fj += other.cell_energy_fj;
        self.periph_energy_fj += other.periph_energy_fj;
        self.merge_energy_fj += other.merge_energy_fj;
        self.write_energy_fj += other.write_energy_fj;
        self.static_energy_fj += other.static_energy_fj;
        self.latency_ns += other.latency_ns;
        self.banks_allocated = self.banks_allocated.max(other.banks_allocated);
        self.mats_allocated = self.mats_allocated.max(other.mats_allocated);
        self.arrays_allocated = self.arrays_allocated.max(other.arrays_allocated);
        self.subarrays_allocated = self.subarrays_allocated.max(other.subarrays_allocated);
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ops: {} searches ({} words), {} writes, {} reads, {} merges",
            self.search_ops, self.searched_words, self.write_ops, self.read_ops, self.merge_ops
        )?;
        // Fault counters only appear when something actually fired, so
        // ideal-device output stays byte-identical to the pre-fault
        // format.
        if self.fault_cells > 0 || self.fault_transients > 0 || self.rows_remapped > 0 {
            writeln!(
                f,
                "faults: {} stuck/drifted cells, {} transient mismatches, {} rows remapped",
                self.fault_cells, self.fault_transients, self.rows_remapped
            )?;
        }
        writeln!(
            f,
            "alloc: {} banks, {} mats, {} arrays, {} subarrays",
            self.banks_allocated,
            self.mats_allocated,
            self.arrays_allocated,
            self.subarrays_allocated
        )?;
        writeln!(
            f,
            "energy: {:.3} µJ (cells {:.1}%, periph {:.1}%, merge {:.1}%, write {:.1}%, static {:.1}%)",
            self.energy_uj(),
            100.0 * self.cell_energy_fj / self.total_energy_fj().max(1e-12),
            100.0 * self.periph_energy_fj / self.total_energy_fj().max(1e-12),
            100.0 * self.merge_energy_fj / self.total_energy_fj().max(1e-12),
            100.0 * self.write_energy_fj / self.total_energy_fj().max(1e-12),
            100.0 * self.static_energy_fj / self.total_energy_fj().max(1e-12),
        )?;
        write!(
            f,
            "latency: {:.3} ms | power: {:.3} mW | {:.0} queries/s | EDP: {:.4} nJ·s",
            self.latency_ms(),
            self.power_mw(),
            self.queries_per_second(),
            self.edp_nj_s()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics_use_consistent_units() {
        let s = ExecStats {
            cell_energy_fj: 1e9, // 1 µJ
            latency_ns: 1e6,     // 1 ms
            ..Default::default()
        };
        assert!((s.energy_uj() - 1.0).abs() < 1e-12);
        assert!((s.latency_ms() - 1.0).abs() < 1e-12);
        // 1 µJ / 1 ms = 1 mW
        assert!((s.power_mw() - 1.0).abs() < 1e-9);
        // 1000 nJ × 1e-3 s = 1 nJ·s
        assert!((s.edp_nj_s() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_latency_power_is_zero() {
        let s = ExecStats::default();
        assert_eq!(s.power_w(), 0.0);
    }

    #[test]
    fn absorb_sums_energy_and_latency() {
        let mut a = ExecStats {
            search_ops: 2,
            cell_energy_fj: 10.0,
            latency_ns: 5.0,
            subarrays_allocated: 4,
            ..Default::default()
        };
        let b = ExecStats {
            search_ops: 3,
            cell_energy_fj: 20.0,
            latency_ns: 7.0,
            subarrays_allocated: 2,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.search_ops, 5);
        assert_eq!(a.cell_energy_fj, 30.0);
        assert_eq!(a.latency_ns, 12.0);
        assert_eq!(a.subarrays_allocated, 4);
    }

    #[test]
    fn display_is_nonempty() {
        let s = ExecStats::default();
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn json_has_stable_fields_and_finite_numbers() {
        let s = ExecStats {
            search_ops: 3,
            cell_energy_fj: 1.5,
            latency_ns: 2.0,
            subarrays_allocated: 4,
            ..Default::default()
        };
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"search_ops\":3"), "{j}");
        assert!(j.contains("\"searched_words\":0"), "{j}");
        assert!(j.contains("\"queries_per_second\":1500000000"), "{j}");
        assert!(j.contains("\"cell_energy_fj\":1.5"), "{j}");
        assert!(j.contains("\"subarrays_allocated\":4"), "{j}");
        assert!(!j.contains("inf") && !j.contains("NaN"), "{j}");
    }

    #[test]
    fn queries_per_second_derives_from_search_ops() {
        let s = ExecStats {
            search_ops: 4,
            latency_ns: 2e9, // 2 s
            ..Default::default()
        };
        assert!((s.queries_per_second() - 2.0).abs() < 1e-12);
        assert_eq!(ExecStats::default().queries_per_second(), 0.0);
    }
}
