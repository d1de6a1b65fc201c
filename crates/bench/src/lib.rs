//! Shared helpers for the C4CAM benchmark harness: the hand-optimized
//! "manual" baseline mapping (the comparison target of the paper's
//! Fig. 7 validation), the computations of Figs. 8 and 9, of Table II,
//! of the technology study and of the §IV-B GPU comparison with their
//! asserted trends (shared with `tests/paper_figures.rs`), and table
//! formatting.

use c4cam::arch::tech::{Level, TechnologyModel};
use c4cam::arch::{ArchSpec, CamKind, MatchKind, Metric, Optimization};
use c4cam::camsim::{CamMachine, ExecStats, SearchSpec, SubarrayId};
use c4cam::compiler::mapping::{place, MappingProblem, Placement};
use c4cam::driver::{paper_arch, Experiment, RunOutcome};
use c4cam::sweep::{SweepOutcome, SweepPlan, DEFAULT_SUBARRAY_SIZES};
use c4cam::tensor::Tensor;
use c4cam::workloads::{GpuComparisonWorkload, HdcModel, HdcWorkload, KnnWorkload};
use std::fmt;
use std::ops::{Bound, RangeBounds};

/// A hand-written HDC mapping, mirroring the hand-optimized design of
/// \[22\] that the paper validates against: chunks of the class
/// hypervectors are written across subarrays once, then each query is
/// broadcast and searched fully in parallel, with per-level periphery
/// merges and a sequential host accumulation across banks.
///
/// This bypasses the compiler entirely — it drives the simulator
/// directly — so comparing it with C4CAM-generated code measures the
/// quality of the *generated mapping*, exactly like the paper's Fig. 7.
pub struct ManualHdc {
    machine: CamMachine,
    placement: Placement,
    subarrays: Vec<SubarrayId>,
    spec: ArchSpec,
    stored_rows: usize,
    dims: usize,
    setup: ExecStats,
}

impl ManualHdc {
    /// Allocate and program the accelerator for `model`.
    ///
    /// # Panics
    /// Panics if the placement or any simulator call fails (the manual
    /// baseline is used only with known-good configurations).
    pub fn program(spec: &ArchSpec, model: &HdcModel) -> ManualHdc {
        let placement = place(
            spec,
            &MappingProblem {
                stored_rows: model.classes(),
                feature_dims: model.dims(),
                queries: 1,
            },
        )
        .expect("placement");
        let mut machine = CamMachine::new(spec);
        let mut subarrays = Vec::with_capacity(placement.physical_subarrays);
        'alloc: for _ in 0..placement.banks {
            let bank = machine.alloc_bank().expect("bank");
            for _ in 0..spec.mats_per_bank {
                let mat = machine.alloc_mat(bank).expect("mat");
                for _ in 0..spec.arrays_per_mat {
                    let array = machine.alloc_array(mat).expect("array");
                    for _ in 0..spec.subarrays_per_array {
                        if subarrays.len() >= placement.physical_subarrays {
                            break 'alloc;
                        }
                        subarrays.push(machine.alloc_subarray(array).expect("subarray"));
                    }
                }
            }
        }
        // Program: chunk c of the class hypervectors → subarray c.
        let cols = spec.cols_per_subarray;
        let stored = model.class_hvs();
        for (c, &sub) in subarrays.iter().enumerate() {
            let off = c * cols;
            if off >= model.dims() {
                break;
            }
            let width = cols.min(model.dims() - off);
            let rows: Vec<Vec<f32>> = (0..model.classes())
                .map(|r| stored.row(r).expect("row")[off..off + width].to_vec())
                .collect();
            machine.write_rows(sub, 0, &rows).expect("write");
        }
        let setup = machine.stats();
        ManualHdc {
            machine,
            placement,
            subarrays,
            spec: spec.clone(),
            stored_rows: model.classes(),
            dims: model.dims(),
            setup,
        }
    }

    /// Search one query across all chunks; returns the best class.
    ///
    /// # Panics
    /// Panics on simulator errors.
    pub fn query(&mut self, query: &[f32]) -> usize {
        assert_eq!(query.len(), self.dims);
        let cols = self.spec.cols_per_subarray;
        let mut scores = vec![0.0f64; self.stored_rows];
        let m = &mut self.machine;
        let per_array = self.spec.subarrays_per_array;
        let per_mat = per_array * self.spec.arrays_per_mat;
        let per_bank = per_mat * self.spec.mats_per_bank;

        // All banks/mats/arrays/subarrays search in parallel.
        m.push_parallel(); // banks
        let mut i = 0usize;
        while i < self.subarrays.len() {
            m.push_sequential(); // one bank's work
            m.push_parallel(); // mats
            let bank_end = (i + per_bank).min(self.subarrays.len());
            while i < bank_end {
                m.push_sequential();
                m.push_parallel(); // arrays
                let mat_end = (i + per_mat).min(bank_end);
                while i < mat_end {
                    m.push_sequential();
                    m.push_parallel(); // subarrays
                    let array_end = (i + per_array).min(mat_end);
                    while i < array_end {
                        m.push_sequential();
                        let sub = self.subarrays[i];
                        let off = i * cols;
                        if off < self.dims {
                            let width = cols.min(self.dims - off);
                            let q = &query[off..off + width];
                            let result = m
                                .search(sub, q, SearchSpec::new(MatchKind::Best, Metric::Dot))
                                .expect("search");
                            for (&row, &d) in result.rows.iter().zip(&result.distances) {
                                scores[row] += d;
                            }
                        }
                        m.pop_scope();
                        i += 1;
                    }
                    m.pop_scope(); // subarrays
                    m.merge(Level::Array, self.stored_rows);
                    m.pop_scope();
                }
                m.pop_scope(); // arrays
                m.merge(Level::Mat, self.stored_rows);
                m.pop_scope();
            }
            m.pop_scope(); // mats
            m.pop_scope();
        }
        // All hierarchy scopes closed ("banks" level included); the
        // host now accumulates across banks, sequentially.
        m.pop_scope();
        for _ in 0..self.placement.banks {
            m.merge(Level::Bank, self.stored_rows);
        }
        // Best class = smallest accumulated device score (negated dots).
        scores
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c)
            .unwrap_or(0)
    }

    /// Statistics of the query phase so far (setup excluded).
    pub fn query_stats(&self) -> ExecStats {
        self.machine.stats().delta(&self.setup)
    }

    /// The placement used.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }
}

/// Run the manual baseline for all rows of `queries`, returning
/// query-phase stats.
pub fn run_manual_hdc(spec: &ArchSpec, model: &HdcModel, queries: &Tensor) -> ExecStats {
    let mut manual = ManualHdc::program(spec, model);
    for q in 0..queries.shape()[0] {
        manual.query(queries.row(q).expect("query"));
    }
    manual.query_stats()
}

/// One reproduced trend: a measured ratio and the band it must fall in.
#[derive(Debug, Clone)]
pub struct Trend {
    /// What the ratio compares.
    pub what: String,
    /// The reproduction's value.
    pub measured: f64,
    /// The accepted band.
    pub band: (Bound<f64>, Bound<f64>),
    /// The paper's figure, where it gives one (empty for an ordering).
    pub paper: &'static str,
    /// Why the reproduction deviates from the paper here, for a trend
    /// that is expected to fail (`None`: it must hold).
    pub deviation: Option<&'static str>,
}

impl Trend {
    fn new(what: String, measured: f64, band: (Bound<f64>, Bound<f64>)) -> Trend {
        Trend {
            what,
            measured,
            band,
            paper: "",
            deviation: None,
        }
    }

    fn paper(mut self, paper: &'static str) -> Trend {
        self.paper = paper;
        self
    }

    fn deviates(mut self, reason: &'static str) -> Trend {
        self.deviation = Some(reason);
        self
    }

    /// Whether the measured value lies in the band.
    pub fn holds(&self) -> bool {
        self.band.contains(&self.measured)
    }

    /// Whether the trend behaves as recorded: it holds, or it fails as
    /// a known deviation.
    pub fn as_expected(&self) -> bool {
        self.holds() != self.deviation.is_some()
    }
}

impl fmt::Display for Trend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lo = match self.band.0 {
            Bound::Included(x) => format!("[{x}"),
            Bound::Excluded(x) => format!("({x}"),
            Bound::Unbounded => "(-inf".to_string(),
        };
        let hi = match self.band.1 {
            Bound::Included(x) => format!("{x}]"),
            Bound::Excluded(x) => format!("{x})"),
            Bound::Unbounded => "inf)".to_string(),
        };
        write!(f, "{:<46} {:>8.3} in {lo}, {hi}", self.what, self.measured)?;
        if !self.paper.is_empty() {
            write!(f, "  (paper: {})", self.paper)?;
        }
        if let Some(reason) = self.deviation {
            write!(f, "  [known deviation: {reason}]")?;
        }
        Ok(())
    }
}

/// Fig. 8's optimisation configurations, with the figure's names.
pub const FIG8_CONFIGS: [(&str, Optimization); 4] = [
    ("cam-base", Optimization::Base),
    ("cam-power", Optimization::Power),
    ("cam-density", Optimization::Density),
    ("cam-density+power", Optimization::PowerDensity),
];

/// **Figure 8 (a, b, c)**: HDC at MNIST scale (10 classes × 8192
/// dims, 1 bit per cell) on square `N × N` subarrays, `N` = 16…256,
/// under the four optimisation configurations — one [`SweepPlan`] pass
/// over a single query. The query phase prices one query trip and
/// replays it, so per-query figures, and every ratio of them, are those
/// of the paper's 10 000-query test set.
pub struct Fig8 {
    outcome: SweepOutcome,
}

impl Fig8 {
    /// Compile and price the grid.
    ///
    /// # Panics
    /// Panics if a grid point fails (the grid is known-good).
    pub fn compute() -> Fig8 {
        let workload = HdcWorkload::paper(1);
        let outcome = SweepPlan::new(&workload)
            .square_subarrays(DEFAULT_SUBARRAY_SIZES)
            .optimizations(FIG8_CONFIGS.map(|(_, opt)| opt))
            .run()
            .expect("Figure 8's grid compiles and prices");
        Fig8 { outcome }
    }

    /// Query-phase statistics of one query under `opt` on `n × n`
    /// subarrays.
    ///
    /// # Panics
    /// Panics if the point is not on the grid.
    pub fn query(&self, opt: Optimization, n: usize) -> &ExecStats {
        let point = self
            .outcome
            .points
            .iter()
            .find(|p| p.grid.optimization == opt && p.grid.subarray == (n, n));
        &point.expect("a point of the grid").outcome.query_phase
    }

    /// `metric` under `opt` over `metric` under cam-base, at `n × n`.
    pub fn ratio(&self, opt: Optimization, n: usize, metric: fn(&ExecStats) -> f64) -> f64 {
        metric(self.query(opt, n)) / metric(self.query(Optimization::Base, n))
    }

    /// The §IV-C1 trends, each with its band (the bench's, unchanged)
    /// and, where the paper gives one, the paper's figure.
    pub fn trends(&self) -> Vec<Trend> {
        use Bound::{Excluded, Included, Unbounded};
        use Optimization::{Density, Power, PowerDensity};
        let (latency, energy, power) = (
            ExecStats::latency_ms as fn(&ExecStats) -> f64,
            ExecStats::energy_uj as fn(&ExecStats) -> f64,
            ExecStats::power_mw as fn(&ExecStats) -> f64,
        );
        let below = (Unbounded, Excluded(1.0));
        let above = (Excluded(1.0), Unbounded);
        let mut trends = Vec::new();
        for n in DEFAULT_SUBARRAY_SIZES {
            let at = |what: &str| format!("{what}, {n}x{n}");
            trends.extend([
                Trend::new(
                    at("cam-power power / base"),
                    self.ratio(Power, n, power),
                    below,
                ),
                Trend::new(
                    at("cam-power latency / base"),
                    self.ratio(Power, n, latency),
                    above,
                ),
                // Energy roughly preserved ("overall energy consumption
                // remains the same"); the static-power term makes
                // cam-power pay a little extra at large N.
                Trend::new(
                    at("cam-power energy / base"),
                    self.ratio(Power, n, energy),
                    (Included(0.7), Excluded(1.8)),
                ),
                Trend::new(
                    at("power+density power / cam-power"),
                    power(self.query(PowerDensity, n)) / power(self.query(Power, n)),
                    (Unbounded, Included(1.05)),
                ),
                Trend::new(
                    at("power+density power / base"),
                    self.ratio(PowerDensity, n, power),
                    below,
                ),
                Trend::new(
                    at("cam-density latency / base"),
                    self.ratio(Density, n, latency),
                    (Included(1.0), Unbounded),
                ),
            ]);
        }
        let penalty = |n| self.ratio(Power, n, latency);
        trends.extend([
            // 3.97 here.
            Trend::new(
                "cam-power latency / base, 32x32".to_string(),
                penalty(32),
                (Included(1.5), Excluded(4.5)),
            )
            .paper("2x"),
            // 6.56 here.
            Trend::new(
                "cam-power latency / base, 256x256".to_string(),
                penalty(256),
                (Included(3.0), Excluded(8.0)),
            )
            .paper("4.86x"),
            Trend::new(
                "cam-power latency penalty, 256 over 32".to_string(),
                penalty(256) / penalty(32),
                above,
            )
            .paper("grows with N"),
            // 20.75 here.
            Trend::new(
                "cam-density latency / base, 256x256".to_string(),
                self.ratio(Density, 256, latency),
                (Included(10.0), Excluded(40.0)),
            )
            .paper("~23x"),
        ]);
        for (n, band, paper) in [
            (32, below, "below base"),
            (64, below, "below base"),
            (256, above, "above base"),
        ] {
            let what = format!("cam-density energy / base, {n}x{n}");
            trends.push(Trend::new(what, self.ratio(Density, n, energy), band).paper(paper));
        }
        trends
    }
}

/// The technology study's subarray sizes.
pub const TECH_DSE_SIZES: [usize; 4] = [16, 32, 64, 128];

/// **Technology retargetability** (paper abstract and §I): the same
/// HDC application (10 classes × 8192 dims, 16 queries, cam-base,
/// 1 bit per cell) on the paper's 2FeFET CAM at 45 nm and a CMOS TCAM
/// at 16 nm, over [`TECH_DSE_SIZES`] — one [`SweepPlan`] pass, in which
/// each size compiles one plan and both technologies run it.
pub struct TechDse {
    outcome: SweepOutcome,
}

impl TechDse {
    /// The two technologies, with the names the study reports.
    pub fn technologies() -> [(&'static str, TechnologyModel); 2] {
        [
            ("FeFET-45nm", TechnologyModel::fefet_45nm()),
            ("CMOS-16nm", TechnologyModel::cmos_tcam_16nm()),
        ]
    }

    /// Compile and price the grid.
    ///
    /// # Panics
    /// Panics if a grid point fails (the grid is known-good).
    pub fn compute() -> TechDse {
        let workload = HdcWorkload::paper(16);
        let technologies =
            TechDse::technologies().map(|(name, tech)| (name.to_string(), Some(tech)));
        let outcome = SweepPlan::new(&workload)
            .square_subarrays(TECH_DSE_SIZES)
            .optimizations([Optimization::Base])
            .technologies(technologies)
            .run()
            .expect("the technology study's grid compiles and prices");
        TechDse { outcome }
    }

    /// The run of technology `tech` (a name of
    /// [`TechDse::technologies`]) on `n × n` subarrays.
    ///
    /// # Panics
    /// Panics if the point is not on the grid.
    pub fn point(&self, tech: &str, n: usize) -> &RunOutcome {
        let point = self
            .outcome
            .points
            .iter()
            .find(|p| p.grid.tech_name == tech && p.grid.subarray == (n, n));
        &point.expect("a point of the grid").outcome
    }

    /// `metric` on CMOS over `metric` on FeFET, at `n × n`.
    pub fn cmos_over_fefet(&self, n: usize, metric: fn(&RunOutcome) -> f64) -> f64 {
        metric(self.point("CMOS-16nm", n)) / metric(self.point("FeFET-45nm", n))
    }

    /// The abstract's claim at every size, each with its band: the
    /// technology changes no answer, CMOS is faster per query, FeFET
    /// more than 1.5× more energy-efficient.
    pub fn trends(&self) -> Vec<Trend> {
        use Bound::{Excluded, Included, Unbounded};
        let mut trends = Vec::new();
        for n in TECH_DSE_SIZES {
            let at = |what: &str| format!("{what}, {n}x{n}");
            let agreement = self
                .point("CMOS-16nm", n)
                .prediction_agreement(&self.point("FeFET-45nm", n).predictions);
            trends.extend([
                Trend::new(
                    at("CMOS / FeFET prediction agreement"),
                    agreement,
                    (Included(1.0), Included(1.0)),
                )
                .paper("same application, same answers"),
                Trend::new(
                    at("CMOS / FeFET latency per query"),
                    self.cmos_over_fefet(n, RunOutcome::latency_per_query_ns),
                    (Unbounded, Excluded(1.0)),
                )
                .paper("CMOS faster"),
                Trend::new(
                    at("CMOS / FeFET energy per query"),
                    self.cmos_over_fefet(n, RunOutcome::energy_per_query_pj),
                    (Excluded(1.5), Unbounded),
                )
                .paper("FeFET more energy-efficient"),
            ]);
        }
        trends
    }
}

/// Fig. 9's configurations, with the figure's names.
pub const FIG9_CONFIGS: [(&str, Optimization); 3] = [
    ("iso-base", Optimization::Base),
    ("iso-density", Optimization::Density),
    ("iso-density+power", Optimization::PowerDensity),
];

/// The paper's test-set size (MNIST's 10 000 images), over which Fig. 9
/// and the GPU comparison report.
pub const FIG9_QUERIES: usize = 10_000;

/// **Figure 9 (a, b)**, iso-capacity (§IV-C2): every array holds 2^16
/// TCAM cells whatever its subarray size, `N × N` for `N` = 16…256 (256
/// subarrays of 16 × 16 per array down to one of 256 × 256), under 4
/// mats per bank and 4 arrays per mat. HDC at MNIST scale (10 classes
/// × 8192 dims), each point compiled once and priced at the 10 000-query
/// test set, never run.
pub struct Fig9Iso {
    /// The query phase of each `(optimisation, N)`.
    points: Vec<((Optimization, usize), ExecStats)>,
}

impl Fig9Iso {
    /// The iso-capacity architecture of `n × n` subarrays under `opt`.
    ///
    /// # Panics
    /// Panics if `n × n` does not divide 2^16.
    pub fn arch(n: usize, opt: Optimization) -> ArchSpec {
        ArchSpec::builder()
            .subarray(n, n)
            .hierarchy(4, 4, (1usize << 16) / (n * n))
            .cam_kind(CamKind::Tcam)
            .optimization(opt)
            .build()
            .expect("an iso-capacity spec")
    }

    /// Compile and price every point.
    ///
    /// # Panics
    /// Panics if a point fails (the grid is known-good).
    pub fn compute() -> Fig9Iso {
        let workload = HdcWorkload::paper(1);
        let mut points = Vec::new();
        for (_, opt) in FIG9_CONFIGS {
            for n in DEFAULT_SUBARRAY_SIZES {
                let compiled = Experiment::new(&workload)
                    .arch(Fig9Iso::arch(n, opt))
                    .compile()
                    .expect("an iso-capacity point compiles");
                let cost = compiled
                    .cost(FIG9_QUERIES)
                    .expect("the tape backend prices");
                points.push(((opt, n), cost.query_phase()));
            }
        }
        Fig9Iso { points }
    }

    /// Query-phase statistics of the 10 000 queries under `opt` on
    /// `n × n` subarrays.
    ///
    /// # Panics
    /// Panics if the point is not on the grid.
    pub fn query_phase(&self, opt: Optimization, n: usize) -> &ExecStats {
        let point = self.points.iter().find(|(at, _)| *at == (opt, n));
        &point.expect("a point of the grid").1
    }

    /// The §IV-C2 trends, each with its band (the bench's) and, where
    /// the paper gives one, the paper's figure.
    pub fn trends(&self) -> Vec<Trend> {
        use Bound::{Excluded, Included, Unbounded};
        use Optimization::{Base, PowerDensity};
        let base = |n, metric: fn(&ExecStats) -> f64| metric(self.query_phase(Base, n));
        let energy: Vec<f64> = DEFAULT_SUBARRAY_SIZES
            .iter()
            .map(|&n| base(n, ExecStats::energy_uj))
            .collect();
        let spread = energy.iter().copied().fold(f64::MIN, f64::max)
            / energy.iter().copied().fold(f64::MAX, f64::min);
        let mut trends = vec![
            Trend::new(
                "iso-base energy, max / min over N".to_string(),
                spread,
                (Unbounded, Excluded(2.2)),
            )
            .paper("nearly constant"),
            Trend::new(
                "iso-base latency, 256x256 / 16x16".to_string(),
                base(256, ExecStats::latency_ms) / base(16, ExecStats::latency_ms),
                (Included(1.5), Excluded(6.0)),
            )
            .paper("~2.6x (58 -> 150 us)"),
        ];
        for n in [16, 32, 64] {
            let power = self.query_phase(PowerDensity, n).power_mw() / base(n, ExecStats::power_mw);
            trends.push(
                Trend::new(
                    format!("iso-density+power power / iso-base, {n}x{n}"),
                    power,
                    (Unbounded, Excluded(0.8)),
                )
                .paper("density cuts power"),
            );
        }
        trends
    }
}

/// **§IV-B GPU comparison**: end-to-end HDC at MNIST scale (10 classes
/// × 8192 dims, 32 × 32 subarrays, 1 bit per cell) on the CAM system
/// against the analytic RTX-6000-class GPU model, over the 10 000-query
/// test set. The compiled program is priced from its schedule; the
/// hand-optimized design ([`ManualHdc`]) runs 32 queries and is scaled
/// to the test set, for the paper's cross-check against it.
pub struct GpuComparison {
    /// The GPU model's name.
    pub gpu: String,
    /// The compiled program against the GPU.
    pub compiled: c4cam::workloads::gpu::GpuComparison,
    /// The hand-optimized design's latency against the GPU, at the
    /// compiled program's energy.
    pub manual: c4cam::workloads::gpu::GpuComparison,
}

impl GpuComparison {
    /// Price the compiled program and run the hand-optimized design.
    ///
    /// # Panics
    /// Panics if the paper's HDC setting fails to compile or price.
    pub fn compute() -> GpuComparison {
        let simulated = 32;
        let spec = paper_arch(32, Optimization::Base, 1);
        let workload = GpuComparisonWorkload::paper(simulated);
        let cam = Experiment::new(&workload)
            .arch(spec.clone())
            .compile()
            .expect("cam compile")
            .cost(FIG9_QUERIES)
            .expect("the tape backend prices")
            .query_phase();
        let (latency_s, energy_j) = (cam.latency_ns * 1e-9, cam.total_energy_fj() * 1e-15);
        let model = HdcModel::random(10, 8192, 1, 42);
        let (queries, _) = model.queries(simulated, 0.1, 42);
        let manual = run_manual_hdc(&spec, &model, &queries);
        let manual_latency_s = manual.latency_ns / simulated as f64 * FIG9_QUERIES as f64 * 1e-9;
        GpuComparison {
            gpu: workload.gpu.name.clone(),
            compiled: workload.comparison(FIG9_QUERIES, latency_s, energy_j),
            manual: workload.comparison(FIG9_QUERIES, manual_latency_s, energy_j),
        }
    }

    /// How far the compiled program's execution-time improvement lies
    /// from the hand-optimized design's, in percent.
    pub fn deviation_from_manual_pct(&self) -> f64 {
        let manual = self.manual.latency_improvement();
        100.0 * (self.compiled.latency_improvement() - manual).abs() / manual
    }

    /// The §IV-B trends, each with its band (the bench's) and the
    /// paper's figure.
    pub fn trends(&self) -> Vec<Trend> {
        use Bound::{Excluded, Included, Unbounded};
        let time = self.compiled.latency_improvement();
        let energy = self.compiled.energy_improvement();
        vec![
            Trend::new(
                "execution-time improvement over the GPU".to_string(),
                time,
                (Excluded(40.0), Unbounded),
            )
            .paper("48x"),
            Trend::new(
                "energy improvement over the GPU".to_string(),
                energy,
                (Excluded(40.0), Unbounded),
            )
            .paper("46.8x"),
            Trend::new(
                "energy improvement / execution-time improvement".to_string(),
                energy / time,
                (Included(0.8), Excluded(1.2)),
            )
            .paper("energy tracks time"),
            Trend::new(
                "deviation from the manual design, %".to_string(),
                self.deviation_from_manual_pct(),
                (Included(0.0), Included(5.0)),
            )
            .paper("within 5%"),
        ]
    }
}

/// Table II's configurations, with the table's names.
pub const TABLE2_CONFIGS: [(&str, Optimization); 2] = [
    ("cam-based", Optimization::Base),
    ("cam-power", Optimization::Power),
];

/// **Table II**: kNN on the Pneumonia geometry (5216 stored patterns ×
/// 4096 features, one query, 1 bit per cell) on square `N × N`
/// subarrays, `N` = 16…256, for cam-based and cam-power — one
/// [`SweepPlan`] pass, priced from the compiled schedules (the
/// 83k-subarray machine of the 16×16 row is never built).
pub struct Table2Knn {
    outcome: SweepOutcome,
}

impl Table2Knn {
    /// Compile and price the grid.
    ///
    /// # Panics
    /// Panics if a grid point fails (the grid is known-good).
    pub fn compute() -> Table2Knn {
        let workload = KnnWorkload::paper(1);
        let outcome = SweepPlan::new(&workload)
            .square_subarrays(DEFAULT_SUBARRAY_SIZES)
            .optimizations(TABLE2_CONFIGS.map(|(_, opt)| opt))
            .run()
            .expect("Table II's grid compiles and prices");
        Table2Knn { outcome }
    }

    /// The point of `opt` on `n × n` subarrays.
    ///
    /// # Panics
    /// Panics if the point is not on the grid.
    pub fn point(&self, opt: Optimization, n: usize) -> &RunOutcome {
        let point = self
            .outcome
            .points
            .iter()
            .find(|p| p.grid.optimization == opt && p.grid.subarray == (n, n));
        &point.expect("a point of the grid").outcome
    }

    /// Power of one query under `opt` on `n × n` subarrays, W.
    pub fn power_w(&self, opt: Optimization, n: usize) -> f64 {
        self.point(opt, n).query_phase.power_w()
    }

    /// EDP of one query under `opt` on `n × n` subarrays, nJ·s.
    pub fn edp_nj_s(&self, opt: Optimization, n: usize) -> f64 {
        self.point(opt, n).query_phase.edp_nj_s()
    }

    /// The Table II trends: those that hold, each with the bench's
    /// band, and the known deviations from the paper's figures, each
    /// expected to fail with its reason.
    pub fn trends(&self) -> Vec<Trend> {
        use Bound::{Excluded, Included, Unbounded};
        use Optimization::{Base, Power};
        let below = (Unbounded, Excluded(1.0));
        let above = (Excluded(1.0), Unbounded);
        let sizes = DEFAULT_SUBARRAY_SIZES;
        let mut trends = Vec::new();
        for (name, opt) in TABLE2_CONFIGS {
            for w in [16, 32, 64].windows(2) {
                trends.push(Trend::new(
                    format!("{name} EDP, {0}x{0} / {1}x{1}", w[1], w[0]),
                    self.edp_nj_s(opt, w[1]) / self.edp_nj_s(opt, w[0]),
                    below,
                ));
            }
            trends.push(Trend::new(
                format!("{name} EDP, 16x16 / 128x128"),
                self.edp_nj_s(opt, 16) / self.edp_nj_s(opt, 128),
                (Excluded(4.0), Unbounded),
            ));
        }
        for n in sizes {
            trends.extend([
                Trend::new(
                    format!("cam-power power / cam-based, {n}x{n}"),
                    self.power_w(Power, n) / self.power_w(Base, n),
                    below,
                ),
                Trend::new(
                    format!("cam-power EDP / cam-based, {n}x{n}"),
                    self.edp_nj_s(Power, n) / self.edp_nj_s(Base, n),
                    above,
                ),
            ]);
        }
        for w in sizes.windows(2) {
            let (a, b) = (w[0], w[1]);
            trends.push(
                Trend::new(
                    format!("cam-power power, {b}x{b} / {a}x{a}"),
                    self.power_w(Power, b) / self.power_w(Power, a),
                    below,
                )
                .paper("falls 25.23 -> 0.19 W"),
            );
        }
        // Watts-scale: the dataset needs ~650 banks at 16x16, where HDC
        // draws milliwatts on the same technology.
        trends.push(Trend::new(
            "cam-based power, 16x16, W".to_string(),
            self.power_w(Base, 16),
            (Excluded(0.5), Unbounded),
        ));
        let edp = sizes.map(|n| self.edp_nj_s(Base, n));
        let fold = |f: fn(f64, f64) -> f64, init| edp.iter().copied().fold(init, f);
        let rises = sizes
            .windows(2)
            .map(|w| self.power_w(Base, w[1]) / self.power_w(Base, w[0]));
        let within_1_5x = (Included(1.0 / 1.5), Included(1.5));
        trends.extend([
            // 126 here, 16x16 over 128x128.
            Trend::new(
                "cam-based EDP, max / min over N".to_string(),
                fold(f64::max, 0.0) / fold(f64::min, f64::INFINITY),
                (Included(7.5), Included(30.0)),
            )
            .paper("~15x")
            .deviates(
                "latency and energy per query both fall with N and EDP multiplies the two \
                 falls; the cause is not yet attributed to a call class",
            ),
            // 1.80 here, 32x32 to 64x64.
            Trend::new(
                "cam-based power, largest rise to the next N".to_string(),
                rises.fold(0.0, f64::max),
                below,
            )
            .paper("falls 44 -> 0.86 W")
            .deviates(
                "power is energy over latency, and per-query latency collapses faster than \
                 energy as subarrays grow",
            ),
            // 1.44 W here.
            Trend::new(
                "cam-based power, 16x16, over the paper's".to_string(),
                self.power_w(Base, 16) / 44.0,
                within_1_5x,
            )
            .paper("44 W")
            .deviates("the technology model is not calibrated to the paper's absolute watts"),
            // 0.37 W here.
            Trend::new(
                "cam-power power, 256x256, over the paper's".to_string(),
                self.power_w(Power, 256) / 0.19,
                within_1_5x,
            )
            .paper("0.19 W")
            .deviates("the technology model is not calibrated to the paper's absolute watts"),
        ]);
        trends
    }
}

/// Print a section header for bench output.
pub fn section(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}
