//! The architecture specification type and its builder.

use std::error::Error;
use std::fmt;

/// CAM device family (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CamKind {
    /// Ternary CAM: cells store 0/1/don't-care, Hamming-style matching.
    #[default]
    Tcam,
    /// Multi-bit CAM: cells store small integers, distance-based matching.
    Mcam,
    /// Analog CAM: cells store acceptance ranges.
    Acam,
}

impl CamKind {
    /// Keyword used in spec files.
    pub fn keyword(self) -> &'static str {
        match self {
            CamKind::Tcam => "tcam",
            CamKind::Mcam => "mcam",
            CamKind::Acam => "acam",
        }
    }
}

impl fmt::Display for CamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Search/match scheme supported by the sensing circuit (paper §II-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// Exact match: all cells of the row match the query.
    Exact,
    /// Best match: row(s) with minimum distance.
    Best,
    /// Threshold match: rows with distance within a threshold.
    Threshold,
}

impl MatchKind {
    /// Keyword used in the `cam` dialect and spec files.
    pub fn keyword(self) -> &'static str {
        match self {
            MatchKind::Exact => "exact",
            MatchKind::Best => "best",
            MatchKind::Threshold => "threshold",
        }
    }

    /// Parse from keyword.
    pub fn from_keyword(s: &str) -> Option<MatchKind> {
        match s {
            "exact" => Some(MatchKind::Exact),
            "best" => Some(MatchKind::Best),
            "threshold" | "range" => Some(MatchKind::Threshold),
            _ => None,
        }
    }
}

impl fmt::Display for MatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Distance metric used during search (paper §III-D2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Bitwise Hamming distance (BCAM/TCAM).
    Hamming,
    /// Euclidean distance (MCAM/ACAM).
    Euclidean,
    /// Dot-product similarity (implemented on CAMs by encoding; kept as a
    /// metric so `cim.similarity dot` lowers without loss).
    Dot,
}

impl Metric {
    /// Keyword used in the `cam` dialect.
    pub fn keyword(self) -> &'static str {
        match self {
            Metric::Hamming => "hamming",
            Metric::Euclidean => "eucl",
            Metric::Dot => "dot",
        }
    }

    /// Parse from keyword.
    pub fn from_keyword(s: &str) -> Option<Metric> {
        match s {
            "hamming" => Some(Metric::Hamming),
            "eucl" | "euclidean" => Some(Metric::Euclidean),
            "dot" => Some(Metric::Dot),
            _ => None,
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Whether sibling units at one hierarchy level operate concurrently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessMode {
    /// All units at this level search in parallel.
    #[default]
    Parallel,
    /// Units at this level are activated one after another.
    Sequential,
}

impl AccessMode {
    /// Keyword used in spec files.
    pub fn keyword(self) -> &'static str {
        match self {
            AccessMode::Parallel => "parallel",
            AccessMode::Sequential => "sequential",
        }
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// Access mode per hierarchy level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelAccess {
    /// Across banks.
    pub bank: AccessMode,
    /// Across mats within a bank.
    pub mat: AccessMode,
    /// Across arrays within a mat.
    pub array: AccessMode,
    /// Across subarrays within an array.
    pub subarray: AccessMode,
}

/// Optimization target / configuration from the paper's evaluation
/// (§IV-C1): *cam-base*, *cam-power*, *cam-density*, *cam-power+density*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Optimization {
    /// `cam-base`: maximize parallelism (optimize latency).
    #[default]
    Base,
    /// `cam-power`: at most one subarray active per array at a time.
    Power,
    /// `cam-density`: selective search packs multiple row batches per
    /// array, improving utilization/capacity.
    Density,
    /// `cam-power+density`: both restrictions combined.
    PowerDensity,
}

impl Optimization {
    /// Keyword used in spec files.
    pub fn keyword(self) -> &'static str {
        match self {
            Optimization::Base => "latency",
            Optimization::Power => "power",
            Optimization::Density => "density",
            Optimization::PowerDensity => "power+density",
        }
    }

    /// Parse from keyword (delegates to [`std::str::FromStr`]).
    pub fn from_keyword(s: &str) -> Option<Optimization> {
        s.parse().ok()
    }

    /// Whether this configuration limits concurrently active subarrays.
    pub fn limits_power(self) -> bool {
        matches!(self, Optimization::Power | Optimization::PowerDensity)
    }

    /// Whether this configuration uses selective search for density.
    pub fn uses_selective_search(self) -> bool {
        matches!(self, Optimization::Density | Optimization::PowerDensity)
    }
}

impl fmt::Display for Optimization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

impl std::str::FromStr for Optimization {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Optimization, SpecError> {
        match s {
            "latency" | "base" | "performance" => Ok(Optimization::Base),
            "power" => Ok(Optimization::Power),
            "density" | "utilization" => Ok(Optimization::Density),
            "power+density" | "density+power" => Ok(Optimization::PowerDensity),
            _ => Err(SpecError {
                message: format!(
                    "unknown optimization '{s}' (expected latency|power|density|power+density)"
                ),
            }),
        }
    }
}

/// Invalid specification error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Description of the violated constraint.
    pub message: String,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid architecture spec: {}", self.message)
    }
}

impl Error for SpecError {}

/// A validated CAM accelerator architecture description (paper §II-C and
/// §III-B): `B` banks × `T` mats × `A` arrays × `S` subarrays of
/// `R × C` cells.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchSpec {
    /// CAM device family.
    pub cam_kind: CamKind,
    /// Bits stored per cell (1 = binary/ternary, 2 = multi-bit, ...).
    pub bits_per_cell: u32,
    /// Rows per subarray (`R`).
    pub rows_per_subarray: usize,
    /// Columns per subarray (`C`).
    pub cols_per_subarray: usize,
    /// Subarrays per array (`S`).
    pub subarrays_per_array: usize,
    /// Arrays per mat (`A`).
    pub arrays_per_mat: usize,
    /// Mats per bank (`T`).
    pub mats_per_bank: usize,
    /// Fixed bank count, or `None` for "as many as the data needs".
    pub banks: Option<usize>,
    /// Per-level access modes.
    pub access: LevelAccess,
    /// Whether selective row precharging is available (paper \[27\]).
    pub selective_rows: bool,
    /// Optimization target for the mapping passes.
    pub optimization: Optimization,
    /// Process node in nm (cost-model metadata).
    pub process_node_nm: u32,
    /// Host/device word width in bits (interface metadata).
    pub word_width: u32,
}

impl Default for ArchSpec {
    /// The paper's baseline system configuration (§IV-B): 32×32
    /// subarrays, 8 subarrays/array, 4 arrays/mat, 4 mats/bank,
    /// as many banks as needed, everything parallel.
    fn default() -> Self {
        ArchSpec {
            cam_kind: CamKind::Tcam,
            bits_per_cell: 1,
            rows_per_subarray: 32,
            cols_per_subarray: 32,
            subarrays_per_array: 8,
            arrays_per_mat: 4,
            mats_per_bank: 4,
            banks: None,
            access: LevelAccess::default(),
            selective_rows: true,
            optimization: Optimization::Base,
            process_node_nm: 45,
            word_width: 64,
        }
    }
}

impl ArchSpec {
    /// Most cells one subarray may hold: 2²⁰ (1024 × 1024), 16× the
    /// paper's largest 256 × 256. The simulator allocates a subarray's
    /// planes whole, so a larger geometry is refused at validation rather
    /// than as gigabytes of zero pages at the first executed point.
    pub const MAX_CELLS_PER_SUBARRAY: usize = 1 << 20;

    /// Start building a spec from the defaults.
    pub fn builder() -> ArchSpecBuilder {
        ArchSpecBuilder {
            spec: ArchSpec::default(),
        }
    }

    /// Cells per subarray (`R × C`).
    pub fn cells_per_subarray(&self) -> usize {
        self.rows_per_subarray * self.cols_per_subarray
    }

    /// Subarrays per bank (`S × A × T`).
    pub fn subarrays_per_bank(&self) -> usize {
        self.subarrays_per_array * self.arrays_per_mat * self.mats_per_bank
    }

    /// Cells per array.
    pub fn cells_per_array(&self) -> usize {
        self.cells_per_subarray() * self.subarrays_per_array
    }

    /// Banks needed to provide `n` subarrays (respects a fixed bank count).
    ///
    /// # Errors
    /// Fails if a fixed bank count is too small for `n`.
    pub fn banks_for_subarrays(&self, n: usize) -> Result<usize, SpecError> {
        let per_bank = self.subarrays_per_bank();
        let needed = n.div_ceil(per_bank).max(1);
        match self.banks {
            None => Ok(needed),
            Some(b) if b >= needed => Ok(b),
            Some(b) => Err(SpecError {
                message: format!("{n} subarrays need {needed} banks but only {b} configured"),
            }),
        }
    }

    /// Validate internal consistency.
    ///
    /// # Errors
    /// Fails on zero-sized dimensions, subarrays of more than
    /// [`ArchSpec::MAX_CELLS_PER_SUBARRAY`] cells, or unsupported cell
    /// widths.
    pub fn validate(&self) -> Result<(), SpecError> {
        let err = |message: String| Err(SpecError { message });
        let (rows, cols) = (self.rows_per_subarray, self.cols_per_subarray);
        if rows == 0 || cols == 0 {
            return err("subarray dimensions must be nonzero".into());
        }
        if rows
            .checked_mul(cols)
            .is_none_or(|n| n > Self::MAX_CELLS_PER_SUBARRAY)
        {
            return err(format!(
                "a {rows}x{cols} subarray exceeds the bound of {} cells per subarray (1024x1024)",
                Self::MAX_CELLS_PER_SUBARRAY
            ));
        }
        if self.subarrays_per_array == 0 || self.arrays_per_mat == 0 || self.mats_per_bank == 0 {
            return err("hierarchy fan-outs must be nonzero".into());
        }
        if self.banks == Some(0) {
            return err("bank count must be nonzero (or auto)".into());
        }
        if !(1..=4).contains(&self.bits_per_cell) {
            return err(format!(
                "bits_per_cell must be 1..=4, got {}",
                self.bits_per_cell
            ));
        }
        if self.cam_kind == CamKind::Tcam && self.bits_per_cell > 2 {
            return err("TCAM supports at most 2 bits per cell".into());
        }
        if self.optimization.uses_selective_search() && !self.selective_rows {
            return err(format!(
                "optimization '{}' requires selective_rows support",
                self.optimization
            ));
        }
        Ok(())
    }
}

/// Builder for [`ArchSpec`] (validates on [`ArchSpecBuilder::build`]).
#[derive(Debug, Clone)]
pub struct ArchSpecBuilder {
    spec: ArchSpec,
}

impl ArchSpecBuilder {
    /// Set subarray dimensions (`R`, `C`).
    pub fn subarray(mut self, rows: usize, cols: usize) -> Self {
        self.spec.rows_per_subarray = rows;
        self.spec.cols_per_subarray = cols;
        self
    }

    /// Set hierarchy fan-outs: mats/bank, arrays/mat, subarrays/array.
    pub fn hierarchy(mut self, mats: usize, arrays: usize, subarrays: usize) -> Self {
        self.spec.mats_per_bank = mats;
        self.spec.arrays_per_mat = arrays;
        self.spec.subarrays_per_array = subarrays;
        self
    }

    /// Fix the number of banks (default: auto).
    pub fn banks(mut self, banks: usize) -> Self {
        self.spec.banks = Some(banks);
        self
    }

    /// Set the CAM device family.
    pub fn cam_kind(mut self, kind: CamKind) -> Self {
        self.spec.cam_kind = kind;
        self
    }

    /// Set bits per cell (1 = binary, 2 = multi-bit).
    pub fn bits_per_cell(mut self, bits: u32) -> Self {
        self.spec.bits_per_cell = bits;
        self
    }

    /// Set the optimization target.
    pub fn optimization(mut self, opt: Optimization) -> Self {
        self.spec.optimization = opt;
        self
    }

    /// Set per-level access modes.
    pub fn access(mut self, access: LevelAccess) -> Self {
        self.spec.access = access;
        self
    }

    /// Enable/disable selective row precharging.
    pub fn selective_rows(mut self, enabled: bool) -> Self {
        self.spec.selective_rows = enabled;
        self
    }

    /// Finish building.
    ///
    /// # Errors
    /// Fails if the resulting spec is inconsistent (see
    /// [`ArchSpec::validate`]).
    pub fn build(self) -> Result<ArchSpec, SpecError> {
        self.spec.validate()?;
        Ok(self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_baseline() {
        let s = ArchSpec::default();
        assert_eq!(s.rows_per_subarray, 32);
        assert_eq!(s.subarrays_per_bank(), 128);
        assert_eq!(s.cells_per_array(), 32 * 32 * 8);
        s.validate().unwrap();
    }

    #[test]
    fn banks_for_subarrays_auto_and_fixed() {
        let s = ArchSpec::default();
        assert_eq!(s.banks_for_subarrays(1).unwrap(), 1);
        assert_eq!(s.banks_for_subarrays(128).unwrap(), 1);
        assert_eq!(s.banks_for_subarrays(129).unwrap(), 2);
        assert_eq!(s.banks_for_subarrays(512).unwrap(), 4);
        let fixed = ArchSpec::builder().banks(2).build().unwrap();
        assert_eq!(fixed.banks_for_subarrays(1).unwrap(), 2);
        assert!(fixed.banks_for_subarrays(512).is_err());
    }

    #[test]
    fn builder_sets_everything() {
        let s = ArchSpec::builder()
            .subarray(16, 64)
            .hierarchy(2, 3, 4)
            .cam_kind(CamKind::Mcam)
            .bits_per_cell(2)
            .optimization(Optimization::PowerDensity)
            .selective_rows(true)
            .build()
            .unwrap();
        assert_eq!(s.rows_per_subarray, 16);
        assert_eq!(s.cols_per_subarray, 64);
        assert_eq!(s.subarrays_per_bank(), 24);
        assert_eq!(s.cam_kind, CamKind::Mcam);
        assert!(s.optimization.limits_power());
        assert!(s.optimization.uses_selective_search());
    }

    #[test]
    fn validation_rejects_inconsistent_specs() {
        assert!(ArchSpec::builder().subarray(0, 32).build().is_err());
        assert!(ArchSpec::builder().bits_per_cell(5).build().is_err());
        assert!(ArchSpec::builder()
            .cam_kind(CamKind::Tcam)
            .bits_per_cell(3)
            .build()
            .is_err());
        assert!(ArchSpec::builder()
            .optimization(Optimization::Density)
            .selective_rows(false)
            .build()
            .is_err());
        assert!(ArchSpec::builder().hierarchy(0, 4, 8).build().is_err());
    }

    #[test]
    fn subarray_cells_are_bounded() {
        assert!(ArchSpec::builder().subarray(1024, 1024).build().is_ok());
        assert!(ArchSpec::builder().subarray(1, 1 << 20).build().is_ok());
        for (rows, cols) in [(1025, 1024), (100_000, 100_000), (usize::MAX, 2)] {
            let e = ArchSpec::builder()
                .subarray(rows, cols)
                .build()
                .unwrap_err();
            assert!(e.message.contains("1048576 cells"), "{e}");
        }
    }

    #[test]
    fn keyword_round_trips() {
        for k in [CamKind::Tcam, CamKind::Mcam, CamKind::Acam] {
            assert_eq!(k.to_string(), k.keyword());
        }
        for mk in ["exact", "best", "threshold"] {
            assert_eq!(MatchKind::from_keyword(mk).unwrap().keyword(), mk);
        }
        for mt in ["hamming", "eucl", "dot"] {
            assert_eq!(Metric::from_keyword(mt).unwrap().keyword(), mt);
        }
        for o in [
            Optimization::Base,
            Optimization::Power,
            Optimization::Density,
            Optimization::PowerDensity,
        ] {
            assert_eq!(Optimization::from_keyword(o.keyword()), Some(o));
        }
    }
}
