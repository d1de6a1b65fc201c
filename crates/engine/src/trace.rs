//! Deterministic, replayable op traces.
//!
//! [`Tape::run_traced`](crate::Tape::run_traced) executes a compiled
//! tape while recording every
//! device-relevant operation — allocation, row programming, searches
//! (with resolved row selections), result reads (with shapes),
//! partial-score merges, reductions, phase markers, and timing-scope
//! transitions — together with the value dataflow that connects them.
//! The resulting [`Trace`] is self-contained: [`Trace::replay`]
//! re-executes the recorded operations against a fresh
//! [`CamMachine`] and reconstructs the function outputs without the
//! tape, the IR, or the original inputs. The replayed op/scope
//! sequence is identical to the recorded run, so outputs *and*
//! statistics are bit-identical.
//!
//! Traces serialize to a line-based text format ([`Trace::to_text`] /
//! [`Trace::parse`]) with every float written as its raw bit pattern
//! in hex, so emission is byte-exact and round-trips losslessly —
//! suitable for golden-file testing and offline analysis.
//!
//! Host-side values flow through *value ids* (`%n` in the text form):
//! device reads and buffer allocations define ids, merges and
//! reductions consume and mutate them, and host-computed tensors
//! (query slices, constants, function arguments) are materialized as
//! literal records the first time a recorded operation consumes them.

use crate::error::EngineError;
use crate::isa::Slot;
use c4cam_arch::tech::Level;
use c4cam_arch::{MatchKind, Metric};
use c4cam_camsim::{ArrayId, BankId, CamMachine, MatId, RowSelection, SearchSpec, SubarrayId};
use c4cam_runtime::kernels::{merge_partial_rows, read_tensors, reduce_scores};
use c4cam_runtime::Value;
use c4cam_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;

/// Magic first line of the text serialization.
const MAGIC: &str = "c4cam-trace v1";

fn err(message: impl Into<String>) -> EngineError {
    EngineError::new(message)
}

/// One recorded operation (see the [module docs](self) for the model).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceOp {
    /// Allocate a bank (ids are assigned in record order).
    AllocBank,
    /// Allocate a mat under the `bank`-th recorded bank.
    AllocMat {
        /// Parent bank id.
        bank: usize,
    },
    /// Allocate an array under the `mat`-th recorded mat.
    AllocArray {
        /// Parent mat id.
        mat: usize,
    },
    /// Allocate a subarray under the `array`-th recorded array.
    AllocSubarray {
        /// Parent array id.
        array: usize,
    },
    /// Program rows starting at `row_off`.
    Write {
        /// Target subarray id.
        sub: usize,
        /// First programmed row.
        row_off: usize,
        /// Row payloads.
        rows: Vec<Vec<f32>>,
    },
    /// Search one subarray with a fully resolved spec.
    Search {
        /// Target subarray id.
        sub: usize,
        /// Match scheme.
        kind: MatchKind,
        /// Distance metric.
        metric: Metric,
        /// Selective row window `(start, len)`, when restricted.
        selection: Option<(usize, usize)>,
        /// Threshold-match radius, when set.
        threshold: Option<f64>,
        /// Broadcast-share fraction, when set.
        share: Option<f64>,
        /// Query payload.
        query: Vec<f32>,
    },
    /// Read the last search result back into two fresh values.
    Read {
        /// Source subarray id.
        sub: usize,
        /// Result shape.
        shape: Vec<usize>,
        /// Value id receiving the distances tensor.
        vals: u32,
        /// Value id receiving the row-id tensor.
        idx: u32,
    },
    /// Define a zero-initialized value of the given shape.
    Buffer {
        /// Buffer shape.
        shape: Vec<usize>,
        /// Defined value id.
        out: u32,
    },
    /// Define a value from a literal tensor (host-computed data).
    Literal {
        /// Payload.
        data: Tensor,
        /// Defined value id.
        out: u32,
    },
    /// Define a value as a copy of `src`'s *current* contents.
    Snapshot {
        /// Source value id.
        src: u32,
        /// Defined value id.
        out: u32,
    },
    /// Merge partial scores `vals`/`idx` into row `q` of `acc`.
    MergePartial {
        /// Accumulator value id (mutated).
        acc: u32,
        /// Partial distances value id.
        vals: u32,
        /// Partial row-id value id.
        idx: u32,
        /// Target accumulator row.
        q: usize,
        /// Column offset of the partial scores.
        offset: i64,
    },
    /// Charge one hierarchy-level merge.
    MergeLevel {
        /// Hierarchy level.
        level: Level,
        /// Merged element count.
        elems: usize,
    },
    /// Record a named phase snapshot.
    Phase {
        /// Phase name.
        name: String,
    },
    /// Open a parallel timing scope.
    PushParallel,
    /// Open a sequential timing scope.
    PushSequential,
    /// Close the innermost timing scope.
    PopScope,
    /// Final top-k reduction over an accumulated score matrix.
    Reduce {
        /// Accumulator value id.
        acc: u32,
        /// Top-k count.
        k: usize,
        /// Valid column count.
        n_valid: usize,
        /// Sort direction.
        largest: bool,
        /// Metric keyword (score post-processing).
        metric: String,
        /// Output shape of the distances tensor.
        vals_shape: Vec<usize>,
        /// Output shape of the row-id tensor.
        idx_shape: Vec<usize>,
        /// Value id receiving the distances.
        vals: u32,
        /// Value id receiving the row ids.
        idx: u32,
    },
    /// Function return: the trace's outputs, in order.
    Return {
        /// Returned value ids.
        values: Vec<u32>,
    },
}

/// A recorded run: an ordered list of [`TraceOp`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// The recorded operations, in execution order.
    pub ops: Vec<TraceOp>,
}

/// Recording state carried by the VM while tracing (slot → value id).
#[derive(Debug)]
pub(crate) struct TraceState {
    pub(crate) ops: Vec<TraceOp>,
    vids: Vec<Option<u32>>,
    next: u32,
}

impl TraceState {
    pub(crate) fn new(n_slots: usize) -> TraceState {
        TraceState {
            ops: Vec::new(),
            vids: vec![None; n_slots],
            next: 0,
        }
    }

    pub(crate) fn fresh(&mut self) -> u32 {
        let v = self.next;
        self.next += 1;
        v
    }

    pub(crate) fn vid(&self, s: Slot) -> Option<u32> {
        self.vids[s as usize]
    }

    pub(crate) fn set_vid(&mut self, s: Slot, v: u32) {
        self.vids[s as usize] = Some(v);
    }

    pub(crate) fn clear(&mut self, s: Slot) {
        self.vids[s as usize] = None;
    }

    pub(crate) fn push(&mut self, op: TraceOp) {
        self.ops.push(op);
    }
}

// ----------------------------------------------------------------------
// Serialization
// ----------------------------------------------------------------------

fn f32_hex(v: f32) -> String {
    format!("{:08x}", v.to_bits())
}

fn f64_hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn level_keyword(level: Level) -> &'static str {
    match level {
        Level::Bank => "bank",
        Level::Mat => "mat",
        Level::Array => "array",
        Level::Subarray => "subarray",
    }
}

fn level_from_keyword(s: &str) -> Option<Level> {
    match s {
        "bank" => Some(Level::Bank),
        "mat" => Some(Level::Mat),
        "array" => Some(Level::Array),
        "subarray" => Some(Level::Subarray),
        _ => None,
    }
}

fn push_shape(out: &mut String, shape: &[usize]) {
    use fmt::Write;
    let _ = write!(out, " {}", shape.len());
    for d in shape {
        let _ = write!(out, " {d}");
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_text())
    }
}

impl Trace {
    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace records nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serialize to the line-based text format (byte-exact: floats are
    /// written as raw bit patterns in hex).
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC}");
        for op in &self.ops {
            match op {
                TraceOp::AllocBank => s.push_str("bank"),
                TraceOp::AllocMat { bank } => {
                    let _ = write!(s, "mat {bank}");
                }
                TraceOp::AllocArray { mat } => {
                    let _ = write!(s, "array {mat}");
                }
                TraceOp::AllocSubarray { array } => {
                    let _ = write!(s, "sub {array}");
                }
                TraceOp::Write { sub, row_off, rows } => {
                    let _ = write!(s, "write {sub} {row_off} {}", rows.len());
                    for row in rows {
                        let _ = write!(s, " {}", row.len());
                        for &v in row {
                            let _ = write!(s, " {}", f32_hex(v));
                        }
                    }
                }
                TraceOp::Search {
                    sub,
                    kind,
                    metric,
                    selection,
                    threshold,
                    share,
                    query,
                } => {
                    let _ = write!(s, "search {sub} {} {}", kind.keyword(), metric.keyword());
                    match selection {
                        Some((start, len)) => {
                            let _ = write!(s, " {start} {len}");
                        }
                        None => s.push_str(" - -"),
                    }
                    match threshold {
                        Some(t) => {
                            let _ = write!(s, " {}", f64_hex(*t));
                        }
                        None => s.push_str(" -"),
                    }
                    match share {
                        Some(sh) => {
                            let _ = write!(s, " {}", f64_hex(*sh));
                        }
                        None => s.push_str(" -"),
                    }
                    let _ = write!(s, " {}", query.len());
                    for &v in query {
                        let _ = write!(s, " {}", f32_hex(v));
                    }
                }
                TraceOp::Read {
                    sub,
                    shape,
                    vals,
                    idx,
                } => {
                    let _ = write!(s, "read {sub} %{vals} %{idx}");
                    push_shape(&mut s, shape);
                }
                TraceOp::Buffer { shape, out } => {
                    let _ = write!(s, "buf %{out}");
                    push_shape(&mut s, shape);
                }
                TraceOp::Literal { data, out } => {
                    let _ = write!(s, "lit %{out}");
                    push_shape(&mut s, data.shape());
                    for &v in data.data() {
                        let _ = write!(s, " {}", f32_hex(v));
                    }
                }
                TraceOp::Snapshot { src, out } => {
                    let _ = write!(s, "snap %{out} %{src}");
                }
                TraceOp::MergePartial {
                    acc,
                    vals,
                    idx,
                    q,
                    offset,
                } => {
                    let _ = write!(s, "merge %{acc} %{vals} %{idx} {q} {offset}");
                }
                TraceOp::MergeLevel { level, elems } => {
                    let _ = write!(s, "mergelevel {} {elems}", level_keyword(*level));
                }
                TraceOp::Phase { name } => {
                    let _ = write!(s, "phase {name}");
                }
                TraceOp::PushParallel => s.push_str("par"),
                TraceOp::PushSequential => s.push_str("seq"),
                TraceOp::PopScope => s.push_str("pop"),
                TraceOp::Reduce {
                    acc,
                    k,
                    n_valid,
                    largest,
                    metric,
                    vals_shape,
                    idx_shape,
                    vals,
                    idx,
                } => {
                    let _ = write!(
                        s,
                        "reduce %{acc} {k} {n_valid} {} {metric}",
                        u8::from(*largest)
                    );
                    push_shape(&mut s, vals_shape);
                    push_shape(&mut s, idx_shape);
                    let _ = write!(s, " %{vals} %{idx}");
                }
                TraceOp::Return { values } => {
                    let _ = write!(s, "ret {}", values.len());
                    for v in values {
                        let _ = write!(s, " %{v}");
                    }
                }
            }
            s.push('\n');
        }
        s.push_str("end\n");
        s
    }

    /// Parse the text format back into a trace.
    ///
    /// # Errors
    /// Fails on a bad magic line, an unknown record, a malformed or
    /// truncated payload, or a missing `end` marker.
    pub fn parse(text: &str) -> Result<Trace, EngineError> {
        let mut lines = text.lines().enumerate();
        let Some((_, magic)) = lines.next() else {
            return Err(err("empty trace"));
        };
        if magic != MAGIC {
            return Err(err(format!(
                "bad trace magic {magic:?} (expected {MAGIC:?})"
            )));
        }
        let mut ops = Vec::new();
        let mut ended = false;
        for (n, line) in lines {
            let lineno = n + 1;
            if ended && !line.trim().is_empty() {
                return Err(err(format!("line {lineno}: content after end marker")));
            }
            if ended || line.trim().is_empty() {
                continue;
            }
            let mut p = Parser::new(line, lineno);
            let opname = p.token()?;
            let op = match opname {
                "end" => {
                    ended = true;
                    continue;
                }
                "bank" => TraceOp::AllocBank,
                "mat" => TraceOp::AllocMat { bank: p.usize()? },
                "array" => TraceOp::AllocArray { mat: p.usize()? },
                "sub" => TraceOp::AllocSubarray { array: p.usize()? },
                "write" => {
                    let sub = p.usize()?;
                    let row_off = p.usize()?;
                    let nrows = p.usize()?;
                    let mut rows = Vec::with_capacity(nrows);
                    for _ in 0..nrows {
                        let len = p.usize()?;
                        let mut row = Vec::with_capacity(len);
                        for _ in 0..len {
                            row.push(p.f32()?);
                        }
                        rows.push(row);
                    }
                    TraceOp::Write { sub, row_off, rows }
                }
                "search" => {
                    let sub = p.usize()?;
                    let kind = p.token()?;
                    let kind = MatchKind::from_keyword(kind)
                        .ok_or_else(|| p.fail(format!("unknown match kind {kind:?}")))?;
                    let metric = p.token()?;
                    let metric = Metric::from_keyword(metric)
                        .ok_or_else(|| p.fail(format!("unknown metric {metric:?}")))?;
                    let start = p.opt_usize()?;
                    let len = p.opt_usize()?;
                    let selection = match (start, len) {
                        (Some(s), Some(l)) => Some((s, l)),
                        (None, None) => None,
                        _ => return Err(p.fail("half-specified row selection")),
                    };
                    let threshold = p.opt_f64()?;
                    let share = p.opt_f64()?;
                    let qlen = p.usize()?;
                    let mut query = Vec::with_capacity(qlen);
                    for _ in 0..qlen {
                        query.push(p.f32()?);
                    }
                    TraceOp::Search {
                        sub,
                        kind,
                        metric,
                        selection,
                        threshold,
                        share,
                        query,
                    }
                }
                "read" => {
                    let sub = p.usize()?;
                    let vals = p.vid()?;
                    let idx = p.vid()?;
                    let shape = p.shape()?;
                    TraceOp::Read {
                        sub,
                        shape,
                        vals,
                        idx,
                    }
                }
                "buf" => {
                    let out = p.vid()?;
                    let shape = p.shape()?;
                    TraceOp::Buffer { shape, out }
                }
                "lit" => {
                    let out = p.vid()?;
                    let shape = p.shape()?;
                    let len = shape.iter().product();
                    let mut data = Vec::with_capacity(len);
                    for _ in 0..len {
                        data.push(p.f32()?);
                    }
                    let data = Tensor::from_vec(shape, data).map_err(|e| p.fail(e.message))?;
                    TraceOp::Literal { data, out }
                }
                "snap" => {
                    let out = p.vid()?;
                    let src = p.vid()?;
                    TraceOp::Snapshot { src, out }
                }
                "merge" => TraceOp::MergePartial {
                    acc: p.vid()?,
                    vals: p.vid()?,
                    idx: p.vid()?,
                    q: p.usize()?,
                    offset: p.i64()?,
                },
                "mergelevel" => {
                    let level = p.token()?;
                    let level = level_from_keyword(level)
                        .ok_or_else(|| p.fail(format!("unknown merge level {level:?}")))?;
                    TraceOp::MergeLevel {
                        level,
                        elems: p.usize()?,
                    }
                }
                "phase" => TraceOp::Phase {
                    name: p.rest().to_string(),
                },
                "par" => TraceOp::PushParallel,
                "seq" => TraceOp::PushSequential,
                "pop" => TraceOp::PopScope,
                "reduce" => TraceOp::Reduce {
                    acc: p.vid()?,
                    k: p.usize()?,
                    n_valid: p.usize()?,
                    largest: p.usize()? != 0,
                    metric: p.token()?.to_string(),
                    vals_shape: p.shape()?,
                    idx_shape: p.shape()?,
                    vals: p.vid()?,
                    idx: p.vid()?,
                },
                "ret" => {
                    let n = p.usize()?;
                    let mut values = Vec::with_capacity(n);
                    for _ in 0..n {
                        values.push(p.vid()?);
                    }
                    TraceOp::Return { values }
                }
                other => return Err(p.fail(format!("unknown trace record {other:?}"))),
            };
            if opname != "phase" {
                p.finish()?;
            }
            ops.push(op);
        }
        if !ended {
            return Err(err("truncated trace: missing end marker"));
        }
        Ok(Trace { ops })
    }

    /// Re-execute the recorded operations against a fresh device and
    /// reconstruct the function outputs (as tensors, in return order).
    ///
    /// # Errors
    /// Fails on device errors, undefined value ids, or a trace with no
    /// return record.
    pub fn replay(&self, device: &mut CamMachine) -> Result<Vec<Value>, EngineError> {
        let mut banks: Vec<BankId> = Vec::new();
        let mut mats: Vec<MatId> = Vec::new();
        let mut arrays: Vec<ArrayId> = Vec::new();
        let mut subs: Vec<SubarrayId> = Vec::new();
        let mut store: HashMap<u32, Tensor> = HashMap::new();
        let mut out: Option<Vec<Value>> = None;

        fn get(store: &HashMap<u32, Tensor>, v: u32) -> Result<&Tensor, EngineError> {
            store
                .get(&v)
                .ok_or_else(|| err(format!("trace references undefined value %{v}")))
        }
        fn sub_id(subs: &[SubarrayId], sub: usize) -> Result<SubarrayId, EngineError> {
            subs.get(sub)
                .copied()
                .ok_or_else(|| err(format!("trace references unallocated subarray {sub}")))
        }

        for op in &self.ops {
            if out.is_some() {
                return Err(err("trace continues after its return record"));
            }
            match op {
                TraceOp::AllocBank => banks.push(device.alloc_bank().map_err(|e| err(e.message))?),
                TraceOp::AllocMat { bank } => {
                    let parent = banks
                        .get(*bank)
                        .copied()
                        .ok_or_else(|| err(format!("trace references unallocated bank {bank}")))?;
                    mats.push(device.alloc_mat(parent).map_err(|e| err(e.message))?);
                }
                TraceOp::AllocArray { mat } => {
                    let parent = mats
                        .get(*mat)
                        .copied()
                        .ok_or_else(|| err(format!("trace references unallocated mat {mat}")))?;
                    arrays.push(device.alloc_array(parent).map_err(|e| err(e.message))?);
                }
                TraceOp::AllocSubarray { array } => {
                    let parent = arrays.get(*array).copied().ok_or_else(|| {
                        err(format!("trace references unallocated array {array}"))
                    })?;
                    subs.push(device.alloc_subarray(parent).map_err(|e| err(e.message))?);
                }
                TraceOp::Write { sub, row_off, rows } => {
                    device
                        .write_rows(sub_id(&subs, *sub)?, *row_off, rows)
                        .map_err(|e| err(e.message))?;
                }
                TraceOp::Search {
                    sub,
                    kind,
                    metric,
                    selection,
                    threshold,
                    share,
                    query,
                } => {
                    let mut spec = SearchSpec::new(*kind, *metric);
                    if let Some((start, len)) = selection {
                        spec = spec.with_selection(RowSelection::Window {
                            start: *start,
                            len: *len,
                        });
                    }
                    if let Some(t) = threshold {
                        spec = spec.with_threshold(*t);
                    }
                    if let Some(sh) = share {
                        spec = spec.with_broadcast_share(*sh);
                    }
                    device
                        .search(sub_id(&subs, *sub)?, query, spec)
                        .map_err(|e| err(e.message))?;
                }
                TraceOp::Read {
                    sub,
                    shape,
                    vals,
                    idx,
                } => {
                    let result = device
                        .read(sub_id(&subs, *sub)?)
                        .map_err(|e| err(e.message))?;
                    let (v, i) = read_tensors(result, shape).map_err(err)?;
                    store.insert(*vals, v);
                    store.insert(*idx, i);
                }
                TraceOp::Buffer { shape, out } => {
                    store.insert(*out, Tensor::zeros(shape.clone()));
                }
                TraceOp::Literal { data, out } => {
                    store.insert(*out, data.clone());
                }
                TraceOp::Snapshot { src, out } => {
                    let t = get(&store, *src)?.clone();
                    store.insert(*out, t);
                }
                TraceOp::MergePartial {
                    acc,
                    vals,
                    idx,
                    q,
                    offset,
                } => {
                    let vals = get(&store, *vals)?.clone();
                    let idx = get(&store, *idx)?.clone();
                    let a = store
                        .get_mut(acc)
                        .ok_or_else(|| err(format!("trace references undefined value %{acc}")))?;
                    merge_partial_rows(a, &vals, &idx, *q, *offset).map_err(err)?;
                }
                TraceOp::MergeLevel { level, elems } => device.merge(*level, *elems),
                TraceOp::Phase { name } => device.mark_phase(name),
                TraceOp::PushParallel => device.push_parallel(),
                TraceOp::PushSequential => device.push_sequential(),
                TraceOp::PopScope => device.pop_scope(),
                TraceOp::Reduce {
                    acc,
                    k,
                    n_valid,
                    largest,
                    metric,
                    vals_shape,
                    idx_shape,
                    vals,
                    idx,
                } => {
                    let a = get(&store, *acc)?;
                    let (v, i) =
                        reduce_scores(a, *k, *n_valid, *largest, metric, true).map_err(err)?;
                    let v = v.reshape(vals_shape.clone()).map_err(|e| err(e.message))?;
                    let i = i.reshape(idx_shape.clone()).map_err(|e| err(e.message))?;
                    store.insert(*vals, v);
                    store.insert(*idx, i);
                }
                TraceOp::Return { values } => {
                    let mut vs = Vec::with_capacity(values.len());
                    for v in values {
                        vs.push(Value::Tensor(get(&store, *v)?.clone()));
                    }
                    out = Some(vs);
                }
            }
        }
        out.ok_or_else(|| err("trace has no return record"))
    }
}

/// Whitespace-token parser for one trace line.
struct Parser<'a> {
    tokens: std::str::SplitWhitespace<'a>,
    line: &'a str,
    lineno: usize,
}

impl<'a> Parser<'a> {
    fn new(line: &'a str, lineno: usize) -> Parser<'a> {
        Parser {
            tokens: line.split_whitespace(),
            line,
            lineno,
        }
    }

    fn fail(&self, message: impl fmt::Display) -> EngineError {
        err(format!("line {}: {message}", self.lineno))
    }

    fn token(&mut self) -> Result<&'a str, EngineError> {
        self.tokens
            .next()
            .ok_or_else(|| self.fail("truncated record"))
    }

    fn usize(&mut self) -> Result<usize, EngineError> {
        let t = self.token()?;
        t.parse()
            .map_err(|_| self.fail(format!("expected an integer, got {t:?}")))
    }

    fn i64(&mut self) -> Result<i64, EngineError> {
        let t = self.token()?;
        t.parse()
            .map_err(|_| self.fail(format!("expected an integer, got {t:?}")))
    }

    fn vid(&mut self) -> Result<u32, EngineError> {
        let t = self.token()?;
        let Some(n) = t.strip_prefix('%') else {
            return Err(self.fail(format!("expected a value id, got {t:?}")));
        };
        n.parse()
            .map_err(|_| self.fail(format!("bad value id {t:?}")))
    }

    fn f32(&mut self) -> Result<f32, EngineError> {
        let t = self.token()?;
        u32::from_str_radix(t, 16)
            .map(f32::from_bits)
            .map_err(|_| self.fail(format!("bad f32 bit pattern {t:?}")))
    }

    fn opt_usize(&mut self) -> Result<Option<usize>, EngineError> {
        let t = self.token()?;
        if t == "-" {
            return Ok(None);
        }
        t.parse()
            .map(Some)
            .map_err(|_| self.fail(format!("expected an integer or '-', got {t:?}")))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, EngineError> {
        let t = self.token()?;
        if t == "-" {
            return Ok(None);
        }
        u64::from_str_radix(t, 16)
            .map(|b| Some(f64::from_bits(b)))
            .map_err(|_| self.fail(format!("bad f64 bit pattern {t:?}")))
    }

    fn shape(&mut self) -> Result<Vec<usize>, EngineError> {
        let rank = self.usize()?;
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(self.usize()?);
        }
        Ok(dims)
    }

    fn rest(&mut self) -> &'a str {
        let rest = self.tokens.next().map_or("", |first| {
            let start = first.as_ptr() as usize - self.line.as_ptr() as usize;
            &self.line[start..]
        });
        self.tokens = "".split_whitespace();
        rest
    }

    fn finish(&mut self) -> Result<(), EngineError> {
        match self.tokens.next() {
            None => Ok(()),
            Some(t) => Err(self.fail(format!("trailing token {t:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            ops: vec![
                TraceOp::AllocBank,
                TraceOp::AllocMat { bank: 0 },
                TraceOp::AllocArray { mat: 0 },
                TraceOp::AllocSubarray { array: 0 },
                TraceOp::Write {
                    sub: 0,
                    row_off: 0,
                    rows: vec![vec![1.0, 0.0], vec![0.0, 1.0]],
                },
                TraceOp::PushParallel,
                TraceOp::PushSequential,
                TraceOp::Search {
                    sub: 0,
                    kind: MatchKind::Best,
                    metric: Metric::Hamming,
                    selection: Some((0, 2)),
                    threshold: None,
                    share: Some(0.5),
                    query: vec![1.0, 1.0],
                },
                TraceOp::Read {
                    sub: 0,
                    shape: vec![1, 1],
                    vals: 0,
                    idx: 1,
                },
                TraceOp::PopScope,
                TraceOp::PopScope,
                TraceOp::Buffer {
                    shape: vec![1, 2],
                    out: 2,
                },
                TraceOp::MergePartial {
                    acc: 2,
                    vals: 0,
                    idx: 1,
                    q: 0,
                    offset: 0,
                },
                TraceOp::MergeLevel {
                    level: Level::Array,
                    elems: 2,
                },
                TraceOp::Phase {
                    name: "setup-complete".to_string(),
                },
                TraceOp::Reduce {
                    acc: 2,
                    k: 1,
                    n_valid: 2,
                    largest: false,
                    metric: "hamming".to_string(),
                    vals_shape: vec![1, 1],
                    idx_shape: vec![1, 1],
                    vals: 3,
                    idx: 4,
                },
                TraceOp::Return { values: vec![3, 4] },
            ],
        }
    }

    #[test]
    fn text_round_trips_losslessly() {
        let t = sample();
        let text = t.to_text();
        let back = Trace::parse(&text).unwrap();
        assert_eq!(t, back);
        // Byte-exact re-emission.
        assert_eq!(back.to_text(), text);
    }

    #[test]
    fn replay_executes_on_a_machine() {
        use c4cam_arch::ArchSpec;
        use c4cam_camsim::CamMachine;
        let t = sample();
        let mut m = CamMachine::new(&ArchSpec::default());
        let out = t.replay(&mut m).unwrap();
        assert_eq!(out.len(), 2);
        let idx = out[1].snapshot_tensor().unwrap();
        assert_eq!(idx.data(), &[1.0]); // row 1 is the best match
        let stats = m.stats();
        assert_eq!(stats.search_ops, 1);
        assert_eq!(stats.read_ops, 1);
        assert_eq!(stats.merge_ops, 1);
        assert_eq!(m.phase("setup-complete").unwrap().search_ops, 1);
    }

    #[test]
    fn parse_rejects_corruption() {
        let good = sample().to_text();
        // Bad magic.
        assert!(Trace::parse("not-a-trace\nend\n").is_err());
        // Missing end marker.
        let truncated = good.trim_end_matches("end\n");
        assert!(Trace::parse(truncated).is_err());
        // Unknown record.
        let unknown = good.replace("mergelevel array 2", "frobnicate 1");
        assert!(Trace::parse(&unknown).is_err());
        // Bad hex payload.
        let bad_hex = good.replace("3f800000", "zzzzzzzz");
        assert!(Trace::parse(&bad_hex).is_err());
        // Trailing garbage on a record.
        let trailing = good.replace("mergelevel array 2", "mergelevel array 2 9");
        assert!(Trace::parse(&trailing).is_err());
        // Content after end.
        let after = format!("{good}bank\n");
        assert!(Trace::parse(&after).is_err());
    }

    #[test]
    fn replay_rejects_dangling_references() {
        // Undefined value id.
        let t = Trace {
            ops: vec![TraceOp::Return { values: vec![7] }],
        };
        let mut m = c4cam_camsim::CamMachine::new(&c4cam_arch::ArchSpec::default());
        assert!(t.replay(&mut m).is_err());
        // Unallocated subarray.
        let t = Trace {
            ops: vec![TraceOp::Write {
                sub: 0,
                row_off: 0,
                rows: vec![vec![1.0]],
            }],
        };
        assert!(t.replay(&mut m).is_err());
        // No return record.
        let t = Trace {
            ops: vec![TraceOp::AllocBank],
        };
        assert!(t.replay(&mut m).is_err());
    }
}
