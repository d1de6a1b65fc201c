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
//! Recording observes a tape run; it is not an execution engine.
//! `replay` is the reference implementation the equivalence tests and
//! the benchmark's layer waterfall compare the VM against.
//!
//! Host-side values flow through *value ids*:
//! device reads and buffer allocations define ids, merges and
//! reductions consume and mutate them, and host-computed tensors
//! (query slices, constants, function arguments) are materialized as
//! literal records the first time a recorded operation consumes them.

use crate::error::EngineError;
use crate::isa::Slot;
use crate::vm::search_spec;
use c4cam_arch::tech::Level;
use c4cam_arch::{MatchKind, Metric};
use c4cam_camsim::{ArrayId, BankId, CamMachine, MatId, SubarrayId};
use c4cam_runtime::kernels::{merge_partial_rows, read_tensors, reduce_scores};
use c4cam_runtime::Value;
use c4cam_tensor::Tensor;

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

/// A replay's values, indexed by value id. The recorder numbers values
/// densely from 0, and no op defines more than two, so a trace of `n`
/// ops names ids below `2n`: the table grows to the largest id defined,
/// and an id past that bound (only a hand-built trace has one) is an
/// error rather than an allocation of its size.
struct Values {
    table: Vec<Option<Tensor>>,
    bound: usize,
}

impl Values {
    fn new(ops: usize) -> Values {
        Values {
            table: Vec::new(),
            bound: ops.saturating_mul(2),
        }
    }

    fn get(&self, v: u32) -> Result<&Tensor, EngineError> {
        self.table
            .get(v as usize)
            .and_then(Option::as_ref)
            .ok_or_else(|| err(format!("trace references undefined value %{v}")))
    }

    fn insert(&mut self, v: u32, t: Tensor) -> Result<(), EngineError> {
        let i = v as usize;
        if i >= self.bound {
            return Err(err(format!(
                "trace defines value %{v}, past the {} its ops can name",
                self.bound
            )));
        }
        if i >= self.table.len() {
            self.table.resize_with(i + 1, || None);
        }
        self.table[i] = Some(t);
        Ok(())
    }

    /// `cam.merge_partial_subarray` of `vals`/`idx` into `acc`, in
    /// place and without copying the operands. An operand that is the
    /// accumulator itself is read as it was before the merge.
    fn merge(
        &mut self,
        acc: u32,
        vals: u32,
        idx: u32,
        q: usize,
        offset: i64,
    ) -> Result<(), EngineError> {
        self.get(vals)?;
        self.get(idx)?;
        self.get(acc)?;
        let mut a = self.table[acc as usize].take().expect("defined above");
        // Shares the storage; the merge's first write then copies it.
        let before = (vals == acc || idx == acc).then(|| a.clone());
        let operand = |v: u32| match &before {
            Some(t) if v == acc => t,
            _ => self.table[v as usize].as_ref().expect("defined above"),
        };
        let merged = merge_partial_rows(&mut a, operand(vals), operand(idx), q, offset);
        self.table[acc as usize] = Some(a);
        merged.map_err(err)
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
        let mut store = Values::new(self.ops.len());
        let mut out: Option<Vec<Value>> = None;

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
                    let spec = search_spec(*kind, *metric, *selection, *threshold, *share);
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
                    store.insert(*vals, v)?;
                    store.insert(*idx, i)?;
                }
                TraceOp::Buffer { shape, out } => {
                    store.insert(*out, Tensor::zeros(shape.clone()))?;
                }
                TraceOp::Literal { data, out } => {
                    store.insert(*out, data.clone())?;
                }
                TraceOp::Snapshot { src, out } => {
                    let t = store.get(*src)?.clone();
                    store.insert(*out, t)?;
                }
                TraceOp::MergePartial {
                    acc,
                    vals,
                    idx,
                    q,
                    offset,
                } => {
                    store.merge(*acc, *vals, *idx, *q, *offset)?;
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
                    let a = store.get(*acc)?;
                    let (v, i) =
                        reduce_scores(a, *k, *n_valid, *largest, metric, true).map_err(err)?;
                    let v = v.reshape(vals_shape.clone()).map_err(|e| err(e.message))?;
                    let i = i.reshape(idx_shape.clone()).map_err(|e| err(e.message))?;
                    store.insert(*vals, v)?;
                    store.insert(*idx, i)?;
                }
                TraceOp::Return { values } => {
                    let mut vs = Vec::with_capacity(values.len());
                    for v in values {
                        vs.push(Value::Tensor(store.get(*v)?.clone()));
                    }
                    out = Some(vs);
                }
            }
        }
        out.ok_or_else(|| err("trace has no return record"))
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

    fn literal(data: &[f32], out: u32) -> TraceOp {
        let data = Tensor::from_vec(vec![1, data.len()], data.to_vec()).unwrap();
        TraceOp::Literal { data, out }
    }

    fn replayed(ops: Vec<TraceOp>) -> Result<Vec<f32>, EngineError> {
        let mut m = c4cam_camsim::CamMachine::new(&c4cam_arch::ArchSpec::default());
        let out = Trace { ops }.replay(&mut m)?;
        Ok(out[0].snapshot_tensor().unwrap().data().to_vec())
    }

    #[test]
    fn a_merge_reads_an_aliased_operand_as_it_was_before_the_merge() {
        let merge = |acc, vals, idx| TraceOp::MergePartial {
            acc,
            vals,
            idx,
            q: 0,
            offset: 0,
        };
        // The accumulator is its own values: `[1, 2]` scattered to
        // columns 1 and 0 gives `[1 + 2, 2 + 1]`, not `[1 + 3, 3]`.
        let ops = vec![
            literal(&[1.0, 2.0], 0),
            literal(&[1.0, 0.0], 1),
            merge(0, 0, 1),
            TraceOp::Return { values: vec![0] },
        ];
        assert_eq!(replayed(ops).unwrap(), [3.0, 3.0]);
        // ... or its own indices: `[1, 0]` sends 5 to column 1 and 7 to
        // column 0, although the first add made index 1 read 5.
        let ops = vec![
            literal(&[1.0, 0.0], 0),
            literal(&[5.0, 7.0], 1),
            merge(0, 1, 0),
            TraceOp::Return { values: vec![0] },
        ];
        assert_eq!(replayed(ops).unwrap(), [8.0, 5.0]);
    }

    #[test]
    fn a_value_id_past_what_the_ops_can_name_is_an_error_not_an_allocation() {
        let ops = vec![
            TraceOp::Buffer {
                shape: vec![1, 2],
                out: u32::MAX,
            },
            TraceOp::Return {
                values: vec![u32::MAX],
            },
        ];
        let e = replayed(ops).unwrap_err();
        assert!(e.message.contains("defines value %4294967295"), "{e}");
        let ops = vec![TraceOp::Return {
            values: vec![u32::MAX],
        }];
        let e = replayed(ops).unwrap_err();
        assert!(e.message.contains("undefined value %4294967295"), "{e}");
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
        let e = t.replay(&mut m).unwrap_err();
        assert!(e.message.contains("unallocated subarray"), "{e}");
        // No return record.
        let t = Trace {
            ops: vec![TraceOp::AllocBank],
        };
        assert!(t.replay(&mut m).is_err());
        // A rank-1 accumulator (an index panic before the shared merge
        // kernel checked the rank).
        let mut ops = sample().ops;
        let acc = ops
            .iter_mut()
            .find_map(|op| match op {
                TraceOp::Buffer { shape, .. } => Some(shape),
                _ => None,
            })
            .unwrap();
        *acc = vec![2];
        let mut m = c4cam_camsim::CamMachine::new(&c4cam_arch::ArchSpec::default());
        let e = Trace { ops }.replay(&mut m).unwrap_err();
        assert!(e.message.contains("rank-2 accumulator"), "{e}");
    }
}
