//! In-memory spans recorded around calls into each layer, and the
//! self-time arithmetic of the waterfall.
//!
//! Nothing inside the program is instrumented: a traced operation is
//! the same work issued again through successively lower public entry
//! points (`CompiledExperiment::run`, `Plan::execute`, `Tape::run`,
//! direct `CamMachine` calls), each timed from here.
//! A span's `parent` therefore records *containment of work* (the
//! parent call performs everything its child call performs, plus its
//! own share), not containment in time — the calls run back to back.

use crate::estimator::best_round_median;
use c4cam::telemetry::{export, ArgValue, Event, Span as TelemetrySpan};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<module>.<what>`, the layer entry point that was called.
    pub name: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the span whose work contains this one.
    pub parent: Option<usize>,
    /// Operation this span belongs to (spans of one op share it).
    pub op: u64,
    /// Estimator round the operation ran in.
    pub round: u32,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans kept in memory for the length of a traced pass.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as one span; returns the span's index and `f`'s value.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        (round, op): (u32, u64),
        f: impl FnOnce() -> T,
    ) -> (usize, T) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            op,
            round,
        });
        (self.spans.len() - 1, value)
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus what its children
    /// cover. Children are measured by separate calls, so noise can
    /// make them sum past the parent; they are capped at the parent's
    /// duration (self time is never negative) and the shortfall shows
    /// up in `bench.unattributed_ms` instead of vanishing.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns() - c.min(s.dur_ns()))
            .collect()
    }

    /// Per-round samples of `name`, in seconds. With `per_op`, one
    /// sample per operation: the sum of that operation's `name` spans (a
    /// sweep pass calls each layer once per grid point); without, every
    /// span is a sample of its own.
    fn samples(&self, name: &str, per_op: bool) -> Vec<Vec<f64>> {
        let mut rounds: Vec<Vec<f64>> = Vec::new();
        let mut last_op = None;
        for s in self.spans.iter().filter(|s| s.name == name) {
            let r = s.round as usize;
            if rounds.len() <= r {
                rounds.resize(r + 1, Vec::new());
            }
            let secs = s.dur_ns() as f64 * 1e-9;
            if per_op && last_op == Some((s.round, s.op)) {
                *rounds[r].last_mut().expect("same op as the previous span") += secs;
            } else {
                rounds[r].push(secs);
                last_op = Some((s.round, s.op));
            }
        }
        rounds
    }

    /// Best-round median of `name` per operation, milliseconds (0 when
    /// the span was never recorded).
    pub fn best_ms(&self, name: &str) -> f64 {
        finite_ms(best_round_median(&self.samples(name, true)))
    }

    /// Best-round median of the individual `name` spans, milliseconds:
    /// unlike [`SpanLog::best_ms`], repeated spans within one operation
    /// are separate samples (one grid point of a sweep pass).
    pub fn best_each_ms(&self, name: &str) -> f64 {
        finite_ms(best_round_median(&self.samples(name, false)))
    }

    /// The log as Chrome trace-event JSON (Perfetto-loadable); `op`,
    /// `parent` and the span's self time ride along as arguments.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<Event> = self
            .spans
            .iter()
            .zip(self.self_times_ns())
            .map(|(s, self_ns)| {
                let mut args = vec![
                    ("op", ArgValue::Int(s.op as i64)),
                    ("self_us", ArgValue::Num(self_ns as f64 / 1e3)),
                ];
                if let Some(p) = s.parent {
                    args.push(("parent", ArgValue::Str(self.spans[p].name.to_string())));
                }
                Event::Span(TelemetrySpan {
                    name: s.name.to_string(),
                    cat: "benchmark",
                    tid: 0,
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns(),
                    args,
                })
            })
            .collect();
        export::chrome_trace(&events)
    }
}

/// Seconds to milliseconds; the "no samples" infinity reads 0.
fn finite_ms(secs: f64) -> f64 {
    if secs.is_finite() {
        secs * 1e3
    } else {
        0.0
    }
}

/// Self times of a chain of levels, each issuing the same work through
/// a lower entry point than the one before: `levels[i]` contains
/// `levels[i + 1]`, and the last level contains `leaves` (the sum of
/// the directly issued device calls). Entries never go negative.
pub fn chain_self_times(levels: &[f64], leaves: f64) -> Vec<f64> {
    levels
        .iter()
        .enumerate()
        .map(|(i, &level)| {
            let inner = levels.get(i + 1).copied().unwrap_or(leaves);
            (level - inner).max(0.0)
        })
        .collect()
}

/// What the waterfall does not explain: the untraced operation minus
/// every attributed part (self times of the chain and the device
/// leaves). Signed: negative when the traced pieces sum past the
/// untraced operation.
pub fn unattributed(op: f64, parts: &[f64]) -> f64 {
    op - parts.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, start_ns, end_ns, parent, op, round)`
    type Row = (&'static str, u64, u64, Option<usize>, u64, u32);

    fn log_of(spans: &[Row]) -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: spans
                .iter()
                .map(|&(name, start_ns, end_ns, parent, op, round)| Span {
                    name,
                    start_ns,
                    end_ns,
                    parent,
                    op,
                    round,
                })
                .collect(),
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let log = log_of(&[
            ("a.run", 0, 100, None, 0, 0),
            ("b.exec", 100, 170, Some(0), 0, 0),
            ("c.leaf", 170, 200, Some(1), 0, 0),
            ("c.leaf2", 200, 220, Some(1), 0, 0),
        ]);
        assert_eq!(log.self_times_ns(), vec![30, 20, 30, 20]);
    }

    #[test]
    fn children_never_exceed_their_parent() {
        // A noisy child measured longer than its parent: self time
        // clamps at zero instead of wrapping.
        let log = log_of(&[
            ("a.run", 0, 100, None, 0, 0),
            ("b.exec", 100, 230, Some(0), 0, 0),
        ]);
        assert_eq!(log.self_times_ns(), vec![0, 130]);
    }

    #[test]
    fn series_sum_repeated_spans_within_one_op_and_split_rounds() {
        let log = log_of(&[
            ("x", 0, 1_000_000, None, 0, 0),
            ("x", 1_000_000, 3_000_000, None, 0, 0), // same op: summed
            ("y", 3_000_000, 4_000_000, None, 0, 0),
            ("x", 4_000_000, 5_000_000, None, 1, 0),
            ("x", 5_000_000, 9_000_000, None, 2, 1),
        ]);
        let s = log.samples("x", true);
        assert_eq!(s.len(), 2);
        assert!((s[0][0] - 3e-3).abs() < 1e-12 && (s[0][1] - 1e-3).abs() < 1e-12);
        assert!((s[1][0] - 4e-3).abs() < 1e-12);
        // Round 0's median is 2 ms, round 1's 4 ms: best is round 0.
        assert!((log.best_ms("x") - 2.0).abs() < 1e-9);
        assert_eq!(log.best_ms("never-recorded"), 0.0);
        // Taken one by one, round 0 holds 1, 2 and 1 ms: median 1 ms.
        assert!((log.best_each_ms("x") - 1.0).abs() < 1e-9);
    }

    #[test]
    fn waterfall_reconciles_with_the_op_by_construction() {
        // run ⊃ execute ⊃ tape_run ⊃ leaves
        let levels = [10.0, 9.5, 9.0];
        let leaves = 6.0;
        let selfs = chain_self_times(&levels, leaves);
        assert_eq!(selfs, vec![0.5, 0.5, 3.0]);
        let op = 10.2; // the untraced op, measured separately
        let residual = unattributed(op, &[selfs.iter().sum(), leaves]);
        assert!((selfs.iter().sum::<f64>() + leaves + residual - op).abs() < 1e-12);
        assert!((residual - 0.2).abs() < 1e-12);
    }

    #[test]
    fn an_inverted_level_clamps_and_lands_in_the_residual() {
        // execute measured slower than run (noise): run's self time is
        // 0, not −0.3, and the residual absorbs the difference.
        let selfs = chain_self_times(&[9.7, 10.0], 8.0);
        assert_eq!(selfs, vec![0.0, 2.0]);
        let residual = unattributed(9.7, &[selfs.iter().sum(), 8.0]);
        assert!((residual + 0.3).abs() < 1e-12);
    }

    #[test]
    fn chrome_trace_carries_parent_and_op() {
        let log = log_of(&[
            ("driver.run", 0, 2000, None, 7, 0),
            ("hal.execute", 2000, 3000, Some(0), 7, 0),
        ]);
        let text = log.chrome_trace();
        assert!(text.contains("\"name\":\"hal.execute\""), "{text}");
        assert!(text.contains("\"parent\":\"driver.run\""), "{text}");
        assert!(text.contains("\"op\":7"), "{text}");
        assert!(text.contains("\"self_us\":1"), "{text}");
        assert!(c4cam_server::json::Json::parse(&text).is_ok());
    }
}
