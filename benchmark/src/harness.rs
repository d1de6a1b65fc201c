//! What every workload shares: run options, the operation tally, the
//! timed loops that feed the estimator, and small host probes.

use crate::estimator::{collect, median, Estimate, Round, RoundPlan};
use std::time::Instant;

/// Seed used when `--seed` is absent; the pinned simulated statistics
/// in `expected/` hold at this seed only.
pub const DEFAULT_SEED: u64 = 1;
/// Measured seconds per workload and pass when `--seconds` is absent
/// (matches `run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;
/// Fewest samples an end-to-end round may rest on.
pub const MIN_SAMPLES: usize = 5;
/// Fewest samples a round of the traced pass's untraced reference may
/// rest on (the round's budget is shared with the traced operations).
pub const MIN_TRACED_SAMPLES: usize = 3;

/// Options of one process's measurement of one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Opts {
    /// Feeds the generated inputs and nothing else.
    pub seed: u64,
    /// Seconds of steady-state measurement in this process (split over
    /// its rounds).
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// One round, tiny op counts; output is not comparable.
    pub quick: bool,
    /// Rewrite `expected/<workload>.json` instead of checking it.
    pub bless: bool,
}

impl Opts {
    /// The round plan this run follows.
    pub fn plan(&self) -> RoundPlan {
        if self.quick {
            RoundPlan::QUICK
        } else if self.trace {
            RoundPlan::FULL
        } else {
            RoundPlan::PROCESS
        }
    }

    /// Wall-time target of one round. The traced pass measures an
    /// untraced reference and the traced operation, so each gets half.
    pub fn round_secs(&self) -> f64 {
        let share = if self.trace { 0.5 } else { 1.0 };
        self.seconds * share / self.plan().rounds as f64
    }

    /// Wall time spent sizing the rounds ([`warm_op_secs`]).
    pub fn warm_secs(&self) -> f64 {
        if self.quick {
            0.0
        } else {
            self.round_secs() / 10.0
        }
    }

    /// Operations per round for an operation taking `op_secs`: enough
    /// to fill the round, never fewer than `min_samples` (two in
    /// `--quick`).
    pub fn ops_per_round(&self, op_secs: f64, min_samples: usize) -> usize {
        if self.quick {
            return 2;
        }
        ((self.round_secs() / op_secs).round() as usize).max(min_samples)
    }
}

/// Operations attempted and failed, with the first failure kept for
/// the diagnostic.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output was wrong, errored, or was refused.
    pub failed: u64,
    /// Description of the first failure.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Count one operation; `verdict` is `Err(why)` when it failed.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }

    /// Fold another tally (e.g. a client thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// `Ok` when the two prediction vectors agree, else where they first
/// differ.
pub fn same_predictions(got: &[usize], want: &[usize]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    if got.len() != want.len() {
        return Err(format!(
            "{} predictions, reference has {}",
            got.len(),
            want.len()
        ));
    }
    let i = got
        .iter()
        .zip(want)
        .position(|(g, w)| g != w)
        .expect("unequal vectors of equal length differ somewhere");
    Err(format!(
        "query {i}: predicted row {}, CPU reference says {}",
        got[i], want[i]
    ))
}

/// Seconds one call of `op` takes once warm: the fastest of the calls
/// made in `budget_secs` (at least two) after a discarded first one.
/// Sizes the rounds; never reported.
pub fn warm_op_secs(budget_secs: f64, mut op: impl FnMut()) -> f64 {
    op();
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut calls = 0;
    while calls < 2 || started.elapsed().as_secs_f64() < budget_secs {
        let t = Instant::now();
        op();
        best = best.min(t.elapsed().as_secs_f64());
        calls += 1;
    }
    best
}

/// One round: `n` timed calls of `op`, each worth `work_per_op` work
/// units; `check` receives each call's result outside the timed
/// interval. Returns the round and its samples (seconds).
pub fn timed_round<T>(
    n: usize,
    work_per_op: f64,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(T),
) -> (Round, Vec<f64>) {
    let mut samples = Vec::with_capacity(n);
    let wall = Instant::now();
    for _ in 0..n {
        let t = Instant::now();
        let result = op();
        samples.push(t.elapsed().as_secs_f64());
        check(result);
    }
    let wall_s = wall.elapsed().as_secs_f64();
    (
        Round::from_samples(&samples, work_per_op * n as f64, wall_s),
        samples,
    )
}

/// Steady-state measurement of `op`: rounds of `ops_per_round` calls
/// ([`timed_round`]). Returns the estimate and every sample (seconds)
/// for the tail.
pub fn measure_ops<T>(
    plan: RoundPlan,
    ops_per_round: usize,
    work_per_op: f64,
    mut op: impl FnMut() -> T,
    mut check: impl FnMut(T),
) -> (Estimate, Vec<f64>) {
    let mut all = Vec::new();
    let est = collect(plan, || {
        let (round, samples) = timed_round(ops_per_round, work_per_op, &mut op, &mut check);
        all.extend(samples);
        round
    });
    (est, all)
}

/// Cold set-up measurement: each round is the median of `reps`
/// complete set-ups, the estimate the best round — never a single
/// millisecond-scale sample.
pub fn measure_setup(plan: RoundPlan, reps: usize, mut setup: impl FnMut()) -> Estimate {
    collect(plan, || {
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                let t = Instant::now();
                setup();
                t.elapsed().as_secs_f64()
            })
            .collect();
        Round {
            latency_s: median(&samples),
            rate: 0.0,
        }
    })
}

/// The scalar xorshift loop `c4cam bench-gate` calibrates hosts with,
/// re-implemented here (the gate's copy is private): dependency-chained,
/// not vectorizable, no memory traffic — it tracks the host's scalar
/// clock.
pub fn anchor_run() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    acc
}

/// Best-round milliseconds of [`anchor_run`].
pub fn anchor_ms(plan: RoundPlan) -> f64 {
    let (est, _) = measure_ops(plan, MIN_SAMPLES, 1.0, anchor_run, |acc| {
        std::hint::black_box(acc);
    });
    est.best_latency_s() * 1e3
}

/// Peak resident set of this process (`VmHWM`), MB; 0 where `/proc`
/// does not say.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a stream of 32-bit words: the input fingerprint that
/// shows two runs generated the same inputs.
#[derive(Debug, Clone, Copy)]
pub struct InputHash(u64);

impl InputHash {
    /// The empty fingerprint.
    pub fn new() -> InputHash {
        InputHash(0xcbf2_9ce4_8422_2325)
    }

    /// Fold `words` in.
    pub fn words(mut self, words: impl IntoIterator<Item = u32>) -> InputHash {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }

    /// Fold a tensor's element bits in.
    pub fn tensor(self, t: &c4cam::tensor::Tensor) -> InputHash {
        self.words(t.data().iter().map(|v| v.to_bits()))
    }

    /// The fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// SplitMix64: the serve clients' row-index stream.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_sized_from_the_time_budget_with_a_sample_floor() {
        let o = Opts {
            seed: DEFAULT_SEED,
            seconds: 6.0,
            trace: false,
            quick: false,
            bless: false,
        };
        assert_eq!(o.plan(), RoundPlan::PROCESS);
        assert_eq!(o.round_secs(), 2.0);
        assert_eq!(o.ops_per_round(0.01, MIN_SAMPLES), 200);
        assert_eq!(o.ops_per_round(1.5, MIN_SAMPLES), MIN_SAMPLES);
        let traced = Opts {
            trace: true,
            seconds: 14.0,
            ..o
        };
        assert_eq!(traced.plan(), RoundPlan::FULL);
        assert_eq!(traced.round_secs(), 1.0);
        let quick = Opts { quick: true, ..o };
        assert_eq!(quick.ops_per_round(0.01, MIN_SAMPLES), 2);
        assert_eq!(quick.plan(), RoundPlan::QUICK);
    }

    #[test]
    fn tally_counts_and_keeps_the_first_failure() {
        let mut t = Tally::default();
        t.record(Ok(()));
        t.record(Err("first".into()));
        t.record(Err("second".into()));
        let mut other = Tally::default();
        other.record(Err("third".into()));
        t.absorb(other);
        assert_eq!((t.attempted, t.failed), (4, 3));
        assert_eq!(t.first_failure.as_deref(), Some("first"));
    }

    #[test]
    fn prediction_mismatches_say_where() {
        assert!(same_predictions(&[1, 2], &[1, 2]).is_ok());
        let e = same_predictions(&[1, 3], &[1, 2]).unwrap_err();
        assert!(e.contains("query 1"), "{e}");
        assert!(same_predictions(&[1], &[1, 2]).is_err());
    }

    #[test]
    fn measure_ops_counts_work_and_keeps_every_sample() {
        let mut calls = 0;
        let mut checked = 0;
        let (est, samples) = measure_ops(
            RoundPlan::QUICK,
            4,
            10.0,
            || {
                calls += 1;
                calls
            },
            |call| checked += call,
        );
        assert_eq!((calls, checked), (4, 1 + 2 + 3 + 4));
        assert_eq!(samples.len(), 4);
        assert_eq!(est.rounds.len(), 1);
        assert!(est.best_rate() > 0.0);
    }

    #[test]
    fn input_hash_and_row_stream_follow_the_seed() {
        let h = |words: &[u32]| InputHash::new().words(words.iter().copied()).finish();
        assert_eq!(h(&[1, 2, 3]), h(&[1, 2, 3]));
        assert_ne!(h(&[1, 2, 3]), h(&[1, 2, 4]));
        let stream = |seed| {
            let mut r = SplitMix(seed);
            (0..8).map(|_| r.below(64)).collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5));
        assert_ne!(stream(5), stream(6));
        assert!(stream(5).iter().all(|&i| i < 64));
    }

    #[test]
    fn anchor_is_deterministic() {
        assert_eq!(anchor_run(), anchor_run());
    }
}
