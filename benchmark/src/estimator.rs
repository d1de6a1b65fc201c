//! The best-of-rounds estimator every timing in this benchmark uses.
//!
//! On a small shared VM, contention from neighbours only ever *adds*
//! time, so a single window's median swings 10–25 % while the
//! least-disturbed of several windows repeats within ~2 %. Samples are
//! therefore collected in rounds: a round's latency is the median of
//! its samples, its rate is work ÷ round wall time, and the reported
//! value is the **best round** (lowest latency, highest rate). A round
//! is *quiet* when within [`QUIET_WITHIN`] of the best; a run wants
//! [`MIN_QUIET`] quiet rounds and adds rounds when it has fewer —
//! reported, never hidden.
//!
//! Some of the disturbance is fixed for the life of a process: which
//! pages the kernel hands it decides how dear its page faults are, and
//! about one `dse-sweep` process in four runs every round 13 % slower
//! than the others. The untraced pass therefore spreads its rounds over
//! [`PROCESSES`] processes ([`ROUNDS_PER_PROCESS`] each) and the best
//! round is the best of any of them; a run short of quiet rounds adds
//! whole processes, at most [`MAX_EXTRA_PROCESSES`]. The traced pass
//! stays in one process: [`ROUNDS`] rounds, up to [`MAX_EXTRA`] more.

/// Rounds of a traced pass.
pub const ROUNDS: usize = 7;
/// A round is quiet when its latency is within this share of the best.
pub const QUIET_WITHIN: f64 = 0.03;
/// Quiet rounds a run wants before it stops.
pub const MIN_QUIET: usize = 3;
/// Extra rounds a traced pass may add to reach [`MIN_QUIET`].
pub const MAX_EXTRA: usize = 5;
/// Processes an untraced pass spreads its rounds over.
pub const PROCESSES: usize = 3;
/// Rounds each of those processes collects (no fewer than [`ROUNDS`]
/// in all).
pub const ROUNDS_PER_PROCESS: usize = 3;
/// Extra processes an untraced pass may add to reach [`MIN_QUIET`].
pub const MAX_EXTRA_PROCESSES: usize = 2;
// No timing rests on fewer rounds spread over processes than in one.
const _: () = assert!(PROCESSES * ROUNDS_PER_PROCESS >= ROUNDS);

/// How many rounds one process collects (`--quick` collects one and
/// never extends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundPlan {
    /// Rounds always collected.
    pub rounds: usize,
    /// Upper limit on rounds added while fewer than [`MIN_QUIET`] are quiet.
    pub max_extra: usize,
}

impl RoundPlan {
    /// The traced pass: [`ROUNDS`] rounds, up to [`MAX_EXTRA`] more.
    pub const FULL: RoundPlan = RoundPlan {
        rounds: ROUNDS,
        max_extra: MAX_EXTRA,
    };
    /// One process's share of an untraced pass; whoever started it
    /// decides whether another process is needed.
    pub const PROCESS: RoundPlan = RoundPlan {
        rounds: ROUNDS_PER_PROCESS,
        max_extra: 0,
    };
    /// The smoke plan: one round.
    pub const QUICK: RoundPlan = RoundPlan {
        rounds: 1,
        max_extra: 0,
    };
}

/// Median of `samples` (mean of the middle two for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One finished round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Round {
    /// Median seconds of one operation in this round.
    pub latency_s: f64,
    /// Work units per second over the round's wall time.
    pub rate: f64,
}

impl Round {
    /// Summarize a round from its per-operation samples (seconds), the
    /// work units it completed, and its wall time.
    pub fn from_samples(samples: &[f64], work: f64, wall_s: f64) -> Round {
        Round {
            latency_s: median(samples),
            rate: work / wall_s,
        }
    }
}

/// The rounds of one measurement and what the estimator made of them.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Every round collected, extras included, in order.
    pub rounds: Vec<Round>,
    /// Rounds added beyond the plan.
    pub extra: usize,
}

impl Estimate {
    /// Lowest round latency, seconds.
    pub fn best_latency_s(&self) -> f64 {
        self.rounds
            .iter()
            .map(|r| r.latency_s)
            .fold(f64::INFINITY, f64::min)
    }

    /// Highest round rate, work units per second.
    pub fn best_rate(&self) -> f64 {
        self.rounds.iter().map(|r| r.rate).fold(0.0, f64::max)
    }

    /// Rounds within [`QUIET_WITHIN`] of the best latency.
    pub fn quiet(&self) -> usize {
        let latencies: Vec<f64> = self.rounds.iter().map(|r| r.latency_s).collect();
        quiet_among(&latencies)
    }

    /// `(worst − best) ÷ best` over the round latencies.
    pub fn spread(&self) -> f64 {
        let best = self.best_latency_s();
        let worst = self.rounds.iter().map(|r| r.latency_s).fold(0.0, f64::max);
        (worst - best) / best
    }
}

/// How many of `latencies` (one per round) lie within [`QUIET_WITHIN`]
/// of the lowest.
pub fn quiet_among(latencies: &[f64]) -> usize {
    let best = latencies.iter().copied().fold(f64::INFINITY, f64::min);
    let limit = best * (1.0 + QUIET_WITHIN);
    latencies.iter().filter(|&&l| l <= limit).count()
}

/// Collect `plan.rounds` rounds from `round`, then keep adding rounds
/// (at most `plan.max_extra`) while fewer than [`MIN_QUIET`] are quiet.
pub fn collect(plan: RoundPlan, mut round: impl FnMut() -> Round) -> Estimate {
    let mut est = Estimate {
        rounds: (0..plan.rounds).map(|_| round()).collect(),
        extra: 0,
    };
    while est.quiet() < MIN_QUIET && est.extra < plan.max_extra {
        est.rounds.push(round());
        est.extra += 1;
    }
    est
}

/// Best-round median of a layer series: `rounds[i]` holds round `i`'s
/// samples; the estimate is the lowest of the round medians.
pub fn best_round_median(rounds: &[Vec<f64>]) -> f64 {
    rounds
        .iter()
        .filter(|r| !r.is_empty())
        .map(|r| median(r))
        .fold(f64::INFINITY, f64::min)
}

/// Percentile ladder the tail rule chooses from.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
/// Samples that must lie beyond a percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of the ladder with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, as `(percentile, value)`
/// (nearest rank). With too few samples for even the median the
/// maximum is reported as percentile 100 — a tail nobody should trust,
/// flagged by the sample count printed beside it.
///
/// # Panics
/// Panics on an empty slice.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let beyond = |p: f64| n - rank(n, p);
    match LADDER.iter().rev().find(|&&p| beyond(p) >= TAIL_MIN_BEYOND) {
        Some(&p) => (p, v[rank(n, p) - 1]),
        None => (100.0, v[n - 1]),
    }
}

/// Nearest-rank index (1-based) of percentile `p` among `n` samples.
/// The epsilon keeps a product that is whole in exact arithmetic
/// (99.9 % of 10 000) from rounding up a rank.
fn rank(n: usize, p: f64) -> usize {
    (((p / 100.0 * n as f64) - 1e-9).ceil() as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rounds_of(latencies: &[f64]) -> impl FnMut() -> Round + '_ {
        let mut it = latencies.iter();
        move || {
            let l = *it
                .next()
                .expect("estimator asked for more rounds than the test supplied");
            Round {
                latency_s: l,
                rate: 1.0 / l,
            }
        }
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn best_round_is_lowest_latency_and_highest_rate() {
        let lat = [1.2, 1.0, 1.01, 1.5, 1.02, 1.3, 1.1];
        let est = collect(RoundPlan::FULL, rounds_of(&lat));
        assert_eq!(est.rounds.len(), 7);
        assert_eq!(est.best_latency_s(), 1.0);
        assert_eq!(est.best_rate(), 1.0);
        assert_eq!(est.quiet(), 3, "1.0, 1.01 and 1.02 are within 3 %");
        assert_eq!(est.extra, 0);
        assert!((est.spread() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn a_noisy_run_adds_rounds_until_three_are_quiet() {
        // One quiet round in the first seven; the 8th and 9th are quiet.
        let lat = [1.0, 1.2, 1.2, 1.2, 1.2, 1.2, 1.2, 1.01, 1.02, 9.0];
        let est = collect(RoundPlan::FULL, rounds_of(&lat));
        assert_eq!(est.extra, 2);
        assert_eq!(est.rounds.len(), 9);
        assert_eq!(est.quiet(), 3);
    }

    #[test]
    fn extra_rounds_are_capped() {
        let lat = [
            1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0,
        ];
        let est = collect(RoundPlan::FULL, rounds_of(&lat));
        assert_eq!(est.extra, MAX_EXTRA);
        assert_eq!(est.rounds.len(), ROUNDS + MAX_EXTRA);
        assert_eq!(est.quiet(), 1, "reported, not hidden");
    }

    #[test]
    fn a_new_best_in_an_extra_round_requalifies_the_earlier_ones() {
        // The extra round is faster than everything before it, so the
        // quiet set is recomputed against the new best.
        let lat = [1.0, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 0.9, 0.91, 0.92];
        let est = collect(RoundPlan::FULL, rounds_of(&lat));
        assert_eq!(est.best_latency_s(), 0.9);
        assert_eq!(est.extra, 3);
        assert_eq!(est.quiet(), 3);
    }

    #[test]
    fn quick_and_per_process_plans_never_extend() {
        let est = collect(RoundPlan::QUICK, rounds_of(&[1.0]));
        assert_eq!(est.rounds.len(), 1);
        assert_eq!(est.extra, 0);
        // One quiet round of three: the process stops all the same.
        let est = collect(RoundPlan::PROCESS, rounds_of(&[1.0, 2.0, 2.0]));
        assert_eq!((est.rounds.len(), est.extra), (ROUNDS_PER_PROCESS, 0));
        assert_eq!(est.quiet(), 1);
    }

    #[test]
    fn quiet_rounds_are_counted_against_the_lowest_of_all_of_them() {
        assert_eq!(quiet_among(&[10.0, 10.3, 10.31, 9.0]), 1);
        assert_eq!(quiet_among(&[10.0, 10.3, 10.31]), 2);
        assert_eq!(quiet_among(&[]), 0);
    }

    #[test]
    fn layer_series_take_the_lowest_round_median() {
        let rounds = vec![vec![5.0, 6.0, 7.0], vec![], vec![4.0, 9.0, 4.5]];
        assert_eq!(best_round_median(&rounds), 4.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let v: Vec<f64> = (1..=42).map(f64::from).collect();
        // p75 of 42 → rank 32, 10 beyond; p90 → rank 38, only 4 beyond.
        assert_eq!(tail(&v), (75.0, 32.0));
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.0, 990.0));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), (99.9, 9990.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50.0, 10.0));
        // Too few for any percentile: the maximum, labelled p100.
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (100.0, 3.0));
    }
}
