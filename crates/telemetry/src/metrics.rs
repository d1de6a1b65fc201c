//! Aggregation of recorded events into per-run metrics: phase
//! breakdown, per-op-kind time/energy attribution with latency
//! percentiles, shard utilization and the host-memory census —
//! rendered as the `--metrics` summary tables.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::{cat, ArgValue, Event, Phase};

/// A percentile-capable sample set (host-side durations, ns).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    samples: Vec<f64>,
}

impl Histogram {
    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        self.samples.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the histogram is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.samples.iter().sum()
    }

    /// Nearest-rank percentile (`p` in 0..=100); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN samples"));
        let rank = (p / 100.0) * (sorted.len() - 1) as f64;
        sorted[rank.round() as usize]
    }

    /// Largest sample; 0 when empty.
    pub fn max(&self) -> f64 {
        self.samples.iter().copied().fold(0.0, f64::max)
    }
}

/// Aggregated row for one op kind (`cat::OP` span name).
#[derive(Debug, Clone)]
pub struct OpRow {
    /// Op name, e.g. `cam.search`.
    pub name: String,
    /// Number of recorded spans (after sampling).
    pub count: u64,
    /// Host-side wall time, ns (histogram over individual spans).
    pub host_ns: Histogram,
    /// Simulated device latency attributed to this op kind, ns.
    pub sim_latency_ns: f64,
    /// Simulated energy attributed to this op kind, fJ.
    pub sim_energy_fj: f64,
}

/// Aggregated row for one shard lane.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Logical lane (1 + shard index).
    pub tid: u32,
    /// Number of shard spans on this lane.
    pub count: u64,
    /// Busy host time, ns.
    pub busy_ns: f64,
}

/// Aggregated row for one stage name (`cat::STAGE` span name).
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name, e.g. `cam-map`.
    pub name: String,
    /// Number of recorded spans.
    pub count: u64,
    /// Total host time, ns.
    pub ns: f64,
}

/// Counters that attribute host memory to an owner (bytes): the run's
/// input tensors and the device's planes. The census sets them beside
/// [`PEAK_RSS_COUNTER`] and reports the rest as unattributed.
pub const HOST_MEMORY_OWNERS: [&str; 2] = ["host.input_bytes", "sim.heap_bytes"];

/// Counter carrying the process's peak resident set (`VmHWM`), bytes.
pub const PEAK_RSS_COUNTER: &str = "host.vm_hwm_bytes";

/// Peak resident set of this process (`VmHWM`), bytes; `None` where
/// `/proc/self/status` does not say.
pub fn peak_rss_bytes() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024.0)
}

/// Everything the `--metrics` renderer needs, derived from an event list.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Phase name → total host time, ns (in [`Phase::ALL`] order, then
    /// any non-standard phase names in first-seen order).
    pub phases: Vec<(String, f64)>,
    /// Stages inside the phases, in first-seen order.
    pub stages: Vec<StageRow>,
    /// Per-op-kind aggregation, sorted by host time descending.
    pub ops: Vec<OpRow>,
    /// Per-shard-lane aggregation, sorted by lane.
    pub shards: Vec<ShardRow>,
    /// Wall window covered by shard spans, ns (for utilization).
    pub shard_window_ns: f64,
    /// Last-sampled value of each counter, in name order.
    pub counters: Vec<(String, f64)>,
}

fn arg_num(args: &[(&'static str, ArgValue)], key: &str) -> Option<f64> {
    args.iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            ArgValue::Num(x) => Some(*x),
            ArgValue::Int(n) => Some(*n as f64),
            ArgValue::Str(_) => None,
        })
}

impl MetricsReport {
    /// Aggregate an event list into a report.
    pub fn from_events(events: &[Event]) -> Self {
        let mut phase_order: Vec<String> =
            Phase::ALL.iter().map(|p| p.name().to_string()).collect();
        let mut phase_ns: BTreeMap<String, f64> = BTreeMap::new();
        let mut stages: Vec<StageRow> = Vec::new();
        let mut ops: BTreeMap<String, OpRow> = BTreeMap::new();
        let mut shards: BTreeMap<u32, ShardRow> = BTreeMap::new();
        let mut shard_min = f64::INFINITY;
        let mut shard_max = 0.0_f64;
        let mut counters: BTreeMap<String, f64> = BTreeMap::new();

        for ev in events {
            match ev {
                Event::Span(s) if s.cat == cat::PHASE => {
                    if !phase_order.contains(&s.name) {
                        phase_order.push(s.name.clone());
                    }
                    *phase_ns.entry(s.name.clone()).or_insert(0.0) += s.dur_ns as f64;
                }
                Event::Span(s) if s.cat == cat::STAGE => {
                    let row = match stages.iter().position(|r| r.name == s.name) {
                        Some(i) => &mut stages[i],
                        None => {
                            stages.push(StageRow {
                                name: s.name.clone(),
                                count: 0,
                                ns: 0.0,
                            });
                            stages.last_mut().expect("just pushed")
                        }
                    };
                    row.count += 1;
                    row.ns += s.dur_ns as f64;
                }
                Event::Span(s) if s.cat == cat::OP => {
                    let row = ops.entry(s.name.clone()).or_insert_with(|| OpRow {
                        name: s.name.clone(),
                        count: 0,
                        host_ns: Histogram::default(),
                        sim_latency_ns: 0.0,
                        sim_energy_fj: 0.0,
                    });
                    row.count += 1;
                    row.host_ns.push(s.dur_ns as f64);
                    row.sim_latency_ns += arg_num(&s.args, "sim_latency_ns").unwrap_or(0.0);
                    row.sim_energy_fj += arg_num(&s.args, "sim_energy_fj").unwrap_or(0.0);
                }
                Event::Span(s) if s.cat == cat::SHARD => {
                    let row = shards.entry(s.tid).or_insert(ShardRow {
                        tid: s.tid,
                        count: 0,
                        busy_ns: 0.0,
                    });
                    row.count += 1;
                    row.busy_ns += s.dur_ns as f64;
                    shard_min = shard_min.min(s.start_ns as f64);
                    shard_max = shard_max.max((s.start_ns + s.dur_ns) as f64);
                }
                Event::Counter { name, value, .. } => {
                    counters.insert((*name).to_string(), *value);
                }
                _ => {}
            }
        }

        let phases = phase_order
            .into_iter()
            .filter_map(|name| phase_ns.get(&name).map(|ns| (name, *ns)))
            .collect();
        let mut ops: Vec<OpRow> = ops.into_values().collect();
        ops.sort_by(|a, b| {
            b.host_ns
                .sum()
                .partial_cmp(&a.host_ns.sum())
                .expect("finite durations")
                .then(a.name.cmp(&b.name))
        });
        MetricsReport {
            phases,
            stages,
            ops,
            shards: shards.into_values().collect(),
            shard_window_ns: if shard_max > shard_min {
                shard_max - shard_min
            } else {
                0.0
            },
            counters: counters.into_iter().collect(),
        }
    }

    /// Phase breakdown plus top-`k` ops by host time and by simulated
    /// energy — the `--metrics summary` table.
    pub fn render_summary(&self, k: usize) -> String {
        let mut out = String::new();
        let total: f64 = self.phases.iter().map(|(_, ns)| ns).sum();
        out.push_str("phase breakdown:\n");
        if self.phases.is_empty() {
            out.push_str("  (no phase spans recorded)\n");
        }
        for (name, ns) in &self.phases {
            let share = if total > 0.0 { 100.0 * ns / total } else { 0.0 };
            let _ = writeln!(out, "  {name:<10} {:>12.3} ms {share:>6.1}%", ns / 1e6);
        }
        if !self.stages.is_empty() {
            out.push_str("stages inside phases:\n");
            for row in &self.stages {
                let _ = writeln!(
                    out,
                    "  {:<10} {:>12.3} ms {:>6}x",
                    row.name,
                    row.ns / 1e6,
                    row.count
                );
            }
        }
        if !self.ops.is_empty() {
            let _ = writeln!(out, "top ops by host time (of {} kinds):", self.ops.len());
            for row in self.ops.iter().take(k) {
                let _ = writeln!(
                    out,
                    "  {:<18} {:>8}x {:>10.3} ms host {:>12.3} ns sim {:>12.1} fJ",
                    row.name,
                    row.count,
                    row.host_ns.sum() / 1e6,
                    row.sim_latency_ns,
                    row.sim_energy_fj
                );
            }
            let mut by_energy: Vec<&OpRow> = self.ops.iter().collect();
            by_energy.sort_by(|a, b| {
                b.sim_energy_fj
                    .partial_cmp(&a.sim_energy_fj)
                    .expect("finite energy")
                    .then(a.name.cmp(&b.name))
            });
            out.push_str("top ops by sim energy:\n");
            for row in by_energy.iter().take(k) {
                let _ = writeln!(out, "  {:<18} {:>12.1} fJ", row.name, row.sim_energy_fj);
            }
        }
        out
    }

    /// Summary plus per-op latency percentiles and shard utilization —
    /// the `--metrics full` table.
    pub fn render_full(&self, k: usize) -> String {
        let mut out = self.render_summary(k);
        if !self.ops.is_empty() {
            out.push_str("op host-latency percentiles (us):\n");
            for row in &self.ops {
                let _ = writeln!(
                    out,
                    "  {:<18} p50 {:>9.3} p90 {:>9.3} p99 {:>9.3} max {:>9.3}",
                    row.name,
                    row.host_ns.percentile(50.0) / 1e3,
                    row.host_ns.percentile(90.0) / 1e3,
                    row.host_ns.percentile(99.0) / 1e3,
                    row.host_ns.max() / 1e3
                );
            }
        }
        if !self.shards.is_empty() {
            out.push_str("shard utilization:\n");
            for row in &self.shards {
                let util = if self.shard_window_ns > 0.0 {
                    100.0 * row.busy_ns / self.shard_window_ns
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "  shard {:<4} {:>4} span(s) {:>10.3} ms busy {util:>6.1}%",
                    row.tid.saturating_sub(1),
                    row.count,
                    row.busy_ns / 1e6
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters (last sample):\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<24} {value}");
            }
        }
        self.render_host_memory(&mut out);
        out
    }

    fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find_map(|(n, v)| (n == name).then_some(*v))
    }

    /// The host-memory census, when the run recorded its peak resident
    /// set: each owner's bytes, then what no owner accounts for.
    fn render_host_memory(&self, out: &mut String) {
        let Some(peak) = self.counter(PEAK_RSS_COUNTER) else {
            return;
        };
        out.push_str("host memory (bytes):\n");
        let mut attributed = 0.0;
        for name in HOST_MEMORY_OWNERS {
            if let Some(bytes) = self.counter(name) {
                attributed += bytes;
                let _ = writeln!(out, "  {name:<24} {bytes:>14}");
            }
        }
        let _ = writeln!(out, "  {:<24} {:>14}", "unattributed", peak - attributed);
        let _ = writeln!(out, "  {:<24} {peak:>14}", "VmHWM");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    fn span(
        name: &str,
        cat: &'static str,
        tid: u32,
        start: u64,
        dur: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Event {
        Event::Span(Span {
            name: name.into(),
            cat,
            tid,
            start_ns: start,
            dur_ns: dur,
            args,
        })
    }

    #[test]
    fn phases_aggregate_in_pipeline_order() {
        let events = vec![
            span("Execute", cat::PHASE, 0, 30, 100, vec![]),
            span("Parse", cat::PHASE, 0, 0, 10, vec![]),
            span("Compile", cat::PHASE, 0, 20, 5, vec![]),
            span("Place", cat::PHASE, 0, 10, 7, vec![]),
        ];
        let r = MetricsReport::from_events(&events);
        let names: Vec<&str> = r.phases.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["Parse", "Place", "Compile", "Execute"]);
        assert_eq!(r.phases[3].1, 100.0);
    }

    #[test]
    fn stages_count_apart_from_the_phase_breakdown() {
        let events = vec![
            span("Compile", cat::PHASE, 0, 0, 100, vec![]),
            span("cam-map", cat::STAGE, 0, 10, 30, vec![]),
            span("tape", cat::STAGE, 0, 40, 50, vec![]),
            span("Compile", cat::PHASE, 0, 200, 10, vec![]),
            span("Compile", cat::PHASE, 0, 300, 100, vec![]),
            span("cam-map", cat::STAGE, 0, 310, 20, vec![]),
        ];
        let r = MetricsReport::from_events(&events);
        assert_eq!(r.phases, vec![("Compile".to_string(), 210.0)]);
        let stages: Vec<(&str, u64, f64)> = r
            .stages
            .iter()
            .map(|s| (s.name.as_str(), s.count, s.ns))
            .collect();
        assert_eq!(stages, [("cam-map", 2, 50.0), ("tape", 1, 50.0)]);
        let text = r.render_summary(3);
        assert!(text.contains("stages inside phases:"), "{text}");
    }

    #[test]
    fn ops_attribute_sim_latency_and_energy() {
        let events = vec![
            span(
                "cam.search",
                cat::OP,
                0,
                0,
                500,
                vec![
                    ("sim_latency_ns", ArgValue::Num(3.0)),
                    ("sim_energy_fj", ArgValue::Num(40.0)),
                ],
            ),
            span(
                "cam.search",
                cat::OP,
                0,
                600,
                700,
                vec![
                    ("sim_latency_ns", ArgValue::Num(5.0)),
                    ("sim_energy_fj", ArgValue::Num(60.0)),
                ],
            ),
            span("cam.read", cat::OP, 0, 1400, 100, vec![]),
        ];
        let r = MetricsReport::from_events(&events);
        assert_eq!(r.ops.len(), 2);
        assert_eq!(r.ops[0].name, "cam.search"); // most host time first
        assert_eq!(r.ops[0].count, 2);
        assert_eq!(r.ops[0].sim_latency_ns, 8.0);
        assert_eq!(r.ops[0].sim_energy_fj, 100.0);
    }

    #[test]
    fn shard_utilization_uses_the_covered_window() {
        let events = vec![
            span("shard-0", cat::SHARD, 1, 0, 80, vec![]),
            span("shard-1", cat::SHARD, 2, 0, 100, vec![]),
        ];
        let r = MetricsReport::from_events(&events);
        assert_eq!(r.shards.len(), 2);
        assert_eq!(r.shard_window_ns, 100.0);
        let full = r.render_full(5);
        assert!(full.contains("shard utilization:"), "{full}");
        assert!(full.contains("80.0%"), "{full}");
    }

    #[test]
    fn histogram_percentiles_are_nearest_rank() {
        let mut h = Histogram::default();
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.push(v);
        }
        assert_eq!(h.percentile(0.0), 10.0);
        assert_eq!(h.percentile(100.0), 40.0);
        assert_eq!(h.percentile(50.0), 30.0); // rank 1.5 rounds to index 2
        assert_eq!(h.max(), 40.0);
        assert!(Histogram::default().is_empty());
        assert_eq!(Histogram::default().percentile(50.0), 0.0);
    }

    #[test]
    fn render_summary_lists_phases_and_top_ops() {
        let events = vec![
            span("Parse", cat::PHASE, 0, 0, 1_000_000, vec![]),
            span("cam.search", cat::OP, 0, 10, 100, vec![]),
        ];
        let text = MetricsReport::from_events(&events).render_summary(3);
        assert!(text.contains("phase breakdown:"), "{text}");
        assert!(text.contains("Parse"), "{text}");
        assert!(text.contains("cam.search"), "{text}");
    }

    #[test]
    fn host_memory_census_reports_what_no_owner_accounts_for() {
        let counter = |name, value| Event::Counter {
            name,
            t_ns: 1,
            value,
        };
        let bare = MetricsReport::from_events(&[counter("sim.heap_bytes", 10.0)]);
        assert!(!bare.render_full(5).contains("host memory"));
        let r = MetricsReport::from_events(&[
            counter("sim.heap_bytes", 10.0),
            counter("host.input_bytes", 64.0),
            counter(PEAK_RSS_COUNTER, 1000.0),
        ]);
        let text = r.render_full(5);
        let census = &text[text.find("host memory (bytes):").expect("census")..];
        let rows: Vec<Vec<&str>> = census
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [
                ["host.input_bytes", "64"],
                ["sim.heap_bytes", "10"],
                ["unattributed", "926"],
                ["VmHWM", "1000"]
            ]
        );
    }

    #[test]
    fn counters_keep_the_last_sample() {
        let events = vec![
            Event::Counter {
                name: "sim.latency_ns",
                t_ns: 1,
                value: 5.0,
            },
            Event::Counter {
                name: "sim.latency_ns",
                t_ns: 2,
                value: 9.0,
            },
        ];
        let r = MetricsReport::from_events(&events);
        assert_eq!(r.counters, vec![("sim.latency_ns".to_string(), 9.0)]);
    }
}
