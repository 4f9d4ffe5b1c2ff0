//! From episodes to metrics: the output check, the per-task stage
//! split, and the end-to-end and per-layer figures.

use crate::probe::{SpanKind, TaskTrace};
use crate::stats::{self, Ratio};
use crate::workload::{Episode, Workload, ALL_LABELS};
use sitra_core::Placement;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// Named metrics in print order, each with its unit.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str, String)>,
}

impl Metrics {
    /// Add one metric; `note` says what it was measured over.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str, note: String) {
        let name = name.into();
        assert!(
            stats::valid_metric_name(&name),
            "invalid metric name {name}"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.rows.iter().all(|(n, ..)| *n != name),
            "metric {name} reported twice"
        );
        self.rows.push((name, value, unit, note));
    }

    /// A percentile of `samples` (seconds, in time order) reported in
    /// milliseconds: the median over windows of at least 200 samples,
    /// each of which leaves [`stats::MIN_TAIL`] samples beyond a p95.
    pub fn push_ms_pct(&mut self, name: &str, samples: &[f64], q: f64) -> Result<(), String> {
        let window = stats::min_samples_for(0.95);
        let value = stats::windowed_percentile(samples, q, window).ok_or_else(|| {
            format!(
                "{name}: {} samples, fewer than one window of {window}",
                samples.len()
            )
        })?;
        self.push(
            name,
            value * 1e3,
            "ms",
            format!(
                "median of {} windows, n={}",
                samples.len() / window,
                samples.len()
            ),
        );
        Ok(())
    }

    pub fn push_ratio(&mut self, name: &str, ratio: Ratio, unit: &'static str) {
        self.push(name, ratio.value(), unit, ratio.to_string());
    }

    /// Human-readable lines, one per metric.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit, note) in &self.rows {
            let _ = writeln!(out, "{name:<40} {value:>14.4} {unit:<6} {note}");
        }
        out
    }

    /// The `"metrics"` JSON object.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .rows
            .iter()
            .map(|(name, value, unit, _)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Output-check and accounting failures of a set of episodes.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    /// Tasks whose outputs were checked.
    pub attempted: u64,
    pub missing: u64,
    pub duplicated: u64,
    pub mismatched: u64,
    pub degraded: u64,
    pub dropped: u64,
    /// Hybrid tasks whose output never became available to the driver
    /// through the measured boundary.
    pub unmeasured: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.missing
            + self.duplicated
            + self.mismatched
            + self.degraded
            + self.dropped
            + self.unmeasured
    }

    pub fn add(&mut self, o: &Failures) {
        self.attempted += o.attempted;
        self.missing += o.missing;
        self.duplicated += o.duplicated;
        self.mismatched += o.mismatched;
        self.degraded += o.degraded;
        self.dropped += o.dropped;
        self.unmeasured += o.unmeasured;
    }
}

/// Check one episode's outputs against the in-situ reference: every
/// expected `(label, step)` present exactly once with identical
/// encoded bytes, and every hybrid task's latency measured.
pub fn check_episode(
    w: &Workload,
    reference: &BTreeMap<(String, u64), Vec<u8>>,
    ep: &Episode,
) -> Failures {
    let mut seen: HashMap<(String, u64), u32> = HashMap::new();
    let mut f = Failures::default();
    for (label, step, bytes) in crate::workload::encoded(&ep.result) {
        let key = (label, step);
        *seen.entry(key.clone()).or_default() += 1;
        if reference.get(&key) != Some(&bytes) {
            f.mismatched += 1;
        }
    }
    let roster = w.roster();
    for (label, step) in w.expected_tasks() {
        f.attempted += 1;
        match seen.get(&(label.clone(), step)).copied().unwrap_or(0) {
            0 => f.missing += 1,
            1 => {}
            n => f.duplicated += u64::from(n - 1),
        }
        let idx = roster
            .iter()
            .position(|s| s.label == label)
            .expect("expected label is in the roster");
        if roster[idx].placement == Placement::Hybrid {
            let measured = ep
                .tasks
                .get(&(idx, step))
                .and_then(|t| t.marks)
                .is_some_and(|m| m.available.is_some());
            if !measured {
                f.unmeasured += 1;
            }
        }
    }
    f.degraded = ep.result.degraded_tasks as u64;
    f.dropped = ep.result.dropped_tasks as u64;
    f
}

/// Every hybrid task of `episodes` in time order (episode, step,
/// label), with its label index and step.
fn hybrid_tasks<'a>(
    w: &Workload,
    episodes: &'a [Episode],
) -> impl Iterator<Item = (usize, u64, &'a TaskTrace)> {
    let hybrid = hybrid_mask(w);
    episodes.iter().flat_map(move |ep| {
        let mut keys: Vec<(u64, usize)> = ep
            .tasks
            .keys()
            .filter(|(label, _)| hybrid[*label])
            .map(|&(label, step)| (step, label))
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(move |(step, label)| (label, step, &ep.tasks[&(label, step)]))
    })
}

/// Task latency (seconds) of every measured hybrid task, in time order.
pub fn task_latencies(w: &Workload, episodes: &[Episode]) -> Vec<f64> {
    hybrid_tasks(w, episodes)
        .filter_map(|(_, _, t)| t.marks)
        .filter_map(|m| m.available.map(|a| (a - m.entered).as_secs_f64()))
        .collect()
}

fn hybrid_mask(w: &Workload) -> Vec<bool> {
    w.roster()
        .iter()
        .map(|s| s.placement == Placement::Hybrid)
        .collect()
}

/// One hybrid task split into its four stages (seconds).
#[derive(Debug, Clone, Copy)]
pub struct StageSplit {
    pub insitu: f64,
    pub to_bucket: f64,
    pub aggregate: f64,
    pub deliver: f64,
    /// From the latency marks, independently of the spans.
    pub latency: f64,
}

impl StageSplit {
    pub fn sum(&self) -> f64 {
        self.insitu + self.to_bucket + self.aggregate + self.deliver
    }
}

fn secs(from: Instant, to: Instant) -> f64 {
    if to >= from {
        (to - from).as_secs_f64()
    } else {
        -(from - to).as_secs_f64()
    }
}

/// In-situ stage wall of one task: first rank entry to last rank exit.
fn insitu_window(t: &TaskTrace) -> Option<(Instant, Instant)> {
    let spans = t.spans.iter().filter(|s| s.kind == SpanKind::InSitu);
    let start = spans.clone().map(|s| s.start).min()?;
    let end = spans.map(|s| s.end).max()?;
    Some((start, end))
}

/// Aggregation window of one task: first aggregate/feed start to last
/// aggregate/finish end.
fn aggregate_window(t: &TaskTrace) -> Option<(Instant, Instant)> {
    let spans = t.spans.iter().filter(|s| s.kind != SpanKind::InSitu);
    let start = spans.clone().map(|s| s.start).min()?;
    let end = spans.map(|s| s.end).max()?;
    Some((start, end))
}

/// Aggregation self time: the summed span durations, without the
/// waits between streaming feeds.
fn aggregate_self(t: &TaskTrace) -> f64 {
    t.spans
        .iter()
        .filter(|s| s.kind != SpanKind::InSitu)
        .map(|s| secs(s.start, s.end))
        .sum()
}

/// Split a traced hybrid task. `None` when a stage is missing.
pub fn split(t: &TaskTrace) -> Option<StageSplit> {
    let marks = t.marks?;
    let available = marks.available?;
    let (in_start, in_end) = insitu_window(t)?;
    let (agg_start, agg_end) = aggregate_window(t)?;
    Some(StageSplit {
        insitu: secs(in_start, in_end),
        to_bucket: secs(in_end, agg_start),
        aggregate: secs(agg_start, agg_end),
        deliver: secs(agg_end, available),
        latency: secs(marks.entered, available),
    })
}

/// Largest clock-read disagreement the stage-sum oracle tolerates.
pub const STAGE_SUM_TOLERANCE_S: f64 = 1e-6;

/// The stage-sum oracle over every hybrid task of traced episodes:
/// every task splits, no stage is negative, and the stages sum to the
/// task latency. Returns the splits by label index, or the first
/// violation.
pub fn stage_splits(
    w: &Workload,
    episodes: &[Episode],
) -> Result<Vec<(usize, StageSplit)>, String> {
    let labels = w.labels();
    let mut out = Vec::new();
    for (label, step, t) in hybrid_tasks(w, episodes) {
        let name = &labels[label];
        let s = split(t).ok_or_else(|| format!("{name}@{step}: incomplete spans"))?;
        let stages = [s.insitu, s.to_bucket, s.aggregate, s.deliver];
        if stages.iter().any(|&x| x < -STAGE_SUM_TOLERANCE_S) {
            return Err(format!("{name}@{step}: negative stage in {s:?}"));
        }
        if (s.sum() - s.latency).abs() > STAGE_SUM_TOLERANCE_S {
            return Err(format!(
                "{name}@{step}: stages sum to {} s but latency is {} s",
                s.sum(),
                s.latency
            ));
        }
        out.push((label, s));
    }
    Ok(out)
}

/// Per-label in-situ wall, aggregation self time and payload bytes of
/// traced episodes, over every label of [`ALL_LABELS`] (labels the
/// workload does not register stay empty).
#[derive(Default)]
pub struct LabelSamples {
    pub insitu: Vec<f64>,
    pub aggregate: Vec<f64>,
    pub payload_bytes: Vec<f64>,
}

pub fn label_samples(w: &Workload, episodes: &[Episode]) -> BTreeMap<&'static str, LabelSamples> {
    let labels = w.labels();
    let mut out: BTreeMap<&'static str, LabelSamples> = ALL_LABELS
        .iter()
        .map(|&l| (l, LabelSamples::default()))
        .collect();
    for ep in episodes {
        for (&(label, _), t) in &ep.tasks {
            let Some(entry) = out.get_mut(labels[label].as_str()) else {
                continue;
            };
            if let Some((start, end)) = insitu_window(t) {
                entry.insitu.push(secs(start, end));
                entry.payload_bytes.push(
                    t.spans
                        .iter()
                        .filter(|s| s.kind == SpanKind::InSitu)
                        .map(|s| s.bytes as f64)
                        .sum(),
                );
            }
            if aggregate_window(t).is_some() {
                entry.aggregate.push(aggregate_self(t));
            }
        }
    }
    out
}

/// Per step: blocked time minus the in-situ stage walls and the
/// synchronous (in-situ placed) aggregations the probe timed — what
/// the driver spent handing work to staging and collecting it.
pub fn staging_submit_samples(w: &Workload, episodes: &[Episode]) -> Vec<f64> {
    let hybrid = hybrid_mask(w);
    let mut out = Vec::new();
    for ep in episodes {
        let mut per_step: HashMap<u64, f64> = HashMap::new();
        for (&(label, step), t) in &ep.tasks {
            let mut analysis = insitu_window(t).map_or(0.0, |(s, e)| secs(s, e));
            if !hybrid[label] {
                analysis += aggregate_self(t);
            }
            *per_step.entry(step).or_default() += analysis;
        }
        for s in &ep.result.metrics.steps {
            out.push(s.blocked_secs - per_step.get(&s.step).copied().unwrap_or(0.0));
        }
    }
    out
}

/// Write every traced span as JSONL: one `task` root per `(label,
/// step)`, its child spans, and for hybrid tasks the derived `deliver`
/// span.
pub fn spans_jsonl(w: &Workload, episodes: &[Episode], epoch: Instant) -> String {
    let labels = w.labels();
    let us = |t: Instant| secs(epoch, t) * 1e6;
    let mut out = String::new();
    for (e, ep) in episodes.iter().enumerate() {
        let mut keys: Vec<&(usize, u64)> = ep.tasks.keys().collect();
        keys.sort();
        for key in keys {
            let t = &ep.tasks[key];
            let (label, step) = (&labels[key.0], key.1);
            let mut line = |span: &str,
                            rank: Option<usize>,
                            start: Instant,
                            end: Instant,
                            bytes: u64| {
                let rank = rank.map_or("null".to_string(), |r| r.to_string());
                let parent = if span == "task" { "null" } else { "\"task\"" };
                let _ = writeln!(
                    out,
                    "{{\"episode\": {e}, \"label\": \"{label}\", \"step\": {step}, \"span\": \"{span}\", \"parent\": {parent}, \"rank\": {rank}, \"start_us\": {:.3}, \"end_us\": {:.3}, \"bytes\": {bytes}}}",
                    us(start),
                    us(end)
                );
            };
            // The root: a hybrid task runs from its first in-situ entry
            // until its output is available; a task aggregated in-situ
            // ends with its aggregation.
            match t.marks.and_then(|m| Some((m.entered, m.available?))) {
                Some((entered, available)) => {
                    line("task", None, entered, available, 0);
                    if let Some((_, agg_end)) = aggregate_window(t) {
                        line("deliver", None, agg_end, available, 0);
                    }
                }
                None => {
                    let start = t.spans.iter().map(|s| s.start).min();
                    let end = t.spans.iter().map(|s| s.end).max();
                    if let (Some(start), Some(end)) = (start, end) {
                        line("task", None, start, end, 0);
                    }
                }
            }
            for s in &t.spans {
                line(s.kind.name(), s.rank, s.start, s.end, s.bytes);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::{Marks, Span};
    use std::time::Duration;

    fn span(kind: SpanKind, t0: Instant, from_ms: u64, to_ms: u64) -> Span {
        Span {
            kind,
            rank: None,
            start: t0 + Duration::from_millis(from_ms),
            end: t0 + Duration::from_millis(to_ms),
            bytes: 10,
        }
    }

    #[test]
    fn stages_partition_the_task_latency() {
        let t0 = Instant::now();
        let t = TaskTrace {
            marks: Some(Marks {
                entered: t0,
                available: Some(t0 + Duration::from_millis(30)),
            }),
            spans: vec![
                span(SpanKind::InSitu, t0, 0, 4),
                span(SpanKind::InSitu, t0, 1, 5),
                span(SpanKind::Feed, t0, 9, 10),
                span(SpanKind::Feed, t0, 12, 13),
                span(SpanKind::Finish, t0, 13, 16),
            ],
        };
        let s = split(&t).expect("complete task");
        let ms = |x: f64| (x * 1e3).round();
        assert_eq!(
            [s.insitu, s.to_bucket, s.aggregate, s.deliver].map(ms),
            [5.0, 4.0, 7.0, 14.0]
        );
        assert_eq!(ms(s.latency), 30.0);
        assert!((s.sum() - s.latency).abs() < STAGE_SUM_TOLERANCE_S);
        // Self time leaves out the wait between the two feeds.
        assert_eq!(ms(aggregate_self(&t)), 5.0);
    }

    #[test]
    fn a_task_without_delivery_or_aggregation_does_not_split() {
        let t0 = Instant::now();
        let mut t = TaskTrace {
            marks: Some(Marks {
                entered: t0,
                available: None,
            }),
            spans: vec![
                span(SpanKind::InSitu, t0, 0, 4),
                span(SpanKind::Aggregate, t0, 5, 6),
            ],
        };
        assert!(split(&t).is_none());
        t.marks = Some(Marks {
            entered: t0,
            available: Some(t0 + Duration::from_millis(7)),
        });
        assert!(split(&t).is_some());
        t.spans.pop();
        assert!(split(&t).is_none());
    }
}
