//! Outside-in instrumentation: a wrapper [`Analysis`]/[`Aggregator`]
//! around every registered analysis, plus the staging output hook.
//!
//! The wrapper forwards `name()` and `streaming_aggregator()` so the
//! pipeline takes exactly the code path it takes unwrapped. In a
//! measured run the probe keeps two marks per hybrid task — the first
//! in-situ entry and the moment the output is available to the driver
//! — and nothing else. A traced run additionally records one span per
//! rank `in_situ` call, per `aggregate`, and per streaming
//! `feed`/`finish`, all keyed by `(label, step)`.

use crate::workload::Staging;
use bytes::Bytes;
use sitra_core::{Aggregator, Analysis, AnalysisOutput, AnalysisSpec, InSituCtx, Placement};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One rank's in-situ stage.
    InSitu,
    /// A buffered aggregation.
    Aggregate,
    /// One payload fed to a streaming aggregator.
    Feed,
    /// A streaming aggregator's finish.
    Finish,
}

impl SpanKind {
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::InSitu => "in_situ",
            SpanKind::Aggregate => "aggregate",
            SpanKind::Feed => "feed",
            SpanKind::Finish => "finish",
        }
    }
}

/// One recorded interval of one task.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: SpanKind,
    /// The rank for in-situ and feed spans.
    pub rank: Option<usize>,
    pub start: Instant,
    pub end: Instant,
    /// Payload bytes an in-situ span produced.
    pub bytes: u64,
}

/// The two marks task latency needs.
#[derive(Debug, Clone, Copy)]
pub struct Marks {
    /// Earliest in-situ entry of any rank.
    pub entered: Instant,
    /// Output available to the driver (`None` until it is).
    pub available: Option<Instant>,
}

/// Everything the probe saw for one `(label index, step)`.
#[derive(Debug, Clone, Default)]
pub struct TaskTrace {
    pub marks: Option<Marks>,
    pub spans: Vec<Span>,
}

/// A planted slowdown: a fixed sleep added inside one label's
/// aggregation, for the attribution self-test.
#[derive(Debug, Clone, Copy)]
pub struct Plant {
    pub label: usize,
    pub delay: Duration,
}

/// The shared recorder behind every wrapper of one episode.
pub struct Probe {
    labels: Vec<String>,
    traced: bool,
    plant: Option<Plant>,
    tasks: Mutex<HashMap<(usize, u64), TaskTrace>>,
}

impl Probe {
    pub fn new(labels: Vec<String>, traced: bool, plant: Option<Plant>) -> Arc<Self> {
        Arc::new(Probe {
            labels,
            traced,
            plant,
            tasks: Mutex::new(HashMap::new()),
        })
    }

    fn with_task<R>(&self, label: usize, step: u64, f: impl FnOnce(&mut TaskTrace) -> R) -> R {
        let mut tasks = self
            .tasks
            .lock()
            .expect("probe lock poisoned by a panicking analysis");
        f(tasks.entry((label, step)).or_default())
    }

    fn entered(&self, label: usize, step: u64, at: Instant) {
        self.with_task(label, step, |t| match &mut t.marks {
            Some(m) => m.entered = m.entered.min(at),
            None => {
                t.marks = Some(Marks {
                    entered: at,
                    available: None,
                })
            }
        });
    }

    fn available(&self, label: usize, step: u64, at: Instant) {
        self.with_task(label, step, |t| {
            if let Some(m) = &mut t.marks {
                m.available.get_or_insert(at);
            }
        });
    }

    fn span(&self, label: usize, step: u64, span: Span) {
        self.with_task(label, step, |t| t.spans.push(span));
    }

    /// The output hook's half: called by the driver once per collected
    /// remote output.
    pub fn delivered(&self, label: &str, step: u64) {
        let at = Instant::now();
        if let Some(idx) = self.labels.iter().position(|l| l == label) {
            self.available(idx, step, at);
        }
    }

    /// Everything recorded so far, leaving the probe empty.
    pub fn take(&self) -> HashMap<(usize, u64), TaskTrace> {
        std::mem::take(&mut *self.tasks.lock().expect("probe lock poisoned"))
    }

    fn sleep_if_planted(&self, label: usize) {
        if let Some(p) = self.plant.filter(|p| p.label == label) {
            std::thread::sleep(p.delay);
        }
    }
}

/// Wrap every spec of `roster` so `probe` sees its stages. Labels,
/// placements and intervals are unchanged. A hybrid task's output is
/// available to the driver when the in-process bucket's
/// `aggregate`/`finish` returns (local staging), or when the driver's
/// output hook fires (remote staging, see [`Probe::delivered`]).
pub fn wrap(roster: &[AnalysisSpec], probe: &Arc<Probe>, staging: Staging) -> Vec<AnalysisSpec> {
    roster
        .iter()
        .enumerate()
        .map(|(label, spec)| {
            let hybrid = spec.placement == Placement::Hybrid;
            let wrapped = Timed {
                inner: Arc::clone(&spec.analysis),
                probe: Arc::clone(probe),
                label,
                hybrid,
                available_on_return: hybrid && staging == Staging::Local,
            };
            AnalysisSpec {
                analysis: Arc::new(wrapped),
                ..spec.clone()
            }
        })
        .collect()
}

struct Timed {
    inner: Arc<dyn Analysis>,
    probe: Arc<Probe>,
    label: usize,
    /// Task latency is tracked for hybrid analyses only.
    hybrid: bool,
    /// The aggregation's return is the output's availability.
    available_on_return: bool,
}

impl Analysis for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn in_situ(&self, ctx: &InSituCtx<'_>) -> Bytes {
        let start = Instant::now();
        if self.hybrid {
            self.probe.entered(self.label, ctx.step, start);
        }
        let payload = self.inner.in_situ(ctx);
        if self.probe.traced {
            let span = Span {
                kind: SpanKind::InSitu,
                rank: Some(ctx.rank),
                start,
                end: Instant::now(),
                bytes: payload.len() as u64,
            };
            self.probe.span(self.label, ctx.step, span);
        }
        payload
    }

    fn aggregate(&self, step: u64, parts: &[(usize, Bytes)]) -> AnalysisOutput {
        let start = Instant::now();
        let out = self.inner.aggregate(step, parts);
        self.probe.sleep_if_planted(self.label);
        self.returned(SpanKind::Aggregate, None, step, start);
        out
    }

    fn streaming_aggregator(&self, step: u64) -> Option<Box<dyn Aggregator>> {
        let inner = self.inner.streaming_aggregator(step)?;
        Some(Box::new(TimedAggregator {
            inner,
            owner: Timed {
                inner: Arc::clone(&self.inner),
                probe: Arc::clone(&self.probe),
                ..*self
            },
            step,
        }))
    }
}

impl Timed {
    /// Close a span that began at `start` and, where the aggregation's
    /// return is the delivery, mark the output available.
    fn returned(&self, kind: SpanKind, rank: Option<usize>, step: u64, start: Instant) {
        if self.probe.traced {
            let span = Span {
                kind,
                rank,
                start,
                end: Instant::now(),
                bytes: 0,
            };
            self.probe.span(self.label, step, span);
        }
        if self.available_on_return && kind != SpanKind::Feed {
            self.probe.available(self.label, step, Instant::now());
        }
    }
}

struct TimedAggregator {
    inner: Box<dyn Aggregator>,
    owner: Timed,
    step: u64,
}

impl Aggregator for TimedAggregator {
    fn feed(&mut self, rank: usize, payload: Bytes) {
        let start = Instant::now();
        self.inner.feed(rank, payload);
        self.owner
            .returned(SpanKind::Feed, Some(rank), self.step, start);
    }

    fn finish(self: Box<Self>) -> AnalysisOutput {
        let start = Instant::now();
        let TimedAggregator { inner, owner, step } = *self;
        let out = inner.finish();
        owner.probe.sleep_if_planted(owner.label);
        owner.returned(SpanKind::Finish, None, step, start);
        out
    }
}
