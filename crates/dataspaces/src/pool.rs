//! The elastic bucket pool: per-bucket lifecycle state, pluggable task
//! placement, and the pure autoscaling policy.
//!
//! The paper's scheduler treats staging buckets as an anonymous FCFS
//! free list — enough for a fixed-size staging partition, but a service
//! that grows under backlog and shrinks when idle needs to know *which*
//! buckets exist, what state each is in, and where each one runs:
//!
//! * `BucketPool` (crate-internal) replaces the scheduler's bare
//!   free-bucket queue. It
//!   keeps the parked (idle) buckets in arrival order — preserving the
//!   paper's FCFS bucket semantics — plus a metadata row per bucket:
//!   lifecycle [`BucketState`] and an optional *location* label (the
//!   endpoint or cluster member the bucket is co-resident with).
//! * [`Placement`] chooses which parked bucket receives the next task.
//!   [`FcfsPlacement`] (the default) always picks the head of the
//!   parked queue, which makes the degenerate fixed-pool configuration
//!   byte-identical to the pre-pool scheduler — the pinned chaos corpus
//!   and `backend_equivalence` hold bit-for-bit. [`LocalityPlacement`]
//!   scores candidates by the resident input bytes named in a
//!   [`ResidencyHint`] and prefers the bucket co-located with the shard
//!   holding the most input, crediting the avoided movement to the
//!   scheduler's `locality_bytes_saved` metric.
//! * [`Autoscaler`] is the capacity policy: a pure decision
//!   function from a [`PoolSnapshot`] (queue depth, bucket counts, p99
//!   task queue-wait) to a [`ScaleDecision`], driven by a latency SLO.
//!   Keeping it pure makes every scaling trajectory unit-testable with
//!   synthetic snapshots. [`tick`] and [`run_controller`] wrap it in
//!   the one control loop every owner runs: drains are enacted on the
//!   scheduler, while growth goes to a callback supplied by whoever
//!   owns the workers — the local staging backend spawns bucket
//!   threads, `sitra-staged` only publishes the new target.
//!
//! Lifecycle: a worker registers and leases tasks (Idle ⇄ Busy); a
//! shrink decision marks it Draining — it finishes its current task,
//! and its next lease request retires it (Retired) instead of parking.
//! A draining bucket killed mid-task loses nothing: the two-phase
//! hand-off requeues the unacknowledged task exactly as for any other
//! lost consumer.

use crate::sched::{BucketId, Scheduler};
use crossbeam::channel::Sender;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// What [`BucketPool::take_for`] hands back: the chosen bucket, its
/// task channel, and the movement bytes the placement avoided.
pub(crate) type TakenBucket<T> = (BucketId, Sender<(u64, T)>, u64);

/// Lifecycle state of one staging bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BucketState {
    /// Parked on the free list, waiting for a task.
    Idle,
    /// Leased a task (or between lease requests).
    Busy,
    /// Marked for retirement: finishes its current task, then its next
    /// lease request returns the retire signal instead of a task.
    Draining,
    /// Done: the bucket observed the retire signal and exited.
    Retired,
}

/// Where a task's input bytes currently live, as `(location, bytes)`
/// rows. Locations are whatever label the deployment registers buckets
/// under — a server endpoint in single-space mode, a cluster member's
/// endpoint when the consistent-hash ring decides residency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResidencyHint {
    /// Resident input bytes per location.
    pub bytes_at: Vec<(String, u64)>,
}

impl ResidencyHint {
    /// A hint placing all `bytes` at one `location` (the single-space
    /// case: everything is resident with the one server).
    pub fn single(location: impl Into<String>, bytes: u64) -> Self {
        ResidencyHint {
            bytes_at: vec![(location.into(), bytes)],
        }
    }

    /// Add `bytes` to `location`'s row, creating it if absent.
    pub fn add(&mut self, location: &str, bytes: u64) {
        match self.bytes_at.iter_mut().find(|(l, _)| l == location) {
            Some((_, b)) => *b += bytes,
            None => self.bytes_at.push((location.to_string(), bytes)),
        }
    }

    /// Total input bytes across all locations.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_at.iter().map(|(_, b)| b).sum()
    }

    /// Bytes resident at `location`.
    pub fn bytes_at(&self, location: &str) -> u64 {
        self.bytes_at
            .iter()
            .find(|(l, _)| l == location)
            .map_or(0, |(_, b)| *b)
    }

    /// Whether the hint carries no information.
    pub fn is_empty(&self) -> bool {
        self.bytes_at.iter().all(|(_, b)| *b == 0)
    }
}

/// One parked bucket as seen by a [`Placement`] policy.
#[derive(Debug, Clone, Copy)]
pub struct BucketCandidate<'a> {
    /// The bucket's id.
    pub id: BucketId,
    /// The bucket's registered location, if any.
    pub location: Option<&'a str>,
}

/// Chooses which parked bucket receives the next task. `candidates` is
/// the parked list in FCFS (arrival) order and is never empty. Returns
/// the index of the chosen candidate plus the input bytes the choice
/// avoids moving (0 when the policy did not use locality).
pub trait Placement: Send + Sync {
    /// Policy name, for journal events and stats surfaces.
    fn name(&self) -> &'static str;

    /// Pick a candidate for a task with optional residency `hint`.
    fn choose(
        &self,
        candidates: &[BucketCandidate<'_>],
        hint: Option<&ResidencyHint>,
    ) -> (usize, u64);
}

/// The default policy: first parked, first served — exactly the
/// pre-pool free-list behaviour, byte-identical in assignment order.
#[derive(Debug, Default, Clone, Copy)]
pub struct FcfsPlacement;

impl Placement for FcfsPlacement {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn choose(
        &self,
        _candidates: &[BucketCandidate<'_>],
        _hint: Option<&ResidencyHint>,
    ) -> (usize, u64) {
        (0, 0)
    }
}

/// Locality-aware placement: prefer the parked bucket whose location
/// holds the most of the task's input bytes; the bytes resident there
/// are movement avoided. Ties — and tasks without a hint — fall back to
/// FCFS order, so a locality pool degrades gracefully to the default
/// policy when producers do not hint.
#[derive(Debug, Default, Clone, Copy)]
pub struct LocalityPlacement;

impl Placement for LocalityPlacement {
    fn name(&self) -> &'static str {
        "locality"
    }

    fn choose(
        &self,
        candidates: &[BucketCandidate<'_>],
        hint: Option<&ResidencyHint>,
    ) -> (usize, u64) {
        let Some(hint) = hint else { return (0, 0) };
        let mut best = (0usize, 0u64);
        for (i, cand) in candidates.iter().enumerate() {
            let here = cand.location.map_or(0, |loc| hint.bytes_at(loc));
            // Strictly-greater keeps ties FCFS: the earliest-parked
            // bucket among equals wins, like the default policy.
            if here > best.1 {
                best = (i, here);
            }
        }
        best
    }
}

struct BucketMeta {
    state: BucketState,
    location: Option<String>,
}

/// The scheduler's bucket roster: parked buckets in FCFS order plus
/// per-bucket lifecycle state, capacity target, and the placement
/// policy. Owned by the scheduler's lock; every method is called with
/// that lock held.
pub(crate) struct BucketPool<T> {
    /// Parked (idle) buckets in arrival order, each with the one-shot
    /// channel its blocked lease request is waiting on.
    parked: VecDeque<(BucketId, Sender<(u64, T)>)>,
    meta: HashMap<BucketId, BucketMeta>,
    placement: Arc<dyn Placement>,
    /// Desired bucket count, when a capacity controller has set one.
    /// `None` = legacy fixed pool: no retirement ever fires.
    target: Option<usize>,
}

impl<T> BucketPool<T> {
    pub(crate) fn new() -> Self {
        BucketPool {
            parked: VecDeque::new(),
            meta: HashMap::new(),
            placement: Arc::new(FcfsPlacement),
            target: None,
        }
    }

    pub(crate) fn set_placement(&mut self, placement: Arc<dyn Placement>) {
        self.placement = placement;
    }

    pub(crate) fn placement_name(&self) -> &'static str {
        self.placement.name()
    }

    pub(crate) fn set_target(&mut self, target: Option<usize>) {
        self.target = target;
    }

    pub(crate) fn target(&self) -> Option<usize> {
        self.target
    }

    /// Record (or update) a bucket's location label.
    pub(crate) fn set_location(&mut self, id: BucketId, location: Option<String>) {
        let m = self.meta.entry(id).or_insert(BucketMeta {
            state: BucketState::Busy,
            location: None,
        });
        if location.is_some() {
            m.location = location;
        }
    }

    /// Note that `id` exists and is active (first lease request or an
    /// immediate assignment without parking).
    pub(crate) fn note_busy(&mut self, id: BucketId) {
        let m = self.meta.entry(id).or_insert(BucketMeta {
            state: BucketState::Busy,
            location: None,
        });
        if m.state != BucketState::Draining {
            m.state = BucketState::Busy;
        }
    }

    /// Park `id` on the free list.
    pub(crate) fn park(&mut self, id: BucketId, tx: Sender<(u64, T)>) {
        self.parked.push_back((id, tx));
        let m = self.meta.entry(id).or_insert(BucketMeta {
            state: BucketState::Idle,
            location: None,
        });
        m.state = BucketState::Idle;
    }

    /// Withdraw a timed-out bucket from the free list (it may already
    /// have been taken by a racing assignment — that is fine, the
    /// caller rescues the task from its channel).
    pub(crate) fn withdraw(&mut self, id: BucketId) {
        self.parked.retain(|(b, _)| *b != id);
        if let Some(m) = self.meta.get_mut(&id) {
            if m.state == BucketState::Idle {
                m.state = BucketState::Busy;
            }
        }
    }

    /// Movement bytes avoided when `id` takes a task directly off the
    /// queue (nobody else was parked, so there is no choice to make —
    /// but the assignment still avoids moving whatever input already
    /// sits at the bucket's location). The policy scores the single
    /// candidate; FCFS scores everything 0.
    pub(crate) fn immediate_saved(&self, id: BucketId, hint: Option<&ResidencyHint>) -> u64 {
        let location = self.meta.get(&id).and_then(|m| m.location.as_deref());
        let cand = [BucketCandidate { id, location }];
        self.placement.choose(&cand, hint).1
    }

    pub(crate) fn has_parked(&self) -> bool {
        !self.parked.is_empty()
    }

    pub(crate) fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Buckets not yet retired (the live pool size).
    pub(crate) fn active_len(&self) -> usize {
        self.meta
            .values()
            .filter(|m| m.state != BucketState::Retired)
            .count()
    }

    pub(crate) fn state(&self, id: BucketId) -> Option<BucketState> {
        self.meta.get(&id).map(|m| m.state)
    }

    /// Pick a parked bucket for a task via the placement policy and
    /// remove it from the free list. Returns the bucket, its channel,
    /// and the movement bytes the placement avoided.
    pub(crate) fn take_for(&mut self, hint: Option<&ResidencyHint>) -> Option<TakenBucket<T>> {
        if self.parked.is_empty() {
            return None;
        }
        let (idx, saved) = {
            let cands: Vec<BucketCandidate<'_>> = self
                .parked
                .iter()
                .map(|(id, _)| BucketCandidate {
                    id: *id,
                    location: self.meta.get(id).and_then(|m| m.location.as_deref()),
                })
                .collect();
            self.placement.choose(&cands, hint)
        };
        // A policy returning an out-of-range index is clamped rather
        // than trusted: placement must never lose a task.
        let idx = idx.min(self.parked.len() - 1);
        let (id, tx) = self.parked.remove(idx).expect("idx clamped in range");
        self.note_busy(id);
        Some((id, tx, saved))
    }

    /// Mark `id` Draining. If it is parked, it is removed from the free
    /// list and its channel dropped, waking the blocked lease request
    /// with the retire signal; if busy, it finishes its current task
    /// and retires on its next lease request.
    pub(crate) fn begin_drain(&mut self, id: BucketId) -> bool {
        let Some(m) = self.meta.get_mut(&id) else {
            return false;
        };
        if matches!(m.state, BucketState::Retired | BucketState::Draining) {
            return false;
        }
        m.state = BucketState::Draining;
        self.parked.retain(|(b, _)| *b != id);
        true
    }

    /// Pick an idle bucket to drain (the most recently parked, so the
    /// longest-idle buckets keep serving FCFS), else any busy one.
    pub(crate) fn drain_one(&mut self) -> Option<BucketId> {
        let id = self.parked.back().map(|(id, _)| *id).or_else(|| {
            self.meta
                .iter()
                .filter(|(_, m)| m.state == BucketState::Busy)
                .map(|(id, _)| *id)
                .max()
        })?;
        self.begin_drain(id).then_some(id)
    }

    /// Consume a pending retirement: when `id` is Draining this flips
    /// it to Retired and returns true — the caller answers the lease
    /// request with the retire signal instead of a task.
    pub(crate) fn take_retirement(&mut self, id: BucketId) -> bool {
        match self.meta.get_mut(&id) {
            Some(m) if m.state == BucketState::Draining => {
                m.state = BucketState::Retired;
                true
            }
            Some(m) if m.state == BucketState::Retired => true,
            _ => false,
        }
    }

    /// Drop every parked bucket's channel (scheduler close).
    pub(crate) fn clear_parked(&mut self) {
        self.parked.clear();
    }
}

// --------------------------------------------------------------------
// Autoscaler
// --------------------------------------------------------------------

/// Configuration of the capacity controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscaleConfig {
    /// Never drain below this many buckets.
    pub min_buckets: usize,
    /// Never grow past this many buckets.
    pub max_buckets: usize,
    /// The p99 task queue-wait objective. Sustained breaches grow the
    /// pool; a comfortably met SLO with idle buckets shrinks it.
    pub slo: Duration,
    /// Consecutive breached ticks before a grow fires, and consecutive
    /// idle ticks before a shrink fires — hysteresis against flapping
    /// on a single noisy sample.
    pub sustain_ticks: u32,
}

impl AutoscaleConfig {
    /// A controller holding the pool between `min` and `max` buckets
    /// against a p99 queue-wait `slo`.
    pub fn new(min: usize, max: usize, slo: Duration) -> Self {
        AutoscaleConfig {
            min_buckets: min.max(1),
            max_buckets: max.max(min.max(1)),
            slo,
            sustain_ticks: 2,
        }
    }
}

/// What the controller reads each tick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Live (non-retired) buckets.
    pub buckets: usize,
    /// Of those, currently parked idle.
    pub idle: usize,
    /// Tasks queued (not yet assigned).
    pub queue_depth: usize,
    /// p99 of recent task queue-waits.
    pub p99_wait: Duration,
}

/// One tick's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Capacity is right (or a change is still sustaining).
    Hold,
    /// Add this many buckets.
    Grow(usize),
    /// Drain-then-retire this many buckets.
    Shrink(usize),
}

/// The pure autoscaling policy: feed it a [`PoolSnapshot`] per control
/// tick, apply whatever it decides. Deterministic — identical snapshot
/// sequences produce identical decision sequences, which is what makes
/// scale trajectories unit-testable and journal replays faithful.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    cfg: AutoscaleConfig,
    hot_ticks: u32,
    cold_ticks: u32,
}

impl Autoscaler {
    /// A controller with `cfg`.
    pub fn new(cfg: AutoscaleConfig) -> Self {
        Autoscaler {
            cfg,
            hot_ticks: 0,
            cold_ticks: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.cfg
    }

    /// One control tick.
    pub fn decide(&mut self, s: &PoolSnapshot) -> ScaleDecision {
        let buckets = s.buckets.max(1);
        // Hot: backlog waiting with nobody idle, or the SLO breached.
        let hot = (s.queue_depth > 0 && s.idle == 0) || s.p99_wait > self.cfg.slo;
        // Cold: empty queue, comfortably under the SLO, spare capacity.
        let cold = s.queue_depth == 0 && s.idle > 0 && s.p99_wait <= self.cfg.slo / 2;
        if hot {
            self.cold_ticks = 0;
            self.hot_ticks += 1;
            if self.hot_ticks >= self.cfg.sustain_ticks && buckets < self.cfg.max_buckets {
                self.hot_ticks = 0;
                // Step proportionally to the backlog per live bucket,
                // but at least one and never past the ceiling.
                let step = (s.queue_depth / buckets).clamp(1, self.cfg.max_buckets - buckets);
                return ScaleDecision::Grow(step);
            }
        } else if cold {
            self.hot_ticks = 0;
            self.cold_ticks += 1;
            // Shrinking is deliberately slower than growing (one bucket
            // per sustained-cold window, double the sustain): capacity
            // mistakes under backlog cost SLO, mistakes when idle only
            // cost a warm thread.
            if self.cold_ticks >= self.cfg.sustain_ticks * 2 && buckets > self.cfg.min_buckets {
                self.cold_ticks = 0;
                return ScaleDecision::Shrink(1);
            }
        } else {
            self.hot_ticks = 0;
            self.cold_ticks = 0;
        }
        ScaleDecision::Hold
    }
}

/// How often [`run_controller`] re-evaluates the pool. Short enough
/// that a backlog burst is answered within a few SLO windows at laptop
/// scale; the [`Autoscaler`]'s sustain hysteresis keeps the short tick
/// from thrashing.
const AUTOSCALE_TICK: Duration = Duration::from_millis(20);

/// One capacity-controller tick: snapshot `sched`'s pool, ask `scaler`,
/// and enact the verdict — `grow(k)` for growth, drain-then-retire of
/// the most dispensable bucket for shrinkage. The new capacity is
/// published through [`Scheduler::set_pool_target`] and journaled as a
/// `pool.scale` event so `sitra-bench` replay can reconstruct the
/// capacity timeline. `decide` never grows past `max_buckets`, so the
/// published target needs no clamp.
pub fn tick<T: Send + 'static>(
    sched: &Scheduler<T>,
    scaler: &mut Autoscaler,
    grow: &mut impl FnMut(usize),
) {
    let snap = sched.pool_snapshot();
    let (action, delta, buckets) = match scaler.decide(&snap) {
        ScaleDecision::Hold => return,
        ScaleDecision::Grow(k) => {
            grow(k);
            ("grow", k, snap.buckets + k)
        }
        ScaleDecision::Shrink(k) => {
            let drained = (0..k)
                .filter(|_| sched.drain_one_bucket().is_some())
                .count();
            if drained == 0 {
                return;
            }
            ("shrink", drained, snap.buckets.saturating_sub(drained))
        }
    };
    sched.set_pool_target(Some(buckets));
    sitra_obs::emit(
        "sched",
        "pool.scale",
        &[
            ("action", action.to_string()),
            ("delta", delta.to_string()),
            ("buckets", buckets.to_string()),
            ("queue_depth", snap.queue_depth.to_string()),
            ("p99_us", snap.p99_wait.as_micros().to_string()),
        ],
    );
}

/// The capacity controller: [`tick`] every 20 ms until the scheduler
/// is closed, then return.
pub fn run_controller<T: Send + 'static>(
    sched: &Scheduler<T>,
    cfg: AutoscaleConfig,
    mut grow: impl FnMut(usize),
) {
    let mut scaler = Autoscaler::new(cfg);
    loop {
        std::thread::sleep(AUTOSCALE_TICK);
        if sched.is_closed() {
            return;
        }
        tick(sched, &mut scaler, &mut grow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(id: BucketId, location: Option<&'static str>) -> BucketCandidate<'static> {
        BucketCandidate { id, location }
    }

    #[test]
    fn fcfs_placement_always_picks_the_head() {
        let p = FcfsPlacement;
        let cands = [cand(3, Some("a")), cand(1, Some("b")), cand(2, None)];
        let hint = ResidencyHint::single("b", 1 << 20);
        assert_eq!(p.choose(&cands, Some(&hint)), (0, 0));
        assert_eq!(p.choose(&cands, None), (0, 0));
    }

    #[test]
    fn locality_placement_prefers_the_heaviest_location() {
        let p = LocalityPlacement;
        let cands = [
            cand(0, Some("m0")),
            cand(1, Some("m1")),
            cand(2, Some("m2")),
        ];
        let mut hint = ResidencyHint::default();
        hint.add("m1", 300);
        hint.add("m2", 900);
        hint.add("m0", 100);
        assert_eq!(p.choose(&cands, Some(&hint)), (2, 900));
        // No hint: FCFS fallback.
        assert_eq!(p.choose(&cands, None), (0, 0));
        // Ties keep FCFS order among equals.
        let tie = ResidencyHint {
            bytes_at: vec![("m0".into(), 500), ("m2".into(), 500)],
        };
        assert_eq!(p.choose(&cands, Some(&tie)), (0, 500));
        // Unlocated buckets score zero.
        let unloc = [cand(7, None), cand(8, Some("m2"))];
        assert_eq!(p.choose(&unloc, Some(&hint)), (1, 900));
    }

    #[test]
    fn residency_hint_accumulates_and_sums() {
        let mut h = ResidencyHint::default();
        assert!(h.is_empty());
        h.add("a", 10);
        h.add("b", 5);
        h.add("a", 7);
        assert_eq!(h.bytes_at("a"), 17);
        assert_eq!(h.bytes_at("b"), 5);
        assert_eq!(h.bytes_at("c"), 0);
        assert_eq!(h.total_bytes(), 22);
        assert!(!h.is_empty());
    }

    #[test]
    fn autoscaler_grows_under_sustained_backlog_only() {
        let mut a = Autoscaler::new(AutoscaleConfig::new(1, 8, Duration::from_millis(50)));
        let hot = PoolSnapshot {
            buckets: 2,
            idle: 0,
            queue_depth: 6,
            p99_wait: Duration::from_millis(200),
        };
        // First hot tick sustains, second fires, proportional step.
        assert_eq!(a.decide(&hot), ScaleDecision::Hold);
        assert_eq!(a.decide(&hot), ScaleDecision::Grow(3));
        // A single hot tick interleaved with recovery never fires.
        let ok = PoolSnapshot {
            buckets: 5,
            idle: 2,
            queue_depth: 0,
            p99_wait: Duration::from_millis(1),
        };
        assert_eq!(a.decide(&hot), ScaleDecision::Hold);
        assert_eq!(a.decide(&ok), ScaleDecision::Hold);
        assert_eq!(a.decide(&hot), ScaleDecision::Hold);
    }

    #[test]
    fn autoscaler_respects_bounds_and_shrinks_slowly() {
        let mut a = Autoscaler::new(AutoscaleConfig::new(2, 4, Duration::from_millis(50)));
        let hot = PoolSnapshot {
            buckets: 4,
            idle: 0,
            queue_depth: 100,
            p99_wait: Duration::from_secs(1),
        };
        // At the ceiling: never grows.
        for _ in 0..10 {
            assert_eq!(a.decide(&hot), ScaleDecision::Hold);
        }
        let cold = PoolSnapshot {
            buckets: 4,
            idle: 3,
            queue_depth: 0,
            p99_wait: Duration::ZERO,
        };
        // Shrink needs 2× the grow sustain.
        assert_eq!(a.decide(&cold), ScaleDecision::Hold);
        assert_eq!(a.decide(&cold), ScaleDecision::Hold);
        assert_eq!(a.decide(&cold), ScaleDecision::Hold);
        assert_eq!(a.decide(&cold), ScaleDecision::Shrink(1));
        // At the floor: never shrinks.
        let floor = PoolSnapshot {
            buckets: 2,
            idle: 2,
            queue_depth: 0,
            p99_wait: Duration::ZERO,
        };
        for _ in 0..10 {
            assert_eq!(a.decide(&floor), ScaleDecision::Hold);
        }
    }

    /// Run `f` with a fresh journal sink installed and return the
    /// `pool.scale` events it emitted. The registry isolation lock
    /// serializes sink swaps across concurrently running tests.
    fn scale_events(f: impl FnOnce()) -> Vec<sitra_obs::ObsEvent> {
        let _obs = sitra_obs::isolate();
        let sink = Arc::new(sitra_obs::VecSink::new());
        let prev = sitra_obs::install_sink(Some(sink.clone()));
        f();
        sitra_obs::install_sink(prev);
        sink.take()
            .into_iter()
            .filter(|e| e.name == "pool.scale")
            .collect()
    }

    #[test]
    fn controller_tick_grows_once_under_sustained_backlog() {
        let cfg = AutoscaleConfig::new(1, 4, Duration::from_millis(50));
        let sched: Scheduler<u32> = Scheduler::new();
        let _busy = sched.register_bucket(0);
        for i in 0..5 {
            sched.submit(i);
        }
        let mut scaler = Autoscaler::new(cfg);
        let mut grown = Vec::new();
        let events = scale_events(|| {
            for _ in 0..cfg.sustain_ticks {
                tick(&sched, &mut scaler, &mut |k| grown.push(k));
            }
        });
        // Five queued tasks on one busy bucket ask for five more, but
        // decide's step clamp stops at the ceiling: 1 + 3 = max_buckets.
        assert_eq!(grown, vec![3]);
        assert_eq!(sched.pool_target(), Some(cfg.max_buckets));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("action"), Some("grow"));
        assert_eq!(events[0].u64("delta"), Some(3));
        assert_eq!(events[0].u64("buckets"), Some(4));
    }

    #[test]
    fn controller_tick_drains_one_idle_bucket_when_cold() {
        let cfg = AutoscaleConfig::new(1, 4, Duration::from_millis(50));
        let sched: Scheduler<u32> = Scheduler::new();
        let _busy = sched.register_bucket(0);
        let idle = sched.register_bucket(1);
        let parked = std::thread::spawn(move || idle.poll_task(None));
        while sched.pool_snapshot().idle == 0 {
            std::thread::yield_now();
        }
        let mut scaler = Autoscaler::new(cfg);
        let mut grown = Vec::new();
        let events = scale_events(|| {
            for _ in 0..2 * cfg.sustain_ticks {
                tick(&sched, &mut scaler, &mut |k| grown.push(k));
            }
        });
        assert_eq!(parked.join().unwrap(), crate::sched::Lease::Retire);
        assert!(grown.is_empty());
        assert_eq!(sched.bucket_state(1), Some(BucketState::Retired));
        assert_eq!(sched.pool_snapshot().buckets, 1);
        assert_eq!(sched.pool_target(), Some(1));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("action"), Some("shrink"));
        assert_eq!(events[0].u64("delta"), Some(1));
    }

    #[test]
    fn run_controller_returns_once_the_scheduler_closes() {
        let sched: Scheduler<u32> = Scheduler::new();
        let looped = sched.clone();
        let controller = std::thread::spawn(move || {
            run_controller(
                &looped,
                AutoscaleConfig::new(1, 4, Duration::from_millis(50)),
                |_| {},
            )
        });
        sched.close();
        controller.join().unwrap();
    }

    #[test]
    fn pool_take_for_fcfs_matches_pop_front_order() {
        let mut pool: BucketPool<u32> = BucketPool::new();
        let chans: Vec<_> = (0..3)
            .map(|i| {
                let (tx, rx) = crossbeam::channel::bounded(1);
                pool.park(i, tx);
                rx
            })
            .collect();
        for want in 0..3u32 {
            let (id, _tx, saved) = pool.take_for(None).unwrap();
            assert_eq!(id, want);
            assert_eq!(saved, 0);
        }
        assert!(pool.take_for(None).is_none());
        drop(chans);
    }

    #[test]
    fn pool_drain_lifecycle_idle_and_busy() {
        let mut pool: BucketPool<u32> = BucketPool::new();
        let (tx, rx) = crossbeam::channel::bounded(1);
        pool.park(7, tx);
        assert_eq!(pool.state(7), Some(BucketState::Idle));
        // Draining a parked bucket removes it from the free list and
        // drops its sender, waking the parked lease request empty.
        assert!(pool.begin_drain(7));
        assert!(!pool.has_parked());
        assert!(rx.recv().is_err());
        assert!(pool.take_retirement(7));
        assert_eq!(pool.state(7), Some(BucketState::Retired));
        // Busy bucket: drains on its next lease request.
        pool.note_busy(9);
        assert!(pool.begin_drain(9));
        assert_eq!(pool.state(9), Some(BucketState::Draining));
        assert!(pool.take_retirement(9));
        // Retirement is idempotent; draining an already-retired bucket
        // is a no-op.
        assert!(pool.take_retirement(9));
        assert!(!pool.begin_drain(9));
        assert_eq!(pool.active_len(), 0);
    }

    #[test]
    fn pool_drain_one_prefers_the_most_recently_parked() {
        let mut pool: BucketPool<u32> = BucketPool::new();
        let rxs: Vec<_> = (0..3)
            .map(|i| {
                let (tx, rx) = crossbeam::channel::bounded(1);
                pool.park(i, tx);
                rx
            })
            .collect();
        assert_eq!(pool.drain_one(), Some(2));
        assert_eq!(pool.parked_len(), 2);
        // The head of the FCFS list is untouched.
        let (id, _, _) = pool.take_for(None).unwrap();
        assert_eq!(id, 0);
        drop(rxs);
    }
}
