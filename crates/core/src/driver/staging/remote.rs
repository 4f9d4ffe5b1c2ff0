//! The remote staging backend: ship intermediates to a `sitra-staged`
//! space server; external bucket workers aggregate them.
//!
//! Flow control runs end to end: at most
//! [`crate::PipelineConfig::staging_max_inflight`] tasks ride the wire
//! at once (submission blocks collecting the oldest first), the
//! server's admission policy can refuse or shed tasks, and any task the
//! staging path fails — deadline missed, admission refused, endpoint
//! unreachable — retires as [`Retired::Degraded`]: its aggregation
//! re-runs in-situ from the retained intermediates and the run
//! continues with zero lost steps.

use super::{BackendCaps, BackendStats, RetireCtx, Retired, StagedTask, StagingBackend};
use crate::analysis::AnalysisOutput;
use crate::driver::StagingOutputHook;
use crate::remote::{
    await_output, await_output_cluster, encode_task, intermediate_var, rank_bbox, RemoteTask,
};
use bytes::Bytes;
use sitra_cluster::ClusterClient;
use sitra_dataspaces::remote::{RemoteError, RemoteSpace};
use sitra_dataspaces::{Admission, TenantSpec, DEFAULT_TENANT};
use sitra_mesh::BBox3;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const CAPS: BackendCaps = BackendCaps {
    name: "remote",
    placement: "hybrid-remote",
    in_transit: true,
    ships_data: true,
};

/// The cluster link keeps the single-server placement label: the same
/// decomposition aggregates the same bytes wherever the pieces live, so
/// golden outputs and replay accounting stay comparable across both.
const CLUSTER_CAPS: BackendCaps = BackendCaps {
    name: "cluster",
    placement: "hybrid-remote",
    in_transit: true,
    ships_data: true,
};

/// Whether this driver is one tenant among several on a shared staging
/// service. A driver bound to a non-default tenant must not close the
/// scheduler at end-of-run — the service outlives any one of its
/// tenants. No tenant (or explicitly the default one) is the legacy
/// sole-owner deployment, which keeps close-on-exit.
fn is_shared_tenant(tenant: Option<&TenantSpec>) -> bool {
    tenant.is_some_and(|t| t.name != DEFAULT_TENANT)
}

/// Connection manager for the remote staging endpoint. A transport
/// error triggers one reconnect (bounded backoff) and a retry of the
/// failed operation; if the reconnect fails too, the endpoint is marked
/// *lost* and every hybrid analysis degrades to in-situ aggregation for
/// the rest of the run. Non-transport errors (protocol, server,
/// deadline) pass through untouched — the link itself is fine.
struct RemoteStaging {
    addr: sitra_net::Addr,
    conn: Option<RemoteSpace>,
    backoff: sitra_net::Backoff,
    /// Tenant declared on every (re)connection. The binding is
    /// per-connection server state, so a reconnect that skipped the
    /// re-declaration would silently demote the pipeline to the default
    /// tenant — wrong quotas, wrong queue, wrong namespace.
    tenant: Option<TenantSpec>,
}

impl RemoteStaging {
    fn connect(addr: sitra_net::Addr, tenant: Option<TenantSpec>) -> Self {
        let backoff = sitra_net::Backoff::default();
        let conn = match Self::dial(&addr, &backoff, tenant.as_ref()) {
            Ok(c) => Some(c),
            Err(e) => {
                sitra_obs::emit(
                    "driver",
                    "staging.lost",
                    &[("endpoint", addr.to_string()), ("error", e.to_string())],
                );
                None
            }
        };
        RemoteStaging {
            addr,
            conn,
            backoff,
            tenant,
        }
    }

    /// Dial and immediately declare the tenant (when one is set), so no
    /// operation ever runs on an unbound connection.
    fn dial(
        addr: &sitra_net::Addr,
        backoff: &sitra_net::Backoff,
        tenant: Option<&TenantSpec>,
    ) -> Result<RemoteSpace, RemoteError> {
        let conn = RemoteSpace::connect_retry(addr, backoff)?;
        if let Some(spec) = tenant {
            conn.set_tenant(spec)?;
        }
        Ok(conn)
    }

    fn alive(&self) -> bool {
        self.conn.is_some()
    }

    fn with<R>(
        &mut self,
        mut op: impl FnMut(&RemoteSpace) -> Result<R, RemoteError>,
    ) -> Result<R, RemoteError> {
        let Some(conn) = self.conn.as_ref() else {
            return Err(RemoteError::Net(sitra_net::NetError::Closed));
        };
        match op(conn) {
            Err(RemoteError::Net(e)) if e.is_retryable() => {
                match Self::dial(&self.addr, &self.backoff, self.tenant.as_ref()) {
                    Ok(fresh) => {
                        let res = op(&fresh);
                        if matches!(res, Err(RemoteError::Net(_))) {
                            self.mark_lost();
                        } else {
                            sitra_obs::counter("driver.staging.reconnects").inc();
                            self.conn = Some(fresh);
                        }
                        res
                    }
                    Err(e2) => {
                        self.mark_lost();
                        Err(e2)
                    }
                }
            }
            other => other,
        }
    }

    fn mark_lost(&mut self) {
        if self.conn.take().is_some() {
            sitra_obs::emit(
                "driver",
                "staging.lost",
                &[("endpoint", self.addr.to_string())],
            );
        }
    }
}

/// The staging area a [`RemoteBackend`] talks to: one space server, or
/// a member cluster routed through [`ClusterClient`]. The enum keeps
/// every driver-side code path (backpressure window, degradation,
/// retirement) shared between the two deployments; only the five wire
/// operations dispatch.
enum Link {
    Single(RemoteStaging),
    Cluster(ClusterClient),
}

impl Link {
    /// Whether submissions have any chance of landing. The cluster link
    /// is always worth trying: connections are lazy, per-member, and a
    /// failed member is routed around per operation.
    fn alive(&self) -> bool {
        match self {
            Link::Single(s) => s.alive(),
            Link::Cluster(_) => true,
        }
    }

    fn put(&mut self, var: &str, step: u64, bb: BBox3, data: Bytes) -> Result<(), RemoteError> {
        match self {
            Link::Single(s) => s.with(|c| c.put(var, step, bb, data.clone())),
            Link::Cluster(c) => c.put(var, step, bb, data),
        }
    }

    /// Where a task's input bytes will live, for the scheduler's
    /// locality placement: the ring owner of each rank piece, folded
    /// into an `(endpoint, bytes)` map. Single-server staging has no
    /// placement choice to inform, so its hint stays empty.
    fn residency_hint(&self, var: &str, step: u64, parts: &[(usize, Bytes)]) -> Vec<(String, u64)> {
        match self {
            Link::Single(_) => Vec::new(),
            Link::Cluster(c) => {
                let sized: Vec<(BBox3, u64)> = parts
                    .iter()
                    .map(|(r, payload)| (rank_bbox(*r), payload.len() as u64))
                    .collect();
                c.residency_hint(var, step, &sized)
            }
        }
    }

    /// Submit a task descriptor; returns the serving member's index
    /// (always 0 on a single server) with the admission verdict. A
    /// non-empty `hint` rides along for locality-aware schedulers;
    /// FCFS servers ignore it.
    fn submit_task(
        &mut self,
        label: &str,
        step: u64,
        data: Bytes,
        hint: Vec<(String, u64)>,
    ) -> Result<(usize, Admission), RemoteError> {
        match self {
            Link::Single(s) => s
                .with(|c| c.submit_task(data.clone(), hint.clone()))
                .map(|adm| (0, adm)),
            Link::Cluster(c) => c.submit_task_routed(label, step, data, hint),
        }
    }

    fn await_output(
        &mut self,
        label: &str,
        step: u64,
        deadline: Instant,
    ) -> Result<AnalysisOutput, RemoteError> {
        match self {
            Link::Single(s) => s.with(|c| await_output(c, label, step, deadline)),
            Link::Cluster(c) => await_output_cluster(c, label, step, deadline),
        }
    }

    fn evict_version(&mut self, version: u64) {
        match self {
            Link::Single(s) => {
                let _ = s.with(|c| c.evict_version(version));
            }
            Link::Cluster(c) => c.evict_version(version),
        }
    }

    fn close_sched(&mut self) {
        match self {
            Link::Single(s) => {
                let _ = s.with(|c| c.close_sched());
            }
            Link::Cluster(c) => c.close_sched(),
        }
    }
}

/// A task shipped to the remote staging area whose output has not been
/// collected yet. `parts` retains the in-situ intermediates so the
/// aggregation can re-run locally if the staging path fails — memory
/// bounded by `staging_max_inflight` retained steps (`Bytes` clones
/// share the underlying buffers with the staged puts).
struct PendingRemote {
    analysis_idx: usize,
    step: u64,
    /// Scheduler sequence number of the submitted task; `u64::MAX` when
    /// the task never made it into the remote queue. Sequence numbers
    /// are per-member, so shed-victim lookup also matches `member`.
    seq: u64,
    /// Index of the cluster member whose scheduler admitted the task
    /// (always 0 on a single server).
    member: usize,
    issued: Instant,
    parts: Vec<(usize, Bytes)>,
}

/// Hybrid aggregation on a remote staging service, with a bounded
/// in-flight window and graceful degradation.
pub struct RemoteBackend {
    ctx: RetireCtx,
    link: Link,
    caps: BackendCaps,
    pending: Vec<PendingRemote>,
    /// Every version (step) that had intermediates put remotely, for
    /// eviction at close time.
    versions: BTreeSet<u64>,
    deadline: Duration,
    max_inflight: usize,
    n_ranks: u32,
    hook: Option<StagingOutputHook>,
    submitted: usize,
    /// The driver is one tenant among several on a shared staging
    /// service, so closing the scheduler at end-of-run would retire
    /// every other tenant's workers too. Set when a non-default tenant
    /// is configured; the legacy sole-owner deployment (no tenant, or
    /// explicitly the default one) keeps its close-on-exit semantics.
    shared_tenant: bool,
}

impl RemoteBackend {
    /// Connect to the space server at `addr`. An unreachable endpoint
    /// does not fail the run — the staging starts out *lost* and every
    /// submitted task degrades to in-situ aggregation.
    pub fn new(
        ctx: RetireCtx,
        addr: sitra_net::Addr,
        deadline: Duration,
        max_inflight: usize,
        n_ranks: u32,
        hook: Option<StagingOutputHook>,
        tenant: Option<TenantSpec>,
    ) -> Self {
        let shared_tenant = is_shared_tenant(tenant.as_ref());
        RemoteBackend {
            ctx,
            link: Link::Single(RemoteStaging::connect(addr, tenant)),
            caps: CAPS,
            pending: Vec::new(),
            versions: BTreeSet::new(),
            deadline,
            max_inflight,
            n_ranks,
            hook,
            submitted: 0,
            shared_tenant,
        }
    }

    /// Stage through a member cluster instead of a single server. The
    /// endpoints must already be validated (non-empty, parseable) —
    /// [`crate::run_pipeline`] checks them before construction.
    pub fn new_cluster(
        ctx: RetireCtx,
        endpoints: Vec<String>,
        deadline: Duration,
        max_inflight: usize,
        n_ranks: u32,
        hook: Option<StagingOutputHook>,
        tenant: Option<TenantSpec>,
    ) -> Self {
        let mut client = ClusterClient::new(
            sitra_cluster::DEFAULT_SEED,
            sitra_cluster::DEFAULT_VNODES,
            endpoints,
            sitra_net::Backoff::default(),
        )
        .expect("endpoints validated by run_pipeline");
        let shared_tenant = is_shared_tenant(tenant.as_ref());
        if let Some(spec) = tenant {
            client = client.with_tenant(spec);
        }
        RemoteBackend {
            ctx,
            link: Link::Cluster(client),
            caps: CLUSTER_CAPS,
            pending: Vec::new(),
            versions: BTreeSet::new(),
            deadline,
            max_inflight,
            n_ranks,
            hook,
            submitted: 0,
            shared_tenant,
        }
    }

    /// Re-run a task's aggregation in-situ through the shared
    /// retirement path; returns the wall seconds burned.
    fn degrade(&self, p: PendingRemote, reason: &'static str) -> f64 {
        self.ctx.retire(Retired::Degraded {
            analysis_idx: p.analysis_idx,
            step: p.step,
            issued: p.issued,
            parts: p.parts,
            reason,
        })
    }

    /// Await the oldest in-flight remote output; any failure (deadline
    /// missed, endpoint lost) degrades that task to in-situ
    /// aggregation. Returns the wall seconds spent waiting and/or
    /// aggregating locally.
    fn collect_oldest(&mut self) -> f64 {
        let p = self.pending.remove(0);
        let label = self.ctx.analyses()[p.analysis_idx].label.clone();
        let step = p.step;
        let t0 = Instant::now();
        let deadline = t0 + self.deadline;
        let res = self.link.await_output(&label, step, deadline);
        sitra_obs::histogram("driver.staging.backpressure_wait_ns").observe(t0.elapsed());
        match res {
            Ok(output) => {
                self.ctx.retire(Retired::Collected {
                    analysis_idx: p.analysis_idx,
                    step,
                    output,
                });
                if let Some(h) = &self.hook {
                    h(&label, step);
                }
                t0.elapsed().as_secs_f64()
            }
            Err(e) => {
                let reason = match &e {
                    RemoteError::Timeout(_) => "deadline",
                    RemoteError::Net(_) => "endpoint-lost",
                    _ => "error",
                };
                t0.elapsed().as_secs_f64() + self.degrade(p, reason)
            }
        }
    }

    /// Put this step's intermediates into the staging space and submit
    /// the task through the admission-aware verb, recording it as
    /// in-flight. `Err(reason)` means the staging path refused (or
    /// lost) the task and the caller must degrade it immediately. An
    /// `AcceptedShed` verdict returns the evicted older task — it will
    /// never run remotely, so the caller re-runs its aggregation
    /// locally right away.
    fn try_ship(
        &mut self,
        analysis_idx: usize,
        step: u64,
        issued: Instant,
        parts: &[(usize, Bytes)],
    ) -> Result<Option<PendingRemote>, &'static str> {
        if !self.link.alive() {
            return Err("endpoint-lost");
        }
        let label = self.ctx.analyses()[analysis_idx].label.clone();
        let var = intermediate_var(&label);
        self.versions.insert(step);
        for (r, payload) in parts {
            let bb = rank_bbox(*r);
            if self.link.put(&var, step, bb, payload.clone()).is_err() {
                return Err("endpoint-lost");
            }
        }
        let task = encode_task(&RemoteTask {
            analysis_idx: analysis_idx as u32,
            step,
            n_ranks: self.n_ranks,
        });
        let hint = self.link.residency_hint(&var, step, parts);
        let verdict = self.link.submit_task(&label, step, task, hint);
        let (member, seq, shed_seq) = match verdict {
            Ok((member, Admission::Accepted { seq })) => (member, seq, None),
            Ok((member, Admission::AcceptedShed { seq, shed_seq })) => {
                (member, seq, Some(shed_seq))
            }
            Ok((_, Admission::Rejected)) => return Err("rejected"),
            Ok((_, Admission::TimedOut)) => return Err("admission-timeout"),
            Ok((_, Admission::Closed)) => return Err("sched-closed"),
            Err(_) => return Err("endpoint-lost"),
        };
        self.pending.push(PendingRemote {
            analysis_idx,
            step,
            seq,
            member,
            issued,
            parts: parts.to_vec(),
        });
        // The server evicted an older queued task to admit this one
        // (ShedOldest policy): hand it back for immediate local
        // re-aggregation. Sequence numbers are per member scheduler, so
        // the victim must have been admitted by the same member.
        let victim = shed_seq.and_then(|victim_seq| {
            self.pending
                .iter()
                .position(|p| p.seq == victim_seq && p.member == member)
                .map(|pos| self.pending.remove(pos))
        });
        Ok(victim)
    }
}

impl StagingBackend for RemoteBackend {
    fn caps(&self) -> BackendCaps {
        self.caps
    }

    fn submit(&mut self, task: StagedTask) -> f64 {
        self.submitted += 1;
        // Producer-side backpressure: bound the in-flight window by
        // collecting the oldest output first.
        let mut blocked = 0.0;
        while self.pending.len() >= self.max_inflight.max(1) {
            blocked += self.collect_oldest();
        }
        let shipped = self.try_ship(task.analysis_idx, task.step, task.issued, &task.parts);
        let caps = self.caps;
        self.ctx.record_insitu(&task, &caps, shipped.is_ok());
        match shipped {
            Ok(None) => {}
            Ok(Some(victim)) => blocked += self.degrade(victim, "shed"),
            Err(reason) => {
                blocked += self.degrade(
                    PendingRemote {
                        analysis_idx: task.analysis_idx,
                        step: task.step,
                        seq: u64::MAX,
                        member: 0,
                        issued: task.issued,
                        parts: task.parts,
                    },
                    reason,
                );
            }
        }
        blocked
    }

    fn collect_ready(&mut self) -> f64 {
        if self.pending.is_empty() {
            return 0.0;
        }
        let t0 = Instant::now();
        // Oldest-first, zero-deadline probes: collect outputs that are
        // already in the space, stop at the first that is not. Failures
        // are left pending — the blocking window/drain paths own
        // degradation, so a transient hiccup here never degrades a task
        // that would have made its real deadline.
        while let Some(p) = self.pending.first() {
            let (label, step) = (self.ctx.analyses()[p.analysis_idx].label.clone(), p.step);
            let res = self.link.await_output(&label, step, Instant::now());
            match res {
                Ok(output) => {
                    let p = self.pending.remove(0);
                    self.ctx.retire(Retired::Collected {
                        analysis_idx: p.analysis_idx,
                        step,
                        output,
                    });
                    if let Some(h) = &self.hook {
                        h(&label, step);
                    }
                }
                Err(_) => break,
            }
        }
        t0.elapsed().as_secs_f64()
    }

    fn drain(&mut self) -> f64 {
        // Collect every in-flight output; anything the staging path
        // lost is re-aggregated in-situ — zero lost steps.
        let mut blocked = 0.0;
        while !self.pending.is_empty() {
            blocked += self.collect_oldest();
        }
        blocked
    }

    fn close(&mut self) -> BackendStats {
        // Reclaim the staging memory (scoped to this tenant's namespace
        // when one is bound), then close the remote scheduler so
        // external bucket workers retire — unless the service is shared
        // with other tenants, in which case its lifetime belongs to the
        // operator, not to whichever driver finishes first.
        let versions: Vec<u64> = self.versions.iter().copied().collect();
        for v in versions {
            self.link.evict_version(v);
        }
        if !self.shared_tenant {
            self.link.close_sched();
        }
        BackendStats {
            submitted: self.submitted,
            max_queue_depth: 0,
        }
    }
}
