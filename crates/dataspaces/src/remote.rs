//! Remote staging: the shared space and the in-transit scheduler
//! served over [`sitra_net`] so staging can run in its own process.
//!
//! In the paper the staging area is a distinct partition of the machine
//! reached through DART; here the same role is played by a
//! [`SpaceServer`] — a thread-per-connection RPC service wrapping the
//! sharded [`DataSpaces`] and the FCFS [`Scheduler`] — and a
//! [`RemoteSpace`] client mirroring the in-process API. The protocol
//! carries exactly the staging verbs: `put`, spatial `get`,
//! `query-version`, `submit-task` (data-ready), `request-task`
//! (bucket-ready), plus stats/evict/close for lifecycle.
//!
//! **Task hand-off is acknowledged.** A bucket that is assigned a task
//! must acknowledge receipt on the same connection; if the connection
//! dies first, the server puts the task back at the head of the queue
//! ([`Scheduler::requeue_front`]) where the next free bucket picks it
//! up. A crashing or reconnecting consumer therefore never loses a
//! task — the invariant the remote-staging integration test asserts.

use crate::pool::ResidencyHint;
use crate::sched::{Admission, AdmissionPolicy, Lease, SchedStats, Scheduler};
use crate::space::DataSpaces;
use crate::tenant::{scoped_var, TenantSpec, DEFAULT_TENANT};
use bytes::{BufMut, Bytes, BytesMut};
use sitra_mesh::{BBox3, ScalarField};
use sitra_net::{serve, Addr, Backoff, ConnStats, Connection, Listener, NetError, ServerHandle};
use std::sync::Arc;
use std::time::Duration;

/// Failure of a remote-space operation.
#[derive(Debug)]
pub enum RemoteError {
    /// Transport failure (connection dropped, timeout, ...).
    Net(NetError),
    /// A client-side deadline elapsed (e.g. an awaited output never
    /// appeared). Distinct from [`RemoteError::Proto`]: nothing was
    /// malformed, the data just never came — a retryable condition.
    Timeout(String),
    /// The peer sent bytes that do not decode as protocol messages.
    Proto(String),
    /// The server executed the request and reported an error.
    Server(String),
}

impl RemoteError {
    /// Whether retrying the operation (possibly after reconnecting) can
    /// succeed. Transport faults and elapsed deadlines are transient;
    /// protocol violations and server-reported errors are not — the
    /// same request would fail the same way.
    pub fn is_retryable(&self) -> bool {
        match self {
            RemoteError::Net(e) => e.is_retryable(),
            RemoteError::Timeout(_) => true,
            RemoteError::Proto(_) | RemoteError::Server(_) => false,
        }
    }
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Net(e) => write!(f, "transport: {e}"),
            RemoteError::Timeout(s) => write!(f, "timed out: {s}"),
            RemoteError::Proto(s) => write!(f, "protocol violation: {s}"),
            RemoteError::Server(s) => write!(f, "server error: {s}"),
        }
    }
}

impl std::error::Error for RemoteError {}

impl From<NetError> for RemoteError {
    fn from(e: NetError) -> Self {
        RemoteError::Net(e)
    }
}

// --------------------------------------------------------------------
// Protocol messages
// --------------------------------------------------------------------

const REQ_PUT: u8 = 1;
const REQ_GET: u8 = 2;
const REQ_LATEST_VERSION: u8 = 3;
const REQ_SUBMIT_TASK: u8 = 4;
const REQ_REQUEST_TASK: u8 = 5;
const REQ_ACK_TASK: u8 = 6;
const REQ_STATS: u8 = 7;
const REQ_EVICT_VERSION: u8 = 8;
const REQ_CLOSE_SCHED: u8 = 9;
const REQ_SCHED_POLICY: u8 = 11;
const REQ_CONTROL: u8 = 12;
const REQ_SET_TENANT: u8 = 13;
const REQ_TENANT_STATS: u8 = 14;
const REQ_POOL_STATS: u8 = 15;
// Request tags 10, 16 and 17 and response tag 101 belonged to retired
// task verbs. They stay unused so a peer speaking the old layouts gets
// a protocol error instead of a misparse.

const RESP_OK: u8 = 100;
const RESP_PIECES: u8 = 102;
const RESP_VERSION: u8 = 103;
const RESP_TASK: u8 = 104;
const RESP_STATS: u8 = 105;
const RESP_ADMISSION: u8 = 106;
const RESP_POLICY: u8 = 107;
const RESP_CONTROL: u8 = 108;
const RESP_TENANT_STATS: u8 = 109;
const RESP_POOL: u8 = 110;
const RESP_ERROR: u8 = 199;

// Admission verdict tags (RESP_ADMISSION payload).
const ADM_ACCEPTED: u8 = 0;
const ADM_ACCEPTED_SHED: u8 = 1;
const ADM_REJECTED: u8 = 2;
const ADM_TIMED_OUT: u8 = 3;
const ADM_CLOSED: u8 = 4;

// Admission policy tags (RESP_POLICY payload).
const POL_BLOCK: u8 = 0;
const POL_SHED_OLDEST: u8 = 1;
const POL_REJECT_NEW: u8 = 2;

/// Requests a client can issue.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Store an object.
    Put {
        /// Variable name.
        var: String,
        /// Version (timestep).
        version: u64,
        /// Region covered.
        bbox: BBox3,
        /// Payload.
        data: Bytes,
    },
    /// Spatial query.
    Get {
        /// Variable name.
        var: String,
        /// Version (timestep).
        version: u64,
        /// Query region.
        bbox: BBox3,
    },
    /// Highest stored version of a variable.
    LatestVersion {
        /// Variable name.
        var: String,
    },
    /// Data-ready: enqueue an opaque task descriptor. Always answered
    /// by [`Response::Admission`], so a remote producer learns *why* a
    /// refused task was refused (and which task was shed to admit this
    /// one) and can apply backpressure or degrade.
    SubmitTask {
        /// Encoded task.
        data: Bytes,
        /// Resident input bytes per location label, for a
        /// locality-aware placement. Advisory: FCFS placement (the
        /// default) ignores it, and an empty hint is no hint.
        hint: Vec<(String, u64)>,
    },
    /// Query the scheduler's queue capacity and admission policy.
    SchedPolicy,
    /// Bucket-ready: ask for the next task, waiting up to `timeout_ms`.
    /// The server may answer [`TaskPoll::Retire`] when the capacity
    /// controller drains the bucket.
    RequestTask {
        /// Requesting bucket.
        bucket_id: u32,
        /// Server-side wait bound in milliseconds.
        timeout_ms: u64,
        /// The bucket's location label (its cluster member endpoint),
        /// matched by locality placement against task hints; empty =
        /// unlocated.
        location: String,
    },
    /// Acknowledge receipt of an assigned task.
    AckTask {
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Server counters.
    Stats,
    /// Drop all objects of one version.
    EvictVersion {
        /// Version to drop.
        version: u64,
    },
    /// Close the scheduler: buckets drain and stop.
    CloseSched,
    /// An opaque control frame for a layered service (e.g. cluster
    /// membership). The space/scheduler protocol does not interpret the
    /// payload; a server started without a control handler answers with
    /// an error.
    Control {
        /// Opaque payload, owned by the layer that installed the
        /// server's control handler.
        data: Bytes,
    },
    /// Declare this connection's tenant: registers (or updates) the
    /// tenant's weight/quotas/policy server-side and binds every
    /// subsequent data-plane request on this connection to the tenant's
    /// namespace. Clients that never send it stay on the default tenant
    /// with unscoped variables — the entire pre-tenancy protocol is a
    /// valid conversation.
    SetTenant {
        /// The tenant declaration.
        spec: TenantSpec,
    },
    /// Per-tenant scheduler counters and space residency.
    TenantStats,
    /// Bucket-pool state: live/idle bucket counts, desired capacity,
    /// queue depth, queue-wait p99, and the locality savings counter.
    PoolStats,
}

/// One tenant's combined server-side counters, as reported by
/// [`Request::TenantStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantRow {
    /// Tenant name.
    pub name: String,
    /// DRR weight.
    pub weight: u32,
    /// Tasks currently queued.
    pub queued: u64,
    /// Task quota (`None` = unlimited).
    pub task_quota: Option<u64>,
    /// Tasks admitted.
    pub tasks_submitted: u64,
    /// Task assignments.
    pub tasks_assigned: u64,
    /// Tasks requeued after failed hand-offs.
    pub tasks_requeued: u64,
    /// Queued tasks shed.
    pub tasks_shed: u64,
    /// Submissions refused.
    pub tasks_rejected: u64,
    /// Bytes resident in the space.
    pub resident_bytes: u64,
    /// Byte quota (`None` = unlimited).
    pub byte_quota: Option<u64>,
}

/// The outcome of a bucket-ready request.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskPoll {
    /// A task was assigned.
    Assigned {
        /// Scheduler sequence number.
        seq: u64,
        /// Encoded task descriptor.
        data: Bytes,
        /// Tenant that submitted the task. Buckets are shared across
        /// tenants, so the worker needs this to scope its input gets
        /// and output puts to the right namespace
        /// ([`crate::scoped_var`]); [`crate::DEFAULT_TENANT`] scopes to
        /// the unprefixed legacy namespace.
        tenant: String,
    },
    /// The wait elapsed with no task available.
    Empty,
    /// The scheduler was closed; no more tasks will ever arrive.
    Closed,
    /// The capacity controller drained this bucket: deregister and
    /// exit. Other buckets keep serving; only this one retires.
    Retire,
}

/// Bucket-pool state, as reported by [`Request::PoolStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Live (non-retired) buckets.
    pub buckets: u64,
    /// Of those, parked idle right now.
    pub idle: u64,
    /// The capacity controller's desired bucket count, if one is set.
    /// External supervisors reconcile their worker fleet toward this.
    pub desired: Option<u64>,
    /// Tasks queued (not yet assigned).
    pub queue_depth: u64,
    /// p99 of recent task queue-waits, microseconds.
    pub p99_wait_us: u64,
    /// Input bytes locality placement has avoided moving.
    pub locality_bytes_saved: u64,
    /// Name of the placement policy in force (`fcfs`, `locality`).
    pub placement: String,
}

/// Combined server-side counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RemoteStats {
    /// Tasks submitted (data-ready events).
    pub tasks_submitted: u64,
    /// Task assignments (a requeued task counts once per assignment).
    pub tasks_assigned: u64,
    /// Tasks requeued after a failed hand-off.
    pub tasks_requeued: u64,
    /// Queued tasks evicted under [`AdmissionPolicy::ShedOldest`].
    pub tasks_shed: u64,
    /// Submissions refused at capacity (rejects and elapsed Block
    /// deadlines).
    pub tasks_rejected: u64,
    /// Objects resident in the space.
    pub objects: u64,
    /// Bytes resident in the space.
    pub resident_bytes: u64,
}

/// Responses the server sends.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Request executed.
    Ok,
    /// Pieces matching a spatial query.
    Pieces(Vec<(BBox3, Bytes)>),
    /// Latest version, if any.
    Version(Option<u64>),
    /// Outcome of a bucket-ready request.
    Task(TaskPoll),
    /// Server counters.
    Stats(RemoteStats),
    /// Verdict of a task submission.
    Admission(Admission),
    /// The scheduler's queue capacity (`None` = unbounded) and
    /// admission policy.
    Policy {
        /// Queue capacity, if bounded.
        capacity: Option<u64>,
        /// Policy applied at capacity.
        policy: AdmissionPolicy,
    },
    /// Reply of the server's control handler to a [`Request::Control`].
    Control {
        /// Opaque payload produced by the control handler.
        data: Bytes,
    },
    /// Per-tenant counters, one row per tenant known to the server.
    TenantRows(Vec<TenantRow>),
    /// Bucket-pool state.
    Pool(PoolStats),
    /// The request failed server-side.
    Error(String),
}

// --------------------------------------------------------------------
// Codecs (total: any byte sequence decodes to Ok or Err, never panics)
// --------------------------------------------------------------------

struct Rd {
    buf: Bytes,
    pos: usize,
}

impl Rd {
    fn new(buf: Bytes) -> Self {
        Rd { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn u8(&mut self) -> Result<u8, RemoteError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| RemoteError::Proto("truncated".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, RemoteError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, RemoteError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], RemoteError> {
        if self.remaining() < N {
            return Err(RemoteError::Proto("truncated".into()));
        }
        let mut a = [0u8; N];
        a.copy_from_slice(&self.buf[self.pos..self.pos + N]);
        self.pos += N;
        Ok(a)
    }

    fn bytes(&mut self) -> Result<Bytes, RemoteError> {
        let n = self.u32()? as usize;
        if self.remaining() < n {
            return Err(RemoteError::Proto("truncated payload".into()));
        }
        let b = self.buf.slice(self.pos..self.pos + n);
        self.pos += n;
        Ok(b)
    }

    fn string(&mut self) -> Result<String, RemoteError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| RemoteError::Proto("non-utf8 string".into()))
    }

    fn bbox(&mut self) -> Result<BBox3, RemoteError> {
        let mut v = [0usize; 6];
        for slot in &mut v {
            *slot = self.u64()? as usize;
        }
        let (lo, hi) = ([v[0], v[1], v[2]], [v[3], v[4], v[5]]);
        if lo.iter().zip(&hi).any(|(l, h)| l > h) {
            return Err(RemoteError::Proto("inverted bbox".into()));
        }
        Ok(BBox3::new(lo, hi))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, RemoteError> {
        let has = self.u8()? != 0;
        let v = self.u64()?;
        Ok(has.then_some(v))
    }

    fn policy(&mut self) -> Result<AdmissionPolicy, RemoteError> {
        let tag = self.u8()?;
        let wait_ms = self.u64()?;
        match tag {
            POL_BLOCK => Ok(AdmissionPolicy::Block {
                max_wait: Duration::from_millis(wait_ms),
            }),
            POL_SHED_OLDEST => Ok(AdmissionPolicy::ShedOldest),
            POL_REJECT_NEW => Ok(AdmissionPolicy::RejectNew),
            t => Err(RemoteError::Proto(format!("unknown policy tag {t}"))),
        }
    }

    fn finish(self) -> Result<(), RemoteError> {
        if self.remaining() != 0 {
            return Err(RemoteError::Proto("trailing bytes".into()));
        }
        Ok(())
    }
}

fn put_bytes(buf: &mut BytesMut, data: &[u8]) {
    buf.put_u32_le(data.len() as u32);
    buf.put_slice(data);
}

fn put_bbox(buf: &mut BytesMut, b: &BBox3) {
    for v in b.lo.iter().chain(b.hi.iter()) {
        buf.put_u64_le(*v as u64);
    }
}

fn put_opt_u64(buf: &mut BytesMut, v: Option<u64>) {
    buf.put_u8(u8::from(v.is_some()));
    buf.put_u64_le(v.unwrap_or(0));
}

fn put_policy(buf: &mut BytesMut, policy: &AdmissionPolicy) {
    match policy {
        AdmissionPolicy::Block { max_wait } => {
            buf.put_u8(POL_BLOCK);
            buf.put_u64_le(max_wait.as_millis() as u64);
        }
        AdmissionPolicy::ShedOldest => {
            buf.put_u8(POL_SHED_OLDEST);
            buf.put_u64_le(0);
        }
        AdmissionPolicy::RejectNew => {
            buf.put_u8(POL_REJECT_NEW);
            buf.put_u64_le(0);
        }
    }
}

/// Encode a request frame.
pub fn encode_request(req: &Request) -> Bytes {
    let mut buf = BytesMut::new();
    match req {
        Request::Put {
            var,
            version,
            bbox,
            data,
        } => {
            buf.put_u8(REQ_PUT);
            put_bytes(&mut buf, var.as_bytes());
            buf.put_u64_le(*version);
            put_bbox(&mut buf, bbox);
            put_bytes(&mut buf, data);
        }
        Request::Get { var, version, bbox } => {
            buf.put_u8(REQ_GET);
            put_bytes(&mut buf, var.as_bytes());
            buf.put_u64_le(*version);
            put_bbox(&mut buf, bbox);
        }
        Request::LatestVersion { var } => {
            buf.put_u8(REQ_LATEST_VERSION);
            put_bytes(&mut buf, var.as_bytes());
        }
        Request::SubmitTask { data, hint } => {
            buf.put_u8(REQ_SUBMIT_TASK);
            put_bytes(&mut buf, data);
            buf.put_u32_le(hint.len() as u32);
            for (location, bytes) in hint {
                put_bytes(&mut buf, location.as_bytes());
                buf.put_u64_le(*bytes);
            }
        }
        Request::SchedPolicy => buf.put_u8(REQ_SCHED_POLICY),
        Request::RequestTask {
            bucket_id,
            timeout_ms,
            location,
        } => {
            buf.put_u8(REQ_REQUEST_TASK);
            buf.put_u32_le(*bucket_id);
            buf.put_u64_le(*timeout_ms);
            put_bytes(&mut buf, location.as_bytes());
        }
        Request::AckTask { seq } => {
            buf.put_u8(REQ_ACK_TASK);
            buf.put_u64_le(*seq);
        }
        Request::Stats => buf.put_u8(REQ_STATS),
        Request::EvictVersion { version } => {
            buf.put_u8(REQ_EVICT_VERSION);
            buf.put_u64_le(*version);
        }
        Request::CloseSched => buf.put_u8(REQ_CLOSE_SCHED),
        Request::Control { data } => {
            buf.put_u8(REQ_CONTROL);
            put_bytes(&mut buf, data);
        }
        Request::SetTenant { spec } => {
            buf.put_u8(REQ_SET_TENANT);
            put_bytes(&mut buf, spec.name.as_bytes());
            buf.put_u32_le(spec.weight);
            put_opt_u64(&mut buf, spec.byte_quota);
            put_opt_u64(&mut buf, spec.task_quota.map(|t| t as u64));
            match &spec.policy {
                Some(p) => {
                    buf.put_u8(1);
                    put_policy(&mut buf, p);
                }
                None => {
                    buf.put_u8(0);
                    buf.put_u8(0);
                    buf.put_u64_le(0);
                }
            }
        }
        Request::TenantStats => buf.put_u8(REQ_TENANT_STATS),
        Request::PoolStats => buf.put_u8(REQ_POOL_STATS),
    }
    buf.freeze()
}

/// Decode a request frame. Total: never panics on malformed input.
pub fn decode_request(frame: Bytes) -> Result<Request, RemoteError> {
    let mut rd = Rd::new(frame);
    let req = match rd.u8()? {
        REQ_PUT => Request::Put {
            var: rd.string()?,
            version: rd.u64()?,
            bbox: rd.bbox()?,
            data: rd.bytes()?,
        },
        REQ_GET => Request::Get {
            var: rd.string()?,
            version: rd.u64()?,
            bbox: rd.bbox()?,
        },
        REQ_LATEST_VERSION => Request::LatestVersion { var: rd.string()? },
        REQ_SUBMIT_TASK => {
            let data = rd.bytes()?;
            let n = rd.u32()? as usize;
            // Each row is at least a length prefix plus the byte count.
            if n.checked_mul(12).is_none_or(|total| total > rd.remaining()) {
                return Err(RemoteError::Proto("hint row count exceeds frame".into()));
            }
            let mut hint = Vec::with_capacity(n);
            for _ in 0..n {
                hint.push((rd.string()?, rd.u64()?));
            }
            Request::SubmitTask { data, hint }
        }
        REQ_SCHED_POLICY => Request::SchedPolicy,
        REQ_REQUEST_TASK => Request::RequestTask {
            bucket_id: rd.u32()?,
            timeout_ms: rd.u64()?,
            location: rd.string()?,
        },
        REQ_ACK_TASK => Request::AckTask { seq: rd.u64()? },
        REQ_STATS => Request::Stats,
        REQ_EVICT_VERSION => Request::EvictVersion { version: rd.u64()? },
        REQ_CLOSE_SCHED => Request::CloseSched,
        REQ_CONTROL => Request::Control { data: rd.bytes()? },
        REQ_SET_TENANT => {
            let name = rd.string()?;
            if name.is_empty() || name.contains(crate::tenant::TENANT_SEP) {
                return Err(RemoteError::Proto(format!("bad tenant name `{name}`")));
            }
            let weight = rd.u32()?;
            let byte_quota = rd.opt_u64()?;
            let task_quota = rd.opt_u64()?.map(|t| t as usize);
            let has_policy = rd.u8()? != 0;
            // A policy-less SetTenant still carries a zeroed filler
            // policy, which must parse like a real one.
            let policy = rd.policy()?;
            Request::SetTenant {
                spec: TenantSpec {
                    name,
                    weight: weight.max(1),
                    byte_quota,
                    task_quota,
                    policy: has_policy.then_some(policy),
                },
            }
        }
        REQ_TENANT_STATS => Request::TenantStats,
        REQ_POOL_STATS => Request::PoolStats,
        t => return Err(RemoteError::Proto(format!("unknown request tag {t}"))),
    };
    rd.finish()?;
    Ok(req)
}

/// Encode a response frame.
pub fn encode_response(resp: &Response) -> Bytes {
    let mut buf = BytesMut::new();
    match resp {
        Response::Ok => buf.put_u8(RESP_OK),
        Response::Pieces(pieces) => {
            buf.put_u8(RESP_PIECES);
            buf.put_u32_le(pieces.len() as u32);
            for (bbox, data) in pieces {
                put_bbox(&mut buf, bbox);
                put_bytes(&mut buf, data);
            }
        }
        Response::Version(v) => {
            buf.put_u8(RESP_VERSION);
            buf.put_u8(u8::from(v.is_some()));
            buf.put_u64_le(v.unwrap_or(0));
        }
        Response::Task(poll) => {
            buf.put_u8(RESP_TASK);
            match poll {
                TaskPoll::Assigned { seq, data, tenant } => {
                    buf.put_u8(0);
                    buf.put_u64_le(*seq);
                    put_bytes(&mut buf, data);
                    put_bytes(&mut buf, tenant.as_bytes());
                }
                TaskPoll::Empty => buf.put_u8(1),
                TaskPoll::Closed => buf.put_u8(2),
                TaskPoll::Retire => buf.put_u8(3),
            }
        }
        Response::Stats(s) => {
            buf.put_u8(RESP_STATS);
            buf.put_u64_le(s.tasks_submitted);
            buf.put_u64_le(s.tasks_assigned);
            buf.put_u64_le(s.tasks_requeued);
            buf.put_u64_le(s.tasks_shed);
            buf.put_u64_le(s.tasks_rejected);
            buf.put_u64_le(s.objects);
            buf.put_u64_le(s.resident_bytes);
        }
        Response::Admission(adm) => {
            buf.put_u8(RESP_ADMISSION);
            match adm {
                Admission::Accepted { seq } => {
                    buf.put_u8(ADM_ACCEPTED);
                    buf.put_u64_le(*seq);
                }
                Admission::AcceptedShed { seq, shed_seq } => {
                    buf.put_u8(ADM_ACCEPTED_SHED);
                    buf.put_u64_le(*seq);
                    buf.put_u64_le(*shed_seq);
                }
                Admission::Rejected => buf.put_u8(ADM_REJECTED),
                Admission::TimedOut => buf.put_u8(ADM_TIMED_OUT),
                Admission::Closed => buf.put_u8(ADM_CLOSED),
            }
        }
        Response::Policy { capacity, policy } => {
            buf.put_u8(RESP_POLICY);
            buf.put_u8(u8::from(capacity.is_some()));
            buf.put_u64_le(capacity.unwrap_or(0));
            match policy {
                AdmissionPolicy::Block { max_wait } => {
                    buf.put_u8(POL_BLOCK);
                    buf.put_u64_le(max_wait.as_millis() as u64);
                }
                AdmissionPolicy::ShedOldest => {
                    buf.put_u8(POL_SHED_OLDEST);
                    buf.put_u64_le(0);
                }
                AdmissionPolicy::RejectNew => {
                    buf.put_u8(POL_REJECT_NEW);
                    buf.put_u64_le(0);
                }
            }
        }
        Response::Control { data } => {
            buf.put_u8(RESP_CONTROL);
            put_bytes(&mut buf, data);
        }
        Response::TenantRows(rows) => {
            buf.put_u8(RESP_TENANT_STATS);
            buf.put_u32_le(rows.len() as u32);
            for r in rows {
                put_bytes(&mut buf, r.name.as_bytes());
                buf.put_u32_le(r.weight);
                buf.put_u64_le(r.queued);
                put_opt_u64(&mut buf, r.task_quota);
                buf.put_u64_le(r.tasks_submitted);
                buf.put_u64_le(r.tasks_assigned);
                buf.put_u64_le(r.tasks_requeued);
                buf.put_u64_le(r.tasks_shed);
                buf.put_u64_le(r.tasks_rejected);
                buf.put_u64_le(r.resident_bytes);
                put_opt_u64(&mut buf, r.byte_quota);
            }
        }
        Response::Pool(p) => {
            buf.put_u8(RESP_POOL);
            buf.put_u64_le(p.buckets);
            buf.put_u64_le(p.idle);
            put_opt_u64(&mut buf, p.desired);
            buf.put_u64_le(p.queue_depth);
            buf.put_u64_le(p.p99_wait_us);
            buf.put_u64_le(p.locality_bytes_saved);
            put_bytes(&mut buf, p.placement.as_bytes());
        }
        Response::Error(msg) => {
            buf.put_u8(RESP_ERROR);
            put_bytes(&mut buf, msg.as_bytes());
        }
    }
    buf.freeze()
}

/// Decode a response frame. Total: never panics on malformed input.
pub fn decode_response(frame: Bytes) -> Result<Response, RemoteError> {
    let mut rd = Rd::new(frame);
    let resp = match rd.u8()? {
        RESP_OK => Response::Ok,
        RESP_PIECES => {
            let n = rd.u32()? as usize;
            // Each piece is at least a bbox and a length prefix.
            if n.checked_mul(52).is_none_or(|total| total > rd.remaining()) {
                return Err(RemoteError::Proto("piece count exceeds frame".into()));
            }
            let mut pieces = Vec::with_capacity(n);
            for _ in 0..n {
                let bbox = rd.bbox()?;
                let data = rd.bytes()?;
                pieces.push((bbox, data));
            }
            Response::Pieces(pieces)
        }
        RESP_VERSION => {
            let has = rd.u8()? != 0;
            let v = rd.u64()?;
            Response::Version(has.then_some(v))
        }
        RESP_TASK => match rd.u8()? {
            0 => Response::Task(TaskPoll::Assigned {
                seq: rd.u64()?,
                data: rd.bytes()?,
                tenant: rd.string()?,
            }),
            1 => Response::Task(TaskPoll::Empty),
            2 => Response::Task(TaskPoll::Closed),
            3 => Response::Task(TaskPoll::Retire),
            s => return Err(RemoteError::Proto(format!("unknown task status {s}"))),
        },
        RESP_STATS => Response::Stats(RemoteStats {
            tasks_submitted: rd.u64()?,
            tasks_assigned: rd.u64()?,
            tasks_requeued: rd.u64()?,
            tasks_shed: rd.u64()?,
            tasks_rejected: rd.u64()?,
            objects: rd.u64()?,
            resident_bytes: rd.u64()?,
        }),
        RESP_ADMISSION => match rd.u8()? {
            ADM_ACCEPTED => Response::Admission(Admission::Accepted { seq: rd.u64()? }),
            ADM_ACCEPTED_SHED => Response::Admission(Admission::AcceptedShed {
                seq: rd.u64()?,
                shed_seq: rd.u64()?,
            }),
            ADM_REJECTED => Response::Admission(Admission::Rejected),
            ADM_TIMED_OUT => Response::Admission(Admission::TimedOut),
            ADM_CLOSED => Response::Admission(Admission::Closed),
            v => return Err(RemoteError::Proto(format!("unknown admission verdict {v}"))),
        },
        RESP_POLICY => {
            let has_cap = rd.u8()? != 0;
            let cap = rd.u64()?;
            let tag = rd.u8()?;
            let wait_ms = rd.u64()?;
            let policy = match tag {
                POL_BLOCK => AdmissionPolicy::Block {
                    max_wait: Duration::from_millis(wait_ms),
                },
                POL_SHED_OLDEST => AdmissionPolicy::ShedOldest,
                POL_REJECT_NEW => AdmissionPolicy::RejectNew,
                t => return Err(RemoteError::Proto(format!("unknown policy tag {t}"))),
            };
            Response::Policy {
                capacity: has_cap.then_some(cap),
                policy,
            }
        }
        RESP_CONTROL => Response::Control { data: rd.bytes()? },
        RESP_TENANT_STATS => {
            let n = rd.u32()? as usize;
            // Each row is at least a name length prefix plus the fixed
            // numeric fields.
            if n.checked_mul(78).is_none_or(|total| total > rd.remaining()) {
                return Err(RemoteError::Proto("tenant row count exceeds frame".into()));
            }
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(TenantRow {
                    name: rd.string()?,
                    weight: rd.u32()?,
                    queued: rd.u64()?,
                    task_quota: rd.opt_u64()?,
                    tasks_submitted: rd.u64()?,
                    tasks_assigned: rd.u64()?,
                    tasks_requeued: rd.u64()?,
                    tasks_shed: rd.u64()?,
                    tasks_rejected: rd.u64()?,
                    resident_bytes: rd.u64()?,
                    byte_quota: rd.opt_u64()?,
                });
            }
            Response::TenantRows(rows)
        }
        RESP_POOL => Response::Pool(PoolStats {
            buckets: rd.u64()?,
            idle: rd.u64()?,
            desired: rd.opt_u64()?,
            queue_depth: rd.u64()?,
            p99_wait_us: rd.u64()?,
            locality_bytes_saved: rd.u64()?,
            placement: rd.string()?,
        }),
        RESP_ERROR => Response::Error(rd.string()?),
        t => return Err(RemoteError::Proto(format!("unknown response tag {t}"))),
    };
    rd.finish()?;
    Ok(resp)
}

// --------------------------------------------------------------------
// Server
// --------------------------------------------------------------------

/// How long the server waits for a task-receipt acknowledgement before
/// declaring the hand-off failed and requeueing.
const ACK_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-request scheduler wait slice; the overall bound is the client's
/// `timeout_ms`.
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// Handler for opaque [`Request::Control`] frames. Layered services
/// (cluster membership, handoff) install one at server start; the
/// space/scheduler protocol never looks inside the payloads.
pub type ControlHandler = Arc<dyn Fn(Bytes) -> Bytes + Send + Sync>;

struct ServerInner {
    space: Arc<DataSpaces>,
    sched: Scheduler<Bytes>,
    control: Option<ControlHandler>,
}

/// The remote staging service: [`DataSpaces`] + [`Scheduler`] behind a
/// [`sitra_net`] listener, one thread per connection.
pub struct SpaceServer {
    inner: Arc<ServerInner>,
    handle: Option<ServerHandle>,
    addr: Addr,
}

impl SpaceServer {
    /// Bind `addr` and start serving with `shards` space shards and an
    /// unbounded task queue.
    pub fn start(addr: &Addr, shards: usize) -> Result<SpaceServer, NetError> {
        Self::start_with(addr, shards, None, AdmissionPolicy::RejectNew)
    }

    /// Bind `addr` and start serving with `shards` space shards and a
    /// task queue bounded at `capacity` (when `Some`), applying `policy`
    /// to submissions that find it full.
    pub fn start_with(
        addr: &Addr,
        shards: usize,
        capacity: Option<usize>,
        policy: AdmissionPolicy,
    ) -> Result<SpaceServer, NetError> {
        let sched = match capacity {
            Some(cap) => Scheduler::bounded(cap, policy),
            None => Scheduler::new(),
        };
        Self::start_custom(addr, Arc::new(DataSpaces::new(shards)), sched, None)
    }

    /// Bind `addr` and serve an externally constructed space and
    /// scheduler, optionally dispatching [`Request::Control`] frames to
    /// `control`. This is the seam a layered service (the cluster
    /// membership node) uses to keep its own handle on the space for
    /// shard handoff while the RPC surface stays unchanged.
    pub fn start_custom(
        addr: &Addr,
        space: Arc<DataSpaces>,
        sched: Scheduler<Bytes>,
        control: Option<ControlHandler>,
    ) -> Result<SpaceServer, NetError> {
        let listener = Listener::bind(addr)?;
        let bound = listener.local_addr();
        let inner = Arc::new(ServerInner {
            space,
            sched,
            control,
        });
        let conn_inner = Arc::clone(&inner);
        let handle = serve(listener, move |conn| serve_connection(&conn_inner, &conn));
        Ok(SpaceServer {
            inner,
            handle: Some(handle),
            addr: bound,
        })
    }

    /// Where the server is listening (the OS-assigned port for
    /// `tcp://…:0` binds).
    pub fn addr(&self) -> Addr {
        self.addr.clone()
    }

    /// Direct access to the served space (same-process convenience).
    pub fn space(&self) -> &DataSpaces {
        &self.inner.space
    }

    /// A clone of the served scheduler (same-process convenience; the
    /// cluster node drains it on graceful leave).
    pub fn scheduler(&self) -> Scheduler<Bytes> {
        self.inner.sched.clone()
    }

    /// Scheduler counters.
    pub fn sched_stats(&self) -> SchedStats {
        self.inner.sched.stats()
    }

    /// Has a client closed the scheduler? (`sitra-staged` exits on this.)
    pub fn closed(&self) -> bool {
        self.inner.sched.is_closed()
    }

    /// Close the scheduler and stop accepting connections.
    pub fn shutdown(mut self) {
        self.inner.sched.close();
        if let Some(h) = self.handle.take() {
            h.shutdown();
        }
    }
}

fn serve_connection(inner: &ServerInner, conn: &Connection) {
    let reg = sitra_obs::global();
    let rpc_requests = reg.counter("space.rpc.requests");
    let rpc_proto_errors = reg.counter("space.rpc.proto_errors");
    // The connection's tenant binding: None until a SetTenant arrives,
    // which keeps every legacy client on the default tenant with
    // unscoped variable names and unscoped eviction.
    let mut tenant: Option<String> = None;
    let scope = |tenant: &Option<String>, var: &str| match tenant {
        Some(t) => scoped_var(t, var),
        None => var.to_string(),
    };
    loop {
        let frame = match conn.recv() {
            Ok(f) => f,
            Err(_) => return, // peer hung up
        };
        let req = match decode_request(frame) {
            Ok(r) => r,
            Err(e) => {
                rpc_proto_errors.inc();
                let _ = conn.send(encode_response(&Response::Error(e.to_string())));
                return;
            }
        };
        rpc_requests.inc();
        let resp = match req {
            Request::Put {
                var,
                version,
                bbox,
                data,
            } => {
                // Quota-checked even for unbound connections: a client
                // may address another tenant's namespace explicitly (the
                // cluster handoff path does), and the quota follows the
                // name, not the connection.
                match inner
                    .space
                    .put_quota(&scope(&tenant, &var), version, bbox, data)
                {
                    Ok(_) => Response::Ok,
                    Err(e) => Response::Error(e.to_string()),
                }
            }
            Request::Get { var, version, bbox } => {
                Response::Pieces(inner.space.get(&scope(&tenant, &var), version, &bbox))
            }
            Request::LatestVersion { var } => {
                Response::Version(inner.space.latest_version(&scope(&tenant, &var)))
            }
            Request::SubmitTask { data, hint } => {
                let t = tenant.as_deref().unwrap_or(DEFAULT_TENANT);
                let hint = (!hint.is_empty()).then_some(ResidencyHint { bytes_at: hint });
                Response::Admission(inner.sched.submit_admission_hinted_as(t, data, hint))
            }
            Request::SchedPolicy => Response::Policy {
                capacity: inner.sched.capacity().map(|c| c as u64),
                policy: inner.sched.policy(),
            },
            Request::RequestTask {
                bucket_id,
                timeout_ms,
                location,
            } => {
                let loc = (!location.is_empty()).then_some(location.as_str());
                if !handle_request_task(inner, conn, bucket_id, timeout_ms, loc) {
                    return; // hand-off failed; connection is dead
                }
                continue; // response already sent
            }
            Request::AckTask { .. } => Response::Error("unexpected ack".into()),
            Request::Stats => {
                let sched = inner.sched.stats();
                let space = inner.space.stats();
                Response::Stats(RemoteStats {
                    tasks_submitted: sched.tasks_submitted,
                    tasks_assigned: sched.tasks_assigned,
                    tasks_requeued: sched.tasks_requeued,
                    tasks_shed: sched.tasks_shed,
                    tasks_rejected: sched.tasks_rejected,
                    objects: space.objects_per_server.iter().sum(),
                    resident_bytes: space.resident_bytes,
                })
            }
            Request::EvictVersion { version } => {
                // A tenant-bound connection reclaims only its own
                // namespace; an unbound one keeps the global semantics.
                match &tenant {
                    Some(t) => inner.space.evict_version_scoped(t, version),
                    None => inner.space.evict_version(version),
                }
                Response::Ok
            }
            Request::CloseSched => {
                inner.sched.close();
                Response::Ok
            }
            Request::Control { data } => match &inner.control {
                Some(handler) => Response::Control {
                    data: handler(data),
                },
                None => Response::Error("control frames not supported".into()),
            },
            Request::SetTenant { spec } => {
                inner.sched.register_tenant(&spec);
                inner
                    .space
                    .set_tenant_byte_quota(&spec.name, spec.byte_quota);
                tenant = Some(spec.name);
                Response::Ok
            }
            Request::TenantStats => Response::TenantRows(tenant_rows(inner)),
            Request::PoolStats => {
                let snap = inner.sched.pool_snapshot();
                Response::Pool(PoolStats {
                    buckets: snap.buckets as u64,
                    idle: snap.idle as u64,
                    desired: inner.sched.pool_target().map(|t| t as u64),
                    queue_depth: snap.queue_depth as u64,
                    p99_wait_us: snap.p99_wait.as_micros() as u64,
                    locality_bytes_saved: inner.sched.stats().locality_bytes_saved,
                    placement: inner.sched.placement_name().to_string(),
                })
            }
        };
        if conn.send(encode_response(&resp)).is_err() {
            return;
        }
    }
}

/// Join the scheduler's per-tenant snapshot with the space's residency
/// ledger into the wire rows.
fn tenant_rows(inner: &ServerInner) -> Vec<TenantRow> {
    let usage: std::collections::HashMap<String, (u64, Option<u64>)> = inner
        .space
        .tenant_usage()
        .into_iter()
        .map(|(name, used, quota)| (name, (used, quota)))
        .collect();
    let mut rows: Vec<TenantRow> = inner
        .sched
        .tenant_stats()
        .into_iter()
        .map(|t| {
            let (resident_bytes, byte_quota) = usage.get(&t.name).copied().unwrap_or((0, None));
            TenantRow {
                name: t.name,
                weight: t.weight,
                queued: t.queued,
                task_quota: t.task_quota,
                tasks_submitted: t.stats.tasks_submitted,
                tasks_assigned: t.stats.tasks_assigned,
                tasks_requeued: t.stats.tasks_requeued,
                tasks_shed: t.stats.tasks_shed,
                tasks_rejected: t.stats.tasks_rejected,
                resident_bytes,
                byte_quota,
            }
        })
        .collect();
    // Tenants with resident bytes but no scheduler traffic still get a
    // row (puts-only tenants exist).
    for (name, (used, quota)) in usage {
        if !rows.iter().any(|r| r.name == name) {
            rows.push(TenantRow {
                name,
                weight: 1,
                resident_bytes: used,
                byte_quota: quota,
                ..TenantRow::default()
            });
        }
    }
    rows.sort_by(|a, b| a.name.cmp(&b.name));
    rows
}

/// Serve one bucket-ready request. Returns false when the connection
/// must be torn down (a task hand-off could not be completed; the task
/// has been requeued).
fn handle_request_task(
    inner: &ServerInner,
    conn: &Connection,
    bucket_id: u32,
    timeout_ms: u64,
    location: Option<&str>,
) -> bool {
    let bucket = inner.sched.register_bucket_at(bucket_id, location);
    let deadline = std::time::Instant::now() + Duration::from_millis(timeout_ms);
    let assigned = loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() {
            break None;
        }
        match bucket.poll_task(Some(left.min(WAIT_SLICE))) {
            Lease::Assigned { seq, task } => break Some((seq, task)),
            Lease::Retire => {
                return conn
                    .send(encode_response(&Response::Task(TaskPoll::Retire)))
                    .is_ok()
            }
            Lease::Closed => {
                // Drain-then-closed: one more non-blocking look so a
                // task requeued during close is not missed.
                match bucket.poll_task(Some(Duration::ZERO)) {
                    Lease::Assigned { seq, task } => break Some((seq, task)),
                    Lease::Retire => {
                        return conn
                            .send(encode_response(&Response::Task(TaskPoll::Retire)))
                            .is_ok()
                    }
                    _ => {
                        return conn
                            .send(encode_response(&Response::Task(TaskPoll::Closed)))
                            .is_ok()
                    }
                }
            }
            Lease::Empty => continue,
        }
    };
    let Some((seq, data)) = assigned else {
        return conn
            .send(encode_response(&Response::Task(TaskPoll::Empty)))
            .is_ok();
    };
    // Two-phase hand-off: send, then require an ack on the same
    // connection. Either failure requeues the task at the queue head.
    let tenant = inner
        .sched
        .tenant_of(seq)
        .unwrap_or_else(|| DEFAULT_TENANT.to_string());
    let sent = conn
        .send(encode_response(&Response::Task(TaskPoll::Assigned {
            seq,
            data: data.clone(),
            tenant,
        })))
        .is_ok();
    if !sent {
        emit_requeue(bucket_id, seq, "send-failed");
        inner.sched.requeue_front(seq, data);
        return false;
    }
    let t_sent = std::time::Instant::now();
    match conn.recv_timeout(ACK_TIMEOUT) {
        Ok(frame) => match decode_request(frame) {
            Ok(Request::AckTask { seq: acked }) if acked == seq => {
                inner.sched.ack(seq);
                sitra_obs::global()
                    .histogram("space.rpc.ack_ns")
                    .observe(t_sent.elapsed());
                sitra_obs::emit(
                    "space",
                    "task.assign",
                    &[
                        ("bucket", bucket_id.to_string()),
                        ("seq", seq.to_string()),
                        ("ack_ns", t_sent.elapsed().as_nanos().to_string()),
                    ],
                );
                true
            }
            _ => {
                emit_requeue(bucket_id, seq, "bad-ack");
                inner.sched.requeue_front(seq, data);
                false
            }
        },
        Err(_) => {
            emit_requeue(bucket_id, seq, "ack-timeout");
            inner.sched.requeue_front(seq, data);
            false
        }
    }
}

/// Journal a failed hand-off. The requeue is the interesting fault
/// signal in a staging service's event stream — one line per lost
/// consumer, with why the two-phase hand-off failed.
fn emit_requeue(bucket_id: u32, seq: u64, reason: &str) {
    sitra_obs::emit(
        "space",
        "task.requeue",
        &[
            ("bucket", bucket_id.to_string()),
            ("seq", seq.to_string()),
            ("reason", reason.to_string()),
        ],
    );
}

// --------------------------------------------------------------------
// Client
// --------------------------------------------------------------------

/// Client handle to a [`SpaceServer`], mirroring the in-process
/// [`DataSpaces`] API plus the scheduler verbs.
pub struct RemoteSpace {
    conn: Connection,
}

impl RemoteSpace {
    /// Connect with a single attempt.
    pub fn connect(addr: &Addr) -> Result<RemoteSpace, RemoteError> {
        Ok(RemoteSpace {
            conn: sitra_net::connect(addr)?,
        })
    }

    /// Connect with bounded exponential backoff.
    pub fn connect_retry(addr: &Addr, backoff: &Backoff) -> Result<RemoteSpace, RemoteError> {
        Ok(RemoteSpace {
            conn: sitra_net::connect_retry(addr, backoff)?,
        })
    }

    fn rpc(&self, req: &Request) -> Result<Response, RemoteError> {
        self.conn.send(encode_request(req))?;
        let frame = self.conn.recv()?;
        match decode_response(frame)? {
            Response::Error(msg) => Err(RemoteError::Server(msg)),
            resp => Ok(resp),
        }
    }

    fn expect_ok(&self, req: &Request) -> Result<(), RemoteError> {
        match self.rpc(req)? {
            Response::Ok => Ok(()),
            other => Err(RemoteError::Proto(format!("expected Ok, got {other:?}"))),
        }
    }

    /// Store an object.
    pub fn put(
        &self,
        var: &str,
        version: u64,
        bbox: BBox3,
        data: Bytes,
    ) -> Result<(), RemoteError> {
        self.expect_ok(&Request::Put {
            var: var.to_string(),
            version,
            bbox,
            data,
        })
    }

    /// Store a field (serializing its values).
    pub fn put_field(
        &self,
        var: &str,
        version: u64,
        field: &ScalarField,
    ) -> Result<(), RemoteError> {
        self.put(
            var,
            version,
            field.bbox(),
            crate::codec::field_to_bytes(field),
        )
    }

    /// Spatial query: every stored piece of `(var, version)`
    /// intersecting `query`.
    pub fn get(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
    ) -> Result<Vec<(BBox3, Bytes)>, RemoteError> {
        match self.rpc(&Request::Get {
            var: var.to_string(),
            version,
            bbox: *query,
        })? {
            Response::Pieces(p) => Ok(p),
            other => Err(RemoteError::Proto(format!(
                "expected Pieces, got {other:?}"
            ))),
        }
    }

    /// Spatial query assembled into one field over `query`.
    pub fn get_assembled(
        &self,
        var: &str,
        version: u64,
        query: &BBox3,
        fill: f64,
    ) -> Result<ScalarField, RemoteError> {
        let pieces: Vec<ScalarField> = self
            .get(var, version, query)?
            .into_iter()
            .filter_map(|(bbox, data)| {
                bbox.intersect(query)
                    .map(|clip| crate::codec::bytes_to_field(bbox, &data).extract(&clip))
            })
            .collect();
        Ok(sitra_mesh::field::assemble(*query, &pieces, fill))
    }

    /// Highest stored version of `var`.
    pub fn latest_version(&self, var: &str) -> Result<Option<u64>, RemoteError> {
        match self.rpc(&Request::LatestVersion {
            var: var.to_string(),
        })? {
            Response::Version(v) => Ok(v),
            other => Err(RemoteError::Proto(format!(
                "expected Version, got {other:?}"
            ))),
        }
    }

    /// Data-ready: enqueue an opaque task descriptor and return the
    /// server's [`Admission`] verdict. A refusal is a verdict, not an
    /// error: it is how a remote producer learns it should degrade (run
    /// the aggregation in-situ) or that one of its earlier tasks was
    /// shed. `hint` rows name where the task's input bytes live so a
    /// locality-aware server placement can steer the assignment; an
    /// FCFS server ignores them.
    pub fn submit_task(
        &self,
        data: Bytes,
        hint: Vec<(String, u64)>,
    ) -> Result<Admission, RemoteError> {
        match self.rpc(&Request::SubmitTask { data, hint })? {
            Response::Admission(adm) => Ok(adm),
            other => Err(RemoteError::Proto(format!(
                "expected Admission, got {other:?}"
            ))),
        }
    }

    /// The server scheduler's queue capacity (`None` = unbounded) and
    /// admission policy.
    pub fn sched_policy(&self) -> Result<(Option<u64>, AdmissionPolicy), RemoteError> {
        match self.rpc(&Request::SchedPolicy)? {
            Response::Policy { capacity, policy } => Ok((capacity, policy)),
            other => Err(RemoteError::Proto(format!(
                "expected Policy, got {other:?}"
            ))),
        }
    }

    /// Bucket-ready: request the next task, waiting up to `timeout` on
    /// the server. A non-empty `location` registers the bucket as
    /// co-resident with it so the server's locality placement can steer
    /// matching tasks here. An assigned task is acknowledged
    /// automatically before this returns; [`TaskPoll::Retire`] means
    /// the capacity controller drained this bucket.
    pub fn request_task(
        &self,
        bucket_id: u32,
        timeout: Duration,
        location: &str,
    ) -> Result<TaskPoll, RemoteError> {
        self.conn.send(encode_request(&Request::RequestTask {
            bucket_id,
            timeout_ms: timeout.as_millis() as u64,
            location: location.to_string(),
        }))?;
        // The server may legitimately take the full timeout; pad the
        // client-side wait generously.
        let frame = self.conn.recv_timeout(timeout + Duration::from_secs(30))?;
        match decode_response(frame)? {
            Response::Task(poll) => {
                if let TaskPoll::Assigned { seq, .. } = &poll {
                    self.conn
                        .send(encode_request(&Request::AckTask { seq: *seq }))?;
                }
                Ok(poll)
            }
            Response::Error(msg) => Err(RemoteError::Server(msg)),
            other => Err(RemoteError::Proto(format!("expected Task, got {other:?}"))),
        }
    }

    /// Bucket-pool state: live/idle counts, desired capacity, queue
    /// depth, queue-wait p99, and the locality savings counter.
    pub fn pool_stats(&self) -> Result<PoolStats, RemoteError> {
        match self.rpc(&Request::PoolStats)? {
            Response::Pool(p) => Ok(p),
            other => Err(RemoteError::Proto(format!("expected Pool, got {other:?}"))),
        }
    }

    /// Server counters.
    pub fn stats(&self) -> Result<RemoteStats, RemoteError> {
        match self.rpc(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            other => Err(RemoteError::Proto(format!("expected Stats, got {other:?}"))),
        }
    }

    /// Drop all objects of `version`.
    pub fn evict_version(&self, version: u64) -> Result<(), RemoteError> {
        self.expect_ok(&Request::EvictVersion { version })
    }

    /// Close the scheduler: every bucket's next request returns
    /// [`TaskPoll::Closed`] once the queue drains.
    pub fn close_sched(&self) -> Result<(), RemoteError> {
        self.expect_ok(&Request::CloseSched)
    }

    /// Declare this connection's tenant: registers (or updates) the
    /// tenant server-side and scopes every subsequent request on this
    /// connection to its namespace. Must be re-sent after a reconnect —
    /// the binding is per-connection, not per-client.
    pub fn set_tenant(&self, spec: &TenantSpec) -> Result<(), RemoteError> {
        self.expect_ok(&Request::SetTenant { spec: spec.clone() })
    }

    /// Per-tenant scheduler counters and space residency, one row per
    /// tenant the server has seen, sorted by name.
    pub fn tenant_stats(&self) -> Result<Vec<TenantRow>, RemoteError> {
        match self.rpc(&Request::TenantStats)? {
            Response::TenantRows(rows) => Ok(rows),
            other => Err(RemoteError::Proto(format!(
                "expected TenantRows, got {other:?}"
            ))),
        }
    }

    /// Send an opaque control frame and return the handler's reply.
    /// Errors with [`RemoteError::Server`] when the server was started
    /// without a control handler.
    pub fn control(&self, data: Bytes) -> Result<Bytes, RemoteError> {
        match self.rpc(&Request::Control { data })? {
            Response::Control { data } => Ok(data),
            other => Err(RemoteError::Proto(format!(
                "expected Control, got {other:?}"
            ))),
        }
    }

    /// Transport counters of this client's connection.
    pub fn conn_stats(&self) -> ConnStats {
        self.conn.stats()
    }

    /// Close the connection.
    pub fn close(&self) {
        self.conn.close();
    }

    /// Fault injection for tests: send a bucket-ready request and then
    /// drop the connection without reading the response, simulating a
    /// consumer crash at the worst moment — after the server may have
    /// popped a task for us. The server must requeue that task.
    pub fn fault_drop_during_request(&self, bucket_id: u32, timeout: Duration) {
        let _ = self.conn.send(encode_request(&Request::RequestTask {
            bucket_id,
            timeout_ms: timeout.as_millis() as u64,
            location: String::new(),
        }));
        // Give the request time to reach the server thread before the
        // hang-up races it.
        std::thread::sleep(Duration::from_millis(30));
        self.conn.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_bbox(lo: [usize; 3], hi: [usize; 3]) -> BBox3 {
        BBox3::new(lo, hi)
    }

    #[test]
    fn request_codec_roundtrip() {
        let reqs = vec![
            Request::Put {
                var: "T".into(),
                version: 9,
                bbox: mk_bbox([0, 1, 2], [3, 4, 5]),
                data: Bytes::from_static(b"\x01\x02"),
            },
            Request::Get {
                var: "ρ".into(),
                version: 0,
                bbox: mk_bbox([0, 0, 0], [0, 0, 0]),
            },
            Request::LatestVersion { var: "x".into() },
            Request::SubmitTask {
                data: Bytes::from_static(b"task"),
                hint: vec![],
            },
            Request::RequestTask {
                bucket_id: 7,
                timeout_ms: 1500,
                location: String::new(),
            },
            Request::AckTask { seq: 42 },
            Request::Stats,
            Request::EvictVersion { version: 3 },
            Request::CloseSched,
            Request::SchedPolicy,
            Request::Control {
                data: Bytes::from_static(b"\x00opaque"),
            },
            Request::SetTenant {
                spec: TenantSpec::new("viz")
                    .with_weight(3)
                    .with_byte_quota(1 << 20)
                    .with_task_quota(8)
                    .with_policy(AdmissionPolicy::Block {
                        max_wait: Duration::from_millis(40),
                    }),
            },
            Request::SetTenant {
                spec: TenantSpec::new("plain"),
            },
            Request::TenantStats,
            Request::PoolStats,
            Request::SubmitTask {
                data: Bytes::from_static(b"task-hinted"),
                hint: vec![("tcp://m0:7000".into(), 4096), ("tcp://m1:7000".into(), 64)],
            },
            Request::RequestTask {
                bucket_id: 3,
                timeout_ms: 250,
                location: "tcp://m1:7000".into(),
            },
        ];
        for r in reqs {
            assert_eq!(decode_request(encode_request(&r)).unwrap(), r);
        }
    }

    #[test]
    fn response_codec_roundtrip() {
        let resps = vec![
            Response::Ok,
            Response::Pieces(vec![
                (mk_bbox([0, 0, 0], [1, 1, 1]), Bytes::from_static(b"abc")),
                (mk_bbox([2, 0, 0], [3, 1, 1]), Bytes::new()),
            ]),
            Response::Version(Some(8)),
            Response::Version(None),
            Response::Task(TaskPoll::Assigned {
                seq: 5,
                data: Bytes::from_static(b"t"),
                tenant: "acme".into(),
            }),
            Response::Task(TaskPoll::Empty),
            Response::Task(TaskPoll::Closed),
            Response::Task(TaskPoll::Retire),
            Response::Pool(PoolStats {
                buckets: 4,
                idle: 2,
                desired: Some(6),
                queue_depth: 9,
                p99_wait_us: 1500,
                locality_bytes_saved: 1 << 20,
                placement: "locality".into(),
            }),
            Response::Pool(PoolStats::default()),
            Response::Stats(RemoteStats {
                tasks_submitted: 1,
                tasks_assigned: 2,
                tasks_requeued: 3,
                tasks_shed: 6,
                tasks_rejected: 7,
                objects: 4,
                resident_bytes: 5,
            }),
            Response::Admission(Admission::Accepted { seq: 11 }),
            Response::Admission(Admission::AcceptedShed {
                seq: 12,
                shed_seq: 2,
            }),
            Response::Admission(Admission::Rejected),
            Response::Admission(Admission::TimedOut),
            Response::Admission(Admission::Closed),
            Response::Policy {
                capacity: Some(32),
                policy: AdmissionPolicy::Block {
                    max_wait: Duration::from_millis(250),
                },
            },
            Response::Policy {
                capacity: None,
                policy: AdmissionPolicy::ShedOldest,
            },
            Response::Policy {
                capacity: Some(1),
                policy: AdmissionPolicy::RejectNew,
            },
            Response::Control {
                data: Bytes::from_static(b"reply"),
            },
            Response::TenantRows(vec![
                TenantRow {
                    name: "default".into(),
                    weight: 1,
                    ..TenantRow::default()
                },
                TenantRow {
                    name: "viz".into(),
                    weight: 3,
                    queued: 2,
                    task_quota: Some(8),
                    tasks_submitted: 10,
                    tasks_assigned: 7,
                    tasks_requeued: 1,
                    tasks_shed: 1,
                    tasks_rejected: 2,
                    resident_bytes: 4096,
                    byte_quota: Some(1 << 20),
                },
            ]),
            Response::TenantRows(vec![]),
            Response::Error("boom".into()),
        ];
        for r in resps {
            assert_eq!(decode_response(encode_response(&r)).unwrap(), r);
        }
    }

    #[test]
    fn codecs_reject_garbage_without_panicking() {
        for len in 0..64 {
            let junk = Bytes::from(vec![0xFEu8; len]);
            assert!(decode_request(junk.clone()).is_err());
            assert!(decode_response(junk).is_err());
        }
        // Truncations of every valid message error out too, including
        // one cut inside a policy-less SetTenant's filler policy.
        for req in [
            Request::Put {
                var: "T".into(),
                version: 1,
                bbox: mk_bbox([0, 0, 0], [1, 1, 1]),
                data: Bytes::from_static(b"xyz"),
            },
            Request::SetTenant {
                spec: TenantSpec::new("plain"),
            },
        ] {
            let enc = encode_request(&req);
            for cut in 0..enc.len() {
                assert!(
                    decode_request(enc.slice(0..cut)).is_err(),
                    "{req:?} cut at {cut}"
                );
            }
        }
    }

    #[test]
    fn server_put_get_over_inproc() {
        let addr: Addr = "inproc://space-putget".parse().unwrap();
        let server = SpaceServer::start(&addr, 4).unwrap();
        let client = RemoteSpace::connect(&server.addr()).unwrap();
        let b = mk_bbox([0, 0, 0], [3, 3, 3]);
        let f = ScalarField::from_fn(b, |p| p[0] as f64 + 0.5 * p[1] as f64);
        client.put_field("T", 2, &f).unwrap();
        assert_eq!(client.latest_version("T").unwrap(), Some(2));
        assert_eq!(client.latest_version("nope").unwrap(), None);
        let got = client.get_assembled("T", 2, &b, f64::NAN).unwrap();
        assert_eq!(got, f);
        client.evict_version(2).unwrap();
        assert!(client.get("T", 2, &b).unwrap().is_empty());
        server.shutdown();
    }

    #[test]
    fn scheduler_verbs_over_inproc() {
        let addr: Addr = "inproc://space-sched".parse().unwrap();
        let server = SpaceServer::start(&addr, 1).unwrap();
        let producer = RemoteSpace::connect(&server.addr()).unwrap();
        let bucket = RemoteSpace::connect(&server.addr()).unwrap();

        // Empty poll times out.
        assert_eq!(
            bucket
                .request_task(0, Duration::from_millis(40), "")
                .unwrap(),
            TaskPoll::Empty
        );
        assert_eq!(
            producer
                .submit_task(Bytes::from_static(b"job-0"), vec![])
                .unwrap(),
            Admission::Accepted { seq: 0 }
        );
        assert_eq!(
            bucket.request_task(0, Duration::from_secs(2), "").unwrap(),
            TaskPoll::Assigned {
                seq: 0,
                data: Bytes::from_static(b"job-0"),
                tenant: DEFAULT_TENANT.into(),
            }
        );
        producer.close_sched().unwrap();
        assert_eq!(
            bucket.request_task(0, Duration::from_secs(2), "").unwrap(),
            TaskPoll::Closed
        );
        let stats = producer.stats().unwrap();
        assert_eq!(stats.tasks_submitted, 1);
        assert_eq!(stats.tasks_assigned, 1);
        assert_eq!(stats.tasks_requeued, 0);
        server.shutdown();
    }

    #[test]
    fn dropped_consumer_connection_requeues_task() {
        let addr: Addr = "inproc://space-requeue".parse().unwrap();
        let server = SpaceServer::start(&addr, 1).unwrap();
        let producer = RemoteSpace::connect(&server.addr()).unwrap();
        producer
            .submit_task(Bytes::from_static(b"precious"), vec![])
            .unwrap();

        // A consumer asks for the task and dies before acknowledging.
        let doomed = RemoteSpace::connect(&server.addr()).unwrap();
        doomed.fault_drop_during_request(9, Duration::from_secs(2));

        // The replacement consumer still gets the task.
        let survivor = RemoteSpace::connect(&server.addr()).unwrap();
        let polled = survivor
            .request_task(1, Duration::from_secs(5), "")
            .unwrap();
        assert_eq!(
            polled,
            TaskPoll::Assigned {
                seq: 0,
                data: Bytes::from_static(b"precious"),
                tenant: DEFAULT_TENANT.into(),
            }
        );
        let stats = producer.stats().unwrap();
        assert_eq!(stats.tasks_submitted, 1);
        assert_eq!(stats.tasks_requeued, 1);
        assert_eq!(stats.tasks_assigned, 2); // once to the doomed, once to the survivor
        server.shutdown();
    }

    #[test]
    fn admission_verbs_over_inproc() {
        let addr: Addr = "inproc://space-admission".parse().unwrap();
        let server =
            SpaceServer::start_with(&addr, 1, Some(2), AdmissionPolicy::ShedOldest).unwrap();
        let producer = RemoteSpace::connect(&server.addr()).unwrap();
        assert_eq!(
            producer.sched_policy().unwrap(),
            (Some(2), AdmissionPolicy::ShedOldest)
        );
        assert_eq!(
            producer
                .submit_task(Bytes::from_static(b"t0"), vec![])
                .unwrap(),
            Admission::Accepted { seq: 0 }
        );
        assert_eq!(
            producer
                .submit_task(Bytes::from_static(b"t1"), vec![])
                .unwrap(),
            Admission::Accepted { seq: 1 }
        );
        // Queue full: the oldest task is shed to admit the new one.
        assert_eq!(
            producer
                .submit_task(Bytes::from_static(b"t2"), vec![])
                .unwrap(),
            Admission::AcceptedShed {
                seq: 2,
                shed_seq: 0
            }
        );
        let stats = producer.stats().unwrap();
        assert_eq!(stats.tasks_shed, 1);
        assert_eq!(stats.tasks_rejected, 0);
        // The survivors drain FCFS; the shed task is gone.
        let bucket = RemoteSpace::connect(&server.addr()).unwrap();
        assert_eq!(
            bucket.request_task(0, Duration::from_secs(2), "").unwrap(),
            TaskPoll::Assigned {
                seq: 1,
                data: Bytes::from_static(b"t1"),
                tenant: DEFAULT_TENANT.into(),
            }
        );
        assert_eq!(
            bucket.request_task(0, Duration::from_secs(2), "").unwrap(),
            TaskPoll::Assigned {
                seq: 2,
                data: Bytes::from_static(b"t2"),
                tenant: DEFAULT_TENANT.into(),
            }
        );
        producer.close_sched().unwrap();
        assert_eq!(
            producer
                .submit_task(Bytes::from_static(b"late"), vec![])
                .unwrap(),
            Admission::Closed
        );
        server.shutdown();
    }

    #[test]
    fn reject_new_over_rpc_reports_rejection() {
        let addr: Addr = "inproc://space-reject".parse().unwrap();
        let server =
            SpaceServer::start_with(&addr, 1, Some(1), AdmissionPolicy::RejectNew).unwrap();
        let producer = RemoteSpace::connect(&server.addr()).unwrap();
        assert_eq!(
            producer
                .submit_task(Bytes::from_static(b"a"), vec![])
                .unwrap(),
            Admission::Accepted { seq: 0 }
        );
        assert_eq!(
            producer
                .submit_task(Bytes::from_static(b"b"), vec![])
                .unwrap(),
            Admission::Rejected
        );
        // A refusal is a verdict, not a transport or server error.
        assert_eq!(
            producer
                .submit_task(Bytes::from_static(b"c"), vec![])
                .unwrap(),
            Admission::Rejected
        );
        assert_eq!(producer.stats().unwrap().tasks_rejected, 2);
        server.shutdown();
    }

    #[test]
    fn server_survives_malformed_frames() {
        let addr: Addr = "inproc://space-garbage".parse().unwrap();
        let server = SpaceServer::start(&addr, 1).unwrap();
        let bad = sitra_net::connect(&server.addr()).unwrap();
        bad.send(Bytes::from_static(b"\xFF\xFF\xFF")).unwrap();
        // Server answers with an error then hangs up.
        let resp = decode_response(bad.recv().unwrap()).unwrap();
        assert!(matches!(resp, Response::Error(_)));
        // A fresh, well-behaved client is unaffected.
        let good = RemoteSpace::connect(&server.addr()).unwrap();
        assert_eq!(good.latest_version("T").unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn control_frames_reach_the_installed_handler() {
        let addr: Addr = "inproc://space-control".parse().unwrap();
        let handler: ControlHandler = Arc::new(|data: Bytes| {
            let mut out = data.to_vec();
            out.reverse();
            Bytes::from(out)
        });
        let server = SpaceServer::start_custom(
            &addr,
            Arc::new(DataSpaces::new(1)),
            Scheduler::new(),
            Some(handler),
        )
        .unwrap();
        let client = RemoteSpace::connect(&server.addr()).unwrap();
        assert_eq!(
            client.control(Bytes::from_static(b"abc")).unwrap(),
            Bytes::from_static(b"cba")
        );
        // The data-plane verbs coexist on the same connection.
        assert_eq!(client.latest_version("T").unwrap(), None);
        server.shutdown();
    }

    #[test]
    fn control_without_handler_is_a_server_error() {
        let addr: Addr = "inproc://space-nocontrol".parse().unwrap();
        let server = SpaceServer::start(&addr, 1).unwrap();
        let client = RemoteSpace::connect(&server.addr()).unwrap();
        assert!(matches!(
            client.control(Bytes::from_static(b"x")),
            Err(RemoteError::Server(_))
        ));
        server.shutdown();
    }

    #[test]
    fn tenant_binding_scopes_the_connection() {
        let addr: Addr = "inproc://space-tenant".parse().unwrap();
        let server = SpaceServer::start(&addr, 2).unwrap();
        let b = mk_bbox([0, 0, 0], [1, 1, 1]);
        let data = Bytes::from(vec![1u8; 64]);

        // Two tenants and one legacy client all put "T" version 1.
        let viz = RemoteSpace::connect(&server.addr()).unwrap();
        viz.set_tenant(&TenantSpec::new("viz").with_weight(2))
            .unwrap();
        let stats_client = RemoteSpace::connect(&server.addr()).unwrap();
        stats_client.set_tenant(&TenantSpec::new("stats")).unwrap();
        let legacy = RemoteSpace::connect(&server.addr()).unwrap();
        viz.put("T", 1, b, data.clone()).unwrap();
        stats_client.put("T", 1, b, data.clone()).unwrap();
        legacy.put("T", 1, b, data.clone()).unwrap();

        // Each sees exactly its own piece under the same name.
        assert_eq!(viz.get("T", 1, &b).unwrap().len(), 1);
        assert_eq!(stats_client.get("T", 1, &b).unwrap().len(), 1);
        assert_eq!(legacy.get("T", 1, &b).unwrap().len(), 1);

        // Tenant-scoped eviction spares the neighbours.
        viz.evict_version(1).unwrap();
        assert!(viz.get("T", 1, &b).unwrap().is_empty());
        assert_eq!(stats_client.get("T", 1, &b).unwrap().len(), 1);
        assert_eq!(legacy.get("T", 1, &b).unwrap().len(), 1);

        // Task submissions are attributed per tenant.
        viz.submit_task(Bytes::from_static(b"v0"), vec![]).unwrap();
        stats_client
            .submit_task(Bytes::from_static(b"s0"), vec![])
            .unwrap();
        legacy
            .submit_task(Bytes::from_static(b"l0"), vec![])
            .unwrap();
        let rows = viz.tenant_stats().unwrap();
        let row = |name: &str| rows.iter().find(|r| r.name == name).unwrap().clone();
        assert_eq!(row("viz").tasks_submitted, 1);
        assert_eq!(row("viz").weight, 2);
        assert_eq!(row("stats").tasks_submitted, 1);
        assert_eq!(row("default").tasks_submitted, 1);
        assert_eq!(row("stats").resident_bytes, 64);
        assert_eq!(row("viz").resident_bytes, 0, "evicted");
        server.shutdown();
    }

    #[test]
    fn byte_quota_refusal_is_a_server_error() {
        let addr: Addr = "inproc://space-bytequota".parse().unwrap();
        let server = SpaceServer::start(&addr, 1).unwrap();
        let c = RemoteSpace::connect(&server.addr()).unwrap();
        c.set_tenant(&TenantSpec::new("small").with_byte_quota(100))
            .unwrap();
        let b = mk_bbox([0, 0, 0], [1, 1, 1]);
        c.put("T", 1, b, Bytes::from(vec![0u8; 80])).unwrap();
        let err = c.put("T", 2, b, Bytes::from(vec![0u8; 80])).unwrap_err();
        assert!(matches!(err, RemoteError::Server(_)), "{err}");
        assert!(!err.is_retryable(), "quota refusal must not be retried");
        // Redelivery of the SAME piece replaces and stays admitted.
        c.put("T", 1, b, Bytes::from(vec![1u8; 80])).unwrap();
        server.shutdown();
    }

    #[test]
    fn pool_verbs_over_inproc() {
        let addr: Addr = "inproc://space-pool".parse().unwrap();
        let server = SpaceServer::start(&addr, 1).unwrap();
        server
            .scheduler()
            .set_placement(Arc::new(crate::pool::LocalityPlacement));
        let producer = RemoteSpace::connect(&server.addr()).unwrap();

        // Empty located poll: bucket registers at its location, times out.
        let bucket = RemoteSpace::connect(&server.addr()).unwrap();
        assert_eq!(
            bucket
                .request_task(0, Duration::from_millis(40), "tcp://m0:1")
                .unwrap(),
            TaskPoll::Empty
        );
        // A hinted submission lands on the co-located bucket and the
        // saved bytes show up in pool stats.
        assert_eq!(
            producer
                .submit_task(
                    Bytes::from_static(b"near"),
                    vec![("tcp://m0:1".into(), 2048)],
                )
                .unwrap(),
            Admission::Accepted { seq: 0 }
        );
        assert_eq!(
            bucket
                .request_task(0, Duration::from_secs(2), "tcp://m0:1")
                .unwrap(),
            TaskPoll::Assigned {
                seq: 0,
                data: Bytes::from_static(b"near"),
                tenant: DEFAULT_TENANT.into(),
            }
        );
        let pool = producer.pool_stats().unwrap();
        assert_eq!(pool.placement, "locality");
        assert_eq!(pool.buckets, 1);
        assert_eq!(pool.queue_depth, 0);
        assert_eq!(pool.locality_bytes_saved, 2048);
        assert_eq!(pool.desired, None);

        // Draining the bucket turns its next poll into Retire; other
        // verbs keep working on the same connection afterwards.
        server.scheduler().begin_drain(0);
        assert_eq!(
            bucket
                .request_task(0, Duration::from_secs(2), "tcp://m0:1")
                .unwrap(),
            TaskPoll::Retire
        );
        assert_eq!(producer.pool_stats().unwrap().buckets, 0);
        server.shutdown();
    }

    #[test]
    fn works_over_tcp_loopback() {
        let bind: Addr = "tcp://127.0.0.1:0".parse().unwrap();
        let server = SpaceServer::start(&bind, 2).unwrap();
        let client = RemoteSpace::connect_retry(&server.addr(), &Backoff::default()).unwrap();
        let b = mk_bbox([0, 0, 0], [2, 2, 2]);
        client
            .put("T", 1, b, Bytes::from(vec![7u8; 27 * 8]))
            .unwrap();
        let pieces = client.get("T", 1, &b).unwrap();
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].1.len(), 27 * 8);
        let cs = client.conn_stats();
        assert_eq!(cs.frames_sent, 2);
        assert_eq!(cs.frames_recv, 2);
        server.shutdown();
    }
}
