//! The co-location harness: drives client workloads against a sharing
//! system on the simulated GPU and collects the paper's metrics.
//!
//! The entry point is the [`Colocation`] session builder. A session models
//! the real Tally deployment shape: a long-lived server (the
//! [`SharingSystem`]) that clients attach to and detach from at runtime.
//! Each [`JobSpec`] carries an activity *schedule* ([`JobSpec::windows`],
//! with [`JobSpec::active_from`] / [`JobSpec::active_until`] as the
//! one-window convenience); the session attaches the client when a window
//! opens, detaches it when the window closes, and *re-attaches* it for
//! every later window under the same stable identity — notifying the
//! system through [`SharingSystem::on_client_attach`] /
//! [`SharingSystem::on_client_detach`] so it can reclaim per-client state.
//! Metrics accumulate across attachments. Sessions can also be driven from
//! a timestamped arrive/depart event stream ([`Colocation::trace`]), which
//! [`compile_trace`] turns into window schedules; the trace generator and
//! its checked-in plain-text format live in `tally_workloads::trace`.
//!
//! A client is either a **training job** (an iteration template of kernels
//! and CPU gaps, repeated forever) or an **inference service** (a request
//! template served FIFO against a trace of arrival instants). Clients issue
//! kernels strictly in order: the next kernel becomes ready only when the
//! sharing system reports the previous one complete — the behaviour a
//! synchronous stream gives real DL workloads.
//!
//! When the session is virtualized ([`Colocation::transport`]), every
//! client runs behind its own §4.3 interception stub
//! ([`ClientStub`]): each logical kernel launch
//! pays the stub's per-call transport/cache costs before it reaches the
//! system, and the per-client [`InterceptStats`](crate::api::InterceptStats)
//! are surfaced in the
//! [`ClientReport`]. This replaces the hand-set `comm_latency` constant
//! earlier revisions wired into individual systems.
//!
//! The harness settles each simulated instant to a fixed point: apply
//! completions → process lifecycle edges → advance client programs
//! (delivering newly-ready kernels) → let the system poll. So, e.g., a
//! high-priority client's next kernel always reaches the system *before*
//! the system decides whether the GPU is idle enough to resume best-effort
//! work. A pass consumes what it produces, so another pass runs only when
//! the poll signalled completions, a lifecycle edge fired, or something
//! became due at this very instant (a zero-cost launch, a zero-length CPU
//! gap).
//!
//! The session wakes only when it or its system has work: a client edge,
//! an interception cost expiring, an engine notification or the system's
//! timer. Engine-internal events (launch arrivals, waves, PTB rounds) run
//! inside [`Session::advance_to`] without a settle or a poll.
//!
//! A kernel's round trip through a session allocates nothing: the engine
//! appends notifications to a buffer the session reuses, systems signal
//! completions into the session's own completion list (see [`Ctx`]), and
//! in-transit launches reach the system from the list they wait in.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

use tally_gpu::{
    ClientId, Engine, GpuSpec, KernelDesc, Notification, Priority, SimSpan, SimTime, Step,
};

use crate::admission::{AdmissionPolicy, AdmissionVerdict};
use crate::api::{ClientStub, Transport};
use crate::events::{ClientEvent, LoadMonitor, Observation, SharedSyncObserver, TraceError};
use crate::metrics::{ClientReport, LatencyRecorder, RunReport};
use crate::system::{ClientMeta, Ctx, Passthrough, SharingSystem};

/// One step of a client's program.
#[derive(Clone, Debug)]
pub enum WorkloadOp {
    /// Launch this kernel and wait for it to complete.
    Kernel(Arc<KernelDesc>),
    /// CPU-side work (data loading, preprocessing, scheduling gaps): the
    /// client issues nothing for this long.
    CpuGap(SimSpan),
}

/// What a client does.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// Repeat `iteration` forever (best-effort training in the paper).
    Training {
        /// The per-iteration op sequence.
        iteration: Vec<WorkloadOp>,
    },
    /// Serve `request` once per arrival, FIFO (latency-critical inference).
    Inference {
        /// The per-request op sequence.
        request: Vec<WorkloadOp>,
        /// Absolute arrival instants, ascending.
        arrivals: Vec<SimTime>,
    },
}

/// One activity window of a client: the client attaches at `from` and
/// detaches at `until` (`None` = stays to the end of the run).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ActivityWindow {
    /// Instant the client attaches.
    pub from: SimTime,
    /// Instant the client detaches again (`None` = end of the run).
    pub until: Option<SimTime>,
}

impl ActivityWindow {
    /// A window spanning the whole run.
    pub const ALWAYS: ActivityWindow = ActivityWindow {
        from: SimTime::ZERO,
        until: None,
    };

    /// A window over `[from, until)`.
    pub fn new(from: SimTime, until: Option<SimTime>) -> Self {
        if let Some(u) = until {
            assert!(from < u, "activity window must be non-empty");
        }
        ActivityWindow { from, until }
    }
}

/// A client job: name, priority class, program, and activity schedule.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Display name.
    pub name: String,
    /// Scheduling class.
    pub priority: Priority,
    /// The program.
    pub kind: JobKind,
    /// Activity schedule: the client attaches at each window's `from` and
    /// detaches at its `until`, re-attaching for every later window under
    /// the same stable identity (metrics accumulate across attachments).
    /// Windows must be ascending and non-overlapping; only the last may be
    /// open-ended. Defaults to one window spanning the whole run; the
    /// [`JobSpec::active_from`] / [`JobSpec::active_until`] builders remain
    /// the one-window convenience.
    pub windows: Vec<ActivityWindow>,
    /// Stable client identity, independent of attach order. Systems and
    /// placement policies can key per-client state by this instead of the
    /// session-local [`ClientId`] index, which is what makes re-attach and
    /// cross-device migration trackable. `None` means the client is only
    /// known by its session index.
    pub client_key: Option<String>,
    /// Symbolic, serializable description of what this job runs (e.g. the
    /// `tally_workloads` trace syntax `"train gpt2-large-train"`). Carried
    /// into [`Observation::ClientAttached`] so an observer — notably a
    /// trace recorder — can re-serialize the client without access to its
    /// kernel stream. `None` for hand-built jobs.
    pub descriptor: Option<String>,
    /// Estimated bytes of resident client state (weights, optimizer
    /// moments, KV caches) that must cross the interconnect when this
    /// client migrates between devices. Charged as
    /// `bytes / path_bandwidth` of stall by
    /// [`Cluster`](crate::cluster::Cluster) runs under a non-flat
    /// [`Topology`](crate::topology::Topology). `0` (the default) makes
    /// migration free on any topology.
    pub state_bytes: u64,
}

impl JobSpec {
    /// A high-priority inference job.
    pub fn inference(
        name: impl Into<String>,
        request: Vec<WorkloadOp>,
        arrivals: Vec<SimTime>,
    ) -> Self {
        JobSpec {
            name: name.into(),
            priority: Priority::High,
            kind: JobKind::Inference { request, arrivals },
            windows: vec![ActivityWindow::ALWAYS],
            client_key: None,
            descriptor: None,
            state_bytes: 0,
        }
    }

    /// A best-effort training job.
    pub fn training(name: impl Into<String>, iteration: Vec<WorkloadOp>) -> Self {
        JobSpec {
            name: name.into(),
            priority: Priority::BestEffort,
            kind: JobKind::Training { iteration },
            windows: vec![ActivityWindow::ALWAYS],
            client_key: None,
            descriptor: None,
            state_bytes: 0,
        }
    }

    /// Returns this job with the given priority class.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Returns this job carrying a stable client key (see
    /// [`JobSpec::client_key`]).
    pub fn with_client_key(mut self, key: impl Into<String>) -> Self {
        self.client_key = Some(key.into());
        self
    }

    /// Returns this job carrying a symbolic descriptor (see
    /// [`JobSpec::descriptor`]).
    pub fn with_descriptor(mut self, descriptor: impl Into<String>) -> Self {
        self.descriptor = Some(descriptor.into());
        self
    }

    /// Returns this job carrying a migration state-size estimate (see
    /// [`JobSpec::state_bytes`]).
    pub fn with_state_bytes(mut self, bytes: u64) -> Self {
        self.state_bytes = bytes;
        self
    }

    /// The stable client key, defaulting to the display name when none was
    /// set explicitly.
    pub fn key(&self) -> &str {
        self.client_key.as_deref().unwrap_or(&self.name)
    }

    /// Returns this job attaching at `from` instead of session start — the
    /// one-window convenience over [`JobSpec::windows`].
    ///
    /// Inference arrivals that predate the attach instant queue up and are
    /// served (late) once the client joins — the turnaround/queueing
    /// scenario of the paper's Table 1.
    ///
    /// # Panics
    ///
    /// Panics if the job already carries a multi-window schedule (adjust
    /// [`JobSpec::windows`] directly instead).
    pub fn active_from(mut self, from: SimTime) -> Self {
        assert!(
            self.windows.len() == 1,
            "active_from is the one-window convenience; edit `windows` for schedules"
        );
        self.windows[0].from = from;
        self
    }

    /// Returns this job detaching at `until` instead of running to the end
    /// — closes the job's *last* scheduled window.
    pub fn active_until(mut self, until: SimTime) -> Self {
        let last = self.windows.last_mut().expect("at least one window");
        assert!(last.from < until, "activity window must be non-empty");
        last.until = Some(until);
        self
    }

    /// Returns this job active only on `[from, until)`.
    pub fn active_window(self, from: SimTime, until: SimTime) -> Self {
        self.active_from(from).active_until(until)
    }

    /// Appends another activity window: the client detaches at the end of
    /// its previous window and *re-attaches* at `from`, keeping its stable
    /// identity and accumulating metrics across attachments.
    ///
    /// # Panics
    ///
    /// Panics if the previous window is open-ended or overlaps `from`.
    pub fn also_active(mut self, from: SimTime, until: Option<SimTime>) -> Self {
        let prev = self.windows.last().expect("at least one window");
        let prev_end = prev
            .until
            .expect("cannot schedule a window after an open-ended one");
        assert!(prev_end <= from, "activity windows must not overlap");
        self.windows.push(ActivityWindow::new(from, until));
        self
    }

    /// Replaces the whole activity schedule.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty, has an empty or inverted window
    /// (possible by building `ActivityWindow` literals, which bypass
    /// [`ActivityWindow::new`]), is unordered or overlapping, or has an
    /// open-ended window anywhere but last.
    pub fn with_schedule(mut self, windows: Vec<ActivityWindow>) -> Self {
        assert!(
            !windows.is_empty(),
            "schedule must have at least one window"
        );
        for w in &windows {
            if let Some(u) = w.until {
                assert!(w.from < u, "activity window must be non-empty");
            }
        }
        for pair in windows.windows(2) {
            let end = pair[0]
                .until
                .expect("only the last window may be open-ended");
            assert!(end <= pair[1].from, "activity windows must not overlap");
        }
        self.windows = windows;
        self
    }

    /// The instant of the job's first attach.
    pub fn first_active(&self) -> SimTime {
        self.windows.first().expect("at least one window").from
    }
}

/// A timestamped client lifecycle event — the unit of trace-driven session
/// construction (see [`Colocation::trace`] and
/// [`Cluster::trace`](crate::cluster::Cluster::trace)).
///
/// This is the workspace-wide [`ClientEvent`]
/// vocabulary instantiated with a concrete [`JobSpec`] payload (the
/// windows of which are overridden by the event stream);
/// `tally_workloads::trace` speaks the same vocabulary with symbolic job
/// references and resolves them into this type for replay.
pub type SessionEvent = ClientEvent<JobSpec>;

/// One client of a compiled arrive/depart stream (see [`compile_trace`]).
#[derive(Debug)]
pub struct TraceClient<'a, J> {
    /// The client's key.
    pub key: &'a str,
    /// The job its first arrival carries (later arrivals' jobs are
    /// ignored: the client re-attaches).
    pub job: &'a J,
    /// One window per arrival, closed by the matching departure; only the
    /// last may be open-ended.
    pub windows: Vec<ActivityWindow>,
}

/// Compiles a time-ordered arrive/depart event stream into one
/// [`TraceClient`] per distinct key, in first-arrival order, each carrying
/// the key's full window schedule.
///
/// This is the one place the workspace checks an event stream's shape:
/// [`Colocation::trace`], [`Cluster::trace`](crate::cluster::Cluster::trace)
/// and `tally_workloads::trace::ArrivalTrace` (validation, parsing,
/// recording and replay) all compile through it, so they accept the same
/// streams and word each fault the same way.
///
/// Returns a [`TraceError`] on an invalid stream: timestamps out of order,
/// a key arriving while attached, a departure for a key that never arrived
/// or is detached, or a departure at or before its arrival instant.
pub fn compile_trace<'a, J>(
    events: impl IntoIterator<Item = (SimTime, &'a ClientEvent<J>)>,
) -> Result<Vec<TraceClient<'a, J>>, TraceError> {
    let mut clients: Vec<TraceClient<'a, J>> = Vec::new();
    let mut index: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    let mut last = SimTime::ZERO;
    for (at, ev) in events {
        if at < last {
            return Err(TraceError::semantic(format!(
                "trace events must be in timestamp order (event at {at} after {last})"
            )));
        }
        last = at;
        match ev {
            ClientEvent::Arrive { key, job } => match index.get(key.as_str()) {
                Some(&i) => {
                    // Timestamps are non-decreasing, so a closed window
                    // ended at or before `at`.
                    let windows = &mut clients[i].windows;
                    if windows.last().expect("window").until.is_none() {
                        return Err(TraceError::semantic(format!(
                            "client `{key}` arrives while attached"
                        )));
                    }
                    windows.push(ActivityWindow::new(at, None));
                }
                None => {
                    index.insert(key, clients.len());
                    clients.push(TraceClient {
                        key,
                        job,
                        windows: vec![ActivityWindow::new(at, None)],
                    });
                }
            },
            ClientEvent::Depart { key } => {
                let Some(&i) = index.get(key.as_str()) else {
                    return Err(TraceError::semantic(format!(
                        "depart for unknown client `{key}`"
                    )));
                };
                let w = clients[i].windows.last_mut().expect("window");
                if w.until.is_some() {
                    return Err(TraceError::semantic(format!(
                        "client `{key}` departs while detached"
                    )));
                }
                if w.from >= at {
                    return Err(TraceError::semantic(format!(
                        "client `{key}` departs at or before its arrival"
                    )));
                }
                w.until = Some(at);
            }
        }
    }
    Ok(clients)
}

/// The jobs a harness event stream adds: each compiled client's first job
/// under its key, with the stream's windows as its schedule.
pub(crate) fn trace_jobs(events: &[(SimTime, SessionEvent)]) -> Result<Vec<JobSpec>, TraceError> {
    let clients = compile_trace(events.iter().map(|(at, ev)| (*at, ev)))?;
    Ok(clients
        .into_iter()
        .map(|c| JobSpec {
            windows: c.windows,
            client_key: Some(c.key.to_string()),
            ..c.job.clone()
        })
        .collect())
}

/// Harness parameters.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Simulated run length.
    pub duration: SimSpan,
    /// Metrics (latencies, throughput) only count events after this offset,
    /// excluding Tally's transparent-profiling ramp-up as the paper does.
    pub warmup: SimSpan,
    /// Engine RNG seed (duration jitter).
    pub seed: u64,
    /// Multiplicative kernel-duration jitter in `[0, 1)`.
    pub jitter: f64,
    /// Record per-event timelines (request arrival/latency pairs and op
    /// completion instants) in the [`ClientReport`]s — needed by
    /// time-series figures, off by default to keep reports small.
    pub record_timelines: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            duration: SimSpan::from_secs(20),
            warmup: SimSpan::from_secs(2),
            seed: 1,
            jitter: 0.0,
            record_timelines: false,
        }
    }
}

pub(crate) struct Client {
    spec: JobSpec,
    attached: bool,
    /// Index into `spec.windows` of the window currently open (when
    /// attached) or the next one to open (when detached). Equal to
    /// `spec.windows.len()` once the schedule is exhausted.
    window_idx: usize,
    /// Times this client has attached (initial attach, every scheduled
    /// re-attach, and cross-device migration reconnects).
    attachments: u64,
    /// Slot vacated by a cross-device migration: the client state moved to
    /// another session and this placeholder only keeps [`ClientId`]s stable.
    migrated_away: bool,
    stub: Option<ClientStub>,
    op_idx: usize,
    waiting_kernel: bool,
    gap_until: Option<SimTime>,
    next_arrival: usize,
    queue: VecDeque<SimTime>,
    active_request: Option<SimTime>,
    kernels: u64,
    requests: u64,
    iterations: u64,
    ops_post_warmup: u64,
    requests_post_warmup: u64,
    latency: LatencyRecorder,
    record_timelines: bool,
    timed_latencies: Vec<(SimTime, SimSpan)>,
    op_times: Vec<SimTime>,
    /// Whether the session has observers (or an admission policy): when
    /// set, completed requests are buffered in `fresh_requests` for the
    /// observation stream and shed arrivals in `fresh_sheds`.
    observe: bool,
    fresh_requests: Vec<(SimTime, SimSpan)>,
    fresh_sheds: Vec<SimTime>,
    /// Shed arrival instants, kept when `record_timelines` is set so
    /// [`ClientReport::timed_sheds`] can drive per-window shed rates.
    timed_sheds: Vec<SimTime>,
    /// Best-effort requests rejected by the admission policy.
    shed: u64,
}

impl Client {
    fn new(spec: JobSpec) -> Self {
        Client {
            spec,
            attached: false,
            window_idx: 0,
            attachments: 0,
            migrated_away: false,
            stub: None,
            op_idx: 0,
            waiting_kernel: false,
            gap_until: None,
            next_arrival: 0,
            queue: VecDeque::new(),
            active_request: None,
            kernels: 0,
            requests: 0,
            iterations: 0,
            ops_post_warmup: 0,
            requests_post_warmup: 0,
            latency: LatencyRecorder::new(),
            record_timelines: false,
            timed_latencies: Vec::new(),
            op_times: Vec::new(),
            observe: false,
            fresh_requests: Vec::new(),
            fresh_sheds: Vec::new(),
            timed_sheds: Vec::new(),
            shed: 0,
        }
    }

    fn ops(&self) -> &[WorkloadOp] {
        match &self.spec.kind {
            JobKind::Training { iteration } => iteration,
            JobKind::Inference { request, .. } => request,
        }
    }

    /// The arrival instant of the next request, if any remain.
    fn next_arrival_time(&self) -> Option<SimTime> {
        match &self.spec.kind {
            JobKind::Training { .. } => None,
            JobKind::Inference { arrivals, .. } => arrivals.get(self.next_arrival).copied(),
        }
    }

    /// Accepts due arrivals (consulting the admission policy for
    /// best-effort requests) and releases an expired CPU gap.
    fn tick(
        &mut self,
        now: SimTime,
        mut admission: Option<&mut (dyn AdmissionPolicy + 'static)>,
        id: ClientId,
    ) {
        let gate = !self.spec.priority.is_high();
        if let JobKind::Inference { arrivals, .. } = &self.spec.kind {
            while let Some(&arrival) = arrivals.get(self.next_arrival).filter(|&&t| t <= now) {
                self.next_arrival += 1;
                let verdict = match admission.as_deref_mut() {
                    Some(policy) if gate => policy.admit(now, id, self.queue.len()),
                    _ => AdmissionVerdict::Admit,
                };
                if verdict == AdmissionVerdict::Admit {
                    self.queue.push_back(arrival);
                    continue;
                }
                self.shed += 1;
                if self.observe {
                    self.fresh_sheds.push(arrival);
                }
                if self.record_timelines {
                    self.timed_sheds.push(arrival);
                }
            }
        }
        if self.gap_until.is_some_and(|t| t <= now) {
            self.gap_until = None;
        }
    }

    /// Advances the program as far as possible at `now`; returns a kernel
    /// to hand to the system if one became ready.
    fn advance(&mut self, now: SimTime, warmup: SimTime) -> Option<Arc<KernelDesc>> {
        if self.waiting_kernel || self.gap_until.is_some() {
            return None;
        }
        loop {
            let is_inference = matches!(self.spec.kind, JobKind::Inference { .. });
            if is_inference && self.active_request.is_none() {
                match self.queue.pop_front() {
                    Some(arrival) => {
                        self.active_request = Some(arrival);
                        self.op_idx = 0;
                    }
                    None => return None,
                }
            }
            let ops_len = self.ops().len();
            if self.op_idx >= ops_len {
                // Finished an iteration or request.
                if let Some(arrival) = self.active_request.take() {
                    self.requests += 1;
                    if self.observe {
                        self.fresh_requests
                            .push((arrival, now.saturating_since(arrival)));
                    }
                    if self.record_timelines {
                        self.timed_latencies
                            .push((arrival, now.saturating_since(arrival)));
                    }
                    if arrival >= warmup {
                        self.requests_post_warmup += 1;
                        self.latency.record(now.saturating_since(arrival));
                    }
                } else {
                    self.iterations += 1;
                }
                self.op_idx = 0;
                continue;
            }
            match self.ops()[self.op_idx].clone() {
                WorkloadOp::Kernel(k) => {
                    self.waiting_kernel = true;
                    return Some(k);
                }
                WorkloadOp::CpuGap(g) => {
                    self.finish_op(now, warmup);
                    self.gap_until = Some(now + g);
                    return None;
                }
            }
        }
    }

    fn finish_op(&mut self, now: SimTime, warmup: SimTime) {
        self.op_idx += 1;
        if self.record_timelines {
            self.op_times.push(now);
        }
        if now >= warmup {
            self.ops_post_warmup += 1;
        }
    }

    /// The window currently open (when attached) or the next one to open;
    /// `None` once the schedule is exhausted.
    fn window(&self) -> Option<ActivityWindow> {
        self.spec.windows.get(self.window_idx).copied()
    }

    /// Whether this client will never issue work again: detached with no
    /// window left to open (or vacated by migration).
    fn retired(&self) -> bool {
        self.migrated_away || (!self.attached && self.window_idx >= self.spec.windows.len())
    }

    /// Post-warmup span during which this client was (or could have been)
    /// attached — the union of its activity windows, clipped to
    /// `[warmup, end)` — which its throughput is normalized over.
    fn measured_span(&self, warmup: SimTime, end: SimTime) -> SimSpan {
        self.spec
            .windows
            .iter()
            .map(|w| {
                let from = w.from.max(warmup);
                let until = w.until.map_or(end, |t| t.min(end));
                until.saturating_since(from)
            })
            .sum()
    }

    fn report(&self, warmup: SimTime, end: SimTime) -> ClientReport {
        let secs = self.measured_span(warmup, end).as_secs_f64().max(1e-9);
        let throughput = match &self.spec.kind {
            JobKind::Training { iteration } => {
                self.ops_post_warmup as f64 / iteration.len().max(1) as f64 / secs
            }
            JobKind::Inference { .. } => self.requests_post_warmup as f64 / secs,
        };
        ClientReport {
            name: self.spec.name.clone(),
            high_priority: self.spec.priority.is_high(),
            requests: self.requests,
            iterations: self.iterations,
            kernels: self.kernels,
            attachments: self.attachments,
            shed: self.shed,
            latency: self.latency.clone(),
            throughput,
            intercept: self
                .stub
                .as_ref()
                .map(ClientStub::stats)
                .unwrap_or_default(),
            timed_latencies: self.timed_latencies.clone(),
            timed_sheds: self.timed_sheds.clone(),
            op_times: self.op_times.clone(),
        }
    }
}

enum SystemSlot<'s> {
    Borrowed(&'s mut dyn SharingSystem),
    Owned(Box<dyn SharingSystem>),
}

impl SystemSlot<'_> {
    fn get(&self) -> &dyn SharingSystem {
        match self {
            SystemSlot::Borrowed(s) => &**s,
            SystemSlot::Owned(b) => b.as_ref(),
        }
    }

    fn get_mut(&mut self) -> &mut dyn SharingSystem {
        match self {
            SystemSlot::Borrowed(s) => &mut **s,
            SystemSlot::Owned(b) => b.as_mut(),
        }
    }
}

/// A co-location session: the GPU, a sharing system, and a set of clients
/// that attach and detach over the run.
///
/// Build with [`Colocation::on`], add clients, pick a system, then
/// [`Colocation::run`]:
///
/// ```
/// use std::sync::Arc;
/// use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
/// use tally_gpu::{GpuSpec, KernelDesc, SimSpan, SimTime};
///
/// let k = KernelDesc::builder("req")
///     .grid(64).block(128)
///     .block_cost(SimSpan::from_micros(100))
///     .build_arc();
/// let arrivals = (0..100).map(|i| SimTime::from_millis(10 * i)).collect();
/// let job = JobSpec::inference("svc", vec![WorkloadOp::Kernel(k)], arrivals);
/// let report = Colocation::on(GpuSpec::a100())
///     .client(job)
///     .config(HarnessConfig {
///         duration: SimSpan::from_secs(2),
///         warmup: SimSpan::ZERO,
///         ..Default::default()
///     })
///     .run();
/// assert_eq!(report.clients[0].requests, 100);
/// ```
///
/// The system defaults to [`Passthrough`] (the *Ideal* configuration);
/// use [`Colocation::system`] to run a borrowed system you can inspect
/// after the run, or [`Colocation::system_boxed`] for a one-shot boxed one.
/// Use [`Colocation::transport`] to put every client behind the §4.3
/// interception stub.
pub struct Colocation<'s> {
    spec: GpuSpec,
    jobs: Vec<JobSpec>,
    system: Option<SystemSlot<'s>>,
    cfg: HarnessConfig,
    /// `None` runs clients natively (the *Ideal* configuration).
    transport: Option<Transport>,
    sync_observers: Vec<SharedSyncObserver>,
    admission: Option<Box<dyn AdmissionPolicy>>,
}

impl fmt::Debug for Colocation<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Colocation")
            .field("spec", &self.spec)
            .field("jobs", &self.jobs)
            .field("cfg", &self.cfg)
            .field("transport", &self.transport)
            .finish_non_exhaustive()
    }
}

impl<'s> Colocation<'s> {
    /// Starts a session on a GPU described by `spec`.
    pub fn on(spec: GpuSpec) -> Self {
        Colocation {
            spec,
            jobs: Vec::new(),
            system: None,
            cfg: HarnessConfig::default(),
            transport: None,
            sync_observers: Vec::new(),
            admission: None,
        }
    }

    /// Adds one client. Client ids are assigned in insertion order: the
    /// `i`-th added job is `ClientId(i)`.
    pub fn client(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// Adds several clients, in order.
    pub fn clients(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// Adds the clients described by a time-ordered arrive/depart event
    /// stream: each distinct key becomes one client (in first-arrival
    /// order, after any explicitly added clients) whose activity schedule
    /// is exactly the trace's arrive/depart windows, so the session
    /// attaches, detaches, and re-attaches it as simulated time crosses
    /// each event. Equivalent to adding the same clients with hand-built
    /// window schedules — byte for byte.
    ///
    /// Returns a [`TraceError`] on an invalid stream, as
    /// [`compile_trace`] words it.
    pub fn trace(
        mut self,
        events: impl IntoIterator<Item = (SimTime, SessionEvent)>,
    ) -> Result<Self, TraceError> {
        let events: Vec<(SimTime, SessionEvent)> = events.into_iter().collect();
        self.jobs.extend(trace_jobs(&events)?);
        Ok(self)
    }

    /// Registers an observer for the session's typed event stream (see
    /// [`SessionObserver`](crate::events::SessionObserver)): lifecycle
    /// edges, request completions, kernel dispatch/finish, and engine
    /// counter samples, delivered in batches during the run and in full
    /// before [`Colocation::run`] returns. The handle is shared
    /// ([`SharedSyncObserver`]) — keep a clone to read the observer's
    /// state back after the run. May be called
    /// several times; observers are notified in registration order.
    pub fn sync_observer(mut self, observer: SharedSyncObserver) -> Self {
        self.sync_observers.push(observer);
        self
    }

    /// Installs an [admission policy](crate::admission::AdmissionPolicy)
    /// that gates every *best-effort* request before it enters its
    /// client's queue: shed requests never run. High-priority requests
    /// are never gated. The policy receives the session's full
    /// observation stream.
    pub fn admission(mut self, policy: Box<dyn AdmissionPolicy>) -> Self {
        self.admission = Some(policy);
        self
    }

    /// Runs under `system`, borrowed — inspect it after the run (profiler
    /// counters, AIMD share, …).
    pub fn system(mut self, system: &'s mut dyn SharingSystem) -> Self {
        self.system = Some(SystemSlot::Borrowed(system));
        self
    }

    /// Runs under a boxed system owned (and dropped) by the session.
    pub fn system_boxed(mut self, system: Box<dyn SharingSystem>) -> Self {
        self.system = Some(SystemSlot::Owned(system));
        self
    }

    /// Sets the harness parameters (duration, warmup, seed, …).
    pub fn config(mut self, cfg: HarnessConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Puts every client behind the §4.3 interception stub over
    /// `transport`: kernel launches pay the stub's per-call costs before
    /// reaching the system, and per-client
    /// [`InterceptStats`](crate::api::InterceptStats) appear in the
    /// report.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Executes the session and returns the per-client reports.
    ///
    /// # Panics
    ///
    /// Panics if no client was added, or if the configured warmup is not
    /// shorter than the duration.
    pub fn run(self) -> RunReport {
        assert!(!self.jobs.is_empty(), "at least one client required");
        let mut session = self.into_session();
        session.run_to_end();
        session.into_report()
    }

    /// Converts the builder into a steppable [`Session`] without running
    /// it — the entry point for external drivers (e.g. the multi-GPU
    /// [`Cluster`](crate::cluster::Cluster), which advances many sessions
    /// in lockstep on a shared clock).
    ///
    /// # Panics
    ///
    /// Panics if the configured warmup is not shorter than the duration.
    pub fn into_session(self) -> Session<'s> {
        self.into_device_session(0, None)
    }

    /// [`Colocation::into_session`] for device `device` of a fleet, whose
    /// observations carry that index and also feed `monitor`.
    pub(crate) fn into_device_session(
        self,
        device: usize,
        monitor: Option<LoadMonitor>,
    ) -> Session<'s> {
        let Colocation {
            spec,
            jobs,
            system,
            cfg,
            transport,
            sync_observers,
            admission,
        } = self;
        let system = system.unwrap_or_else(|| SystemSlot::Owned(Box::new(Passthrough::new())));
        let sinks = Sinks {
            device,
            admission,
            monitor,
            observers: sync_observers,
            ..Sinks::default()
        };
        Session::new(&spec, jobs, system, &cfg, transport, sinks)
    }
}

/// A live co-location session that can be driven one instant at a time.
///
/// [`Colocation::run`] is a loop over this type's three stepping
/// primitives, and external drivers use them directly:
///
/// 1. [`Session::settle`] — bring the current instant to a fixed point
///    (deliver completions, process lifecycle edges, advance client
///    programs, let the system poll);
/// 2. [`Session::next_wake`] — the next instant the session or its system
///    has work (never earlier than now); engine-internal events do not
///    count;
/// 3. [`Session::advance_to`] — move simulated time forward through the
///    engine's events, stopping early at the first notification, which
///    it hands to the system, in one engine call.
///
/// Keeping several sessions in lockstep means settling all of them,
/// advancing every engine to the *minimum* of their wake instants, and
/// repeating. The multi-GPU [`Cluster`](crate::cluster::Cluster) goes one
/// step further: between its barriers it advances sessions on worker
/// threads (a session is `Send`, checked at compile time below), and with
/// more than one worker it holds each session's observations until the
/// barrier and delivers them in device order.
pub struct Session<'s> {
    engine: Engine,
    metas: Vec<ClientMeta>,
    // Every client ever added, indexed by `ClientId`; retired clients and
    // migration tombstones keep their slot. `next_wake` is a scan over
    // these records and `in_transit`.
    clients: Vec<Client>,
    system: SystemSlot<'s>,
    end: SimTime,
    warmup: SimTime,
    duration: SimSpan,
    record_timelines: bool,
    // The interception stub's transport; `None` runs clients natively.
    transport: Option<Transport>,
    // Completion signals awaiting the next settle pass. Every `Ctx` the
    // session builds borrows this list, so systems signal straight into it.
    pending_completions: Vec<ClientId>,
    // The engine's notification buffer, drained into the system by every
    // `advance_to` and reused.
    notes: Vec<Notification>,
    // The `(instant, busy_thread_ns)` records of the engine instants an
    // `advance_to` ran through, replayed as samples and reused.
    instants: Vec<(SimTime, u128)>,
    // Kernels held in the interception layer until their stub cost
    // elapses, with the instant each reaches the system. `next_wake`
    // scans them along with the clients.
    in_transit: Vec<(SimTime, ClientId, Arc<KernelDesc>)>,
    // Cross-device migrations into and out of this session.
    migrations_in: u64,
    migrations_out: u64,
    // Observation plumbing (which also keeps the work counters): the
    // consumers of the event stream, the instant of the last engine
    // counter sample, and the busy integral of the last sample the
    // monitor and observers received.
    sinks: Sinks,
    last_sample: Option<SimTime>,
    last_busy: Option<u128>,
}

/// Deterministic counts of the work a [`Session`]'s stepping loop has
/// done, read through [`Session::work`]. They measure the simulator, not
/// the simulated system: only a cluster's
/// [`HostStats`](crate::metrics::HostStats) sums `notifications` and
/// `delivered`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct SessionWork {
    /// Fixed-point passes run by [`Session::settle`] (and the cluster's
    /// per-barrier settles).
    pub settle_passes: u64,
    /// [`Engine::advance`] calls made by [`Session::advance_to`].
    pub engine_advances: u64,
    /// Engine→system notifications handed to the system.
    pub notifications: u64,
    /// Observations handed to the load monitor or the observers.
    pub delivered: u64,
    /// Times the session took its observers' locks to hand them a batch
    /// of queued observations.
    pub observer_batches: u64,
}

/// Queued observations at which [`Session::run_until`] delivers a batch
/// to the observers mid-run: large enough that taking each observer's
/// lock is rare next to the work of folding the batch, small enough that
/// the queue stays a few tens of KB however far apart the barriers are.
const OBSERVER_BATCH: usize = 128;

/// Where a session's observations go. The admission policy and the
/// cluster's load monitor consume each one as it is emitted; observers
/// receive them in order from `buf` when the session delivers: once
/// [`OBSERVER_BATCH`] are queued during a run, and always before
/// [`Session::settle`] or [`Session::run_until`] returns (an ordered
/// cluster run waits for the barrier instead).
#[derive(Default)]
struct Sinks {
    // The device index stamped on every observation.
    device: usize,
    // The admission policy gating best-effort request intake.
    admission: Option<Box<dyn AdmissionPolicy>>,
    // The cluster's per-device load monitor, read on the driving thread
    // at barriers.
    monitor: Option<LoadMonitor>,
    observers: Vec<SharedSyncObserver>,
    // Observations awaiting delivery to `observers`.
    buf: Vec<(SimTime, Observation)>,
    // The session's work counters, kept here because `emit` counts
    // `delivered`.
    work: SessionWork,
}

impl Sinks {
    /// Whether anyone consumes observations: a session with no consumer
    /// never constructs one.
    fn active(&self) -> bool {
        self.admission.is_some() || self.monitor.is_some() || !self.observers.is_empty()
    }

    /// Constructs one observation (only when someone listens), feeds it to
    /// the admission policy and the monitor, and queues it for the
    /// observers.
    fn emit(&mut self, at: SimTime, event: impl FnOnce() -> Observation) {
        if !self.active() {
            return;
        }
        let ev = event();
        self.consume(at, &ev);
        if self.monitor.is_some() || !self.observers.is_empty() {
            self.work.delivered += 1;
        }
        if !self.observers.is_empty() {
            self.buf.push((at, ev));
        }
    }

    /// Emits an engine counter sample: to every consumer when `fold` is
    /// set, otherwise to the admission policy only (see
    /// [`Session::sample_at`]).
    fn sample(&mut self, at: SimTime, busy_thread_ns: u128, total_thread_slots: u64, fold: bool) {
        let ev = Observation::EngineSample {
            busy_thread_ns,
            total_thread_slots,
        };
        if fold {
            self.emit(at, || ev);
        } else if let Some(p) = self.admission.as_deref_mut() {
            p.on_event(at, self.device, &ev);
        }
    }

    /// Feeds the admission policy, then the monitor.
    fn consume(&mut self, at: SimTime, ev: &Observation) {
        if let Some(p) = self.admission.as_deref_mut() {
            p.on_event(at, self.device, ev);
        }
        if let Some(m) = self.monitor.as_mut() {
            m.on_event(at, self.device, ev);
        }
    }

    /// Delivers the queued observations to every observer, in order,
    /// taking each observer's lock once.
    fn deliver(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        self.work.observer_batches += 1;
        for observer in &self.observers {
            let mut sink = observer.lock().expect("sync observer poisoned");
            for (at, ev) in &self.buf {
                sink.on_event(*at, self.device, ev);
            }
        }
        self.buf.clear();
    }
}

// Sessions must be free to cross thread boundaries: the cluster advances
// them on worker threads. (`fn` taking it by value proves `Send`
// structurally; a non-`Send` field would fail to compile here.)
#[allow(dead_code)]
fn _session_is_send(session: Session<'static>) -> impl Send {
    session
}

impl fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("now", &self.engine.now())
            .field("end", &self.end)
            .field("clients", &self.clients.len())
            .finish_non_exhaustive()
    }
}

impl<'s> Session<'s> {
    fn new(
        spec: &GpuSpec,
        jobs: Vec<JobSpec>,
        system: SystemSlot<'s>,
        cfg: &HarnessConfig,
        transport: Option<Transport>,
        sinks: Sinks,
    ) -> Self {
        assert!(
            cfg.warmup < cfg.duration,
            "warmup must be shorter than the run"
        );
        let mut engine = Engine::with_seed(spec.clone(), cfg.seed);
        if cfg.jitter > 0.0 {
            engine.set_jitter(cfg.jitter);
        }
        let metas: Vec<ClientMeta> = jobs.iter().map(meta_of).collect();
        let mut clients: Vec<Client> = jobs.into_iter().map(Client::new).collect();
        for c in &mut clients {
            c.record_timelines = cfg.record_timelines;
            // Clients buffer the request-level detail observations need
            // once anyone consumes the stream.
            c.observe = sinks.active();
            c.stub = transport.map(ClientStub::new);
        }
        Session {
            engine,
            metas,
            clients,
            system,
            end: SimTime::ZERO + cfg.duration,
            warmup: SimTime::ZERO + cfg.warmup,
            duration: cfg.duration,
            record_timelines: cfg.record_timelines,
            transport,
            pending_completions: Vec::new(),
            notes: Vec::new(),
            instants: Vec::new(),
            in_transit: Vec::new(),
            migrations_in: 0,
            migrations_out: 0,
            sinks,
            last_sample: None,
            last_busy: None,
        }
    }

    /// The installed load monitor, if any.
    pub(crate) fn monitor(&self) -> Option<&LoadMonitor> {
        self.sinks.monitor.as_ref()
    }

    /// Hands a migration off this device, which the cluster produces
    /// itself, to the session's admission policy and load monitor, stamped
    /// with this session's device index. Observers receive it from the
    /// cluster.
    pub(crate) fn observe_migration(&mut self, at: SimTime, event: &Observation) {
        self.sinks.consume(at, event);
    }

    /// Current simulated time of this session's engine.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Whether simulated time has reached the configured duration.
    pub fn is_done(&self) -> bool {
        self.engine.now() >= self.end
    }

    /// Name of the sharing system driving this session.
    pub fn system_name(&self) -> &str {
        self.system.get().name()
    }

    /// Settles the current instant to a fixed point (see the module docs
    /// for the settling discipline). Observations produced while settling
    /// (lifecycle edges, kernel dispatch/finish, request completions, an
    /// engine counter sample when time advanced and the busy integral
    /// moved) are delivered to the registered observers before this
    /// returns, after the engine samples the preceding
    /// [`Session::advance_to`] emitted, in one batch. (A session running
    /// itself, as [`Session::run_to_end`] does, delivers in larger batches
    /// of the same stream.)
    pub fn settle(&mut self) {
        self.settle_buffered();
        self.sinks.deliver();
    }

    /// [`Session::settle`] without the observer delivery: the
    /// observations stay queued for the next delivery.
    fn settle_buffered(&mut self) {
        let sinks = &mut self.sinks;
        let system = self.system.get_mut();
        loop {
            sinks.work.settle_passes += 1;
            let now = self.engine.now();
            // Whether this pass left work due at this instant: a lifecycle
            // edge (another may follow at once), a zero-cost launch or a
            // zero-length CPU gap. Completions, dispatches and issued
            // kernels are consumed later in the same pass, so they need
            // no second one.
            let mut again = false;
            for c in self.pending_completions.drain(..) {
                let client = &mut self.clients[c.0 as usize];
                if !client.attached {
                    continue; // completion signalled for a detached client
                }
                client.waiting_kernel = false;
                client.kernels += 1;
                client.finish_op(now, self.warmup);
                sinks.emit(now, || Observation::KernelFinished { client: c });
            }
            let mut ctx = Ctx::new(&mut self.engine, &self.metas, &mut self.pending_completions);

            // Client lifecycle edges: attach windows that opened, detach
            // windows that closed. A client with several scheduled windows
            // re-attaches through the same hooks, keeping its accumulated
            // metrics; each pass takes at most one edge per client, and the
            // fixed-point loop delivers any immediately-following edge.
            for (i, client) in self.clients.iter_mut().enumerate() {
                if client.migrated_away {
                    continue;
                }
                if !client.attached && client.window().is_some_and(|w| w.from <= now) {
                    client.attached = true;
                    client.attachments += 1;
                    system.on_client_attach(&mut ctx, ClientId(i as u32));
                    sinks.emit(now, || Observation::ClientAttached {
                        client: ClientId(i as u32),
                        key: client.spec.key().to_string(),
                        priority: client.spec.priority,
                        descriptor: client.spec.descriptor.clone(),
                        reattach: client.attachments > 1,
                    });
                    if let Some(stub) = client.stub.as_mut() {
                        // The API startup burst (fatbin registration,
                        // device discovery) delays the first launch —
                        // re-attaches pay it again.
                        let cost = stub.attach_burst();
                        if !cost.is_zero() {
                            client.gap_until = Some(now + cost);
                        }
                    }
                    again = true;
                }
                if client.attached
                    && client
                        .window()
                        .and_then(|w| w.until)
                        .is_some_and(|t| t <= now)
                {
                    client.attached = false;
                    client.window_idx += 1;
                    client.waiting_kernel = false;
                    client.gap_until = None;
                    system.on_client_detach(&mut ctx, ClientId(i as u32));
                    sinks.emit(now, || Observation::ClientDetached {
                        client: ClientId(i as u32),
                        key: client.spec.key().to_string(),
                    });
                    again = true;
                }
            }
            // Launches of detached clients are dropped; those whose
            // interception cost has elapsed move to the system, in list
            // order. A system never changes which clients are attached,
            // so handing launches over mid-walk drops the same ones.
            let clients = &self.clients;
            let due = self.in_transit.extract_if(.., |&mut (t, c, _)| {
                !clients[c.0 as usize].attached || t <= now
            });
            for (_, c, kernel) in due {
                if !clients[c.0 as usize].attached {
                    continue;
                }
                sinks.emit(now, || Observation::KernelDispatched {
                    client: c,
                    kernel: Arc::clone(&kernel),
                });
                system.on_kernel_ready(&mut ctx, c, kernel);
            }

            for (i, client) in self.clients.iter_mut().enumerate() {
                if !client.attached {
                    continue;
                }
                let id = ClientId(i as u32);
                client.tick(now, sinks.admission.as_deref_mut(), id);
                let kernel = client.advance(now, self.warmup);
                for (arrival, latency) in client.fresh_requests.drain(..) {
                    sinks.emit(now, || Observation::RequestCompleted {
                        client: id,
                        arrival,
                        latency,
                    });
                }
                for arrival in client.fresh_sheds.drain(..) {
                    sinks.emit(now, || Observation::RequestShed {
                        client: id,
                        arrival,
                    });
                }
                // A zero-length CPU gap is due at once.
                again |= client.gap_until.is_some_and(|t| t <= now);
                if let Some(kernel) = kernel {
                    match client.stub.as_mut() {
                        Some(stub) => {
                            let cost = stub.launch_burst();
                            // A zero-cost launch reaches the system in the
                            // next pass.
                            again |= cost.is_zero();
                            self.in_transit.push((now + cost, id, kernel));
                        }
                        None => {
                            sinks.emit(now, || Observation::KernelDispatched {
                                client: id,
                                kernel: Arc::clone(&kernel),
                            });
                            system.on_kernel_ready(&mut ctx, id, kernel)
                        }
                    }
                }
            }
            system.poll(&mut ctx);
            if !again && self.pending_completions.is_empty() {
                break;
            }
        }
        self.sample();
    }

    /// Emits an engine counter sample for the current instant.
    fn sample(&mut self) {
        if self.sinks.active() {
            self.sample_at(self.engine.now(), self.engine.busy_thread_ns());
        }
    }

    /// Emits the engine counter sample of instant `at`, at most one per
    /// instant. The admission policy receives every sample. The monitor
    /// and the observers receive one only when the busy integral moved
    /// since the last they received, or at the end of the run: each of
    /// them keeps only the latest busy value, so a repeat changes none of
    /// their folds, while [`SloGuard`](crate::admission::SloGuard) steps
    /// its controller on every observation and the Chrome trace closes
    /// open spans at a device's last observed instant.
    fn sample_at(&mut self, at: SimTime, busy: u128) {
        if self.last_sample == Some(at) {
            return;
        }
        self.last_sample = Some(at);
        let fold = self.last_busy != Some(busy) || at >= self.end;
        if fold {
            self.last_busy = Some(busy);
        }
        let slots = self.engine.spec().total_thread_slots();
        self.sinks.sample(at, busy, slots, fold);
    }

    /// Delivers the queued observations to the observers, in order. A
    /// cluster advancing on several worker threads calls this after every
    /// barrier, in device-index order, so observer streams are identical
    /// no matter how many threads advanced the sessions. (Otherwise the
    /// session delivered before returning and this is a no-op.)
    pub(crate) fn deliver_events(&mut self) {
        self.sinks.deliver();
    }

    /// The next instant the session or its system has work: a client
    /// lifecycle edge, a request arrival, a CPU gap or interception cost
    /// expiring, or a system timer — capped at the end of the run.
    ///
    /// Engine events are not wake-ups: [`Session::advance_to`] runs them
    /// and stops early at the first notification, the only engine output
    /// a system acts on.
    ///
    /// A scan over the session's clients (retired ones and migration
    /// tombstones contribute nothing) and in-transit launches. Sessions
    /// hold a handful of clients, so the scan costs less than keeping a
    /// timer queue in sync with every settle. Asks the system for its
    /// timer exactly once.
    pub fn next_wake(&self) -> SimTime {
        let mut wake = self.end;
        for client in &self.clients {
            if client.retired() {
                continue;
            }
            if !client.attached {
                if let Some(w) = client.window() {
                    wake = wake.min(w.from);
                }
                continue;
            }
            if let Some(t) = client.window().and_then(|w| w.until) {
                wake = wake.min(t);
            }
            if let Some(t) = client.next_arrival_time() {
                wake = wake.min(t);
            }
            if let Some(t) = client.gap_until {
                wake = wake.min(t);
            }
        }
        for &(t, _, _) in &self.in_transit {
            wake = wake.min(t);
        }
        if let Some(t) = self.system.get().next_timer() {
            wake = wake.min(t.max(self.engine.now()));
        }
        wake
    }

    /// Advances simulated time to at most `limit` in one engine call. It
    /// stops early at the first instant a notification fires and hands the
    /// notifications to the system. Every earlier instant holds only
    /// engine-internal events (launch arrivals, waves, PTB rounds).
    ///
    /// With a listener (an observer, admission policy or load monitor),
    /// the engine records the busy integral at each earlier instant it
    /// ran events at, and this emits the engine counter sample of each.
    /// Samples emitted here reach the observers with the next delivery.
    /// Follow with [`Session::settle`], which samples the instant it
    /// stops at.
    pub fn advance_to(&mut self, limit: SimTime) {
        self.sinks.work.engine_advances += 1;
        let step = if self.sinks.active() {
            let step = self
                .engine
                .advance_sampled(limit, &mut self.notes, &mut self.instants);
            let mut instants = std::mem::take(&mut self.instants);
            for &(at, busy) in &instants {
                self.sample_at(at, busy);
            }
            instants.clear();
            self.instants = instants;
            step
        } else {
            self.engine.advance(limit, &mut self.notes)
        };
        if let Step::Notified = step {
            self.sinks.work.notifications += self.notes.len() as u64;
            let system = self.system.get_mut();
            let mut ctx = Ctx::new(&mut self.engine, &self.metas, &mut self.pending_completions);
            for n in self.notes.drain(..) {
                system.on_notification(&mut ctx, &n);
            }
        }
    }

    /// Drives the session to the end of its configured duration. The
    /// observers receive the stream in batches as the run goes, in the
    /// order stepping by hand would deliver it, and all of it before this
    /// returns.
    pub fn run_to_end(&mut self) {
        self.run_until(self.end, false);
    }

    /// Advances the session to exactly `barrier` (settle → wake → advance,
    /// repeated). This is the per-worker step of the cluster's barrier
    /// loop: sessions are independent between barriers, so any number of
    /// them can run this concurrently. Observations reach the observers
    /// in batches of at least [`OBSERVER_BATCH`] and once more before
    /// this returns; with `ordered`, they stay queued for
    /// [`Session::deliver_events`] instead.
    pub(crate) fn run_until(&mut self, barrier: SimTime, ordered: bool) {
        loop {
            self.settle_buffered();
            if !ordered && self.sinks.buf.len() >= OBSERVER_BATCH {
                self.sinks.deliver();
            }
            if self.engine.now() >= barrier {
                if !ordered {
                    self.sinks.deliver();
                }
                break;
            }
            let wake = self.next_wake().min(barrier);
            self.advance_to(wake);
        }
    }

    /// Consumes the session and produces the run report. Slots vacated by
    /// cross-device migration are omitted (the client reports from the
    /// session it migrated to).
    pub fn into_report(self) -> RunReport {
        RunReport {
            system: self.system_name().to_string(),
            duration: self.duration,
            clients: self
                .clients
                .iter()
                .filter(|c| !c.migrated_away)
                .map(|c| c.report(self.warmup, self.end))
                .collect(),
        }
    }

    /// The stepping work this session has done so far.
    pub fn work(&self) -> SessionWork {
        self.sinks.work
    }

    // ---- cluster-internal surface (crate-private) --------------------

    /// Currently attached. A client sitting in the gap between two
    /// scheduled windows (detached-by-schedule) reports inactive, which
    /// keeps it out of migration candidate sets and load snapshots.
    pub(crate) fn client_active(&self, i: usize) -> bool {
        self.clients[i].attached
    }

    /// The specs of the attached clients, in client order. A migration
    /// tombstone is never attached.
    pub(crate) fn active_specs(&self) -> impl Iterator<Item = &JobSpec> + '_ {
        self.clients.iter().filter(|c| c.attached).map(|c| &c.spec)
    }

    /// The specs counting toward a placement-load snapshot taken at `now`,
    /// in client order: attached clients, plus those admitted with a window
    /// opening at this instant (they attach in the next settle).
    pub(crate) fn loadable_specs(&self, now: SimTime) -> impl Iterator<Item = &JobSpec> + '_ {
        self.clients
            .iter()
            .filter(move |c| {
                !c.migrated_away && (c.attached || c.window().is_some_and(|w| w.from <= now))
            })
            .map(|c| &c.spec)
    }

    /// Migrations `(into, out of)` this session so far.
    pub(crate) fn migrations(&self) -> (u64, u64) {
        (self.migrations_in, self.migrations_out)
    }

    pub(crate) fn client_report_at(&self, i: usize) -> ClientReport {
        self.clients[i].report(self.warmup, self.end)
    }

    /// Removes client `i` from this session for migration: detaches it
    /// from the sharing system (preempting its in-flight work), drops its
    /// pending completions and in-transit launches, and leaves a tombstone
    /// so the session's remaining [`ClientId`]s stay valid. The returned
    /// state carries all accumulated metrics.
    pub(crate) fn extract_client(&mut self, i: usize) -> (ClientMeta, Client) {
        let id = ClientId(i as u32);
        if self.clients[i].attached {
            let mut ctx = Ctx::new(&mut self.engine, &self.metas, &mut self.pending_completions);
            self.system.get_mut().on_client_detach(&mut ctx, id);
        }
        self.pending_completions.retain(|&c| c != id);
        self.in_transit.retain(|&(_, c, _)| c != id);
        let mut tombstone = Client::new(JobSpec::training(
            self.clients[i].spec.name.clone(),
            Vec::new(),
        ));
        tombstone.window_idx = tombstone.spec.windows.len();
        tombstone.migrated_away = true;
        let mut client = std::mem::replace(&mut self.clients[i], tombstone);
        self.migrations_out += 1;
        // The kernel that was in flight (if any) was preempted with the
        // detach; the client re-issues it on the destination device.
        client.waiting_kernel = false;
        (self.metas[i].clone(), client)
    }

    /// Adds a migrated client to this session, re-attaching it to the
    /// sharing system (and paying the interception attach burst again when
    /// virtualized — migration is a reconnect). The client is additionally
    /// stalled for `stall` of state-transfer time (bytes over interconnect
    /// path bandwidth, resolved by the cluster's
    /// [`Topology`](crate::topology::Topology)) before it can advance.
    /// Returns its new id.
    pub(crate) fn inject_client(
        &mut self,
        meta: ClientMeta,
        mut client: Client,
        stall: SimSpan,
    ) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        self.metas.push(meta);
        let now = self.engine.now();
        if client.attached {
            let mut ctx = Ctx::new(&mut self.engine, &self.metas, &mut self.pending_completions);
            self.system.get_mut().on_client_attach(&mut ctx, id);
            client.attachments += 1;
            if let Some(stub) = client.stub.as_mut() {
                let cost = stub.attach_burst();
                if !cost.is_zero() {
                    // The reconnect burst runs concurrently with whatever
                    // CPU stall the client was already in: keep the later
                    // of the two so migration never shortens a gap.
                    let burst_end = now + cost;
                    client.gap_until =
                        Some(client.gap_until.map_or(burst_end, |g| g.max(burst_end)));
                }
            }
        }
        if !stall.is_zero() {
            // The state transfer runs concurrently with the reconnect
            // burst (DMA vs control plane): keep the later of the two so
            // the client never advances before its state has arrived.
            let transfer_end = now + stall;
            client.gap_until = Some(
                client
                    .gap_until
                    .map_or(transfer_end, |g| g.max(transfer_end)),
            );
        }
        client.record_timelines = self.record_timelines;
        client.observe = self.sinks.active();
        self.clients.push(client);
        self.migrations_in += 1;
        id
    }

    /// Admits a brand-new job into a running session (trace-driven client
    /// injection). The client starts detached; the normal lifecycle
    /// attaches it when its first window opens, which is never earlier
    /// than the current instant for a validated trace.
    pub(crate) fn admit_job(&mut self, job: JobSpec) -> ClientId {
        let id = ClientId(self.clients.len() as u32);
        self.metas.push(meta_of(&job));
        let mut client = Client::new(job);
        client.record_timelines = self.record_timelines;
        client.observe = self.sinks.active();
        client.stub = self.transport.map(ClientStub::new);
        self.clients.push(client);
        id
    }
}

/// Builds the [`ClientMeta`] the sharing system sees for a job.
fn meta_of(j: &JobSpec) -> ClientMeta {
    ClientMeta {
        name: j.name.clone(),
        priority: j.priority,
        client_key: j.client_key.clone(),
    }
}

/// Runs a single job alone under [`Passthrough`]
/// — the paper's *Ideal* configuration — and returns its report.
pub fn run_solo(spec: &GpuSpec, job: &JobSpec, cfg: &HarnessConfig) -> ClientReport {
    Colocation::on(spec.clone())
        .client(job.clone())
        .config(cfg.clone())
        .run()
        .clients
        .into_iter()
        .next()
        .expect("one client")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::InterceptStats;

    fn kernel(us: u64) -> Arc<KernelDesc> {
        KernelDesc::builder("k")
            .grid(16)
            .block(512)
            .block_cost(SimSpan::from_micros(us))
            .build_arc()
    }

    fn cfg(secs: u64) -> HarnessConfig {
        HarnessConfig {
            duration: SimSpan::from_secs(secs),
            warmup: SimSpan::ZERO,
            seed: 0,
            jitter: 0.0,
            record_timelines: false,
        }
    }

    fn run_one(job: JobSpec, cfg: &HarnessConfig) -> RunReport {
        Colocation::on(GpuSpec::tiny())
            .client(job)
            .config(cfg.clone())
            .run()
    }

    #[test]
    fn training_iterations_accumulate() {
        // Iteration = 1ms kernel + 1ms gap => ~500 iterations in 1s.
        let job = JobSpec::training(
            "train",
            vec![
                WorkloadOp::Kernel(kernel(1000)),
                WorkloadOp::CpuGap(SimSpan::from_millis(1)),
            ],
        );
        let report = run_one(job, &cfg(1));
        let c = &report.clients[0];
        assert!(
            (480..=500).contains(&c.iterations),
            "expected ~497 iterations, got {}",
            c.iterations
        );
        assert!((c.throughput - c.iterations as f64).abs() < 2.0);
    }

    #[test]
    fn inference_latency_measured_from_arrival() {
        // One 1ms kernel per request, arrivals every 10ms: no queueing.
        let arrivals: Vec<SimTime> = (0..50).map(|i| SimTime::from_millis(10 * i)).collect();
        let job = JobSpec::inference("svc", vec![WorkloadOp::Kernel(kernel(1000))], arrivals);
        let report = run_one(job, &cfg(1));
        let c = &report.clients[0];
        assert_eq!(c.requests, 50);
        let p99 = c.p99().expect("has latencies");
        // 4us launch overhead + 1ms kernel.
        assert_eq!(p99, SimSpan::from_micros(1004));
    }

    #[test]
    fn queued_requests_wait() {
        // Two requests arrive together; the second waits for the first.
        let arrivals = vec![SimTime::ZERO, SimTime::ZERO];
        let job = JobSpec::inference("svc", vec![WorkloadOp::Kernel(kernel(1000))], arrivals);
        let report = run_one(job, &cfg(1));
        let lat = report.clients[0].latency.samples();
        assert_eq!(lat.len(), 2);
        assert_eq!(lat[0], SimSpan::from_micros(1004));
        assert_eq!(lat[1], SimSpan::from_micros(2008));
    }

    #[test]
    fn warmup_excludes_early_samples() {
        let arrivals: Vec<SimTime> = (0..100).map(|i| SimTime::from_millis(10 * i)).collect();
        let job = JobSpec::inference("svc", vec![WorkloadOp::Kernel(kernel(1000))], arrivals);
        let mut c = cfg(1);
        c.warmup = SimSpan::from_millis(500);
        let report = run_one(job, &c);
        let client = &report.clients[0];
        assert_eq!(client.requests, 100, "all requests served");
        assert_eq!(
            client.latency.len(),
            50,
            "only post-warmup latencies recorded"
        );
        // Throughput normalized to the measured window.
        assert!((client.throughput - 100.0).abs() < 5.0);
    }

    #[test]
    fn two_clients_share_the_gpu() {
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(kernel(100))],
            (0..100).map(|i| SimTime::from_millis(10 * i)).collect(),
        );
        let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(500))]);
        let report = Colocation::on(GpuSpec::tiny())
            .client(hp)
            .client(be)
            .config(cfg(1))
            .run();
        assert_eq!(report.clients[0].requests, 100);
        assert!(report.clients[1].iterations > 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let mk = || {
            let hp = JobSpec::inference(
                "hp",
                vec![WorkloadOp::Kernel(kernel(100))],
                (0..100).map(|i| SimTime::from_millis(7 * i)).collect(),
            );
            let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(700))]);
            Colocation::on(GpuSpec::tiny())
                .client(hp)
                .client(be)
                .config(cfg(1))
                .run()
        };
        let a = mk();
        let b = mk();
        assert_eq!(
            a.clients[0].latency.samples(),
            b.clients[0].latency.samples()
        );
        assert_eq!(a.clients[1].iterations, b.clients[1].iterations);
    }

    #[test]
    fn solo_run_reports_single_client() {
        let job = JobSpec::training("solo", vec![WorkloadOp::Kernel(kernel(1000))]);
        let rep = run_solo(&GpuSpec::tiny(), &job, &cfg(1));
        assert_eq!(rep.name, "solo");
        assert!(
            rep.iterations > 900,
            "a 1ms kernel loops ~995x in 1s, got {}",
            rep.iterations
        );
    }

    #[test]
    fn state_bytes_defaults_to_zero_and_survives_builders() {
        let job = JobSpec::training("t", Vec::new());
        assert_eq!(job.state_bytes, 0);
        let sized = job
            .with_state_bytes(1 << 30)
            .with_client_key("t#0")
            .active_from(SimTime::from_millis(5));
        assert_eq!(sized.state_bytes, 1 << 30);
    }

    #[test]
    fn late_attach_defers_work_and_normalizes_throughput() {
        // Full-span trainer vs one attaching at 500ms: the late one does
        // roughly half the iterations but reports a comparable throughput
        // because its measured window is its active window.
        let full = JobSpec::training("full", vec![WorkloadOp::Kernel(kernel(1000))]);
        let late = JobSpec::training("late", vec![WorkloadOp::Kernel(kernel(1000))])
            .active_from(SimTime::from_millis(500));
        let full_rep = run_one(full, &cfg(1));
        let late_rep = run_one(late, &cfg(1));
        let (f, l) = (&full_rep.clients[0], &late_rep.clients[0]);
        assert!(
            l.iterations as f64 > 0.4 * f.iterations as f64
                && (l.iterations as f64) < 0.6 * f.iterations as f64,
            "late client should do ~half the work ({} vs {})",
            l.iterations,
            f.iterations
        );
        assert!(
            (l.throughput / f.throughput - 1.0).abs() < 0.05,
            "throughput normalizes over the active window ({} vs {})",
            l.throughput,
            f.throughput
        );
    }

    #[test]
    fn detach_stops_a_client_mid_run() {
        let short = JobSpec::training("short", vec![WorkloadOp::Kernel(kernel(1000))])
            .active_until(SimTime::from_millis(250));
        let report = run_one(short, &cfg(1));
        let c = &report.clients[0];
        assert!(
            (200..=260).contains(&c.iterations),
            "~250 iterations in a 250ms window, got {}",
            c.iterations
        );
    }

    #[test]
    fn arrivals_before_attach_queue_up() {
        // 10 requests all arrive at t=0, but the service attaches at 100ms:
        // every latency includes the 100ms attach wait.
        let arrivals = vec![SimTime::ZERO; 10];
        let job = JobSpec::inference("svc", vec![WorkloadOp::Kernel(kernel(1000))], arrivals)
            .active_from(SimTime::from_millis(100));
        let report = run_one(job, &cfg(1));
        let c = &report.clients[0];
        assert_eq!(c.requests, 10);
        assert!(
            c.latency
                .samples()
                .iter()
                .all(|&l| l >= SimSpan::from_millis(100)),
            "queued arrivals wait out the attach: {:?}",
            c.latency.samples()
        );
    }

    #[test]
    fn virtualized_session_records_intercept_stats() {
        let job = JobSpec::training("train", vec![WorkloadOp::Kernel(kernel(100))]);
        let native = run_one(job.clone(), &cfg(1));
        let virt = Colocation::on(GpuSpec::tiny())
            .client(job)
            .config(cfg(1))
            .transport(Transport::SharedMemory)
            .run();
        let (n, v) = (&native.clients[0], &virt.clients[0]);
        assert_eq!(
            n.intercept,
            InterceptStats::default(),
            "native runs have no stub"
        );
        assert!(v.intercept.forwarded > 0 && v.intercept.served_locally > 0);
        // Steady state: the overwhelming majority of calls stay local.
        assert!(
            v.intercept.local_fraction() >= 0.9,
            "local fraction {:.3}",
            v.intercept.local_fraction()
        );
        // The stub costs a few microseconds per launch, so the virtualized
        // run completes slightly fewer iterations — but only slightly.
        let ratio = v.iterations as f64 / n.iterations as f64;
        assert!(
            (0.95..1.0).contains(&ratio),
            "virtualization overhead should be ~1% ({} vs {} iters)",
            v.iterations,
            n.iterations
        );
    }

    #[test]
    fn re_attach_accumulates_across_windows() {
        // One client, two 250ms windows separated by a 250ms gap: it does
        // ~half the work of a full-span client, attaches twice, and
        // completes nothing inside the gap.
        let mut c = cfg(1);
        c.record_timelines = true;
        let job = JobSpec::training("re", vec![WorkloadOp::Kernel(kernel(1000))])
            .active_window(SimTime::ZERO, SimTime::from_millis(250))
            .also_active(SimTime::from_millis(500), Some(SimTime::from_millis(750)));
        let report = run_one(job, &c);
        let r = &report.clients[0];
        assert_eq!(r.attachments, 2, "one attach per scheduled window");
        assert!(
            (400..=520).contains(&r.iterations),
            "~500 iterations over two 250ms windows, got {}",
            r.iterations
        );
        assert!(
            r.op_times.iter().all(|&t| t <= SimTime::from_millis(250)
                || (t >= SimTime::from_millis(500) && t <= SimTime::from_millis(750))),
            "no work completes inside the inactive gap"
        );
        // Throughput normalizes over the union of the windows (500ms), so
        // it matches a full-span solo trainer's rate.
        let full = run_one(
            JobSpec::training("full", vec![WorkloadOp::Kernel(kernel(1000))]),
            &c,
        );
        let ratio = r.throughput / full.clients[0].throughput;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "windowed throughput normalizes over active span (ratio {ratio})"
        );
    }

    #[test]
    fn re_attach_resumes_inference_backlog() {
        // Arrivals keep coming while the service is detached; they queue
        // and are served after the re-attach, latency counted from arrival.
        let arrivals: Vec<SimTime> = (0..100).map(|i| SimTime::from_millis(10 * i)).collect();
        let job = JobSpec::inference("svc", vec![WorkloadOp::Kernel(kernel(1000))], arrivals)
            .active_window(SimTime::ZERO, SimTime::from_millis(300))
            .also_active(SimTime::from_millis(600), None);
        let report = run_one(job, &cfg(2));
        let r = &report.clients[0];
        assert_eq!(
            r.requests, 100,
            "backlogged arrivals served after re-attach"
        );
        assert_eq!(r.attachments, 2);
        // Requests arriving in the gap wait at least until the re-attach.
        let waited = r
            .latency
            .samples()
            .iter()
            .filter(|&&l| l >= SimSpan::from_millis(100))
            .count();
        assert!(waited >= 20, "gap arrivals waited out the detach: {waited}");
    }

    #[test]
    fn trace_events_match_hand_built_schedule() {
        let mk_job = || JobSpec::training("t", vec![WorkloadOp::Kernel(kernel(500))]);
        let events = vec![
            (
                SimTime::ZERO,
                SessionEvent::Arrive {
                    key: "t".into(),
                    job: mk_job(),
                },
            ),
            (
                SimTime::from_millis(200),
                SessionEvent::Depart { key: "t".into() },
            ),
            (
                SimTime::from_millis(400),
                SessionEvent::Arrive {
                    key: "t".into(),
                    job: mk_job(),
                },
            ),
        ];
        let via_trace = Colocation::on(GpuSpec::tiny())
            .trace(events)
            .expect("valid trace")
            .config(cfg(1))
            .run();
        let via_schedule = Colocation::on(GpuSpec::tiny())
            .client(
                mk_job()
                    .with_client_key("t")
                    .active_window(SimTime::ZERO, SimTime::from_millis(200))
                    .also_active(SimTime::from_millis(400), None),
            )
            .config(cfg(1))
            .run();
        assert_eq!(format!("{via_trace:?}"), format!("{via_schedule:?}"));
    }

    #[test]
    fn trace_rejects_double_arrival() {
        let job = JobSpec::training("t", vec![]);
        let err = trace_jobs(&[
            (
                SimTime::ZERO,
                SessionEvent::Arrive {
                    key: "t".into(),
                    job: job.clone(),
                },
            ),
            (
                SimTime::from_millis(1),
                SessionEvent::Arrive {
                    key: "t".into(),
                    job,
                },
            ),
        ])
        .expect_err("double arrival must be rejected");
        assert!(err.message.contains("arrives while attached"), "{err}");
    }

    #[test]
    fn trace_rejects_orphan_departure() {
        let err = trace_jobs(&[(
            SimTime::ZERO,
            SessionEvent::Depart {
                key: "ghost".into(),
            },
        )])
        .expect_err("orphan departure must be rejected");
        assert!(err.message.contains("unknown client"), "{err}");
    }

    #[test]
    fn trace_rejects_unordered_events() {
        let job = JobSpec::training("t", vec![]);
        let err = trace_jobs(&[
            (
                SimTime::from_millis(5),
                SessionEvent::Arrive {
                    key: "a".into(),
                    job: job.clone(),
                },
            ),
            (
                SimTime::ZERO,
                SessionEvent::Arrive {
                    key: "b".into(),
                    job,
                },
            ),
        ])
        .expect_err("unordered events must be rejected");
        assert!(err.message.contains("timestamp order"), "{err}");
    }

    #[test]
    fn trace_rejects_depart_at_arrival_instant() {
        let job = JobSpec::training("t", vec![]);
        let err = trace_jobs(&[
            (
                SimTime::from_millis(3),
                SessionEvent::Arrive {
                    key: "t".into(),
                    job,
                },
            ),
            (
                SimTime::from_millis(3),
                SessionEvent::Depart { key: "t".into() },
            ),
        ])
        .expect_err("zero-length window must be rejected");
        assert!(err.message.contains("departs at or before"), "{err}");
    }

    /// Collects every observation with its timestamp.
    #[derive(Default)]
    struct Collector(Vec<(SimTime, usize, Observation)>);

    impl crate::events::SessionObserver for Collector {
        fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
            self.0.push((at, device, event.clone()));
        }
    }

    #[test]
    fn observer_sees_lifecycle_kernels_and_requests() {
        use std::sync::Mutex;
        let collector = Arc::new(Mutex::new(Collector::default()));
        let arrivals: Vec<SimTime> = (0..20).map(|i| SimTime::from_millis(10 * i)).collect();
        let svc = JobSpec::inference("svc", vec![WorkloadOp::Kernel(kernel(1000))], arrivals)
            .active_window(SimTime::ZERO, SimTime::from_millis(300))
            .also_active(SimTime::from_millis(500), None)
            .with_descriptor("infer test-model load=0.5 seed=1");
        let report = Colocation::on(GpuSpec::tiny())
            .client(svc)
            .sync_observer(collector.clone())
            .config(cfg(1))
            .run();
        let events = &collector.lock().unwrap().0;
        let c = &report.clients[0];

        // Timestamps are non-decreasing and stamped with device 0.
        assert!(events.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(events.iter().all(|e| e.1 == 0));

        // Lifecycle edges mirror the schedule: attach, detach, re-attach.
        let lifecycle: Vec<&Observation> = events
            .iter()
            .map(|(_, _, e)| e)
            .filter(|e| {
                matches!(
                    e,
                    Observation::ClientAttached { .. } | Observation::ClientDetached { .. }
                )
            })
            .collect();
        assert_eq!(lifecycle.len(), 3, "attach, detach, re-attach");
        let Observation::ClientAttached {
            key,
            descriptor,
            reattach,
            ..
        } = lifecycle[0]
        else {
            panic!("first lifecycle event is the attach");
        };
        assert_eq!(key, "svc");
        assert_eq!(
            descriptor.as_deref(),
            Some("infer test-model load=0.5 seed=1")
        );
        assert!(!reattach);
        assert!(matches!(lifecycle[1], Observation::ClientDetached { .. }));
        let Observation::ClientAttached { reattach, .. } = lifecycle[2] else {
            panic!("third lifecycle event is the re-attach");
        };
        assert!(*reattach, "second window is a re-attach");

        // Kernel dispatches, finishes, and request completions match the
        // report's counters exactly.
        let count =
            |f: fn(&Observation) -> bool| events.iter().filter(|(_, _, e)| f(e)).count() as u64;
        assert_eq!(
            count(|e| matches!(e, Observation::KernelFinished { .. })),
            c.kernels
        );
        assert_eq!(
            count(|e| matches!(e, Observation::KernelDispatched { .. })),
            c.kernels,
            "every finished kernel was dispatched exactly once"
        );
        assert_eq!(
            count(|e| matches!(e, Observation::RequestCompleted { .. })),
            c.requests
        );
        assert!(
            count(|e| matches!(e, Observation::EngineSample { .. })) > 0,
            "engine counter samples flow"
        );
    }

    #[test]
    fn observers_do_not_perturb_the_run() {
        use std::sync::Mutex;
        let mk = |observe: bool| {
            let hp = JobSpec::inference(
                "hp",
                vec![WorkloadOp::Kernel(kernel(100))],
                (0..100).map(|i| SimTime::from_millis(7 * i)).collect(),
            );
            let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(700))]);
            let mut session = Colocation::on(GpuSpec::tiny())
                .client(hp)
                .client(be)
                .config(cfg(1));
            if observe {
                session = session.sync_observer(Arc::new(Mutex::new(Collector::default())));
            }
            session.run()
        };
        assert_eq!(format!("{:?}", mk(false)), format!("{:?}", mk(true)));
    }

    #[test]
    fn departed_clients_leave_the_session_quiescent() {
        // Both clients detach early; the run must still terminate and the
        // remaining client must keep the GPU.
        let a = JobSpec::training("a", vec![WorkloadOp::Kernel(kernel(500))])
            .active_until(SimTime::from_millis(200));
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(kernel(100))],
            (0..90).map(|i| SimTime::from_millis(10 * i)).collect(),
        );
        let report = Colocation::on(GpuSpec::tiny())
            .client(hp)
            .client(a)
            .config(cfg(1))
            .run();
        assert_eq!(
            report.clients[0].requests, 90,
            "service unaffected by the departure"
        );
        assert!(
            report.clients[1].iterations > 0,
            "trainer ran while attached"
        );
    }

    // ---- next_wake: what each client state contributes -----------------

    fn ms(n: u64) -> SimTime {
        SimTime::from_millis(n)
    }

    fn gap(n: u64) -> WorkloadOp {
        WorkloadOp::CpuGap(SimSpan::from_millis(n))
    }

    /// Steps the session (settle → wake → advance) until it reaches `t`.
    fn step_until(s: &mut Session<'_>, t: SimTime) {
        while s.now() < t {
            let wake = s.next_wake().min(t);
            s.advance_to(wake);
            s.settle();
        }
    }

    #[test]
    fn next_wake_is_an_in_transit_launch() {
        let job = JobSpec::training("t", vec![WorkloadOp::Kernel(kernel(100))]);
        let mut s = Colocation::on(GpuSpec::tiny())
            .client(job)
            .config(cfg(1))
            .transport(Transport::SharedMemory)
            .into_session();
        s.settle();
        let burst_end = s.clients[0].gap_until.expect("attach burst stalls");
        assert_eq!(s.next_wake(), burst_end);
        s.advance_to(burst_end);
        s.settle();
        // The launch sits in the stub; nothing else is pending.
        assert_eq!(s.in_transit.len(), 1);
        let due = s.in_transit[0].0;
        assert!(due > s.now());
        assert_eq!(s.engine.next_event_time(), None);
        assert_eq!(s.next_wake(), due);
        s.advance_to(due);
        s.settle();
        assert!(s.in_transit.is_empty(), "the launch reached the system");
    }

    /// Passthrough that also records every kernel it receives.
    #[derive(Default)]
    struct Received {
        inner: Passthrough,
        kernels: Vec<(ClientId, tally_gpu::KernelId)>,
    }

    impl SharingSystem for Received {
        fn name(&self) -> &str {
            "received"
        }
        fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, k: Arc<KernelDesc>) {
            self.kernels.push((client, k.id));
            self.inner.on_kernel_ready(ctx, client, k);
        }
        fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &tally_gpu::Notification) {
            self.inner.on_notification(ctx, note);
        }
        fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
            self.inner.on_client_detach(ctx, client);
        }
    }

    #[test]
    fn in_transit_launches_of_a_detached_client_are_dropped() {
        use std::sync::Mutex;
        let (ka, kb) = (kernel(100), kernel(100));
        let jobs = |a_until: Option<SimTime>| {
            let a = JobSpec::training("a", vec![WorkloadOp::Kernel(ka.clone())]);
            let a = match a_until {
                Some(t) => a.active_until(t),
                None => a,
            };
            [
                a,
                JobSpec::training("b", vec![WorkloadOp::Kernel(kb.clone())]),
            ]
        };
        // Both clients pay the same attach burst, then launch together;
        // find the span while both launches sit in their stubs.
        let mut probe = Colocation::on(GpuSpec::tiny())
            .clients(jobs(None))
            .config(cfg(1))
            .transport(Transport::SharedMemory)
            .into_session();
        probe.settle();
        let burst_end = probe.clients[0].gap_until.expect("attach burst stalls");
        probe.advance_to(burst_end);
        probe.settle();
        assert_eq!(probe.in_transit.len(), 2, "both launches in transit");
        let due = probe.in_transit[0].0;
        assert!(due > burst_end);
        drop(probe);

        // Client a detaches while its launch is in transit.
        let mut system = Received::default();
        let collector = Arc::new(Mutex::new(Collector::default()));
        let report = Colocation::on(GpuSpec::tiny())
            .clients(jobs(Some(burst_end + (due - burst_end) / 2)))
            .system(&mut system)
            .sync_observer(collector.clone())
            .config(cfg(1))
            .transport(Transport::SharedMemory)
            .run();
        assert!(!system.kernels.is_empty());
        assert!(
            system
                .kernels
                .iter()
                .all(|&(c, k)| c == ClientId(1) && k == kb.id),
            "only b's kernel reaches the system: {:?}",
            system.kernels
        );
        let dispatched: Vec<(ClientId, tally_gpu::KernelId)> = collector
            .lock()
            .unwrap()
            .0
            .iter()
            .filter_map(|(_, _, e)| match e {
                Observation::KernelDispatched { client, kernel } => Some((*client, kernel.id)),
                _ => None,
            })
            .collect();
        assert_eq!(
            dispatched, system.kernels,
            "observers see b's dispatches only"
        );
        assert_eq!(
            report.clients[0].kernels, 0,
            "a's kernel count does not move"
        );
        assert!(report.clients[1].kernels > 0);
    }

    #[test]
    fn next_wake_is_a_detached_clients_next_window() {
        let job = JobSpec::training("t", vec![gap(1)])
            .active_window(ms(5), ms(10))
            .also_active(ms(20), Some(ms(30)));
        let mut s = Colocation::on(GpuSpec::tiny())
            .client(job)
            .config(cfg(1))
            .into_session();
        s.settle();
        assert!(!s.clients[0].attached);
        assert_eq!(s.next_wake(), ms(5));
        step_until(&mut s, ms(10));
        assert!(!s.clients[0].attached, "first window closed");
        assert_eq!(s.next_wake(), ms(20));
    }

    #[test]
    fn next_wake_is_an_attached_clients_earliest_edge() {
        // One request that is a single CPU gap: after the first settle the
        // client has a window close, a next arrival and a gap expiry, and
        // the engine has nothing queued.
        let wake = |until: u64, second_arrival: u64, gap_ms: u64| {
            let job = JobSpec::inference("svc", vec![gap(gap_ms)], vec![ms(0), ms(second_arrival)])
                .active_until(ms(until));
            let mut s = Colocation::on(GpuSpec::tiny())
                .client(job)
                .config(cfg(1))
                .into_session();
            s.settle();
            assert!(s.clients[0].attached);
            s.next_wake()
        };
        assert_eq!(wake(3, 5, 4), ms(3), "window close");
        assert_eq!(wake(10, 2, 4), ms(2), "next arrival");
        assert_eq!(wake(10, 5, 1), ms(1), "CPU gap expiry");
    }

    #[test]
    fn next_wake_ignores_retired_and_migrated_clients() {
        // A retired client's remaining arrivals never wake the session.
        let svc = JobSpec::inference("svc", vec![gap(1)], vec![ms(0), ms(20)]).active_until(ms(2));
        let trainer = JobSpec::training("t", vec![gap(50)]);
        let mut s = Colocation::on(GpuSpec::tiny())
            .clients([svc, trainer.clone()])
            .config(cfg(1))
            .into_session();
        s.settle();
        assert_eq!(s.next_wake(), ms(1));
        step_until(&mut s, ms(2));
        assert!(s.clients[0].retired());
        assert_eq!(s.next_wake(), ms(50));

        // Nor does the tombstone a migration leaves behind.
        let svc = JobSpec::inference("svc", vec![gap(1)], vec![ms(0), ms(20)]);
        let mut s = Colocation::on(GpuSpec::tiny())
            .clients([svc, trainer])
            .config(cfg(1))
            .into_session();
        s.settle();
        assert_eq!(s.next_wake(), ms(1));
        let _ = s.extract_client(0);
        assert!(s.clients[0].migrated_away);
        assert_eq!(s.next_wake(), ms(50));
    }

    /// A system whose timer never moves.
    struct FixedTimer(SimTime);

    impl SharingSystem for FixedTimer {
        fn name(&self) -> &str {
            "fixed-timer"
        }
        fn on_kernel_ready(&mut self, _: &mut Ctx<'_>, _: ClientId, _: Arc<KernelDesc>) {}
        fn on_notification(&mut self, _: &mut Ctx<'_>, _: &tally_gpu::Notification) {}
        fn poll(&mut self, _: &mut Ctx<'_>) {}
        fn next_timer(&self) -> Option<SimTime> {
            Some(self.0)
        }
    }

    #[test]
    fn next_wake_clamps_a_past_system_timer_to_now() {
        let mut s = Colocation::on(GpuSpec::tiny())
            .client(JobSpec::training("t", vec![gap(10)]))
            .system_boxed(Box::new(FixedTimer(ms(1))))
            .config(cfg(1))
            .into_session();
        s.settle();
        assert_eq!(s.next_wake(), ms(1), "a future timer is honoured");
        s.advance_to(ms(3));
        s.settle();
        assert_eq!(s.next_wake(), ms(3), "a past timer reads as now");
    }

    // ---- engine-internal events: run inside advance_to -----------------

    /// Three waves of 100us blocks on the tiny GPU (16 blocks per wave).
    fn three_waves() -> Arc<KernelDesc> {
        KernelDesc::builder("k3")
            .grid(48)
            .block(512)
            .block_cost(SimSpan::from_micros(100))
            .build_arc()
    }

    fn three_wave_trainer() -> JobSpec {
        JobSpec::training("t", vec![WorkloadOp::Kernel(three_waves()), gap(10)])
    }

    #[test]
    fn next_wake_is_not_a_wave_boundary() {
        let mut s = Colocation::on(GpuSpec::tiny())
            .client(three_wave_trainer())
            .config(cfg(1))
            .into_session();
        s.settle();
        let engine_next = s.engine.next_event_time().expect("the launch is queued");
        assert!(engine_next < ms(1));
        assert_eq!(
            s.next_wake(),
            s.end,
            "the launch's arrival and waves are engine-internal"
        );
    }

    #[test]
    fn advance_to_stops_at_the_kernels_completion() {
        let spec = GpuSpec::tiny();
        let mut s = Colocation::on(spec.clone())
            .client(three_wave_trainer())
            .config(cfg(1))
            .into_session();
        s.settle();
        s.advance_to(s.end);
        let done = SimTime::ZERO + spec.launch_overhead + three_waves().solo_latency(&spec);
        assert_eq!(s.now(), done);
        assert_eq!(s.pending_completions, vec![ClientId(0)]);
    }

    /// Admits every request and records the engine samples it is shown.
    struct SampleTap(Arc<std::sync::Mutex<Vec<(SimTime, u128)>>>);

    impl AdmissionPolicy for SampleTap {
        fn name(&self) -> &str {
            "sample-tap"
        }
        fn on_event(&mut self, at: SimTime, _device: usize, event: &Observation) {
            if let Observation::EngineSample { busy_thread_ns, .. } = event {
                self.0.lock().unwrap().push((at, *busy_thread_ns));
            }
        }
        fn admit(&mut self, _: SimTime, _: ClientId, _: usize) -> AdmissionVerdict {
            AdmissionVerdict::Admit
        }
    }

    #[test]
    fn one_engine_sample_per_distinct_engine_instant() {
        use std::sync::Mutex;
        type Samples = Vec<(SimTime, u128)>;
        // Drives a session to the end and returns the samples its
        // admission policy and its observer received; with
        // `wake_at_engine_events` it also settles at every engine event,
        // as a reference.
        let sample_times = |wake_at_engine_events: bool| -> (Samples, Samples, SimTime) {
            let tap = Arc::new(Mutex::new(Vec::new()));
            let collector = Arc::new(Mutex::new(Collector::default()));
            let mut s = Colocation::on(GpuSpec::tiny())
                .client(three_wave_trainer())
                .admission(Box::new(SampleTap(tap.clone())))
                .sync_observer(collector.clone())
                .config(cfg(1))
                .into_session();
            loop {
                s.settle();
                if s.is_done() {
                    break;
                }
                let mut wake = s.next_wake();
                if wake_at_engine_events {
                    wake = wake.min(s.engine.next_event_time().unwrap_or(SimTime::MAX));
                }
                s.advance_to(wake);
            }
            let observed = collector
                .lock()
                .unwrap()
                .0
                .iter()
                .filter_map(|(at, _, e)| match e {
                    Observation::EngineSample { busy_thread_ns, .. } => {
                        Some((*at, *busy_thread_ns))
                    }
                    _ => None,
                })
                .collect();
            let admitted = tap.lock().unwrap().clone();
            (admitted, observed, s.end)
        };
        let (admitted, observed, end) = sample_times(false);
        assert!(
            admitted.windows(2).all(|w| w[0].0 < w[1].0),
            "no instant sampled twice"
        );
        let us = |n| SimTime::ZERO + SimSpan::from_micros(n);
        for wave_end in [us(104), us(204)] {
            assert!(
                admitted.iter().any(|&(at, _)| at == wave_end),
                "wave boundary {wave_end}"
            );
        }
        // Observers receive the samples whose busy integral moved, and the
        // final instant's.
        let mut moved = Vec::new();
        let mut last = None;
        for &(at, busy) in &admitted {
            if last != Some(busy) || at >= end {
                moved.push((at, busy));
                last = Some(busy);
            }
        }
        assert_eq!(observed, moved);
        assert!(observed.len() < admitted.len(), "repeats are not delivered");
        assert_eq!(observed.last().map(|&(at, _)| at), Some(end));
        assert_eq!((admitted, observed, end), sample_times(true));
    }

    #[test]
    fn advance_to_is_one_engine_call_with_or_without_a_listener() {
        let spec = GpuSpec::tiny();
        // Either way `advance_to` runs through the launch's arrival and
        // both wave boundaries to the completion in one engine call.
        for listening in [false, true] {
            let mut colocation = Colocation::on(spec.clone())
                .client(three_wave_trainer())
                .config(cfg(1));
            if listening {
                colocation =
                    colocation.sync_observer(Arc::new(std::sync::Mutex::new(Collector::default())));
            }
            let mut s = colocation.into_session();
            s.settle();
            let before = s.work().engine_advances;
            s.advance_to(s.end);
            assert_eq!(s.work().engine_advances - before, 1, "{listening}");
            let done = SimTime::ZERO + spec.launch_overhead + three_waves().solo_latency(&spec);
            assert_eq!(s.now(), done, "{listening}");
            assert_eq!(s.pending_completions, vec![ClientId(0)], "{listening}");
        }
    }

    /// Runs client 0's kernels on the engine and holds the other clients'.
    /// Each completion of client 0 also completes client 2 (first) from the
    /// same notification, and client 1 from the next poll.
    #[derive(Default)]
    struct CompletesThree {
        held: Vec<ClientId>,
        owed: Option<ClientId>,
    }

    impl SharingSystem for CompletesThree {
        fn name(&self) -> &str {
            "completes-three"
        }
        fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, k: Arc<KernelDesc>) {
            if client == ClientId(0) {
                ctx.engine
                    .submit(tally_gpu::LaunchRequest::full(&k, client, Priority::High));
            } else {
                self.held.push(client);
            }
        }
        fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &tally_gpu::Notification) {
            if self.held.len() == 2 {
                self.held.clear();
                ctx.complete_kernel(ClientId(2));
                self.owed = Some(ClientId(1));
            }
            ctx.complete_kernel(note.client());
        }
        fn poll(&mut self, ctx: &mut Ctx<'_>) {
            if let Some(c) = self.owed.take() {
                ctx.complete_kernel(c);
            }
        }
    }

    #[test]
    fn completions_advance_in_the_order_they_were_signalled() {
        use std::sync::Mutex;
        let collector = Arc::new(Mutex::new(Collector::default()));
        let trainer = |name: &str| JobSpec::training(name, vec![WorkloadOp::Kernel(kernel(100))]);
        let mut s = Colocation::on(GpuSpec::tiny())
            .clients([trainer("a"), trainer("b"), trainer("c")])
            .system_boxed(Box::new(CompletesThree::default()))
            .sync_observer(collector.clone())
            .config(cfg(1))
            .into_session();
        s.settle();
        s.advance_to(s.end);
        assert_eq!(s.pending_completions, vec![ClientId(2), ClientId(0)]);
        s.settle();
        let finished: Vec<ClientId> = collector
            .lock()
            .unwrap()
            .0
            .iter()
            .filter_map(|(_, _, e)| match *e {
                Observation::KernelFinished { client } => Some(client),
                _ => None,
            })
            .collect();
        assert_eq!(finished, [ClientId(2), ClientId(0), ClientId(1)]);
    }
}
