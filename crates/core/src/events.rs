//! The unified event vocabulary and the session observer API.
//!
//! Everything a live run can tell the outside world flows through this
//! module, in two layers:
//!
//! * **Lifecycle events** ([`ClientEvent`]) — the timestamped
//!   arrive/depart stream that *drives* trace-based session construction.
//!   The enum is generic over its job payload so the whole workspace
//!   shares one vocabulary: the harness consumes
//!   [`SessionEvent`](crate::harness::SessionEvent) (`ClientEvent<JobSpec>`,
//!   fed to [`Colocation::trace`](crate::harness::Colocation::trace) and
//!   [`Cluster::trace`](crate::cluster::Cluster::trace)), while
//!   `tally_workloads::trace` serializes `ClientEvent<TraceJob>` with
//!   symbolic model references. Both compile through
//!   [`compile_trace`](crate::harness::compile_trace), which reports a
//!   malformed stream as a typed [`TraceError`] instead of a panic.
//!
//! * **Observations** ([`Observation`]) — the typed, timestamped stream a
//!   live run *emits*: client lifecycle edges (attach / detach /
//!   re-attach), request completions, kernel dispatch and finish, engine
//!   counter samples, and cluster-level migration / rebalance markers.
//!   Register a [`SessionObserver`] on a
//!   [`Colocation`](crate::harness::Colocation),
//!   [`Session`](crate::harness::Session), or
//!   [`Cluster`](crate::cluster::Cluster) to receive it. Observers are
//!   shared handles ([`SharedSyncObserver`]) so the caller keeps access to
//!   whatever the observer accumulated after the run finishes.
//!
//! `tally_workloads::trace::TraceRecorder` captures a replayable
//! `ArrivalTrace` from a live run. Inside the crate, one per-device fold
//! of the stream (attached clients, their class, kernels in flight) backs
//! the cluster's load signals, [`SloGuard`](crate::admission::SloGuard)
//! and the [`telemetry`](crate::telemetry) gauges.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use tally_gpu::{ClientId, KernelDesc, Priority, SimSpan, SimTime};

/// A client lifecycle edge: somebody shows up or leaves.
///
/// Generic over the job payload `J` so that every layer speaks the same
/// vocabulary: the harness replays `ClientEvent<JobSpec>` (aliased as
/// [`SessionEvent`](crate::harness::SessionEvent)), the workloads crate
/// serializes `ClientEvent<TraceJob>` with symbolic model references.
///
/// Event streams are replayed in timestamp order. A key that arrives,
/// departs, and arrives again names *one* client that re-attaches: its
/// metrics accumulate across attachments and its program is the one
/// carried by the first arrival.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientEvent<J> {
    /// A client keyed `key` arrives, running `job`'s program. On a repeat
    /// arrival for a known key the carried job is ignored and the existing
    /// client re-attaches.
    Arrive {
        /// Stable client identity.
        key: String,
        /// What the client runs.
        job: J,
    },
    /// The client keyed `key` departs (detaches).
    Depart {
        /// Stable client identity.
        key: String,
    },
}

impl<J> ClientEvent<J> {
    /// The event's client key.
    pub fn key(&self) -> &str {
        match self {
            ClientEvent::Arrive { key, .. } | ClientEvent::Depart { key } => key,
        }
    }
}

/// Why an event stream failed to compile, validate, or parse.
///
/// Every fault in a stream's shape (timestamp order, arrive/depart
/// alternation) comes from the one trace compiler,
/// [`compile_trace`](crate::harness::compile_trace), so
/// [`Colocation::trace`](crate::harness::Colocation::trace),
/// [`Cluster::trace`](crate::cluster::Cluster::trace) and the
/// `tally_workloads::trace` validator and parser word it identically. The
/// parser adds 1-based line numbers for text-format errors.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceError {
    /// 1-based line number for parse errors, 0 for semantic errors.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl TraceError {
    /// A semantic (non-parse) trace error.
    pub fn semantic(message: impl Into<String>) -> Self {
        TraceError {
            line: 0,
            message: message.into(),
        }
    }

    /// A parse error anchored to a 1-based line number.
    pub fn at_line(line: usize, message: impl Into<String>) -> Self {
        TraceError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(f, "trace line {}: {}", self.line, self.message)
        } else {
            write!(f, "invalid trace: {}", self.message)
        }
    }
}

impl std::error::Error for TraceError {}

/// The `device` index used when an observation is fleet-level rather than
/// tied to one device — currently only [`Observation::Rebalance`].
/// Per-device event tallies should treat it as "no device".
pub const FLEET_DEVICE: usize = usize::MAX;

/// One typed observation from a live run. Every variant is delivered to
/// [`SessionObserver::on_event`] together with the simulated instant it
/// happened at and the index of the device it happened on (0 for
/// single-GPU sessions).
#[derive(Clone, Debug)]
pub enum Observation {
    /// A client attached: its first activity window opened (`reattach:
    /// false`) or a later one did (`reattach: true`). Not emitted for
    /// cross-device migration reconnects — those surface as
    /// [`Observation::ClientMigrated`].
    ClientAttached {
        /// Session-local client id.
        client: ClientId,
        /// Stable client key (explicit
        /// [`JobSpec::client_key`](crate::harness::JobSpec::client_key) or
        /// the display name).
        key: String,
        /// Scheduling class.
        priority: Priority,
        /// The job's symbolic descriptor
        /// ([`JobSpec::descriptor`](crate::harness::JobSpec::descriptor)),
        /// when it carries one — what lets a trace recorder re-serialize
        /// the client.
        descriptor: Option<String>,
        /// Whether this is a re-attach (a window after the first).
        reattach: bool,
    },
    /// A client detached: its activity window closed. Not emitted when a
    /// client is extracted for migration.
    ClientDetached {
        /// Session-local client id.
        client: ClientId,
        /// Stable client key.
        key: String,
    },
    /// An inference request completed.
    RequestCompleted {
        /// Session-local client id.
        client: ClientId,
        /// When the request arrived.
        arrival: SimTime,
        /// Arrival-to-completion latency.
        latency: SimSpan,
    },
    /// An [admission policy](crate::admission::AdmissionPolicy) rejected
    /// an arriving request before it entered the client's queue. The
    /// request is never served and never counts toward latency.
    RequestShed {
        /// Session-local client id.
        client: ClientId,
        /// When the rejected request arrived.
        arrival: SimTime,
    },
    /// A client's next logical kernel was handed to the sharing system.
    KernelDispatched {
        /// Session-local client id.
        client: ClientId,
        /// The kernel.
        kernel: Arc<KernelDesc>,
    },
    /// The client's outstanding logical kernel finished.
    KernelFinished {
        /// Session-local client id.
        client: ClientId,
    },
    /// A sample of the engine's busy-thread integral, taken at most once
    /// per engine instant. The integral is cumulative: divide deltas by
    /// `elapsed × total_thread_slots` for mean occupancy over a window.
    ///
    /// An admission policy receives a sample at every instant the engine
    /// ran events at or the session settled at. Observers and the
    /// cluster's load monitor receive one only when `busy_thread_ns`
    /// moved since the last they received, plus one at the end of the
    /// run: between two received samples the integral is flat.
    EngineSample {
        /// Engine lifetime busy thread-nanoseconds
        /// ([`Engine::busy_thread_ns`](tally_gpu::Engine::busy_thread_ns)).
        busy_thread_ns: u128,
        /// The device's total resident-thread capacity.
        total_thread_slots: u64,
    },
    /// Cluster only: a best-effort client moved between devices. The
    /// reconnect on the destination is part of the migration, not a
    /// lifecycle edge.
    ClientMigrated {
        /// Stable client key.
        key: String,
        /// Source device.
        from: usize,
        /// Destination device.
        to: usize,
        /// The client's id within the source session (now a tombstone).
        from_client: ClientId,
        /// The client's id within the destination session.
        to_client: ClientId,
        /// State bytes moved across the interconnect
        /// ([`JobSpec::state_bytes`](crate::harness::JobSpec::state_bytes)).
        bytes: u64,
        /// Transfer stall charged to the client on the destination:
        /// `bytes` over the widest-path bandwidth of the cluster's
        /// [`Topology`](crate::topology::Topology). Zero under the flat
        /// default.
        stall: SimSpan,
    },
    /// Cluster only: a migration pass finished, having moved `moved`
    /// clients. Delivered with the fleet-level [`FLEET_DEVICE`] index —
    /// a rebalance spans every device.
    Rebalance {
        /// Clients moved by this pass.
        moved: u64,
    },
}

/// A sink for the typed, timestamped event stream of a live run.
///
/// Register a [`SharedSyncObserver`] handle with
/// [`Colocation::sync_observer`](crate::harness::Colocation::sync_observer)
/// or [`Cluster::sync_observer`](crate::cluster::Cluster::sync_observer).
/// Events are delivered in timestamp order per device; within one instant
/// they follow the session's settling order (completions, lifecycle edges,
/// dispatches).
///
/// ```
/// use std::sync::{Arc, Mutex};
/// use tally_core::events::{Observation, SessionObserver};
/// use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
/// use tally_gpu::{GpuSpec, KernelDesc, SimSpan, SimTime};
///
/// /// Counts kernels per device.
/// #[derive(Default)]
/// struct KernelCounter(u64);
/// impl SessionObserver for KernelCounter {
///     fn on_event(&mut self, _at: SimTime, _device: usize, event: &Observation) {
///         if let Observation::KernelFinished { .. } = event {
///             self.0 += 1;
///         }
///     }
/// }
///
/// let counter = Arc::new(Mutex::new(KernelCounter::default()));
/// let k = KernelDesc::builder("step")
///     .grid(16).block(128)
///     .block_cost(SimSpan::from_micros(500))
///     .build_arc();
/// let report = Colocation::on(GpuSpec::tiny())
///     .client(JobSpec::training("t", vec![WorkloadOp::Kernel(k)]))
///     .sync_observer(counter.clone())
///     .config(HarnessConfig {
///         duration: SimSpan::from_millis(100),
///         warmup: SimSpan::ZERO,
///         ..Default::default()
///     })
///     .run();
/// assert_eq!(counter.lock().unwrap().0, report.clients[0].kernels);
/// ```
pub trait SessionObserver {
    /// Receives one observation. `at` is the simulated instant; `device`
    /// is the device index within a cluster (0 for single-GPU sessions,
    /// [`FLEET_DEVICE`] for fleet-level markers like
    /// [`Observation::Rebalance`]).
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation);
}

/// A shared observer handle: the session holds one clone, the caller keeps
/// another to read the observer's state back after the run.
///
/// Every observer sees one deterministic stream. During a run a session
/// delivers what it observed in bounded batches, taking the lock once per
/// batch, and always before
/// [`Session::run_to_end`](crate::harness::Session::run_to_end) or
/// [`Cluster::run`](crate::cluster::Cluster::run) returns;
/// [`Session::settle`](crate::harness::Session::settle) delivers before it
/// returns. So read an observer between runs or settles, not from inside
/// one. A [`Cluster`](crate::cluster::Cluster) advancing on more than one
/// worker thread instead buffers each device's observations and delivers
/// them at every barrier in device-index order, so the interleaving across
/// devices is identical for every thread count.
pub type SharedSyncObserver = Arc<Mutex<dyn SessionObserver + Send>>;

/// One client's record in a [`DeviceState`].
#[derive(Clone, Debug, Default)]
pub(crate) struct ClientRecord {
    /// Stable client key, once an attach or a migrate-in named it.
    pub(crate) key: Option<String>,
    /// Scheduling class; best-effort until an attach says otherwise.
    pub(crate) high_priority: bool,
    /// Whether an activity window is open on this device.
    pub(crate) attached: bool,
    /// Whether a dispatched logical kernel has not finished yet.
    pub(crate) outstanding: bool,
}

/// One device's fold of the observation stream: a record per
/// session-local client id plus the last engine sample. Its
/// [`apply`](DeviceState::apply) is the only code that interprets attach,
/// detach, dispatch, finish, migrate-out and migrate-in.
#[derive(Clone, Debug, Default)]
pub(crate) struct DeviceState {
    /// Indexed by the dense session-local client id.
    clients: Vec<ClientRecord>,
    outstanding: usize,
    hp_outstanding: usize,
    busy_thread_ns: u128,
    thread_slots: u64,
}

impl DeviceState {
    /// Folds one observation of device `device`, the device this state
    /// describes (a migration names it as source or destination).
    pub(crate) fn apply(&mut self, device: usize, event: &Observation) {
        match event {
            Observation::ClientAttached {
                client,
                key,
                priority,
                ..
            } => {
                let c = self.record(*client);
                c.key = Some(key.clone());
                c.high_priority = priority.is_high();
                c.attached = true;
            }
            Observation::ClientDetached { client, .. } => {
                // Detach preempts and forgets the client's in-flight work.
                self.record(*client).attached = false;
                self.set_outstanding(*client, false);
            }
            Observation::KernelDispatched { client, .. } => self.set_outstanding(*client, true),
            Observation::KernelFinished { client } => self.set_outstanding(*client, false),
            Observation::EngineSample {
                busy_thread_ns,
                total_thread_slots,
                ..
            } => {
                self.busy_thread_ns = *busy_thread_ns;
                self.thread_slots = *total_thread_slots;
            }
            Observation::ClientMigrated {
                key,
                from,
                to,
                from_client,
                to_client,
                ..
            } => {
                if *from == device {
                    // The source slot is a tombstone now; its in-flight
                    // kernel was preempted and re-issues on the destination.
                    self.record(*from_client).attached = false;
                    self.set_outstanding(*from_client, false);
                }
                if *to == device {
                    // Only best-effort clients migrate.
                    let c = self.record(*to_client);
                    c.key = Some(key.clone());
                    c.high_priority = false;
                    c.attached = true;
                }
            }
            Observation::RequestCompleted { .. }
            | Observation::RequestShed { .. }
            | Observation::Rebalance { .. } => {}
        }
    }

    fn record(&mut self, client: ClientId) -> &mut ClientRecord {
        let i = client.0 as usize;
        if i >= self.clients.len() {
            self.clients.resize_with(i + 1, ClientRecord::default);
        }
        &mut self.clients[i]
    }

    fn set_outstanding(&mut self, client: ClientId, outstanding: bool) {
        let c = self.record(client);
        if c.outstanding != outstanding {
            c.outstanding = outstanding;
            let hp = usize::from(c.high_priority);
            if outstanding {
                self.outstanding += 1;
                self.hp_outstanding += hp;
            } else {
                self.outstanding -= 1;
                self.hp_outstanding -= hp;
            }
        }
    }

    /// Every client record, in id order.
    pub(crate) fn clients(&self) -> impl Iterator<Item = (ClientId, &ClientRecord)> {
        (0u32..).map(ClientId).zip(&self.clients)
    }

    /// The record of `client`, if the stream ever named it.
    pub(crate) fn client(&self, client: ClientId) -> Option<&ClientRecord> {
        self.clients.get(client.0 as usize)
    }

    /// Kernels dispatched and not yet finished, right now.
    pub(crate) fn queue_depth(&self) -> usize {
        self.outstanding
    }

    /// Clients currently attached.
    pub(crate) fn clients_attached(&self) -> usize {
        self.clients.iter().filter(|c| c.attached).count()
    }

    /// The engine's cumulative busy-thread integral at the last sample.
    pub(crate) fn busy_thread_ns(&self) -> u128 {
        self.busy_thread_ns
    }

    /// The device's resident-thread capacity (0 until the first sample).
    pub(crate) fn thread_slots(&self) -> u64 {
        self.thread_slots
    }
}

/// One device's live load signals — the runtime half of
/// [`DeviceLoad`](crate::cluster::DeviceLoad).
///
/// A [`Cluster`](crate::cluster::Cluster) installs one in every device's
/// session, which feeds it each observation as it is emitted (and each
/// migration off the device), and copies its signals into every
/// `DeviceLoad` snapshot handed to a
/// [`PlacementPolicy`](crate::cluster::PlacementPolicy).
#[derive(Debug)]
pub(crate) struct LoadMonitor {
    window: SimSpan,
    state: DeviceState,
    /// Running integral of outstanding high-priority kernels over time,
    /// in kernel-seconds, with checkpoints at every change.
    hp_integral: f64,
    last_update: SimTime,
    /// `(instant, integral)` checkpoints; piecewise linear between them.
    hp_points: VecDeque<(SimTime, f64)>,
    /// `(instant, busy_thread_ns)` engine samples; a step function.
    occ_samples: VecDeque<(SimTime, u128)>,
}

impl LoadMonitor {
    /// A monitor whose recent-window signals average over `window`.
    pub(crate) fn new(window: SimSpan) -> Self {
        assert!(!window.is_zero(), "monitor window must be positive");
        LoadMonitor {
            window,
            state: DeviceState::default(),
            hp_integral: 0.0,
            last_update: SimTime::ZERO,
            hp_points: VecDeque::new(),
            occ_samples: VecDeque::new(),
        }
    }

    /// Folds one observation of device `device`.
    pub(crate) fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        match event {
            // The four edges that can change the outstanding set.
            Observation::ClientDetached { .. }
            | Observation::KernelDispatched { .. }
            | Observation::KernelFinished { .. }
            | Observation::ClientMigrated { .. } => self.advance(at),
            Observation::EngineSample { busy_thread_ns, .. } => {
                push_windowed(&mut self.occ_samples, at, *busy_thread_ns, self.window);
            }
            _ => {}
        }
        let hp_before = self.state.hp_outstanding;
        self.state.apply(device, event);
        if self.state.hp_outstanding != hp_before {
            push_windowed(&mut self.hp_points, at, self.hp_integral, self.window);
        }
    }

    fn advance(&mut self, at: SimTime) {
        if at > self.last_update {
            self.hp_integral += self.state.hp_outstanding as f64
                * at.saturating_since(self.last_update).as_secs_f64();
            self.last_update = at;
        }
    }

    /// Integral value at `t`, linearly interpolated between checkpoints
    /// (exact: the integral is piecewise linear with integer slope).
    fn integral_at(&self, t: SimTime) -> f64 {
        let mut prev: Option<(SimTime, f64)> = None;
        for &(pt, pi) in &self.hp_points {
            if pt > t {
                let Some((t0, i0)) = prev else {
                    return pi; // before the first checkpoint: flat history
                };
                // `t0 <= t < pt`, so the span is positive.
                let span = pt.saturating_since(t0).as_secs_f64();
                let frac = t.saturating_since(t0).as_secs_f64() / span;
                return i0 + (pi - i0) * frac;
            }
            prev = Some((pt, pi));
        }
        match prev {
            // After the last checkpoint the slope is the current count.
            Some((t0, i0)) => {
                i0 + self.state.hp_outstanding as f64 * t.saturating_since(t0).as_secs_f64()
            }
            None => 0.0,
        }
    }

    /// Kernels dispatched and not yet finished, right now.
    pub(crate) fn queue_depth(&self) -> usize {
        self.state.queue_depth()
    }

    /// Mean busy-thread occupancy over the trailing window ending at
    /// `now`, from the engine's busy-integral counter: `1.0` means every
    /// resident-thread slot was busy the whole window.
    pub(crate) fn recent_occupancy(&self, now: SimTime) -> f64 {
        let slots = self.state.thread_slots();
        if slots == 0 || self.occ_samples.is_empty() {
            return 0.0;
        }
        let boundary = now - self.window;
        // Step function: busy at an instant is the last sample at/before it.
        let busy_at = |t: SimTime| {
            let last = self.occ_samples.iter().take_while(|s| s.0 <= t).last();
            last.map_or(0, |s| s.1)
        };
        let span = now.saturating_since(boundary).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let busy = busy_at(now).saturating_sub(busy_at(boundary)) as f64;
        busy / (span * 1e9 * slots as f64)
    }

    /// Time-weighted mean number of outstanding *high-priority* kernels
    /// over the trailing window ending at `now` — live pressure from
    /// latency-critical tenants, `~1.0` when a service keeps one request
    /// in flight the whole window, `~0.0` while it sits quiet.
    pub(crate) fn hp_pressure(&self, now: SimTime) -> f64 {
        let boundary = now - self.window;
        let span = now.saturating_since(boundary).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let delta = self.integral_at(now) - self.integral_at(boundary);
        (delta / span).max(0.0)
    }
}

/// Appends `(at, value)` to a time-ordered history and drops what lies
/// wholly before the `window` ending at `at`, keeping the last entry at
/// or before its start.
fn push_windowed<T>(history: &mut VecDeque<(SimTime, T)>, at: SimTime, value: T, window: SimSpan) {
    history.push_back((at, value));
    let boundary = at - window;
    while history.len() > 1 && history[1].0 <= boundary {
        history.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch_ev(client: u32) -> Observation {
        let k = KernelDesc::builder("k")
            .grid(1)
            .block(32)
            .block_cost(SimSpan::from_micros(10))
            .build_arc();
        Observation::KernelDispatched {
            client: ClientId(client),
            kernel: k,
        }
    }

    fn attach_ev(client: u32, hp: bool) -> Observation {
        Observation::ClientAttached {
            client: ClientId(client),
            key: format!("c{client}"),
            priority: if hp {
                Priority::High
            } else {
                Priority::BestEffort
            },
            descriptor: None,
            reattach: false,
        }
    }

    fn finish_ev(client: u32) -> Observation {
        Observation::KernelFinished {
            client: ClientId(client),
        }
    }

    fn detach_ev(client: u32) -> Observation {
        Observation::ClientDetached {
            client: ClientId(client),
            key: format!("c{client}"),
        }
    }

    /// `c{from_client}` moves from device 0 to device 1 as `to_client`.
    fn migrate_ev(from_client: u32, to_client: u32) -> Observation {
        Observation::ClientMigrated {
            key: format!("c{from_client}"),
            from: 0,
            to: 1,
            from_client: ClientId(from_client),
            to_client: ClientId(to_client),
            bytes: 0,
            stall: SimSpan::ZERO,
        }
    }

    fn feed(m: &mut LoadMonitor, at_ms: u64, event: Observation) {
        m.on_event(SimTime::from_millis(at_ms), 0, &event);
    }

    #[test]
    fn device_state_attach_records_key_and_priority() {
        let mut s = DeviceState::default();
        s.apply(0, &attach_ev(2, true));
        let c = s.client(ClientId(2)).expect("record");
        assert_eq!(c.key.as_deref(), Some("c2"));
        assert!(c.attached && !c.outstanding);
        assert!(c.high_priority);
        assert_eq!(s.clients_attached(), 1);
        // Lower ids get placeholder records: unnamed, best-effort, detached.
        let c = s.client(ClientId(0)).expect("placeholder");
        assert!(c.key.is_none() && !c.high_priority && !c.attached);
    }

    #[test]
    fn device_state_dispatch_and_finish_toggle_the_outstanding_kernel() {
        let mut s = DeviceState::default();
        s.apply(0, &attach_ev(0, true));
        s.apply(0, &attach_ev(1, false));
        s.apply(0, &dispatch_ev(0));
        s.apply(0, &dispatch_ev(1));
        // A second dispatch before the finish adds nothing.
        s.apply(0, &dispatch_ev(1));
        assert_eq!((s.queue_depth(), s.hp_outstanding), (2, 1));
        s.apply(0, &finish_ev(0));
        assert_eq!((s.queue_depth(), s.hp_outstanding), (1, 0));
        assert!(s.client(ClientId(1)).expect("record").outstanding);
    }

    #[test]
    fn device_state_detach_clears_the_outstanding_kernel() {
        let mut s = DeviceState::default();
        s.apply(0, &attach_ev(0, true));
        s.apply(0, &dispatch_ev(0));
        s.apply(0, &detach_ev(0));
        let c = s.client(ClientId(0)).expect("record");
        assert!(!c.attached && !c.outstanding);
        assert_eq!((s.queue_depth(), s.hp_outstanding), (0, 0));
        assert_eq!(s.clients_attached(), 0);
        // The class survives the detach for the next window.
        assert!(c.high_priority);
    }

    #[test]
    fn device_state_migrate_out_keeps_key_and_priority_and_clears_the_kernel() {
        let mut s = DeviceState::default();
        s.apply(0, &attach_ev(3, true));
        s.apply(0, &dispatch_ev(3));
        assert_eq!(s.hp_outstanding, 1);
        s.apply(0, &migrate_ev(3, 7));
        let c = s.client(ClientId(3)).expect("record");
        assert_eq!(c.key.as_deref(), Some("c3"));
        assert!(c.high_priority);
        assert!(!c.attached && !c.outstanding);
        assert_eq!((s.queue_depth(), s.hp_outstanding), (0, 0));
        assert_eq!(s.clients_attached(), 0);
        // The source fold never grows a record for the destination id.
        assert!(s.client(ClientId(7)).is_none());
    }

    #[test]
    fn device_state_migrate_in_marks_the_destination_record_attached() {
        let mut s = DeviceState::default();
        s.apply(1, &migrate_ev(3, 1));
        let c = s.client(ClientId(1)).expect("record");
        assert_eq!(c.key.as_deref(), Some("c3"));
        assert!(c.attached && !c.outstanding);
        assert!(!c.high_priority);
        assert_eq!(s.clients_attached(), 1);
        // The source id means nothing on the destination.
        assert!(s.client(ClientId(3)).is_none());
    }

    #[test]
    fn device_state_keeps_the_last_engine_sample() {
        let mut s = DeviceState::default();
        for busy in [10u128, 30] {
            s.apply(
                0,
                &Observation::EngineSample {
                    busy_thread_ns: busy,
                    total_thread_slots: 64,
                },
            );
        }
        assert_eq!((s.busy_thread_ns(), s.thread_slots()), (30, 64));
    }

    #[test]
    fn queue_depth_tracks_outstanding_kernels() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        feed(&mut m, 0, attach_ev(0, true));
        feed(&mut m, 0, attach_ev(1, false));
        feed(&mut m, 1, dispatch_ev(0));
        feed(&mut m, 1, dispatch_ev(1));
        assert_eq!(m.queue_depth(), 2);
        // A device that saw none of it reads empty.
        assert_eq!(LoadMonitor::new(SimSpan::from_millis(100)).queue_depth(), 0);
        feed(&mut m, 2, finish_ev(0));
        assert_eq!(m.queue_depth(), 1);
        // Detach clears the remaining outstanding kernel.
        feed(&mut m, 3, detach_ev(1));
        assert_eq!(m.queue_depth(), 0);
    }

    #[test]
    fn hp_pressure_decays_after_the_service_goes_quiet() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        feed(&mut m, 0, attach_ev(0, true));
        // One hp kernel outstanding over [0, 100ms), then nothing.
        feed(&mut m, 0, dispatch_ev(0));
        feed(&mut m, 100, finish_ev(0));
        // Right at the finish the whole window was busy.
        let hot = m.hp_pressure(SimTime::from_millis(100));
        assert!(hot > 0.95, "pressure at finish {hot}");
        // Half a window later only half the window was busy.
        let mid = m.hp_pressure(SimTime::from_millis(150));
        assert!((0.4..0.6).contains(&mid), "pressure mid-decay {mid}");
        // A full window later the signal is gone.
        let cold = m.hp_pressure(SimTime::from_millis(250));
        assert!(cold < 0.01, "pressure after decay {cold}");
    }

    #[test]
    fn best_effort_kernels_do_not_raise_hp_pressure() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        feed(&mut m, 0, attach_ev(0, false));
        feed(&mut m, 0, dispatch_ev(0));
        assert_eq!(m.queue_depth(), 1);
        assert_eq!(m.hp_pressure(SimTime::from_millis(100)), 0.0);
    }

    #[test]
    fn occupancy_window_averages_engine_samples() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        // 1000 thread slots; busy ramps at half speed: 50ms of busy-threads
        // accrued over each 100ms (per-slot share 0.5).
        for i in 0..=10u64 {
            feed(
                &mut m,
                10 * i,
                Observation::EngineSample {
                    busy_thread_ns: (10 * i * 1_000_000 / 2) as u128 * 1000,
                    total_thread_slots: 1000,
                },
            );
        }
        let occ = m.recent_occupancy(SimTime::from_millis(100));
        assert!((occ - 0.5).abs() < 0.05, "occupancy {occ}");
        // With no further samples the window drains toward zero.
        let later = m.recent_occupancy(SimTime::from_millis(250));
        assert!(later < 0.01, "stale occupancy {later}");
    }

    #[test]
    fn migration_clears_the_source_slot() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        feed(&mut m, 0, attach_ev(3, false));
        feed(&mut m, 1, dispatch_ev(3));
        assert_eq!(m.queue_depth(), 1);
        feed(&mut m, 2, migrate_ev(3, 7));
        assert_eq!(m.queue_depth(), 0, "migrated-away kernel forgotten");
        // The destination's monitor gains no kernel from the move itself.
        let mut dst = LoadMonitor::new(SimSpan::from_millis(100));
        dst.on_event(SimTime::from_millis(2), 1, &migrate_ev(3, 7));
        assert_eq!(dst.queue_depth(), 0);
    }

    #[test]
    fn trace_error_display_distinguishes_parse_and_semantic() {
        let parse = TraceError::at_line(3, "missing verb");
        assert_eq!(parse.to_string(), "trace line 3: missing verb");
        let sem = TraceError::semantic("`a` departs while detached");
        assert_eq!(sem.to_string(), "invalid trace: `a` departs while detached");
    }
}
