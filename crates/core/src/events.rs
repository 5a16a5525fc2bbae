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
//!   symbolic model references. Malformed streams are reported as a typed
//!   [`TraceError`] instead of a panic.
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
//! Two built-in observers ship: [`LoadMonitor`] (below) turns the stream
//! into live per-device load signals for placement policies, and
//! `tally_workloads::trace::TraceRecorder` captures a replayable
//! `ArrivalTrace` from a live run.

use std::collections::{BTreeMap, VecDeque};
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
/// Produced by [`Colocation::trace`](crate::harness::Colocation::trace),
/// [`Cluster::trace`](crate::cluster::Cluster::trace), and the
/// `tally_workloads::trace` parser/validator (which reports 1-based line
/// numbers for text-format errors).
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
    /// An [admission policy](crate::admission::AdmissionPolicy) paused a
    /// client's intake instead of rejecting outright: the arrival stays
    /// queued and retries once the pause elapses. One arrival may defer
    /// repeatedly before it is finally admitted or shed.
    RequestDeferred {
        /// Session-local client id.
        client: ClientId,
        /// When the deferred request arrived.
        arrival: SimTime,
        /// How long intake is paused.
        pause: SimSpan,
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
    /// A sample of the engine's aggregate counters, emitted whenever a
    /// settled instant advanced simulated time. The busy integral is
    /// cumulative: divide deltas by `elapsed × total_thread_slots` for
    /// mean occupancy over a window.
    EngineSample {
        /// Engine lifetime busy thread-nanoseconds
        /// ([`Engine::busy_thread_ns`](tally_gpu::Engine::busy_thread_ns)).
        busy_thread_ns: u128,
        /// The device's total resident-thread capacity.
        total_thread_slots: u64,
        /// Engine lifetime event count (launches submitted + completed +
        /// preempted + wave rounds) — a deterministic work measure that
        /// lets observers relate host wall-clock to simulation effort.
        events_processed: u64,
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
/// [`Colocation::sync_observer`](crate::harness::Colocation::sync_observer),
/// [`Session::add_sync_observer`](crate::harness::Session::add_sync_observer),
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
/// Every observer sees one deterministic stream. A session delivers what
/// it observed at the end of each settle. A
/// [`Cluster`](crate::cluster::Cluster) advancing on more than one worker
/// thread instead buffers each device's observations and delivers them at
/// every barrier in device-index order, so the interleaving across devices
/// is identical for every thread count.
pub type SharedSyncObserver = Arc<Mutex<dyn SessionObserver + Send>>;

/// Per-device live load signals derived from the observation stream — the
/// runtime half of [`DeviceLoad`](crate::cluster::DeviceLoad).
///
/// A [`Cluster`](crate::cluster::Cluster) runs one inside every device's
/// session and copies its signals into every `DeviceLoad` snapshot handed
/// to a [`PlacementPolicy`](crate::cluster::PlacementPolicy), so policies
/// like [`LoadAware`](crate::cluster::LoadAware) can react to phase changes
/// instead of static demand estimates. It can also be attached by hand to
/// a single-GPU session:
///
/// ```
/// use tally_core::events::LoadMonitor;
/// use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
/// use tally_gpu::{GpuSpec, KernelDesc, SimSpan, SimTime};
///
/// let monitor = LoadMonitor::shared_sync(SimSpan::from_millis(50));
/// let k = KernelDesc::builder("step")
///     .grid(64).block(512)
///     .block_cost(SimSpan::from_millis(1))
///     .build_arc();
/// Colocation::on(GpuSpec::tiny())
///     .client(JobSpec::training("t", vec![WorkloadOp::Kernel(k)]))
///     .sync_observer(monitor.clone())
///     .config(HarnessConfig {
///         duration: SimSpan::from_millis(200),
///         warmup: SimSpan::ZERO,
///         ..Default::default()
///     })
///     .run();
/// let m = monitor.lock().unwrap();
/// // A solo trainer saturates the device: occupancy near 1, nothing
/// // outstanding once the run has drained.
/// assert!(m.recent_occupancy(0, SimTime::from_millis(200)) > 0.5);
/// ```
#[derive(Debug, Default)]
pub struct LoadMonitor {
    window: SimSpan,
    devices: BTreeMap<usize, DeviceSignals>,
}

#[derive(Debug, Default)]
struct DeviceSignals {
    /// Clients with a dispatched-but-unfinished logical kernel, and
    /// whether each is high-priority.
    outstanding: BTreeMap<u32, bool>,
    /// Scheduling class per attached client (from lifecycle events).
    priority: BTreeMap<u32, bool>,
    /// Running integral of outstanding high-priority kernels over time,
    /// in kernel-seconds, with checkpoints at every change.
    hp_integral: f64,
    hp_outstanding: usize,
    last_update: SimTime,
    /// `(instant, integral)` checkpoints; piecewise linear between them.
    hp_points: VecDeque<(SimTime, f64)>,
    /// `(instant, busy_thread_ns)` engine samples; a step function.
    occ_samples: VecDeque<(SimTime, u128)>,
    thread_slots: u64,
}

impl DeviceSignals {
    fn advance(&mut self, at: SimTime) {
        if at > self.last_update {
            self.hp_integral +=
                self.hp_outstanding as f64 * at.saturating_since(self.last_update).as_secs_f64();
            self.last_update = at;
        }
    }

    fn checkpoint(&mut self, at: SimTime, window: SimSpan) {
        self.hp_points.push_back((at, self.hp_integral));
        let boundary = at - window;
        while self.hp_points.len() > 1 && self.hp_points[1].0 <= boundary {
            self.hp_points.pop_front();
        }
    }

    fn set_outstanding(&mut self, at: SimTime, window: SimSpan, client: u32, present: bool) {
        self.advance(at);
        let hp = self.priority.get(&client).copied().unwrap_or(false);
        let changed = if present {
            self.outstanding.insert(client, hp).is_none()
        } else {
            self.outstanding.remove(&client).is_some()
        };
        if changed && hp {
            if present {
                self.hp_outstanding += 1;
            } else {
                self.hp_outstanding -= 1;
            }
            self.checkpoint(at, window);
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
                let span = pt.saturating_since(t0).as_secs_f64();
                if span <= 0.0 {
                    return pi;
                }
                let frac = t.saturating_since(t0).as_secs_f64() / span;
                return i0 + (pi - i0) * frac;
            }
            prev = Some((pt, pi));
        }
        match prev {
            // After the last checkpoint the slope is the current count.
            Some((t0, i0)) => {
                i0 + self.hp_outstanding as f64 * t.saturating_since(t0).as_secs_f64()
            }
            None => 0.0,
        }
    }
}

impl LoadMonitor {
    /// A monitor whose recent-window signals average over `window`.
    pub fn new(window: SimSpan) -> Self {
        assert!(!window.is_zero(), "monitor window must be positive");
        LoadMonitor {
            window,
            devices: BTreeMap::new(),
        }
    }

    /// A shared handle to a fresh monitor (see [`SharedSyncObserver`]).
    pub fn shared_sync(window: SimSpan) -> Arc<Mutex<LoadMonitor>> {
        Arc::new(Mutex::new(LoadMonitor::new(window)))
    }

    /// The averaging window.
    pub fn window(&self) -> SimSpan {
        self.window
    }

    /// Kernels dispatched to `device`'s sharing system and not yet
    /// finished, right now. Instantaneous queue pressure: every attached
    /// client contributes at most one logical kernel.
    pub fn queue_depth(&self, device: usize) -> usize {
        self.devices.get(&device).map_or(0, |d| d.outstanding.len())
    }

    /// Mean busy-thread occupancy of `device` over the trailing window
    /// ending at `now`, from the engine's busy-integral counter: `1.0`
    /// means every resident-thread slot was busy the whole window.
    pub fn recent_occupancy(&self, device: usize, now: SimTime) -> f64 {
        let Some(d) = self.devices.get(&device) else {
            return 0.0;
        };
        if d.thread_slots == 0 || d.occ_samples.is_empty() {
            return 0.0;
        }
        let boundary = now - self.window;
        // Step function: busy at an instant is the last sample at/before it.
        let busy_at = |t: SimTime| -> u128 {
            let mut v = 0;
            for &(st, sb) in &d.occ_samples {
                if st > t {
                    break;
                }
                v = sb;
            }
            v
        };
        let span = now.saturating_since(boundary).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let busy = busy_at(now).saturating_sub(busy_at(boundary)) as f64;
        busy / (span * 1e9 * d.thread_slots as f64)
    }

    /// Time-weighted mean number of outstanding *high-priority* kernels on
    /// `device` over the trailing window ending at `now` — live pressure
    /// from latency-critical tenants, `~1.0` when a service keeps one
    /// request in flight the whole window, `~0.0` while it sits quiet.
    pub fn hp_pressure(&self, device: usize, now: SimTime) -> f64 {
        let Some(d) = self.devices.get(&device) else {
            return 0.0;
        };
        let boundary = now - self.window;
        let span = now.saturating_since(boundary).as_secs_f64();
        if span <= 0.0 {
            return 0.0;
        }
        let delta = d.integral_at(now) - d.integral_at(boundary);
        (delta / span).max(0.0)
    }
}

impl SessionObserver for LoadMonitor {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        let window = self.window;
        let d = self.devices.entry(device).or_default();
        match event {
            Observation::ClientAttached {
                client, priority, ..
            } => {
                d.priority.insert(client.0, priority.is_high());
            }
            Observation::ClientDetached { client, .. } => {
                // Detach preempts and forgets the client's in-flight work.
                d.set_outstanding(at, window, client.0, false);
            }
            Observation::KernelDispatched { client, .. } => {
                d.set_outstanding(at, window, client.0, true);
            }
            Observation::KernelFinished { client } => {
                d.set_outstanding(at, window, client.0, false);
            }
            Observation::EngineSample {
                busy_thread_ns,
                total_thread_slots,
                ..
            } => {
                d.thread_slots = *total_thread_slots;
                d.occ_samples.push_back((at, *busy_thread_ns));
                let boundary = at - window;
                while d.occ_samples.len() > 1 && d.occ_samples[1].0 <= boundary {
                    d.occ_samples.pop_front();
                }
            }
            Observation::ClientMigrated {
                from, from_client, ..
            } => {
                // The source slot is a tombstone now; its in-flight kernel
                // was preempted and will be re-issued on the destination.
                if let Some(src) = self.devices.get_mut(from) {
                    src.set_outstanding(at, window, from_client.0, false);
                }
            }
            Observation::RequestCompleted { .. }
            | Observation::RequestShed { .. }
            | Observation::RequestDeferred { .. }
            | Observation::Rebalance { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch(m: &mut LoadMonitor, at_ms: u64, dev: usize, client: u32, kernel_name: &str) {
        let k = KernelDesc::builder(kernel_name)
            .grid(1)
            .block(32)
            .block_cost(SimSpan::from_micros(10))
            .build_arc();
        m.on_event(
            SimTime::from_millis(at_ms),
            dev,
            &Observation::KernelDispatched {
                client: ClientId(client),
                kernel: k,
            },
        );
    }

    fn attach(m: &mut LoadMonitor, at_ms: u64, dev: usize, client: u32, hp: bool) {
        m.on_event(
            SimTime::from_millis(at_ms),
            dev,
            &Observation::ClientAttached {
                client: ClientId(client),
                key: format!("c{client}"),
                priority: if hp {
                    Priority::High
                } else {
                    Priority::BestEffort
                },
                descriptor: None,
                reattach: false,
            },
        );
    }

    #[test]
    fn queue_depth_tracks_outstanding_kernels() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        attach(&mut m, 0, 0, 0, true);
        attach(&mut m, 0, 0, 1, false);
        dispatch(&mut m, 1, 0, 0, "a");
        dispatch(&mut m, 1, 0, 1, "b");
        assert_eq!(m.queue_depth(0), 2);
        assert_eq!(m.queue_depth(1), 0);
        m.on_event(
            SimTime::from_millis(2),
            0,
            &Observation::KernelFinished {
                client: ClientId(0),
            },
        );
        assert_eq!(m.queue_depth(0), 1);
        // Detach clears the remaining outstanding kernel.
        m.on_event(
            SimTime::from_millis(3),
            0,
            &Observation::ClientDetached {
                client: ClientId(1),
                key: "c1".into(),
            },
        );
        assert_eq!(m.queue_depth(0), 0);
    }

    #[test]
    fn hp_pressure_decays_after_the_service_goes_quiet() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        attach(&mut m, 0, 0, 0, true);
        // One hp kernel outstanding over [0, 100ms), then nothing.
        dispatch(&mut m, 0, 0, 0, "req");
        m.on_event(
            SimTime::from_millis(100),
            0,
            &Observation::KernelFinished {
                client: ClientId(0),
            },
        );
        // Right at the finish the whole window was busy.
        let hot = m.hp_pressure(0, SimTime::from_millis(100));
        assert!(hot > 0.95, "pressure at finish {hot}");
        // Half a window later only half the window was busy.
        let mid = m.hp_pressure(0, SimTime::from_millis(150));
        assert!((0.4..0.6).contains(&mid), "pressure mid-decay {mid}");
        // A full window later the signal is gone.
        let cold = m.hp_pressure(0, SimTime::from_millis(250));
        assert!(cold < 0.01, "pressure after decay {cold}");
    }

    #[test]
    fn best_effort_kernels_do_not_raise_hp_pressure() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        attach(&mut m, 0, 0, 0, false);
        dispatch(&mut m, 0, 0, 0, "train");
        assert_eq!(m.queue_depth(0), 1);
        assert_eq!(m.hp_pressure(0, SimTime::from_millis(100)), 0.0);
    }

    #[test]
    fn occupancy_window_averages_engine_samples() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        // 1000 thread slots; busy ramps at half speed: 50ms of busy-threads
        // accrued over each 100ms (per-slot share 0.5).
        for i in 0..=10u64 {
            m.on_event(
                SimTime::from_millis(10 * i),
                0,
                &Observation::EngineSample {
                    busy_thread_ns: (10 * i * 1_000_000 / 2) as u128 * 1000,
                    total_thread_slots: 1000,
                    events_processed: 0,
                },
            );
        }
        let occ = m.recent_occupancy(0, SimTime::from_millis(100));
        assert!((occ - 0.5).abs() < 0.05, "occupancy {occ}");
        // With no further samples the window drains toward zero.
        let later = m.recent_occupancy(0, SimTime::from_millis(250));
        assert!(later < 0.01, "stale occupancy {later}");
    }

    #[test]
    fn migration_clears_the_source_slot() {
        let mut m = LoadMonitor::new(SimSpan::from_millis(100));
        attach(&mut m, 0, 0, 3, false);
        dispatch(&mut m, 1, 0, 3, "train");
        assert_eq!(m.queue_depth(0), 1);
        m.on_event(
            SimTime::from_millis(2),
            0,
            &Observation::ClientMigrated {
                key: "c3".into(),
                from: 0,
                to: 1,
                from_client: ClientId(3),
                to_client: ClientId(7),
                bytes: 0,
                stall: SimSpan::ZERO,
            },
        );
        assert_eq!(m.queue_depth(0), 0, "migrated-away kernel forgotten");
    }

    #[test]
    fn trace_error_display_distinguishes_parse_and_semantic() {
        let parse = TraceError::at_line(3, "missing verb");
        assert_eq!(parse.to_string(), "trace line 3: missing verb");
        let sem = TraceError::semantic("`a` departs while detached");
        assert_eq!(sem.to_string(), "invalid trace: `a` departs while detached");
    }
}
