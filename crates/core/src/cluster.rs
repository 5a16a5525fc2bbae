//! Multi-GPU scheduling: place clients across a fleet of per-GPU
//! co-location sessions, advance them in parallel between deterministic
//! barriers, and migrate best-effort clients between devices.
//!
//! The paper evaluates priority isolation per device; a production server
//! places many clients across many GPUs. The [`Cluster`] builder constructs
//! one [`Session`] per GPU (heterogeneous [`GpuSpec`]s allowed), routes
//! every [`JobSpec`] to a device through a pluggable [`PlacementPolicy`],
//! and drives all engines on a shared simulated clock. Within a device the
//! existing sharing systems run completely unmodified — a migration is
//! just a detach on the source device and an attach on the destination,
//! through the same [`SharingSystem`] hooks the dynamic client lifecycle
//! already uses.
//!
//! ## The barrier loop
//!
//! Sessions only interact through the cluster: a placement decision, a
//! migration pass, or a trace-driven injection reads the fleet's state
//! and mutates several sessions at once. Everything else — kernel
//! execution, request arrivals, window edges — is device-local. The drive
//! loop exploits that: it computes the next **interaction point**, the
//! earliest instant at which any cross-device action can occur, and
//! advances every session to it independently. The interaction points
//! are:
//!
//! * the first arrival of the next pending trace client (an injection
//!   consults live fleet loads);
//! * the next periodic rebalance tick ([`Cluster::rebalance_every`]);
//! * the next client departure anywhere in the fleet, *when*
//!   [`Cluster::migrate_on_detach`] is on (a departure triggers a
//!   migration pass). A client departs at the end of each of its activity
//!   windows and keeps its schedule across migrations, so the loop sorts
//!   every window close once before the run and never asks a session;
//! * the end of the run.
//!
//! Between barriers the sessions are advanced concurrently on a scoped
//! thread pool ([`Cluster::threads`]). Determinism is preserved by
//! construction, not by luck: each session's evolution between barriers
//! depends only on its own state, every cross-device effect is applied
//! at a barrier in **fixed device-index order** on the driving thread
//! (settles, migration passes, observer deliveries), and the per-barrier
//! wall-clock measurements are kept out of the deterministic report
//! surface (see [`HostStats`]). With one worker each session runs to the
//! barrier in turn and delivers its observations in batches, the last
//! before it returns, which is already device order; with more, sessions
//! hold them until the barrier and the driving thread delivers them in
//! device order. Reports and observer streams are therefore
//! byte-identical for any thread count — `threads(1)` reproduces the
//! historical single-threaded drive exactly, and
//! `tests/parallel_determinism.rs` asserts it.
//!
//! Four placement policies ship:
//!
//! * [`RoundRobin`] — device `i % N` for the `i`-th job;
//! * [`LeastLoaded`] — the device with the least estimated GPU demand;
//! * [`BestEffortPacking`] — spread high-priority clients so no two share
//!   a device until they must, and pack best-effort clients together on
//!   the devices with the fewest high-priority tenants;
//! * [`LoadAware`] — place and migrate by the *runtime* [`DeviceLoad`]
//!   signals (queue depth, recent occupancy, high-priority pressure) that
//!   each device's session distills from its live event stream, reacting
//!   to phase changes static demand estimates cannot see.
//!
//! ```
//! use tally_core::cluster::{Cluster, LeastLoaded};
//! use tally_core::harness::{HarnessConfig, JobSpec, WorkloadOp};
//! use tally_gpu::{GpuSpec, KernelDesc, SimSpan};
//!
//! let k = KernelDesc::builder("step")
//!     .grid(64).block(128)
//!     .block_cost(SimSpan::from_micros(500))
//!     .build_arc();
//! let trainer = |n: &str| JobSpec::training(n, vec![WorkloadOp::Kernel(k.clone())]);
//! let report = Cluster::new()
//!     .devices(2, GpuSpec::tiny())
//!     .client(trainer("a"))
//!     .client(trainer("b"))
//!     .policy(LeastLoaded)
//!     .config(HarnessConfig {
//!         duration: SimSpan::from_secs(1),
//!         warmup: SimSpan::ZERO,
//!         ..Default::default()
//!     })
//!     .run();
//! assert_eq!(report.clients.len(), 2);
//! // LeastLoaded spreads the two identical trainers across both GPUs.
//! assert_ne!(report.clients[0].device, report.clients[1].device);
//! ```

use std::fmt;
use std::sync::Mutex;

use tally_gpu::{GpuSpec, SimSpan, SimTime};

use crate::admission::AdmissionPolicy;
use crate::api::Transport;
use crate::events::{LoadMonitor, Observation, SharedSyncObserver, TraceError};
use crate::harness::{
    trace_jobs, Colocation, HarnessConfig, JobKind, JobSpec, Session, SessionEvent,
};
use crate::metrics::{ClientReport, HostStats, LatencyRecorder};
use crate::system::{Passthrough, SharingSystem};
use crate::topology::Topology;

/// Load snapshot of one device, handed to [`PlacementPolicy`] decisions.
///
/// The static half (`clients` / `high_priority` / `best_effort` /
/// `demand`) is computed from the resident jobs' specs; the runtime half
/// (`queue_depth` / `recent_occupancy` / `hp_pressure`) comes from a load
/// monitor inside each device's session that folds the session's live
/// event stream as it is emitted, so policies can react to what the
/// devices are *actually doing* — phase changes, bursts, idle gaps —
/// instead of static estimates. The cluster reads it at barriers and
/// rebalance ticks. Runtime signals are all zero for the up-front
/// placements at `t = 0`.
#[derive(Clone, Debug)]
pub struct DeviceLoad {
    /// Device index within the cluster.
    pub device: usize,
    /// The device's hardware description (lets policies evaluate
    /// [`job_demand`] against heterogeneous GPUs).
    pub spec: GpuSpec,
    /// Clients counted toward this snapshot. A rebalance pass counts the
    /// attached clients; a trace injection also counts clients admitted at
    /// that instant that attach in the next settle; up-front placement
    /// counts every client placed so far.
    pub clients: usize,
    /// Resident high-priority clients.
    pub high_priority: usize,
    /// Resident best-effort clients.
    pub best_effort: usize,
    /// Sum of the residents' estimated GPU demand (see [`job_demand`]):
    /// GPU-busy seconds per wall second, so `1.0` saturates the device.
    pub demand: f64,
    /// Kernels dispatched to the device's sharing system and not yet
    /// finished, right now: dispatches minus finishes, with a detach or a
    /// migration off the device dropping the client's kernel. Every
    /// attached client contributes at most one logical kernel, so this
    /// counts the clients with work in flight.
    pub queue_depth: usize,
    /// Mean busy-thread occupancy over the trailing
    /// [`Cluster::monitor_window`], from the engine's busy-integral
    /// samples: `1.0` means every resident-thread slot was busy the whole
    /// window.
    pub recent_occupancy: f64,
    /// Time-weighted mean number of outstanding *high-priority* kernels
    /// over the [`Cluster::monitor_window`]: `~1.0`
    /// while a latency-critical service keeps a request in flight, `~0.0`
    /// while it sits quiet — the signal that separates a bursting device
    /// from one whose tenants merely look heavy on paper.
    pub hp_pressure: f64,
    /// Projected state-transfer stall for moving the candidate job from
    /// its current device to this one, over the cluster's
    /// [`Topology`]: `Some(ZERO)` when the
    /// move is free (same device, flat topology, or zero
    /// [`JobSpec::state_bytes`]), `None` when no interconnect path exists
    /// (the cluster refuses such moves regardless of the policy's
    /// choice). Always `Some(ZERO)` for `place` decisions — a fresh
    /// client has no resident state to move.
    pub transfer: Option<SimSpan>,
}

/// Estimated GPU demand of a job on a device: busy seconds of GPU time the
/// job asks for per second of wall time.
///
/// Training jobs demand `busy / (busy + gaps)` of one iteration; inference
/// services demand `arrival rate × busy-per-request`. This is a static
/// estimate from the job's kernel mix (via
/// [`KernelDesc::solo_latency`](tally_gpu::KernelDesc::solo_latency)), not
/// a runtime measurement — which keeps placement deterministic and cheap.
pub fn job_demand(job: &JobSpec, spec: &GpuSpec) -> f64 {
    let busy_and_gaps = |ops: &[crate::harness::WorkloadOp]| {
        let mut busy = 0.0;
        let mut gaps = 0.0;
        for op in ops {
            match op {
                crate::harness::WorkloadOp::Kernel(k) => busy += k.solo_latency(spec).as_secs_f64(),
                crate::harness::WorkloadOp::CpuGap(g) => gaps += g.as_secs_f64(),
            }
        }
        (busy, gaps)
    };
    match &job.kind {
        JobKind::Training { iteration } => {
            let (busy, gaps) = busy_and_gaps(iteration);
            let wall = busy + gaps;
            if wall > 0.0 {
                busy / wall
            } else {
                0.0
            }
        }
        JobKind::Inference { request, arrivals } => {
            let (busy, _) = busy_and_gaps(request);
            let Some(&last) = arrivals.last() else {
                return 0.0;
            };
            // The trace span is at least one request's busy time, so a
            // degenerate trace (single arrival, or a burst at t=0) reads
            // as "one saturated serial stream" instead of exploding.
            let span = last.as_secs_f64().max(busy).max(1e-9);
            arrivals.len() as f64 / span * busy
        }
    }
}

/// Routes jobs to devices, and picks migration targets for best-effort
/// clients when the cluster rebalances.
///
/// Implementations must be deterministic: identical inputs must produce
/// identical choices (break score ties by device index), so that a seeded
/// cluster run is byte-for-byte reproducible.
pub trait PlacementPolicy {
    /// Short policy name, recorded in the [`ClusterReport`].
    fn name(&self) -> &str;

    /// Picks the device for `job`. `devices` reflects all placements made
    /// so far; the returned index must be `< devices.len()`.
    fn place(&mut self, job: &JobSpec, devices: &[DeviceLoad]) -> usize;

    /// Picks a migration target for best-effort `job`, currently resident
    /// on `from` (whose load still includes it). `None` keeps it in place.
    ///
    /// The default moves the job to the least-loaded other device, but
    /// only when (a) the source is strictly more loaded than the
    /// destination and (b) the move does not invert the imbalance —
    /// migration monotonically shrinks the gap, so clients never
    /// ping-pong.
    fn migrate(&mut self, job: &JobSpec, from: usize, devices: &[DeviceLoad]) -> Option<usize> {
        let target = devices
            .iter()
            .filter(|d| d.device != from)
            .min_by(|a, b| a.demand.total_cmp(&b.demand).then(a.device.cmp(&b.device)))?;
        let here = job_demand(job, &devices[from].spec);
        let there = job_demand(job, &target.spec);
        let improves = devices[from].demand > target.demand;
        let no_inversion = devices[from].demand - here >= target.demand + there;
        (improves && no_inversion).then_some(target.device)
    }
}

/// Place the `i`-th job on device `i % N` — oblivious to load, the
/// baseline every smarter policy is measured against.
#[derive(Clone, Debug, Default)]
pub struct RoundRobin {
    next: usize,
}

impl PlacementPolicy for RoundRobin {
    fn name(&self) -> &str {
        "round-robin"
    }

    fn place(&mut self, _job: &JobSpec, devices: &[DeviceLoad]) -> usize {
        let d = self.next % devices.len();
        self.next += 1;
        d
    }
}

/// Place each job on the device with the least estimated GPU demand
/// (ties broken by lowest device index).
#[derive(Clone, Debug, Default)]
pub struct LeastLoaded;

impl PlacementPolicy for LeastLoaded {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn place(&mut self, _job: &JobSpec, devices: &[DeviceLoad]) -> usize {
        devices
            .iter()
            .min_by(|a, b| a.demand.total_cmp(&b.demand).then(a.device.cmp(&b.device)))
            .expect("at least one device")
            .device
    }
}

/// Place and migrate by what the devices are *actually doing*: the
/// runtime [`DeviceLoad`] signals each device's session distills from its
/// event stream, with the static demand estimate only as a tie-break.
///
/// * **Placement** picks the device with the lowest live load
///   (`hp_pressure + recent_occupancy`, then static demand, then index).
///   At `t = 0` nothing has run yet, so it behaves exactly like
///   [`LeastLoaded`].
/// * **Migration** moves a best-effort client off a device whose
///   high-priority pressure exceeds the coldest alternative's by more
///   than a fixed margin (0.25 outstanding kernels) — so trainers
///   evacuate a device whose service is in a burst phase and come back
///   when the burst moves elsewhere, something no static `job_demand`
///   comparison can see. The margin keeps the rule
///   hysteretic: near-equal pressures never trigger a move, so clients
///   don't ping-pong within a phase.
/// * **Transfer costs** are amortized, not ignored: under a non-flat
///   [`Topology`] every candidate carries the
///   projected state-transfer stall ([`DeviceLoad::transfer`]), and a
///   move only fires when the pressure relief it buys over `horizon`
///   outweighs the stall the migrating client pays — so a 2.7B-parameter
///   service does not shuttle across a 12.5 GB/s node boundary to dodge a
///   burst that a cheaper (or no) move would ride out.
///
/// ```
/// use tally_core::cluster::LoadAware;
/// use tally_gpu::SimSpan;
///
/// // Default: moves must pay for themselves within 500 ms of relief.
/// let costed = LoadAware::default();
/// assert_eq!(costed.horizon, Some(SimSpan::from_millis(500)));
/// // Patient variant: a long horizon accepts expensive moves.
/// let patient = LoadAware { horizon: Some(SimSpan::from_secs(10)) };
/// // Topology-blind ablation: migrates as if every link were free.
/// assert_eq!(LoadAware::topology_blind().horizon, None);
/// ```
#[derive(Clone, Debug)]
pub struct LoadAware {
    /// Amortization horizon for transfer costs: a move fires only when
    /// `pressure_gap × horizon ≥ projected stall` — the tail-latency
    /// relief expected over the horizon must pay for the state transfer.
    /// `None` ignores transfer costs entirely (the pre-topology
    /// behavior, kept as an ablation via [`LoadAware::topology_blind`]).
    /// Under the flat default topology every transfer is free, so the
    /// two settings behave identically.
    pub horizon: Option<SimSpan>,
}

impl Default for LoadAware {
    fn default() -> Self {
        LoadAware {
            horizon: Some(SimSpan::from_millis(500)),
        }
    }
}

/// Minimum high-priority pressure gap (in mean outstanding kernels)
/// between the source and the coldest other device before [`LoadAware`]
/// migrates. The paper is single-GPU, so this hysteresis is the fleet
/// extension's own calibration.
const MIGRATE_MARGIN: f64 = 0.25;

impl LoadAware {
    /// The topology-blind ablation: identical pressure rules, but
    /// migration decisions pretend every interconnect path is free (the
    /// cluster still charges the real stall). This is what `LoadAware`
    /// was before transfer costs existed — keep it around for measuring
    /// what cost-awareness buys.
    pub fn topology_blind() -> Self {
        LoadAware { horizon: None }
    }

    fn runtime_load(d: &DeviceLoad) -> f64 {
        d.hp_pressure + d.recent_occupancy
    }

    /// The projected stall of moving to `d`, in seconds, for cost
    /// ranking. Unreachable devices rank behind everything reachable.
    fn transfer_secs(d: &DeviceLoad) -> f64 {
        d.transfer.map_or(f64::INFINITY, SimSpan::as_secs_f64)
    }
}

impl PlacementPolicy for LoadAware {
    fn name(&self) -> &str {
        "load-aware"
    }

    fn place(&mut self, _job: &JobSpec, devices: &[DeviceLoad]) -> usize {
        devices
            .iter()
            .min_by(|a, b| {
                (Self::runtime_load(a), a.demand, a.device)
                    .partial_cmp(&(Self::runtime_load(b), b.demand, b.device))
                    .expect("finite load")
            })
            .expect("at least one device")
            .device
    }

    fn migrate(&mut self, _job: &JobSpec, from: usize, devices: &[DeviceLoad]) -> Option<usize> {
        let costed = self.horizon.is_some();
        let target = devices
            .iter()
            .filter(|d| d.device != from && (!costed || d.transfer.is_some()))
            .min_by(|a, b| {
                let cost = |d: &DeviceLoad| {
                    let t = if costed { Self::transfer_secs(d) } else { 0.0 };
                    (d.hp_pressure, Self::runtime_load(d), t, d.device)
                };
                cost(a).partial_cmp(&cost(b)).expect("finite load")
            })?;
        if devices[from].hp_pressure <= target.hp_pressure + MIGRATE_MARGIN {
            return None;
        }
        if let Some(h) = self.horizon {
            // Expected pressure-relief over the horizon must amortize the
            // stall the migrating client pays up front.
            let gap = devices[from].hp_pressure - target.hp_pressure;
            if gap * h.as_secs_f64() < Self::transfer_secs(target) {
                return None;
            }
        }
        Some(target.device)
    }
}

/// Spread high-priority clients, pack best-effort clients.
///
/// A high-priority job goes to the device with the fewest high-priority
/// tenants (then least demand): latency-critical services should not share
/// a device until they must. A best-effort job also avoids high-priority
/// tenants but then *packs* — it joins the device that already hosts the
/// most best-effort work, keeping the remaining devices clean for future
/// high-priority arrivals.
#[derive(Clone, Debug, Default)]
pub struct BestEffortPacking;

impl PlacementPolicy for BestEffortPacking {
    fn name(&self) -> &str {
        "best-effort-packing"
    }

    fn place(&mut self, job: &JobSpec, devices: &[DeviceLoad]) -> usize {
        if job.priority.is_high() {
            devices
                .iter()
                .min_by(|a, b| {
                    (a.high_priority, a.demand, a.device)
                        .partial_cmp(&(b.high_priority, b.demand, b.device))
                        .expect("finite demand")
                })
                .expect("at least one device")
                .device
        } else {
            devices
                .iter()
                .min_by(|a, b| {
                    (a.high_priority, std::cmp::Reverse(a.best_effort), a.device).cmp(&(
                        b.high_priority,
                        std::cmp::Reverse(b.best_effort),
                        b.device,
                    ))
                })
                .expect("at least one device")
                .device
        }
    }
}

/// A multi-GPU co-location session: N devices, each running its own
/// sharing system, with clients routed by a [`PlacementPolicy`] and all
/// engines advanced in lockstep on the shared simulated clock.
///
/// See the [module docs](self) for an end-to-end example. Optional knobs:
///
/// * [`Cluster::systems_with`] — per-device sharing system (default
///   [`Passthrough`]);
/// * [`Cluster::transport`] — put every client behind the §4.3
///   interception stub, exactly as [`Colocation::transport`] does;
/// * [`Cluster::migrate_on_detach`] — when a client departs, offer the
///   policy a chance to migrate best-effort clients onto the freed
///   device (on by default);
/// * [`Cluster::rebalance_every`] — additionally run the migration pass on
///   a fixed period;
/// * [`Cluster::sync_observer`] — tap the fleet-wide typed event stream
///   (lifecycle edges, kernels, requests, migrations, rebalances);
/// * [`Cluster::monitor_window`] — the averaging window of the per-device
///   load monitors behind the runtime [`DeviceLoad`] signals.
pub struct Cluster {
    devices: Vec<GpuSpec>,
    jobs: Vec<JobSpec>,
    trace: Vec<(SimTime, SessionEvent)>,
    /// The accumulated trace compiled to jobs, cached by [`Cluster::trace`]
    /// so [`Cluster::run`] does not compile the stream twice.
    trace_jobs: Vec<JobSpec>,
    policy: Box<dyn PlacementPolicy>,
    system_factory: Box<dyn Fn(usize) -> Box<dyn SharingSystem>>,
    cfg: HarnessConfig,
    transport: Option<Transport>,
    migrate_on_detach: bool,
    rebalance_every: Option<SimSpan>,
    sync_observers: Vec<SharedSyncObserver>,
    admission_factory: Option<AdmissionFactory>,
    monitor_window: SimSpan,
    threads: Option<usize>,
    topology: Option<Topology>,
}

/// Per-device constructor for [`AdmissionPolicy`] instances, as installed
/// by [`Cluster::admission_with`].
type AdmissionFactory = Box<dyn Fn(usize) -> Box<dyn AdmissionPolicy>>;

impl fmt::Debug for Cluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cluster")
            .field("devices", &self.devices.len())
            .field("jobs", &self.jobs.len())
            .field("policy", &self.policy.name())
            .field("cfg", &self.cfg)
            .field("migrate_on_detach", &self.migrate_on_detach)
            .field("rebalance_every", &self.rebalance_every)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl Default for Cluster {
    fn default() -> Self {
        Self::new()
    }
}

impl Cluster {
    /// An empty cluster: add devices and clients, then [`Cluster::run`].
    pub fn new() -> Self {
        Cluster {
            devices: Vec::new(),
            jobs: Vec::new(),
            trace: Vec::new(),
            trace_jobs: Vec::new(),
            policy: Box::new(RoundRobin::default()),
            system_factory: Box::new(|_| Box::new(Passthrough::new())),
            cfg: HarnessConfig::default(),
            transport: None,
            migrate_on_detach: true,
            rebalance_every: None,
            sync_observers: Vec::new(),
            admission_factory: None,
            monitor_window: SimSpan::from_millis(100),
            threads: None,
            topology: None,
        }
    }

    /// Adds one GPU to the fleet.
    pub fn device(mut self, spec: GpuSpec) -> Self {
        self.devices.push(spec);
        self
    }

    /// Adds `n` identical GPUs to the fleet.
    pub fn devices(mut self, n: usize, spec: GpuSpec) -> Self {
        self.devices.extend(std::iter::repeat_n(spec, n));
        self
    }

    /// Adds one client job (placed by the policy when the run starts).
    pub fn client(mut self, job: JobSpec) -> Self {
        self.jobs.push(job);
        self
    }

    /// Adds several client jobs, in order.
    pub fn clients(mut self, jobs: impl IntoIterator<Item = JobSpec>) -> Self {
        self.jobs.extend(jobs);
        self
    }

    /// Drives the fleet from a time-ordered arrive/depart event stream:
    /// each distinct key becomes one client that is *injected* when the
    /// shared clock reaches its first arrival — the placement policy sees
    /// the loads of the clients actually resident at that instant, not a
    /// static up-front plan — and is attached/detached/re-attached as the
    /// clock crosses its later events. Explicitly added clients
    /// ([`Cluster::client`]) are still placed up front.
    ///
    /// Returns a [`TraceError`] if the accumulated stream is invalid, as
    /// [`compile_trace`](crate::harness::compile_trace) words it.
    pub fn trace(
        mut self,
        events: impl IntoIterator<Item = (SimTime, SessionEvent)>,
    ) -> Result<Self, TraceError> {
        self.trace.extend(events);
        // Compile the whole accumulated stream (chained calls must stay
        // consistent across call boundaries) and keep the result so that
        // `run` does not compile it a second time.
        self.trace_jobs = trace_jobs(&self.trace)?;
        Ok(self)
    }

    /// Registers an observer for the fleet-wide typed event stream: every
    /// per-device observation (stamped with its device index) plus the
    /// cluster-level [`Observation::ClientMigrated`] and
    /// [`Observation::Rebalance`] markers. The handle is shared (see
    /// [`SharedSyncObserver`]) — keep a clone to read the observer's state
    /// back after [`Cluster::run`]. The stream is identical for every
    /// worker-thread count (see the [module docs](self)).
    pub fn sync_observer(mut self, observer: SharedSyncObserver) -> Self {
        self.sync_observers.push(observer);
        self
    }

    /// Installs an admission policy on every device, built from its
    /// device index (see [`AdmissionPolicy`]). Each session feeds its
    /// policy the device-local observation stream and consults it before
    /// enqueuing each best-effort request; shed counts surface in the
    /// per-client reports ([`ClusterReport::shed`]).
    pub fn admission_with(
        mut self,
        factory: impl Fn(usize) -> Box<dyn AdmissionPolicy> + 'static,
    ) -> Self {
        self.admission_factory = Some(Box::new(factory));
        self
    }

    /// Sets the averaging window of the built-in per-device load
    /// monitors that feed the runtime [`DeviceLoad`] signals
    /// (default: 100 ms). Shorter
    /// windows react faster to phase changes; longer windows smooth over
    /// request-level noise.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn monitor_window(mut self, window: SimSpan) -> Self {
        assert!(!window.is_zero(), "monitor window must be positive");
        self.monitor_window = window;
        self
    }

    /// Sets the placement policy (default: [`RoundRobin`]).
    pub fn policy(mut self, policy: impl PlacementPolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Sets an already-boxed placement policy (for name-driven sweeps).
    pub fn policy_boxed(mut self, policy: Box<dyn PlacementPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Builds each device's sharing system from its index (default: a
    /// fresh [`Passthrough`] per device).
    pub fn systems_with(
        mut self,
        factory: impl Fn(usize) -> Box<dyn SharingSystem> + 'static,
    ) -> Self {
        self.system_factory = Box::new(factory);
        self
    }

    /// Sets the harness parameters shared by every device. Each device's
    /// engine is seeded with `cfg.seed + device_index`.
    pub fn config(mut self, cfg: HarnessConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Puts every client behind the §4.3 interception stub over
    /// `transport` (see [`Colocation::transport`]). A migrated client pays
    /// the attach burst again on its new device — migration is a
    /// reconnect.
    pub fn transport(mut self, transport: Transport) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Installs the device-interconnect topology that prices cross-device
    /// migrations (default: [`Topology::flat`] — every move is free, the
    /// pre-topology behavior). Under a non-flat topology each migrating
    /// client is stalled for `state_bytes / path_bandwidth` of simulated
    /// time on its destination (see
    /// [`Topology::transfer_time`]), the
    /// stall is surfaced in [`Observation::ClientMigrated`] and the
    /// [`ClusterReport`] migration counters, and moves between
    /// disconnected devices are refused outright.
    ///
    /// # Panics
    ///
    /// [`Cluster::run`] panics if the topology's device count does not
    /// match the fleet's.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Whether a client departure triggers a migration pass (default:
    /// `true`).
    pub fn migrate_on_detach(mut self, yes: bool) -> Self {
        self.migrate_on_detach = yes;
        self
    }

    /// Additionally runs the migration pass every `period` of simulated
    /// time.
    pub fn rebalance_every(mut self, period: SimSpan) -> Self {
        assert!(!period.is_zero(), "rebalance period must be positive");
        self.rebalance_every = Some(period);
        self
    }

    /// Worker threads for advancing sessions between barriers (default:
    /// the host's available parallelism), capped at the device count
    /// ([`HostStats::threads`] records the count used). `1` runs the
    /// historical single-threaded drive. The report is byte-identical for
    /// every value — see the [module docs](self) on the barrier loop — so
    /// this only trades host wall-clock for cores.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one worker thread required");
        self.threads = Some(n);
        self
    }

    /// Executes the cluster run and returns the aggregated report.
    ///
    /// # Panics
    ///
    /// Panics if the cluster has no devices or no clients, if the warmup
    /// is not shorter than the duration, or if the policy returns an
    /// out-of-range device index.
    pub fn run(self) -> ClusterReport {
        let Cluster {
            devices,
            mut jobs,
            trace: _,
            trace_jobs,
            mut policy,
            system_factory,
            cfg,
            transport,
            migrate_on_detach,
            rebalance_every,
            sync_observers,
            admission_factory,
            monitor_window,
            threads,
            topology,
        } = self;
        assert!(!devices.is_empty(), "at least one device required");
        let n = devices.len();
        let topology = topology.unwrap_or_else(|| Topology::flat(n));
        assert_eq!(
            topology.devices(),
            n,
            "topology spans {} devices but the fleet has {n}",
            topology.devices()
        );
        // More workers than sessions would idle, so the pool never exceeds
        // the fleet.
        let threads = threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
            .min(n);

        // Give every explicitly added client a stable key (jobs may repeat
        // a name); trace clients carry their event key.
        for (k, job) in jobs.iter_mut().enumerate() {
            if job.client_key.is_none() {
                job.client_key = Some(format!("{}#{k}", job.name));
            }
        }
        let upfront = jobs.len();
        jobs.extend(trace_jobs);
        assert!(!jobs.is_empty(), "at least one client required");
        {
            let mut seen = std::collections::BTreeSet::new();
            for job in &jobs {
                assert!(
                    seen.insert(job.key().to_string()),
                    "duplicate client key `{}`",
                    job.key()
                );
            }
        }
        let mut clients: Vec<FleetClient> = jobs.into_iter().map(FleetClient::new).collect();

        // Up-front placement of the explicitly added jobs, one at a time
        // against the loads so far; trace clients are placed when they are
        // injected at first arrival.
        let mut placed_jobs: Vec<Vec<JobSpec>> = vec![Vec::new(); n];
        for client in clients.iter_mut().take(upfront) {
            let loads: Vec<DeviceLoad> = devices
                .iter()
                .enumerate()
                .map(|(d, spec)| load_of(d, spec, placed_jobs[d].iter()))
                .collect();
            let d = policy.place(&client.job, &loads);
            assert!(d < n, "policy `{}` placed on device {d}/{n}", policy.name());
            client.place(d, placed_jobs[d].len());
            placed_jobs[d].push(client.job.clone());
        }
        // Trace clients await injection in first-arrival order (the order
        // `compile_trace` emits).
        let mut pending: std::collections::VecDeque<usize> = (upfront..clients.len()).collect();

        // One session per device, seeds staggered by device index, every
        // observer attached to every session under its device index. Each
        // session also owns the load monitor behind its device's runtime
        // DeviceLoad signals, read on this thread at barriers.
        let mut sessions: Vec<Session<'static>> = placed_jobs
            .into_iter()
            .enumerate()
            .map(|(d, dev_jobs)| {
                let mut dev_cfg = cfg.clone();
                dev_cfg.seed = cfg.seed.wrapping_add(d as u64);
                let mut colo = Colocation::on(devices[d].clone())
                    .clients(dev_jobs)
                    .system_boxed(system_factory(d))
                    .config(dev_cfg);
                if let Some(t) = transport {
                    colo = colo.transport(t);
                }
                for obs in &sync_observers {
                    colo = colo.sync_observer(obs.clone());
                }
                if let Some(factory) = &admission_factory {
                    colo = colo.admission(factory(d));
                }
                colo.into_device_session(d, Some(LoadMonitor::new(monitor_window)))
            })
            .collect();

        let end = SimTime::ZERO + cfg.duration;
        let mut next_rebalance = rebalance_every.map(|p| SimTime::ZERO + p);
        // Every window close in the fleet, in time order, when departures
        // trigger migration passes (see the module docs).
        let mut departures: Vec<SimTime> = clients
            .iter()
            .filter(|_| migrate_on_detach)
            .flat_map(|c| c.job.windows.iter().filter_map(|w| w.until))
            .collect();
        departures.sort_unstable();
        let mut departures = departures.into_iter().peekable();
        let mut host = HostStats {
            threads,
            ..HostStats::default()
        };

        // Barrier drive: inject trace clients whose first arrival is due,
        // settle everyone, migrate if triggered — all in device-index
        // order on this thread — then advance every session to the next
        // interaction point on the worker pool (see the module docs).
        loop {
            let now = sessions[0].now();
            while let Some(&k) = pending.front() {
                if clients[k].job.first_active() > now {
                    break;
                }
                pending.pop_front();
                place_pending(
                    policy.as_mut(),
                    &devices,
                    &mut sessions,
                    &mut clients[k],
                    now,
                );
            }
            for s in sessions.iter_mut() {
                s.settle();
            }

            let mut do_rebalance = false;
            while departures.next_if(|&t| t <= now).is_some() {
                do_rebalance = true;
            }
            if let Some(t) = next_rebalance {
                if t <= now {
                    do_rebalance = true;
                    let period = rebalance_every.expect("period set");
                    let mut next = t;
                    while next <= now {
                        next += period;
                    }
                    next_rebalance = Some(next);
                }
            }
            if do_rebalance && now < end {
                let moved = rebalance_pass(
                    policy.as_mut(),
                    &devices,
                    &topology,
                    &mut sessions,
                    &mut clients,
                    now,
                    &sync_observers,
                );
                fleet_emit(
                    &sync_observers,
                    now,
                    crate::events::FLEET_DEVICE,
                    &Observation::Rebalance { moved },
                );
                if moved > 0 {
                    for s in sessions.iter_mut() {
                        s.settle();
                    }
                }
            }

            if sessions.iter().all(Session::is_done) {
                break;
            }

            // The next interaction point: every term lies after `now`.
            // Session-local wake-ups (kernel finishes, arrivals, window
            // edges) deliberately do NOT bound it — each worker handles
            // its own between barriers.
            let mut barrier = end;
            if let Some(t) = next_rebalance {
                barrier = barrier.min(t);
            }
            if let Some(&k) = pending.front() {
                barrier = barrier.min(clients[k].job.first_active());
            }
            // The next departure anywhere in the fleet triggers a migration
            // pass, so it is an interaction point.
            if let Some(&t) = departures.peek() {
                barrier = barrier.min(t);
            }
            debug_assert!(
                barrier > now || barrier >= end,
                "barrier must make progress: {barrier:?} at {now:?}"
            );

            // Advance all sessions to the barrier on the worker pool.
            let start = host_now();
            advance_fleet(&mut sessions, barrier, threads);
            let spent = start.elapsed().as_nanos() as u64;
            host.barriers += 1;
            host.advance_ns += spent;
            host.max_barrier_ns = host.max_barrier_ns.max(spent);
        }

        // Trace clients whose first arrival fell at/after the end of the
        // run never went live; admit them now so the report covers every
        // key (their reports are empty).
        let final_now = sessions[0].now();
        for k in pending {
            place_pending(
                policy.as_mut(),
                &devices,
                &mut sessions,
                &mut clients[k],
                final_now,
            );
        }

        // Collect: per-client reports from wherever each client ended up.
        let migrations = clients.iter().map(|c| u64::from(c.migrations)).sum();
        let migration_bytes = clients
            .iter()
            .map(|c| u64::from(c.migrations) * c.job.state_bytes)
            .sum();
        let migration_stall = clients.iter().map(|c| c.stall).sum();
        let clients: Vec<ClusterClientReport> = clients
            .into_iter()
            .map(|c| {
                let (d, slot) = c.location.expect("every client placed by run end");
                ClusterClientReport {
                    key: c.job.key().to_string(),
                    initial_device: c.initial_device,
                    device: d,
                    migrations: c.migrations,
                    migration_stall: c.stall,
                    report: sessions[d].client_report_at(slot),
                }
            })
            .collect();
        let device_reports: Vec<DeviceReport> = sessions
            .iter()
            .enumerate()
            .map(|(d, s)| {
                let residents: Vec<&ClusterClientReport> =
                    clients.iter().filter(|c| c.device == d).collect();
                let (migrations_in, migrations_out) = s.migrations();
                DeviceReport {
                    device: d,
                    system: s.system_name().to_string(),
                    placed: clients.iter().filter(|c| c.initial_device == d).count() as u64,
                    residents: residents.len(),
                    migrations_in,
                    migrations_out,
                    throughput: residents.iter().map(|c| c.report.throughput).sum(),
                    p99: pooled_hp_p99(residents.iter().map(|c| &c.report)),
                }
            })
            .collect();
        for work in sessions.iter().map(Session::work) {
            host.events += work.delivered;
            host.notifications += work.notifications;
        }
        ClusterReport {
            policy: policy.name().to_string(),
            duration: cfg.duration,
            devices: device_reports,
            clients,
            migrations,
            migration_bytes,
            migration_stall,
            host,
        }
    }
}

/// Host wall-clock sample for [`HostStats`] bookkeeping. The `host_`
/// prefix is the determinism contract's marker for machine-dependent
/// instrumentation (ARCHITECTURE rule D3): wall time read here feeds only
/// `host_*` counters, never anything sim-observable.
#[allow(clippy::disallowed_methods)] // host-only instrumentation scope
fn host_now() -> std::time::Instant {
    std::time::Instant::now()
}

/// Advances every session to `barrier` on `threads` (at most one per
/// session) scoped worker threads. Workers pull sessions off a shared
/// queue — sessions are independent between barriers, so assignment order
/// cannot influence results — and hold their observations until every
/// worker is done, when they are delivered in device order.
/// `threads == 1` short-circuits to a plain in-order loop in which each
/// session delivers its batches before the next one runs (bit-for-bit the
/// historical single-threaded drive, in the same order).
fn advance_fleet(sessions: &mut [Session<'static>], barrier: SimTime, threads: usize) {
    if threads <= 1 {
        for s in sessions.iter_mut() {
            s.run_until(barrier, false);
        }
        return;
    }
    let queue = Mutex::new(sessions.iter_mut());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let session = queue.lock().expect("queue lock").next();
                match session {
                    Some(session) => session.run_until(barrier, true),
                    None => break,
                }
            });
        }
    });
    for s in sessions.iter_mut() {
        s.deliver_events();
    }
}

/// Delivers a fleet-level observation (stamped `device`) to the user
/// observers. These are produced on the driving thread between barriers,
/// after every session delivered its own, so the order is deterministic.
fn fleet_emit(observers: &[SharedSyncObserver], at: SimTime, device: usize, ev: &Observation) {
    for obs in observers {
        obs.lock()
            .expect("sync observer poisoned")
            .on_event(at, device, ev);
    }
}

/// Load snapshot of a device from an iterator of resident jobs. Runtime
/// signals start at zero; [`fill_runtime_signals`] copies them in from the
/// device's monitor.
fn load_of<'j>(
    device: usize,
    spec: &GpuSpec,
    residents: impl Iterator<Item = &'j JobSpec>,
) -> DeviceLoad {
    let mut load = DeviceLoad {
        device,
        spec: spec.clone(),
        clients: 0,
        high_priority: 0,
        best_effort: 0,
        demand: 0.0,
        queue_depth: 0,
        recent_occupancy: 0.0,
        hp_pressure: 0.0,
        transfer: Some(SimSpan::ZERO),
    };
    for job in residents {
        load.clients += 1;
        if job.priority.is_high() {
            load.high_priority += 1;
        } else {
            load.best_effort += 1;
        }
        load.demand += job_demand(job, spec);
    }
    load
}

/// Copies the live signals of `session`'s monitor into its device's
/// [`DeviceLoad`] snapshot.
fn fill_runtime_signals(load: &mut DeviceLoad, session: &Session<'_>, now: SimTime) {
    let m = session.monitor().expect("cluster sessions carry a monitor");
    load.queue_depth = m.queue_depth();
    load.recent_occupancy = m.recent_occupancy(now);
    load.hp_pressure = m.hp_pressure(now);
}

/// Places a trace client at its injection instant: snapshots the loads of
/// the clients live right now (plus any admitted this same instant), asks
/// the policy, and admits the job into the chosen session. The session's
/// normal lifecycle attaches it when its first window opens.
fn place_pending(
    policy: &mut dyn PlacementPolicy,
    devices: &[GpuSpec],
    sessions: &mut [Session<'static>],
    client: &mut FleetClient,
    now: SimTime,
) {
    let loads: Vec<DeviceLoad> = devices
        .iter()
        .enumerate()
        .map(|(dev, spec)| {
            let mut load = load_of(dev, spec, sessions[dev].loadable_specs(now));
            fill_runtime_signals(&mut load, &sessions[dev], now);
            load
        })
        .collect();
    let d = policy.place(&client.job, &loads);
    assert!(
        d < sessions.len(),
        "policy `{}` placed on device {d}/{}",
        policy.name(),
        sessions.len()
    );
    let slot = sessions[d].admit_job(client.job.clone());
    client.place(d, slot.0 as usize);
}

/// One migration pass: offer the policy every active best-effort client,
/// in fleet order, re-snapshotting loads after each move. Clients sitting
/// in the gap between two scheduled windows (detached-by-schedule) are not
/// candidates — they hold no device resources and resume where they left
/// off. Each candidate's loads carry the projected state-transfer stall
/// to every device ([`DeviceLoad::transfer`]); a chosen move is charged
/// that stall on the destination, and moves to topologically unreachable
/// devices are refused. Every move is announced as
/// [`Observation::ClientMigrated`] to the source device's monitor and
/// admission policy and to the observers.
/// Returns how many clients moved.
fn rebalance_pass(
    policy: &mut dyn PlacementPolicy,
    devices: &[GpuSpec],
    topology: &Topology,
    sessions: &mut [Session<'static>],
    clients: &mut [FleetClient],
    now: SimTime,
    observers: &[SharedSyncObserver],
) -> u64 {
    let mut moved = 0;
    for client in clients.iter_mut() {
        let Some((d, slot)) = client.location else {
            continue; // trace client not injected yet
        };
        let job = &client.job;
        if job.priority.is_high() || !sessions[d].client_active(slot) {
            continue;
        }
        let loads: Vec<DeviceLoad> = devices
            .iter()
            .enumerate()
            .map(|(dev, spec)| {
                let mut load = load_of(dev, spec, sessions[dev].active_specs());
                fill_runtime_signals(&mut load, &sessions[dev], now);
                load.transfer = topology.transfer_time(job.state_bytes, d, dev);
                load
            })
            .collect();
        let Some(target) = policy.migrate(job, d, &loads) else {
            continue;
        };
        assert!(
            target < sessions.len(),
            "policy `{}` migrated to device {target}/{}",
            policy.name(),
            sessions.len()
        );
        if target == d {
            continue;
        }
        let Some(stall) = topology.transfer_time(job.state_bytes, d, target) else {
            continue; // no interconnect path — the move is refused
        };
        let (meta, state) = sessions[d].extract_client(slot);
        let new_id = sessions[target].inject_client(meta, state, stall);
        let ev = Observation::ClientMigrated {
            key: job.key().to_string(),
            from: d,
            to: target,
            from_client: tally_gpu::ClientId(slot as u32),
            to_client: new_id,
            bytes: job.state_bytes,
            stall,
        };
        client.location = Some((target, new_id.0 as usize));
        client.migrations += 1;
        client.stall += stall;
        moved += 1;
        sessions[d].observe_migration(now, &ev);
        fleet_emit(observers, now, d, &ev);
    }
    moved
}

/// One fleet client as the drive loop tracks it: its spec, where the
/// policy first placed it, where it lives now, and what its migrations
/// cost it.
struct FleetClient {
    job: JobSpec,
    initial_device: usize,
    /// `(device, session-local slot)`; `None` until a trace client is
    /// injected at its first arrival.
    location: Option<(usize, usize)>,
    migrations: u32,
    stall: SimSpan,
}

impl FleetClient {
    fn new(job: JobSpec) -> Self {
        FleetClient {
            job,
            initial_device: 0,
            location: None,
            migrations: 0,
            stall: SimSpan::ZERO,
        }
    }

    /// Records the policy's placement of the client into `slot` on
    /// `device`.
    fn place(&mut self, device: usize, slot: usize) {
        self.initial_device = device;
        self.location = Some((device, slot));
    }
}

/// Outcome of one cluster run.
#[derive(Clone)]
pub struct ClusterReport {
    /// Name of the placement policy that routed the clients.
    pub policy: String,
    /// Simulated duration.
    pub duration: SimSpan,
    /// Per-device outcomes, in device order.
    pub devices: Vec<DeviceReport>,
    /// Per-client outcomes, in job insertion order. A migrated client's
    /// metrics are cumulative across every device it ran on.
    pub clients: Vec<ClusterClientReport>,
    /// Total client migrations performed.
    pub migrations: u64,
    /// Total state bytes moved across the interconnect by those
    /// migrations (sum of the movers' [`JobSpec::state_bytes`]).
    pub migration_bytes: u64,
    /// Total state-transfer stall charged to migrating clients, priced
    /// by the cluster's [`Topology`]. Zero
    /// under the flat default.
    pub migration_stall: SimSpan,
    /// Host-side execution counters (barriers, wall-clock, work volume).
    pub host: HostStats,
}

// Hand-written so `host` stays out: tests and the record/replay example
// use the report's debug string as a byte-identical determinism
// fingerprint, and the wall-clock half of `HostStats` varies by machine,
// load, and thread count. Read host stats via the `host` field.
impl fmt::Debug for ClusterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClusterReport")
            .field("policy", &self.policy)
            .field("duration", &self.duration)
            .field("devices", &self.devices)
            .field("clients", &self.clients)
            .field("migrations", &self.migrations)
            .field("migration_bytes", &self.migration_bytes)
            .field("migration_stall", &self.migration_stall)
            .finish_non_exhaustive()
    }
}

impl ClusterReport {
    /// Fleet throughput: the sum of every client's work units per second.
    /// Compare like against like — normalize per client first (e.g.
    /// against solo runs) when mixing request- and iteration-based jobs.
    pub fn fleet_throughput(&self) -> f64 {
        self.clients.iter().map(|c| c.report.throughput).sum()
    }

    /// Fleet-level p99: the 99th percentile over every high-priority
    /// request latency on every device.
    pub fn fleet_p99(&self) -> Option<SimSpan> {
        pooled_hp_p99(self.clients.iter().map(|c| &c.report))
    }

    /// The report of the client with the given stable key.
    pub fn client(&self, key: &str) -> Option<&ClusterClientReport> {
        self.clients.iter().find(|c| c.key == key)
    }

    /// Total requests shed by admission policies across the fleet (see
    /// [`Cluster::admission_with`]).
    pub fn shed(&self) -> u64 {
        self.clients.iter().map(|c| c.report.shed).sum()
    }
}

/// The p99 over every high-priority request latency of `reports`, pooled.
fn pooled_hp_p99<'a>(reports: impl Iterator<Item = &'a ClientReport>) -> Option<SimSpan> {
    let mut pooled = LatencyRecorder::new();
    for r in reports.filter(|r| r.high_priority) {
        for &l in r.latency.samples() {
            pooled.record(l);
        }
    }
    pooled.p99()
}

/// Per-device slice of a [`ClusterReport`].
///
/// Clients are attributed to the device they *ended* on; a migrated
/// client's whole-run metrics count toward its final device.
#[derive(Clone, Debug)]
pub struct DeviceReport {
    /// Device index.
    pub device: usize,
    /// Name of the sharing system that ran on this device.
    pub system: String,
    /// Clients initially placed here by the policy.
    pub placed: u64,
    /// Clients resident here at the end of the run.
    pub residents: usize,
    /// Migrations that arrived at this device.
    pub migrations_in: u64,
    /// Migrations that left this device.
    pub migrations_out: u64,
    /// Sum of the final residents' throughputs.
    pub throughput: f64,
    /// Pooled p99 over the final residents' high-priority latencies.
    pub p99: Option<SimSpan>,
}

/// One client's outcome within a cluster run.
#[derive(Clone, Debug)]
pub struct ClusterClientReport {
    /// Stable client key (explicit [`JobSpec::client_key`] or generated
    /// `name#index`).
    pub key: String,
    /// Device the policy initially placed the client on.
    pub initial_device: usize,
    /// Device the client ended the run on.
    pub device: usize,
    /// How many times the client migrated.
    pub migrations: u32,
    /// Total state-transfer stall this client paid across its
    /// migrations (zero under the flat default topology).
    pub migration_stall: SimSpan,
    /// The client's whole-run report (cumulative across devices).
    pub report: ClientReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::WorkloadOp;
    use std::sync::Arc;
    use tally_gpu::KernelDesc;

    fn kernel(us: u64) -> Arc<KernelDesc> {
        KernelDesc::builder("k")
            .grid(16)
            .block(512)
            .block_cost(SimSpan::from_micros(us))
            .build_arc()
    }

    fn trainer(name: &str, kernel_us: u64, gap_us: u64) -> JobSpec {
        JobSpec::training(
            name,
            vec![
                WorkloadOp::Kernel(kernel(kernel_us)),
                WorkloadOp::CpuGap(SimSpan::from_micros(gap_us)),
            ],
        )
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

    #[test]
    fn demand_estimates() {
        let spec = GpuSpec::tiny();
        // 1ms kernel + 1ms gap: ~50% demand (plus launch overhead).
        let t = trainer("t", 1000, 1000);
        let d = job_demand(&t, &spec);
        assert!((0.45..0.55).contains(&d), "demand {d}");
        // 100 requests of ~1ms over 1s: ~10% demand.
        let svc = JobSpec::inference(
            "svc",
            vec![WorkloadOp::Kernel(kernel(1000))],
            (0..100).map(|i| SimTime::from_millis(10 * i)).collect(),
        );
        let d = job_demand(&svc, &spec);
        assert!((0.08..0.15).contains(&d), "demand {d}");
    }

    #[test]
    fn round_robin_cycles() {
        let report = Cluster::new()
            .devices(3, GpuSpec::tiny())
            .clients((0..6).map(|i| trainer(&format!("t{i}"), 500, 500)))
            .config(cfg(1))
            .run();
        let placements: Vec<usize> = report.clients.iter().map(|c| c.initial_device).collect();
        assert_eq!(placements, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(report.policy, "round-robin");
    }

    #[test]
    fn least_loaded_balances_skew() {
        // Heavy (never gaps) and light trainers, ordered to trap
        // round-robin into stacking both heavies on device 0.
        let jobs = vec![
            trainer("heavy-a", 2000, 0),
            trainer("light-a", 100, 1900),
            trainer("heavy-b", 2000, 0),
            trainer("light-b", 100, 1900),
        ];
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .clients(jobs)
            .policy(LeastLoaded)
            .config(cfg(1))
            .run();
        let placements: Vec<usize> = report.clients.iter().map(|c| c.initial_device).collect();
        // One heavy + one light per device.
        assert_eq!(placements, vec![0, 1, 1, 0]);
    }

    #[test]
    fn packing_spreads_high_priority() {
        let hp = |n: &str| {
            JobSpec::inference(
                n,
                vec![WorkloadOp::Kernel(kernel(100))],
                (0..50).map(|i| SimTime::from_millis(20 * i)).collect(),
            )
        };
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(hp("svc-a"))
            .client(trainer("be-a", 500, 0))
            .client(hp("svc-b"))
            .client(trainer("be-b", 500, 0))
            .policy(BestEffortPacking)
            .config(cfg(1))
            .run();
        let hp_devices: Vec<usize> = report
            .clients
            .iter()
            .filter(|c| c.report.high_priority)
            .map(|c| c.initial_device)
            .collect();
        assert_eq!(hp_devices.len(), 2);
        assert_ne!(hp_devices[0], hp_devices[1], "services share a device");
        // Both best-effort trainers packed onto whichever device the
        // packing rule chose first.
        let be_devices: Vec<usize> = report
            .clients
            .iter()
            .filter(|c| !c.report.high_priority)
            .map(|c| c.initial_device)
            .collect();
        assert_eq!(be_devices[0], be_devices[1], "trainers not packed");
    }

    /// A demand-2.0 inference service that departs at 200 ms: heavy
    /// enough that `LeastLoaded` stacks both trainers on the other
    /// device, leaving device 0 empty after the departure.
    fn departing_service() -> JobSpec {
        JobSpec::inference(
            "short",
            vec![WorkloadOp::Kernel(kernel(2000))],
            (0..200).map(SimTime::from_millis).collect(),
        )
        .active_until(SimTime::from_millis(200))
    }

    #[test]
    fn detach_triggers_migration_to_freed_device() {
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(departing_service())
            .client(trainer("a", 1000, 0))
            .client(trainer("b", 1000, 0))
            .policy(LeastLoaded)
            .config(cfg(1))
            .run();
        assert!(
            report.migrations >= 1,
            "expected a migration after the departure, got {:?}",
            report
        );
        let migrant = report
            .clients
            .iter()
            .find(|c| c.migrations > 0)
            .expect("a client migrated");
        assert_eq!(migrant.device, 0, "migrant moved to the freed device");
        assert!(!migrant.report.high_priority, "only best-effort migrates");
        // Both trainers kept accumulating work across the move.
        assert!(report
            .clients
            .iter()
            .filter(|c| !c.report.high_priority)
            .all(|c| c.report.iterations > 0));
    }

    #[test]
    fn migration_can_be_disabled() {
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(departing_service())
            .client(trainer("a", 1000, 0))
            .client(trainer("b", 1000, 0))
            .policy(LeastLoaded)
            .migrate_on_detach(false)
            .config(cfg(1))
            .run();
        assert_eq!(report.migrations, 0);
    }

    #[test]
    fn periodic_rebalance_fires_without_departures() {
        // Round-robin stacks both trainers' demand unevenly (3 jobs on 2
        // devices); a periodic rebalance must move one without any detach.
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(trainer("a", 1000, 0))
            .client(trainer("b", 1000, 0))
            .client(trainer("c", 1000, 0))
            .policy(RoundRobin::default())
            .migrate_on_detach(false)
            .rebalance_every(SimSpan::from_millis(100))
            .config(cfg(1))
            .run();
        // Device 0 has a+c (demand 2.0) vs device 1 with b (1.0): the
        // default migrate rule requires strict improvement, which moving
        // one trainer (2.0-1.0 > 1.0+1.0 is false) does not give — so
        // nothing moves and the counters stay zero…
        assert_eq!(report.migrations, 0);
        // …but with a fourth device-0 trainer the imbalance is large
        // enough to act on.
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(trainer("a", 1000, 0))
            .client(trainer("b", 1000, 0))
            .client(trainer("c", 1000, 0))
            .client(trainer("d", 1000, 0).active_from(SimTime::from_millis(300)))
            .policy(LeastLoaded)
            .migrate_on_detach(false)
            .rebalance_every(SimSpan::from_millis(100))
            .config(cfg(1))
            .run();
        // LeastLoaded placed 2+2, so still balanced: no migrations.
        assert_eq!(report.migrations, 0);
    }

    #[test]
    fn report_counters_are_consistent() {
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(departing_service())
            .client(trainer("a", 1000, 0))
            .client(trainer("b", 1000, 0))
            .policy(LeastLoaded)
            .config(cfg(1))
            .run();
        assert_eq!(report.clients.len(), 3, "no client dropped or duplicated");
        let placed: u64 = report.devices.iter().map(|d| d.placed).sum();
        assert_eq!(placed, 3);
        let ins: u64 = report.devices.iter().map(|d| d.migrations_in).sum();
        let outs: u64 = report.devices.iter().map(|d| d.migrations_out).sum();
        assert_eq!(ins, report.migrations);
        assert_eq!(outs, report.migrations);
        let residents: usize = report.devices.iter().map(|d| d.residents).sum();
        assert_eq!(residents, 3);
        let per_client: u64 = report.clients.iter().map(|c| c.migrations as u64).sum();
        assert_eq!(per_client, report.migrations);
    }

    #[test]
    fn host_stats_record_the_workers_actually_used() {
        // Only one worker per device ever runs, whatever pool was asked for.
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(trainer("a", 1000, 0))
            .threads(4)
            .config(cfg(1))
            .run();
        assert_eq!(report.host.threads, 2);
    }

    #[test]
    fn rebalance_skips_clients_in_their_window_gap() {
        // `gappy` runs on [0, 150ms) and again from 600ms; a heavy service
        // departs at 200ms, triggering a migration pass while `gappy` sits
        // detached in its gap. Steady trainers oversubscribe device 1 so
        // the pass has every reason to move someone onto the freed device —
        // but a detached-by-schedule client must not be a candidate.
        let gappy = trainer("gappy", 1000, 0)
            .active_window(SimTime::ZERO, SimTime::from_millis(150))
            .also_active(SimTime::from_millis(600), None);
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(departing_service())
            .client(gappy)
            .client(trainer("a", 1000, 0))
            .client(trainer("b", 1000, 0))
            .policy(LeastLoaded)
            .config(cfg(1))
            .run();
        let gap_client = report.client("gappy#1").expect("gappy resident");
        assert_eq!(
            gap_client.migrations, 0,
            "a client in its inactive gap must not migrate"
        );
        assert_eq!(
            gap_client.initial_device, gap_client.device,
            "gap client stays where it was placed"
        );
        assert_eq!(gap_client.report.attachments, 2, "gappy re-attached");
        assert!(
            report.migrations >= 1,
            "the pass still migrates an *active* trainer to the freed device"
        );
        assert!(report
            .clients
            .iter()
            .filter(|c| c.migrations > 0)
            .all(|c| !["gappy#1"].contains(&c.key.as_str())));
    }

    #[test]
    fn trace_injection_places_at_arrival_with_live_loads() {
        let job = |n: &str| trainer(n, 1000, 0);
        let arrive = |at_ms: u64, key: &str| {
            (
                SimTime::from_millis(at_ms),
                SessionEvent::Arrive {
                    key: key.into(),
                    job: job(key),
                },
            )
        };
        let depart = |at_ms: u64, key: &str| {
            (
                SimTime::from_millis(at_ms),
                SessionEvent::Depart { key: key.into() },
            )
        };
        // a and b arrive at t=0 (one per device under LeastLoaded); a
        // departs at 300ms; c arrives at 500ms and must be placed on the
        // device a freed — which only live loads can know.
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .migrate_on_detach(false)
            .policy(LeastLoaded)
            .trace(vec![
                arrive(0, "a"),
                arrive(0, "b"),
                depart(300, "a"),
                arrive(500, "c"),
            ])
            .expect("valid trace")
            .config(cfg(1))
            .run();
        let a = report.client("a").expect("a");
        let b = report.client("b").expect("b");
        let c = report.client("c").expect("c");
        assert_ne!(a.initial_device, b.initial_device, "spread at t=0");
        assert_eq!(
            c.initial_device, a.initial_device,
            "late arrival lands on the device the departure freed"
        );
        assert!(a.report.iterations > 0 && b.report.iterations > 0 && c.report.iterations > 0);
        // Deterministic replay: identical trace, identical report.
        let again = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .migrate_on_detach(false)
            .policy(LeastLoaded)
            .trace(vec![
                arrive(0, "a"),
                arrive(0, "b"),
                depart(300, "a"),
                arrive(500, "c"),
            ])
            .expect("valid trace")
            .config(cfg(1))
            .run();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn trace_arrivals_after_the_end_report_empty() {
        let report = Cluster::new()
            .device(GpuSpec::tiny())
            .client(trainer("base", 1000, 0))
            .trace(vec![(
                SimTime::from_secs(5),
                SessionEvent::Arrive {
                    key: "late".into(),
                    job: trainer("late", 1000, 0),
                },
            )])
            .expect("valid trace")
            .config(cfg(1))
            .run();
        let late = report.client("late").expect("late client reported");
        assert_eq!(late.report.iterations, 0);
        assert_eq!(late.report.attachments, 0);
    }

    #[test]
    fn keys_are_stable_and_unique() {
        let report = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(trainer("t", 500, 500))
            .client(trainer("t", 500, 500))
            .client(trainer("t", 500, 500).with_client_key("tenant-42"))
            .config(cfg(1))
            .run();
        let keys: Vec<&str> = report.clients.iter().map(|c| c.key.as_str()).collect();
        assert_eq!(keys, vec!["t#0", "t#1", "tenant-42"]);
        assert!(report.client("tenant-42").is_some());
    }

    #[test]
    fn invalid_trace_is_a_typed_error() {
        let err = Cluster::new()
            .device(GpuSpec::tiny())
            .trace(vec![(
                SimTime::ZERO,
                SessionEvent::Depart { key: "a".into() },
            )])
            .expect_err("orphan depart must be rejected");
        assert!(err.message.contains("unknown client"), "{err}");
    }

    /// A bursty high-priority service: `burst_ms`-long arrival bursts
    /// (one request every `period_us`), alternating with equally long
    /// quiet phases, with the first burst at `offset` phases.
    fn phased_service(
        name: &str,
        kernel_us: u64,
        period_us: u64,
        burst_ms: u64,
        offset: bool,
        total_ms: u64,
    ) -> JobSpec {
        let mut arrivals = Vec::new();
        let mut phase = u64::from(offset);
        loop {
            let start_ms = phase * burst_ms;
            if start_ms >= total_ms {
                break;
            }
            let mut t = start_ms * 1000;
            while t < (start_ms + burst_ms).min(total_ms) * 1000 {
                arrivals.push(SimTime::from_micros(t));
                t += period_us;
            }
            phase += 2;
        }
        JobSpec::inference(name, vec![WorkloadOp::Kernel(kernel(kernel_us))], arrivals)
    }

    /// The phase-shift scenario: two services that burst in anti-phase
    /// (identical static demand) plus two steady trainers.
    fn phased_cluster(policy: Box<dyn PlacementPolicy>, rebalance: bool) -> ClusterReport {
        let mut cluster = Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(phased_service("svc-even", 2000, 4000, 500, false, 2000))
            .client(phased_service("svc-odd", 2000, 4000, 500, true, 2000))
            .client(trainer("t0", 4000, 0))
            .client(trainer("t1", 4000, 0))
            .policy_boxed(policy)
            .migrate_on_detach(false)
            .monitor_window(SimSpan::from_millis(50))
            .config(cfg(2));
        if rebalance {
            cluster = cluster.rebalance_every(SimSpan::from_millis(50));
        }
        cluster.run()
    }

    #[test]
    fn load_aware_follows_phase_shifts_where_static_demand_is_blind() {
        // The two services have identical static demand, so LeastLoaded
        // sees permanently balanced devices and never moves anyone…
        let ll = phased_cluster(Box::new(LeastLoaded), true);
        assert_eq!(ll.migrations, 0, "static demand sees no imbalance");
        // …while LoadAware reads the live hp pressure and shuttles the
        // trainers away from whichever service is currently bursting.
        let la = phased_cluster(Box::new(LoadAware::default()), true);
        assert!(
            la.migrations >= 2,
            "load-aware must react to at least two phase flips, got {}",
            la.migrations
        );
        // Evacuating the bursting device lowers the services' latency.
        let pooled_mean = |r: &ClusterReport| {
            let mut rec = LatencyRecorder::new();
            for c in &r.clients {
                if c.report.high_priority {
                    for &l in c.report.latency.samples() {
                        rec.record(l);
                    }
                }
            }
            rec.mean().expect("requests served").as_secs_f64()
        };
        let (m_ll, m_la) = (pooled_mean(&ll), pooled_mean(&la));
        assert!(
            m_la < m_ll,
            "load-aware mean hp latency {m_la:.6}s must beat least-loaded {m_ll:.6}s"
        );
        // The trainers keep working through the shuttling.
        assert!(la
            .clients
            .iter()
            .filter(|c| !c.report.high_priority)
            .all(|c| c.report.iterations > 0));
        // Determinism: runtime signals are pure functions of the sim.
        let again = phased_cluster(Box::new(LoadAware::default()), true);
        assert_eq!(format!("{la:?}"), format!("{again:?}"));
    }

    /// Captures every load snapshot offered to `migrate`.
    struct Probe {
        seen: std::rc::Rc<std::cell::RefCell<Vec<DeviceLoad>>>,
    }

    impl PlacementPolicy for Probe {
        fn name(&self) -> &str {
            "probe"
        }

        fn place(&mut self, _job: &JobSpec, _devices: &[DeviceLoad]) -> usize {
            0 // stack everyone on device 0; device 1 stays idle
        }

        fn migrate(
            &mut self,
            _job: &JobSpec,
            _from: usize,
            devices: &[DeviceLoad],
        ) -> Option<usize> {
            self.seen.borrow_mut().extend(devices.iter().cloned());
            None
        }
    }

    #[test]
    fn runtime_signals_reach_placement_decisions() {
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        // A saturating service and a trainer, both stacked on device 0.
        let svc = JobSpec::inference(
            "svc",
            vec![WorkloadOp::Kernel(kernel(2000))],
            (0..500).map(|i| SimTime::from_micros(2000 * i)).collect(),
        );
        Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(svc)
            .client(trainer("t", 2000, 0))
            .policy(Probe { seen: seen.clone() })
            .migrate_on_detach(false)
            .rebalance_every(SimSpan::from_millis(200))
            .monitor_window(SimSpan::from_millis(100))
            .config(cfg(1))
            .run();
        let seen = seen.borrow();
        assert!(!seen.is_empty(), "migrate was offered snapshots");
        // Late snapshots of the busy device show live pressure…
        let d0 = seen.iter().rev().find(|l| l.device == 0).expect("device 0");
        assert!(
            d0.queue_depth >= 1,
            "busy device queue depth {}",
            d0.queue_depth
        );
        assert!(
            d0.recent_occupancy > 0.3,
            "busy device occupancy {}",
            d0.recent_occupancy
        );
        assert!(
            d0.hp_pressure > 0.3,
            "saturating service pressure {}",
            d0.hp_pressure
        );
        // …while the idle device reads zero on every runtime signal.
        let d1 = seen.iter().rev().find(|l| l.device == 1).expect("device 1");
        assert_eq!(d1.queue_depth, 0);
        assert!(d1.recent_occupancy < 0.01, "{}", d1.recent_occupancy);
        assert!(d1.hp_pressure < 0.01, "{}", d1.hp_pressure);
    }
}
