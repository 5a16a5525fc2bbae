//! Streaming telemetry riding the [`events`](crate::events) stream: a
//! mergeable log-bucketed [`Histogram`], a labeled metrics registry
//! ([`MetricsHub`]), a fixed-cadence time-series sampler ([`Timeline`]),
//! and a Chrome-trace timeline export ([`ChromeTraceWriter`]).
//!
//! All three observers are pure *consumers* of [`Observation`]s: they
//! register like any other [`SessionObserver`] and therefore inherit the
//! event layer's zero-cost-when-unregistered property — a session with no
//! observers never constructs an event, and registering any of these
//! changes **no** simulation output (`tests/telemetry.rs` holds a
//! reports-unperturbed test to that contract).
//!
//! They register through [`SharedSyncObserver`](crate::events::SharedSyncObserver)
//! handles, and sessions deliver in device order at every cluster thread
//! count, so every query-time result and every export is byte-identical
//! for any number of worker threads.
//!
//! A note on sampling. A session hands these sinks an
//! [`Observation::EngineSample`] only when the engine's busy integral
//! moved since the last one they received, plus one at the end of the
//! run. Their folds keep only the latest busy value, so a repeated value
//! would change no export or query (`tests::repeated_engine_samples_change_no_fold`
//! checks this); it would only raise [`MetricsHub::events`]. Admission
//! policies still receive every sample, since `SloGuard` steps its
//! controller on each observation.
//!
//! [`Timeline`] does **not** add its cadence instants to the cluster's
//! barriers. An extra barrier at each cadence instant would force every
//! session to settle there, emitting extra samples — which feed the
//! cluster's load signals and the admission policies, and could therefore
//! perturb load-aware placement and admission decisions, violating the
//! observers-change-nothing contract. Every observation is already
//! timestamped, so the sampler closes each fixed-cadence window lazily as
//! events stream past its boundary; the resulting series is a pure
//! function of the (deterministic) per-device event stream.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::sync::{Arc, Mutex};

use tally_gpu::{ClientId, SimSpan, SimTime};

use crate::events::{DeviceState, Observation, SessionObserver, FLEET_DEVICE};

// ---------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------

/// Sub-bucket resolution: each power-of-two range is split into
/// `2^(SUB_BITS-1)` linear sub-buckets, bounding the relative quantile
/// error by `2^-(SUB_BITS-1)` (midpoint reporting halves it again).
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// A mergeable log-bucketed latency histogram: power-of-two buckets ×
/// linear sub-buckets (HDR-style), O(buckets) memory regardless of sample
/// count, with relative quantile error bounded by ~3.2% (each bucket's
/// width is at most 1/16 of its lower edge and quantiles report bucket
/// midpoints).
///
/// Unlike [`LatencyRecorder`](crate::metrics::LatencyRecorder) — which is
/// exact but stores every sample — a `Histogram` can absorb a
/// million-request open-loop run in a few kilobytes, and two histograms
/// [`merge`](Histogram::merge) by adding bucket counts, so per-device
/// histograms fold into fleet-wide ones associatively and commutatively.
///
/// ```
/// use tally_core::telemetry::Histogram;
/// use tally_gpu::SimSpan;
///
/// let mut h = Histogram::new();
/// for ms in 1..=1000u64 {
///     h.record(SimSpan::from_millis(ms));
/// }
/// let p99 = h.quantile(0.99).unwrap();
/// let exact = SimSpan::from_millis(990);
/// let err = (p99.as_nanos() as f64 - exact.as_nanos() as f64).abs()
///     / exact.as_nanos() as f64;
/// assert!(err <= 1.0 / 16.0, "relative error {err}");
/// assert_eq!(h.count(), 1000);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    /// Bucket counts, grown lazily up to the highest bucket touched.
    counts: Vec<u64>,
    total: u64,
    sum_ns: u128,
    /// Exact extrema, so `quantile(0.0)` / `quantile(1.0)` stay sharp.
    min_ns: u64,
    max_ns: u64,
}

/// Bucket index for a value: the first `SUB_COUNT` values map exactly,
/// beyond that each power-of-two range holds `SUB_COUNT / 2` linear
/// sub-buckets.
fn bucket_of(ns: u64) -> usize {
    if ns < SUB_COUNT {
        return ns as usize;
    }
    let msb = 63 - ns.leading_zeros() as u64;
    let half = SUB_COUNT / 2;
    let offset = (ns >> (msb - (SUB_BITS as u64 - 1))) - half;
    (SUB_COUNT + (msb - SUB_BITS as u64) * half + offset) as usize
}

/// Inverse of [`bucket_of`]: the `[lo, hi)` range of values a bucket
/// covers, in nanoseconds.
fn bucket_bounds(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < SUB_COUNT {
        return (idx, idx + 1);
    }
    let half = SUB_COUNT / 2;
    let level = (idx - SUB_COUNT) / half;
    let offset = (idx - SUB_COUNT) % half;
    let shift = level + 1;
    let lo = (half + offset) << shift;
    // The very top bucket's exclusive upper bound is 2^64: saturate.
    (lo, lo.saturating_add(1 << shift))
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Vec::new(),
            total: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: SimSpan) {
        let ns = sample.as_nanos();
        let idx = bucket_of(ns);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum_ns += ns as u128;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The exact minimum sample.
    pub fn min(&self) -> Option<SimSpan> {
        (self.total > 0).then(|| SimSpan::from_nanos(self.min_ns))
    }

    /// The exact maximum sample.
    pub fn max(&self) -> Option<SimSpan> {
        (self.total > 0).then(|| SimSpan::from_nanos(self.max_ns))
    }

    /// The exact arithmetic mean.
    pub fn mean(&self) -> Option<SimSpan> {
        (self.total > 0).then(|| SimSpan::from_nanos((self.sum_ns / self.total as u128) as u64))
    }

    /// The `q`-quantile (nearest rank over buckets, reported at the
    /// bucket midpoint and clamped to the exact extrema), `q` in
    /// `[0, 1]`. Relative error vs the exact sample quantile is bounded
    /// by the bucket width: at most 1/16 of the value.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimSpan> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(idx);
                let mid = lo + (hi - lo) / 2;
                return Some(SimSpan::from_nanos(mid.clamp(self.min_ns, self.max_ns)));
            }
        }
        Some(SimSpan::from_nanos(self.max_ns))
    }

    /// The 99th-percentile latency.
    pub fn p99(&self) -> Option<SimSpan> {
        self.quantile(0.99)
    }

    /// The median latency.
    pub fn p50(&self) -> Option<SimSpan> {
        self.quantile(0.50)
    }

    /// Adds every sample of `other` into `self`. Merging is associative
    /// and commutative (bucket counts add), so per-device histograms fold
    /// into fleet-wide ones in any order.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (idx, &c) in other.counts.iter().enumerate() {
            self.counts[idx] += c;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

// ---------------------------------------------------------------------
// Per-device state
// ---------------------------------------------------------------------

/// An observer's state per device, indexed by the device index that
/// sessions stamp (dense from 0 in a cluster). Iterates and renders like
/// a `BTreeMap<usize, T>` of the devices seen.
struct PerDevice<T>(Vec<Option<T>>);

impl<T> Default for PerDevice<T> {
    fn default() -> Self {
        PerDevice(Vec::new())
    }
}

impl<T: Default> PerDevice<T> {
    /// The state of `device`, added (default) on first sight.
    fn entry(&mut self, device: usize) -> &mut T {
        if device >= self.0.len() {
            self.0.resize_with(device + 1, || None);
        }
        self.0[device].get_or_insert_with(T::default)
    }
}

impl<T> PerDevice<T> {
    fn get(&self, device: usize) -> Option<&T> {
        self.0.get(device)?.as_ref()
    }

    /// The devices seen, in index order.
    fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(d, t)| Some((d, t.as_ref()?)))
    }

    fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.0.iter_mut().flatten()
    }
}

impl<T: fmt::Debug> fmt::Debug for PerDevice<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

// ---------------------------------------------------------------------
// MetricsHub
// ---------------------------------------------------------------------

/// Labeled counters, gauges, and a latency [`Histogram`] for one device.
#[derive(Clone, Debug, Default)]
pub struct DeviceMetrics {
    /// Requests completed.
    pub requests: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Logical kernels handed to the sharing system.
    pub dispatched: u64,
    /// Logical kernels finished.
    pub finished: u64,
    /// Client attach edges (first windows and re-attaches).
    pub attaches: u64,
    /// Client detach edges.
    pub detaches: u64,
    /// Clients migrated onto this device.
    pub migrations_in: u64,
    /// Clients migrated off this device.
    pub migrations_out: u64,
    /// Request latency distribution.
    pub latency: Histogram,
    state: DeviceState,
}

impl DeviceMetrics {
    /// Gauge: kernels dispatched and not yet finished, right now.
    pub fn queue_depth(&self) -> usize {
        self.state.queue_depth()
    }

    /// Gauge: clients currently attached.
    pub fn clients_attached(&self) -> usize {
        self.state.clients_attached()
    }

    /// The engine's cumulative busy-thread integral at the last sample
    /// received — divide deltas by `elapsed × thread_slots` for mean
    /// occupancy. Sessions send a sample only when the integral moved
    /// (and at the end of the run), so the value holds from that
    /// sample's instant until the next sample's.
    pub fn busy_thread_ns(&self) -> u128 {
        self.state.busy_thread_ns()
    }

    /// The device's resident-thread capacity (0 until the first sample).
    pub fn thread_slots(&self) -> u64 {
        self.state.thread_slots()
    }

    /// Applies `event`, read as an observation of `device`, to the device
    /// state and counts it. A [`Observation::ClientMigrated`] counts as a
    /// migration out when `device` is its source and in when it is its
    /// destination.
    // Inlined into the hub's and the timeline's `on_event`, which every
    // observation passes through: as a call it made the hub's fold about
    // a third slower per event.
    #[inline(always)]
    fn fold(&mut self, device: usize, event: &Observation) {
        self.state.apply(device, event);
        match event {
            Observation::ClientAttached { .. } => self.attaches += 1,
            Observation::ClientDetached { .. } => self.detaches += 1,
            Observation::RequestCompleted { latency, .. } => {
                self.requests += 1;
                self.latency.record(*latency);
            }
            Observation::RequestShed { .. } => self.shed += 1,
            Observation::KernelDispatched { .. } => self.dispatched += 1,
            Observation::KernelFinished { .. } => self.finished += 1,
            Observation::ClientMigrated { from, to, .. } => {
                self.migrations_out += u64::from(*from == device);
                self.migrations_in += u64::from(*to == device);
            }
            Observation::EngineSample { .. } | Observation::Rebalance { .. } => {}
        }
    }

    /// Returns the counts so far and restarts them from zero; the device
    /// state stays.
    fn take_counts(&mut self) -> DeviceMetrics {
        let state = std::mem::take(&mut self.state);
        std::mem::replace(
            self,
            DeviceMetrics {
                state,
                ..DeviceMetrics::default()
            },
        )
    }
}

/// Per-client-key counters and latency distribution, accumulated across
/// re-attaches and cross-device migrations.
#[derive(Clone, Debug, Default)]
pub struct ClientMetrics {
    /// Whether the client attached as high-priority.
    pub high_priority: bool,
    /// Requests completed.
    pub requests: u64,
    /// Arrivals shed by admission control.
    pub shed: u64,
    /// Logical kernels finished.
    pub kernels: u64,
    /// Request latency distribution.
    pub latency: Histogram,
}

/// One row of [`MetricsHub::samples`]: a metric name plus its labels.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSample {
    /// Metric name (e.g. `"requests"`, `"queue_depth"`, `"p99_ms"`).
    pub name: &'static str,
    /// Device label, `None` for fleet-level metrics.
    pub device: Option<usize>,
    /// Client-key label, `None` for device- or fleet-level metrics.
    pub client: Option<String>,
    /// The value.
    pub value: f64,
}

/// A streaming metrics registry: distills the [`Observation`] stream into
/// labeled counters, gauges, and [`Histogram`]s per device and per client
/// key — requests, sheds, kernel dispatches, occupancy integrals, queue
/// depth.
///
/// Register via [`MetricsHub::shared_sync`]; state is partitioned per
/// device, so query-time results are identical for every
/// [`Cluster`](crate::cluster::Cluster) thread count.
///
/// ```
/// use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
/// use tally_core::telemetry::MetricsHub;
/// use tally_gpu::{GpuSpec, KernelDesc, SimSpan, SimTime};
///
/// let hub = MetricsHub::shared_sync();
/// let k = KernelDesc::builder("req")
///     .grid(64).block(128)
///     .block_cost(SimSpan::from_micros(100))
///     .build_arc();
/// let arrivals = (0..50).map(|i| SimTime::from_millis(10 * i)).collect();
/// let report = Colocation::on(GpuSpec::a100())
///     .client(JobSpec::inference("svc", vec![WorkloadOp::Kernel(k)], arrivals))
///     .sync_observer(hub.clone())
///     .config(HarnessConfig {
///         duration: SimSpan::from_secs(1),
///         warmup: SimSpan::ZERO,
///         ..Default::default()
///     })
///     .run();
/// let hub = hub.lock().unwrap();
/// assert_eq!(hub.device(0).unwrap().requests, report.clients[0].requests);
/// assert_eq!(hub.client("svc").unwrap().requests, report.clients[0].requests);
/// assert!(hub.fleet_latency().p99().is_some());
/// ```
#[derive(Debug, Default)]
pub struct MetricsHub {
    devices: PerDevice<HubDevice>,
    clients: ClientTable,
    migrations: u64,
    migration_bytes: u64,
    migration_stall: SimSpan,
    rebalances: u64,
    events: u64,
}

/// One device's metrics plus the hub's index of the keys its client ids
/// name, kept out of [`DeviceMetrics`] so its `Debug` stays as it is.
#[derive(Default)]
struct HubDevice {
    metrics: DeviceMetrics,
    // By `ClientId`: the `ClientTable` slot of the key the device state
    // holds for that id; `None` until a lookup resolves it.
    slots: Vec<Option<usize>>,
}

// Renders as its metrics alone, so the hub's `Debug` keeps its layout.
impl fmt::Debug for HubDevice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.metrics.fmt(f)
    }
}

impl HubDevice {
    /// Records that `id` names the key in `slot` from now on (`None`: not
    /// resolved yet).
    fn name(&mut self, id: ClientId, slot: Option<usize>) {
        let i = id.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize(i + 1, None);
        }
        self.slots[i] = slot;
    }
}

/// Every client key the hub has charged, in key order, with its metrics
/// in a slot the devices' indexes point at.
#[derive(Default)]
struct ClientTable {
    keys: BTreeMap<String, usize>,
    metrics: Vec<ClientMetrics>,
}

impl ClientTable {
    /// The slot of `key`, added (empty) on first sight.
    fn slot(&mut self, key: &str) -> usize {
        if let Some(&slot) = self.keys.get(key) {
            return slot;
        }
        let slot = self.metrics.len();
        self.metrics.push(ClientMetrics::default());
        self.keys.insert(key.to_string(), slot);
        slot
    }

    /// The metrics of the client `id` names on `device`, keyed by its
    /// stable key: the one the device state holds for `id`, found through
    /// the device's index, or `client-{id}` while the stream never named
    /// `id`. That fallback is never indexed, so a later attach renames the
    /// client.
    fn of(&mut self, device: &mut HubDevice, id: ClientId) -> &mut ClientMetrics {
        if let Some(slot) = device.slots.get(id.0 as usize).copied().flatten() {
            return &mut self.metrics[slot];
        }
        let named = device.metrics.state.client(id);
        let slot = match named.and_then(|c| c.key.as_deref()) {
            Some(key) => {
                let slot = self.slot(key);
                device.name(id, Some(slot));
                slot
            }
            None => self.slot(&format!("client-{}", id.0)),
        };
        &mut self.metrics[slot]
    }

    fn iter(&self) -> impl Iterator<Item = (&str, &ClientMetrics)> {
        self.keys
            .iter()
            .map(|(k, &slot)| (k.as_str(), &self.metrics[slot]))
    }
}

// Renders as the key-ordered map of metrics it replaced.
impl fmt::Debug for ClientTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl MetricsHub {
    /// An empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle (see [`SharedSyncObserver`](crate::events::SharedSyncObserver))
    /// to register with a session or cluster; keep a clone to read the
    /// registry back after the run.
    pub fn shared_sync() -> Arc<Mutex<MetricsHub>> {
        Arc::new(Mutex::new(MetricsHub::new()))
    }

    /// Metrics for one device.
    pub fn device(&self, device: usize) -> Option<&DeviceMetrics> {
        self.devices.get(device).map(|d| &d.metrics)
    }

    /// All devices seen, in index order.
    pub fn devices(&self) -> impl Iterator<Item = (usize, &DeviceMetrics)> {
        self.devices.iter().map(|(d, m)| (d, &m.metrics))
    }

    /// Metrics for one client key.
    pub fn client(&self, key: &str) -> Option<&ClientMetrics> {
        self.clients
            .keys
            .get(key)
            .map(|&slot| &self.clients.metrics[slot])
    }

    /// All client keys seen, in key order.
    pub fn clients(&self) -> impl Iterator<Item = (&str, &ClientMetrics)> {
        self.clients.iter()
    }

    /// Cross-device migrations observed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total state bytes those migrations moved across the interconnect.
    pub fn migration_bytes(&self) -> u64 {
        self.migration_bytes
    }

    /// Total state-transfer stall charged to migrating clients (zero
    /// under the flat default topology).
    pub fn migration_stall(&self) -> SimSpan {
        self.migration_stall
    }

    /// Rebalance passes observed.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Total observations delivered to this hub.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The fleet-wide latency distribution: every device's histogram
    /// folded together (order-independent — see [`Histogram::merge`]).
    pub fn fleet_latency(&self) -> Histogram {
        let mut fleet = Histogram::new();
        for (_, d) in self.devices() {
            fleet.merge(&d.latency);
        }
        fleet
    }

    /// Flattens the registry into labeled samples — counters and gauges
    /// per device and per client, latency quantiles in milliseconds, plus
    /// fleet-level migration/rebalance counters. Deterministic order:
    /// devices by index, clients by key.
    pub fn samples(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        let dev = |name, device, value| MetricSample {
            name,
            device: Some(device),
            client: None,
            value,
        };
        for (d, m) in self.devices() {
            out.push(dev("requests", d, m.requests as f64));
            out.push(dev("shed", d, m.shed as f64));
            out.push(dev("kernels_dispatched", d, m.dispatched as f64));
            out.push(dev("kernels_finished", d, m.finished as f64));
            out.push(dev("queue_depth", d, m.queue_depth() as f64));
            out.push(dev("clients_attached", d, m.clients_attached() as f64));
            if let Some(p99) = m.latency.p99() {
                out.push(dev("p99_ms", d, p99.as_millis_f64()));
            }
        }
        for (k, m) in self.clients() {
            for (name, value) in [
                ("requests", m.requests as f64),
                ("shed", m.shed as f64),
                ("kernels", m.kernels as f64),
            ] {
                out.push(MetricSample {
                    name,
                    device: None,
                    client: Some(k.to_string()),
                    value,
                });
            }
        }
        let fleet = |name, value| MetricSample {
            name,
            device: None,
            client: None,
            value,
        };
        out.push(fleet("migrations", self.migrations as f64));
        out.push(fleet("migration_bytes", self.migration_bytes as f64));
        out.push(fleet(
            "migration_stall_ms",
            self.migration_stall.as_millis_f64(),
        ));
        out.push(fleet("rebalances", self.rebalances as f64));
        out
    }
}

impl SessionObserver for MetricsHub {
    fn on_event(&mut self, _at: SimTime, device: usize, event: &Observation) {
        self.events += 1;
        match event {
            Observation::Rebalance { .. } => self.rebalances += 1,
            Observation::ClientMigrated {
                key,
                from,
                to,
                to_client,
                bytes,
                stall,
                ..
            } => {
                self.migrations += 1;
                self.migration_bytes += *bytes;
                self.migration_stall += *stall;
                self.devices.entry(*from).metrics.fold(*from, event);
                let dst = self.devices.entry(*to);
                dst.metrics.fold(*to, event);
                // The key need not be charged yet: leave it to the first
                // lookup then.
                dst.name(*to_client, self.clients.keys.get(key.as_str()).copied());
            }
            _ => {
                let hd = self.devices.entry(device);
                hd.metrics.fold(device, event);
                match event {
                    Observation::ClientAttached {
                        client,
                        key,
                        priority,
                        ..
                    } => {
                        let slot = self.clients.slot(key);
                        self.clients.metrics[slot].high_priority = priority.is_high();
                        hd.name(*client, Some(slot));
                    }
                    Observation::RequestCompleted {
                        client, latency, ..
                    } => {
                        let c = self.clients.of(hd, *client);
                        c.requests += 1;
                        c.latency.record(*latency);
                    }
                    Observation::RequestShed { client, .. } => {
                        self.clients.of(hd, *client).shed += 1;
                    }
                    Observation::KernelFinished { client } => {
                        self.clients.of(hd, *client).kernels += 1;
                    }
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------

/// One closed sampling window of a device's [`Timeline`] series.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineWindow {
    /// Window start instant.
    pub start: SimTime,
    /// Window length (the cadence, except a shorter final window).
    pub len: SimSpan,
    /// Requests completed inside the window.
    pub requests: u64,
    /// Arrivals shed inside the window.
    pub shed: u64,
    /// Logical kernels finished inside the window.
    pub kernels: u64,
    /// Outstanding kernels at window close (instantaneous gauge).
    pub queue_depth: usize,
    /// Mean busy-thread occupancy over the window, from the engine's
    /// busy-integral samples (step-function approximation: the integral
    /// is only observable at event instants).
    pub occupancy: f64,
    /// p99 of the requests completed inside the window.
    pub p99: Option<SimSpan>,
    /// Mean latency of the requests completed inside the window.
    pub mean: Option<SimSpan>,
    /// Migrations that left this device inside the window.
    pub migrations_out: u64,
    /// State-transfer stall charged by those migrations (attributed to
    /// the source device's window, like the migration itself).
    pub migration_stall: SimSpan,
}

impl TimelineWindow {
    /// Completed requests per second over the window.
    pub fn qps(&self) -> f64 {
        self.requests as f64 / self.len.as_secs_f64().max(1e-12)
    }

    /// Fraction of arrivals shed: `shed / (requests + shed)`, 0 when the
    /// window saw no arrivals.
    pub fn shed_rate(&self) -> f64 {
        let arrivals = self.requests + self.shed;
        if arrivals == 0 {
            0.0
        } else {
            self.shed as f64 / arrivals as f64
        }
    }
}

#[derive(Debug, Default)]
struct DeviceSeries {
    windows: Vec<TimelineWindow>,
    /// The open window's counts, over the device state that carries
    /// from window to window.
    cur: DeviceMetrics,
    /// State-transfer stall of the open window's migrations out.
    stall: SimSpan,
    /// Index of the currently open window (`[idx·cadence, (idx+1)·cadence)`).
    cur_idx: u64,
    busy_at_start: u128,
}

impl DeviceSeries {
    fn close_window(&mut self, cadence: SimSpan, end: SimTime) {
        let start = SimTime::from_nanos(self.cur_idx * cadence.as_nanos());
        let len = end.saturating_since(start);
        let counts = self.cur.take_counts();
        let busy_ns = self.cur.busy_thread_ns();
        let slots = self.cur.thread_slots();
        let occupancy = if slots == 0 || len.is_zero() {
            0.0
        } else {
            let busy = (busy_ns - self.busy_at_start) as f64;
            busy / (len.as_nanos() as f64 * slots as f64)
        };
        self.windows.push(TimelineWindow {
            start,
            len,
            requests: counts.requests,
            shed: counts.shed,
            kernels: counts.finished,
            queue_depth: self.cur.queue_depth(),
            occupancy,
            p99: counts.latency.p99(),
            mean: counts.latency.mean(),
            migrations_out: counts.migrations_out,
            migration_stall: std::mem::take(&mut self.stall),
        });
        self.busy_at_start = busy_ns;
        self.cur_idx += 1;
    }

    /// Closes every window whose end lies at or before `at` (events *at*
    /// a boundary belong to the next window).
    fn flush_to(&mut self, cadence: SimSpan, at: SimTime, limit: SimTime) {
        loop {
            let end = SimTime::from_nanos((self.cur_idx + 1) * cadence.as_nanos());
            if end > at || end > limit {
                break;
            }
            self.close_window(cadence, end);
        }
    }
}

/// A fixed-cadence sampler producing per-device QPS / occupancy /
/// queue-depth / shed-rate time series from the observation stream,
/// exportable as versioned JSON ([`Timeline::to_json`]) or CSV
/// ([`Timeline::to_csv`]).
///
/// Windows are `[k·cadence, (k+1)·cadence)` and close lazily as
/// timestamped events stream past each boundary (see the module docs for
/// why no cluster barrier is scheduled); the export is a pure
/// function of the per-device event stream, hence byte-identical for
/// every cluster thread count.
///
/// ```
/// use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
/// use tally_core::telemetry::Timeline;
/// use tally_gpu::{GpuSpec, KernelDesc, SimSpan, SimTime};
///
/// let duration = SimSpan::from_secs(1);
/// let timeline = Timeline::shared_sync(SimSpan::from_millis(100), duration);
/// let k = KernelDesc::builder("req")
///     .grid(64).block(128)
///     .block_cost(SimSpan::from_micros(100))
///     .build_arc();
/// let arrivals = (0..50).map(|i| SimTime::from_millis(10 * i)).collect();
/// Colocation::on(GpuSpec::a100())
///     .client(JobSpec::inference("svc", vec![WorkloadOp::Kernel(k)], arrivals))
///     .sync_observer(timeline.clone())
///     .config(HarnessConfig {
///         duration,
///         warmup: SimSpan::ZERO,
///         ..Default::default()
///     })
///     .run();
/// let mut timeline = timeline.lock().unwrap();
/// let json = timeline.to_json();
/// assert!(json.starts_with("{\"version\": 3"));
/// // 10 windows of 100ms, ~5 completions each.
/// assert_eq!(timeline.windows(0).len(), 10);
/// assert!(timeline.windows(0).iter().map(|w| w.requests).sum::<u64>() >= 45);
/// ```
#[derive(Debug)]
pub struct Timeline {
    cadence: SimSpan,
    duration: SimSpan,
    devices: PerDevice<DeviceSeries>,
}

impl Timeline {
    /// A sampler closing a window every `cadence` over a run of
    /// `duration` (the final window may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn new(cadence: SimSpan, duration: SimSpan) -> Self {
        assert!(!cadence.is_zero(), "timeline cadence must be positive");
        Timeline {
            cadence,
            duration,
            devices: PerDevice::default(),
        }
    }

    /// A shared handle (see [`SharedSyncObserver`](crate::events::SharedSyncObserver))
    /// to register with a session or cluster; keep a clone to export the
    /// series after the run.
    pub fn shared_sync(cadence: SimSpan, duration: SimSpan) -> Arc<Mutex<Timeline>> {
        Arc::new(Mutex::new(Timeline::new(cadence, duration)))
    }

    /// Closes every remaining window up to the run duration. Idempotent;
    /// called automatically by the export methods.
    pub fn finish(&mut self) {
        let end = SimTime::ZERO + self.duration;
        for d in self.devices.values_mut() {
            loop {
                let start = SimTime::from_nanos(d.cur_idx * self.cadence.as_nanos());
                if start >= end {
                    break;
                }
                let close = (start + self.cadence).min(end);
                d.close_window(self.cadence, close);
            }
        }
    }

    /// The closed windows of one device (call [`Timeline::finish`] first
    /// to include trailing quiet windows).
    pub fn windows(&self, device: usize) -> &[TimelineWindow] {
        self.devices.get(device).map_or(&[], |d| &d.windows)
    }

    /// Versioned JSON export: `{"version": 3, "cadence_ns": …,
    /// "duration_ns": …, "series": [{"device": d, "windows": […]}]}`,
    /// one window object per closed window with `qps`, `shed_rate`,
    /// `occupancy`, `queue_depth`, migration counters, and latency
    /// quantiles in milliseconds. (Version 2 added `migrations_out` and
    /// `migration_stall_ms` per window; version 3 dropped `deferred`.)
    pub fn to_json(&mut self) -> String {
        self.finish();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"version\": 3, \"cadence_ns\": {}, \"duration_ns\": {}, \"series\": [",
            self.cadence.as_nanos(),
            self.duration.as_nanos()
        );
        for (di, (device, d)) in self.devices.iter().enumerate() {
            if di > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"device\": {device}, \"windows\": [");
            for (wi, w) in d.windows.iter().enumerate() {
                if wi > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"start_ns\": {}, \"len_ns\": {}, \"requests\": {}, \
                     \"shed\": {}, \"kernels\": {}, \
                     \"qps\": {}, \"shed_rate\": {}, \"occupancy\": {}, \
                     \"queue_depth\": {}, \"migrations_out\": {}, \
                     \"migration_stall_ms\": {}",
                    w.start.as_nanos(),
                    w.len.as_nanos(),
                    w.requests,
                    w.shed,
                    w.kernels,
                    fmt_f64(w.qps()),
                    fmt_f64(w.shed_rate()),
                    fmt_f64(w.occupancy),
                    w.queue_depth,
                    w.migrations_out,
                    fmt_f64(w.migration_stall.as_millis_f64()),
                );
                if let Some(p99) = w.p99 {
                    let _ = write!(out, ", \"p99_ms\": {}", fmt_f64(p99.as_millis_f64()));
                }
                if let Some(mean) = w.mean {
                    let _ = write!(out, ", \"mean_ms\": {}", fmt_f64(mean.as_millis_f64()));
                }
                out.push('}');
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }

    /// CSV export: one row per `(device, window)` with the same fields as
    /// the JSON form (empty latency cells for quiet windows).
    pub fn to_csv(&mut self) -> String {
        self.finish();
        let mut out = String::from(
            "device,start_ms,len_ms,requests,shed,kernels,\
             qps,shed_rate,occupancy,queue_depth,migrations_out,\
             migration_stall_ms,p99_ms,mean_ms\n",
        );
        for (device, d) in self.devices.iter() {
            for w in &d.windows {
                let _ = write!(
                    out,
                    "{device},{},{},{},{},{},{},{},{},{},{},{}",
                    fmt_f64(w.start.as_nanos() as f64 / 1e6),
                    fmt_f64(w.len.as_millis_f64()),
                    w.requests,
                    w.shed,
                    w.kernels,
                    fmt_f64(w.qps()),
                    fmt_f64(w.shed_rate()),
                    fmt_f64(w.occupancy),
                    w.queue_depth,
                    w.migrations_out,
                    fmt_f64(w.migration_stall.as_millis_f64()),
                );
                match w.p99 {
                    Some(p) => {
                        let _ = write!(out, ",{}", fmt_f64(p.as_millis_f64()));
                    }
                    None => out.push(','),
                }
                match w.mean {
                    Some(m) => {
                        let _ = write!(out, ",{}", fmt_f64(m.as_millis_f64()));
                    }
                    None => out.push(','),
                }
                out.push('\n');
            }
        }
        out
    }
}

impl SessionObserver for Timeline {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        if device == FLEET_DEVICE {
            return;
        }
        let limit = SimTime::ZERO + self.duration;
        let d = self.devices.entry(device);
        d.flush_to(self.cadence, at, limit);
        // A migration arrives stamped with its source device only.
        d.cur.fold(device, event);
        if let Observation::ClientMigrated { stall, .. } = event {
            d.stall += *stall;
        }
    }
}

// ---------------------------------------------------------------------
// ChromeTraceWriter
// ---------------------------------------------------------------------

/// Rendered trace events, one per line, joined by `",\n"`.
#[derive(Debug, Default)]
struct Lines(String);

impl Lines {
    /// Starts a line and returns the buffer to render it into.
    fn next(&mut self) -> &mut String {
        if !self.0.is_empty() {
            self.0.push_str(",\n");
        }
        &mut self.0
    }
}

#[derive(Debug, Default)]
struct DeviceTrack {
    /// Row (thread) names are the client keys; a kernel span is open
    /// while the client's kernel is outstanding.
    state: DeviceState,
    /// The track's events, rendered as they arrived.
    lines: Lines,
    /// Async span ids, device-local (globally unique with the device).
    seq: u64,
    /// Latest event instant — the close timestamp for spans still open at
    /// export.
    last_ts: SimTime,
}

impl DeviceTrack {
    /// Closes `client`'s kernel span if one is open. Call before the
    /// event that ends it is applied to `state`.
    fn close_open_kernel(&mut self, device: usize, at: SimTime, client: ClientId, truncated: bool) {
        if self.state.client(client).is_some_and(|c| c.outstanding) {
            kernel_end(self.lines.next(), device + 1, at, client.0, truncated);
        }
    }

    /// A zero-duration marker (`ph: "i"`).
    fn instant(&mut self, device: usize, ts: SimTime, tid: u32, name: &str, cat: &str) {
        let _ = write!(
            self.lines.next(),
            "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"i\", \"ts\": {}, \
             \"pid\": {}, \"tid\": {tid}, \"s\": \"t\"}}",
            fmt_ts(ts),
            device + 1
        );
    }

    /// An async span (`ph: "b"`/`"e"`, matched by id), so spans on one row
    /// may overlap: a request from arrival to completion or, with
    /// `stall`, a migration's state-transfer stall (cat `migration`) on
    /// the destination client's row, where it cannot disturb the `B`/`E`
    /// kernel stack.
    fn span(&mut self, device: usize, start: SimTime, end: SimTime, tid: u32, stall: bool) {
        let (name, cat, id_prefix) = if stall {
            ("migrate-stall", "migration", "stall-")
        } else {
            ("request", "request", "")
        };
        self.seq += 1;
        let pid = device + 1;
        for (ph, ts) in [("b", start), ("e", end)] {
            let _ = write!(
                self.lines.next(),
                "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"{ph}\", \
                 \"id\": \"{id_prefix}d{device}-{}\", \"ts\": {}, \"pid\": {pid}, \"tid\": {tid}}}",
                self.seq,
                fmt_ts(ts)
            );
        }
    }
}

/// Kernel span close (`ph: "E"`); `truncated` marks a span closed by
/// detach, migration or export rather than a kernel finish.
fn kernel_end(out: &mut String, pid: usize, ts: SimTime, tid: u32, truncated: bool) {
    let args = if truncated {
        ", \"args\": {\"truncated\": true}"
    } else {
        ""
    };
    let _ = write!(
        out,
        "{{\"cat\": \"kernel\", \"ph\": \"E\", \"ts\": {}, \"pid\": {pid}, \"tid\": {tid}{args}}}",
        fmt_ts(ts)
    );
}

/// Renders the observation stream into Chrome trace-event JSON — one
/// process (track) per device, one thread (row) per client — loadable in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
///
/// Kernel dispatch/finish become paired `B`/`E` duration events on the
/// client's row; request completions become async `b`/`e` spans from
/// arrival to completion (queued requests overlap); sheds, lifecycle
/// edges, migrations, and rebalance passes become instant markers.
/// Each event is rendered once, as it arrives, onto its device's track,
/// and the tracks are emitted in device-index order, so the export is
/// byte-identical for every cluster thread count.
///
/// ```
/// use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
/// use tally_core::telemetry::ChromeTraceWriter;
/// use tally_gpu::{GpuSpec, KernelDesc, SimSpan, SimTime};
///
/// let trace = ChromeTraceWriter::shared_sync();
/// let k = KernelDesc::builder("req")
///     .grid(64).block(128)
///     .block_cost(SimSpan::from_micros(100))
///     .build_arc();
/// let arrivals = (0..10).map(|i| SimTime::from_millis(10 * i)).collect();
/// Colocation::on(GpuSpec::a100())
///     .client(JobSpec::inference("svc", vec![WorkloadOp::Kernel(k)], arrivals))
///     .sync_observer(trace.clone())
///     .config(HarnessConfig {
///         duration: SimSpan::from_millis(200),
///         warmup: SimSpan::ZERO,
///         ..Default::default()
///     })
///     .run();
/// let json = trace.lock().unwrap().to_json();
/// assert!(json.contains("\"traceEvents\""));
/// assert!(json.contains("\"ph\": \"B\"") && json.contains("\"ph\": \"E\""));
/// ```
#[derive(Debug, Default)]
pub struct ChromeTraceWriter {
    devices: PerDevice<DeviceTrack>,
    /// Fleet-level markers (rebalance passes), pid 0.
    fleet: Lines,
}

impl ChromeTraceWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle (see [`SharedSyncObserver`](crate::events::SharedSyncObserver))
    /// to register with a session or cluster; keep a clone to export the
    /// trace after the run.
    pub fn shared_sync() -> Arc<Mutex<ChromeTraceWriter>> {
        Arc::new(Mutex::new(ChromeTraceWriter::new()))
    }

    /// The Chrome trace-event JSON document. Kernel spans still open at
    /// export are closed at the device's last event instant (marked
    /// `truncated`). `pid` is `device + 1`; pid 0 is the fleet track.
    pub fn to_json(&self) -> String {
        let mut doc = Lines::default();
        if !self.fleet.0.is_empty() {
            meta_name(doc.next(), "process_name", 0, None, "fleet");
        }
        for (device, track) in self.devices.iter() {
            let pid = device + 1;
            meta_name(
                doc.next(),
                "process_name",
                pid,
                None,
                &format!("device {device}"),
            );
            for (tid, c) in track.state.clients() {
                if let Some(name) = &c.key {
                    meta_name(doc.next(), "thread_name", pid, Some(tid.0), name);
                }
            }
            if !track.lines.0.is_empty() {
                doc.next().push_str(&track.lines.0);
            }
            // Close any kernel span still in flight so every B has an E.
            for (tid, c) in track.state.clients() {
                if c.outstanding {
                    kernel_end(doc.next(), pid, track.last_ts, tid.0, true);
                }
            }
        }
        if !self.fleet.0.is_empty() {
            doc.next().push_str(&self.fleet.0);
        }
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n",
            doc.0
        )
    }
}

/// Chrome metadata event (`ph: "M"`).
fn meta_name(out: &mut String, kind: &str, pid: usize, tid: Option<u32>, name: &str) {
    let _ = write!(
        out,
        "{{\"name\": \"{kind}\", \"ph\": \"M\", \"pid\": {pid}, "
    );
    if let Some(tid) = tid {
        let _ = write!(out, "\"tid\": {tid}, ");
    }
    let _ = write!(out, "\"args\": {{\"name\": \"{}\"}}}}", escape_json(name));
}

impl SessionObserver for ChromeTraceWriter {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        match event {
            Observation::Rebalance { .. } => {
                let _ = write!(
                    self.fleet.next(),
                    "{{\"name\": \"rebalance\", \"cat\": \"fleet\", \"ph\": \"i\", \
                     \"ts\": {}, \"pid\": 0, \"tid\": 0, \"s\": \"p\"}}",
                    fmt_ts(at)
                );
                return;
            }
            Observation::ClientMigrated {
                from,
                to,
                from_client,
                to_client,
                stall,
                ..
            } => {
                // Stamped with the source device; touches both tracks.
                let src = self.devices.entry(*from);
                src.last_ts = at;
                src.close_open_kernel(*from, at, *from_client, true);
                src.state.apply(*from, event);
                src.instant(*from, at, from_client.0, "migrate-out", "lifecycle");
                let dst = self.devices.entry(*to);
                dst.last_ts = dst.last_ts.max(at);
                dst.state.apply(*to, event);
                dst.instant(*to, at, to_client.0, "migrate-in", "lifecycle");
                if !stall.is_zero() {
                    // The state transfer occupies the destination row
                    // until the client may advance again.
                    dst.last_ts = dst.last_ts.max(at + *stall);
                    dst.span(*to, at, at + *stall, to_client.0, true);
                }
                return;
            }
            _ => {}
        }
        if device == FLEET_DEVICE {
            return;
        }
        let d = self.devices.entry(device);
        d.last_ts = d.last_ts.max(at);
        match event {
            Observation::ClientAttached {
                client, reattach, ..
            } => {
                let name = if *reattach { "reattach" } else { "attach" };
                d.instant(device, at, client.0, name, "lifecycle");
            }
            Observation::ClientDetached { client, .. } => {
                // Detach preempts and forgets in-flight work.
                d.close_open_kernel(device, at, *client, true);
                d.instant(device, at, client.0, "detach", "lifecycle");
            }
            Observation::KernelDispatched { client, kernel } => {
                d.close_open_kernel(device, at, *client, true);
                let _ = write!(
                    d.lines.next(),
                    "{{\"name\": \"{}\", \"cat\": \"kernel\", \"ph\": \"B\", \"ts\": {}, \
                     \"pid\": {}, \"tid\": {}}}",
                    escape_json(&kernel.name),
                    fmt_ts(at),
                    device + 1,
                    client.0
                );
            }
            Observation::KernelFinished { client } => {
                d.close_open_kernel(device, at, *client, false);
            }
            Observation::RequestCompleted {
                client, arrival, ..
            } => d.span(device, *arrival, at, client.0, false),
            Observation::RequestShed { client, arrival } => {
                d.instant(device, *arrival, client.0, "shed", "admission");
            }
            Observation::EngineSample { .. } => {}
            // Handled above.
            Observation::ClientMigrated { .. } | Observation::Rebalance { .. } => {}
        }
        d.state.apply(device, event);
    }
}

// ---------------------------------------------------------------------
// Formatting helpers
// ---------------------------------------------------------------------

/// Chrome trace timestamps are microseconds; render the exact nanosecond
/// value as a fixed-point decimal (deterministic — no float formatting).
fn fmt_ts(t: SimTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Deterministic float rendering (Rust's shortest-roundtrip formatter);
/// rejects non-finite values rather than emitting invalid JSON.
fn fmt_f64(v: f64) -> String {
    assert!(v.is_finite(), "non-finite telemetry value");
    format!("{v}")
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LatencyRecorder;
    use tally_gpu::rng::SmallRng;
    use tally_gpu::ClientId;

    #[test]
    fn bucket_mapping_is_contiguous_and_invertible() {
        let mut prev = None;
        for ns in 0..4096u64 {
            let idx = bucket_of(ns);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= ns && ns < hi,
                "value {ns} outside bucket {idx} = [{lo}, {hi})"
            );
            if let Some(p) = prev {
                assert!(
                    idx == p || idx == p + 1,
                    "bucket index jumped {p} -> {idx} at {ns}"
                );
            }
            prev = Some(idx);
        }
        // Extremes stay in-bounds (the top bucket saturates at 2^64).
        for ns in [1u64 << 40, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let idx = bucket_of(ns);
            let (lo, hi) = bucket_bounds(idx);
            assert!(
                lo <= ns && (ns < hi || hi == u64::MAX),
                "value {ns} outside bucket {idx} = [{lo}, {hi})"
            );
        }
    }

    #[test]
    fn empty_histogram_answers_none() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    /// Satellite: quantile error bound vs the exact recorder on seeded
    /// random samples, across several distributions and seeds.
    #[test]
    fn quantile_error_is_bounded_vs_exact_recorder() {
        for seed in [1u64, 7, 42, 1234] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut h = Histogram::new();
            let mut exact = LatencyRecorder::new();
            for _ in 0..5000 {
                // Log-uniform over ~6 decades: 1us .. 1s.
                let exp = rng.next_f64() * 6.0;
                let ns = (1e3 * 10f64.powf(exp)) as u64;
                let s = SimSpan::from_nanos(ns);
                h.record(s);
                exact.record(s);
            }
            for q in [0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let approx = h.quantile(q).unwrap().as_nanos() as f64;
                let truth = exact.quantile(q).unwrap().as_nanos() as f64;
                let err = (approx - truth).abs() / truth.max(1.0);
                assert!(
                    err <= 1.0 / 16.0,
                    "seed {seed} q {q}: {approx} vs {truth} (err {err})"
                );
            }
            assert_eq!(h.count(), exact.len() as u64);
            assert_eq!(h.max(), exact.max());
            assert_eq!(h.mean(), exact.mean());
        }
    }

    /// Satellite: merge is associative and commutative, so per-device
    /// histograms fold into fleet-wide ones in any order.
    #[test]
    fn merge_is_associative_and_commutative() {
        let mut rng = SmallRng::seed_from_u64(9);
        let parts: Vec<Histogram> = (0..4)
            .map(|_| {
                let mut h = Histogram::new();
                for _ in 0..500 {
                    h.record(SimSpan::from_nanos(rng.gen_range(1..10_000_000u64)));
                }
                h
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut acc = Histogram::new();
            for &i in order {
                acc.merge(&parts[i]);
            }
            acc
        };
        let base = fold(&[0, 1, 2, 3]);
        assert_eq!(base, fold(&[3, 2, 1, 0]));
        assert_eq!(base, fold(&[2, 0, 3, 1]));
        // Associativity: ((a+b)+(c+d)) == (a+(b+(c+d))).
        let mut left = parts[0].clone();
        left.merge(&parts[1]);
        let mut right = parts[2].clone();
        right.merge(&parts[3]);
        let mut ab_cd = left;
        ab_cd.merge(&right);
        assert_eq!(base, ab_cd);
        assert_eq!(base.count(), 2000);
    }

    fn ev(hub: &mut dyn SessionObserver, at_ms: u64, dev: usize, event: Observation) {
        hub.on_event(SimTime::from_millis(at_ms), dev, &event);
    }

    #[test]
    fn hub_attributes_events_to_devices_and_clients() {
        let mut hub = MetricsHub::new();
        ev(
            &mut hub,
            0,
            0,
            Observation::ClientAttached {
                client: ClientId(0),
                key: "svc".into(),
                priority: tally_gpu::Priority::High,
                descriptor: None,
                reattach: false,
            },
        );
        ev(
            &mut hub,
            5,
            0,
            Observation::RequestCompleted {
                client: ClientId(0),
                arrival: SimTime::from_millis(4),
                latency: SimSpan::from_millis(1),
            },
        );
        ev(
            &mut hub,
            6,
            0,
            Observation::RequestShed {
                client: ClientId(0),
                arrival: SimTime::from_millis(6),
            },
        );
        let d = hub.device(0).unwrap();
        assert_eq!((d.requests, d.shed), (1, 1));
        assert_eq!(d.clients_attached(), 1);
        let c = hub.client("svc").unwrap();
        assert!(c.high_priority);
        assert_eq!((c.requests, c.shed), (1, 1));
        assert_eq!(hub.events(), 3);
        assert!(hub
            .samples()
            .iter()
            .any(|s| s.name == "requests" && s.device == Some(0) && s.value == 1.0));
    }

    #[test]
    fn hub_tracks_migration_across_devices() {
        let mut hub = MetricsHub::new();
        ev(
            &mut hub,
            0,
            0,
            Observation::ClientAttached {
                client: ClientId(1),
                key: "train".into(),
                priority: tally_gpu::Priority::BestEffort,
                descriptor: None,
                reattach: false,
            },
        );
        ev(
            &mut hub,
            1,
            0,
            Observation::KernelDispatched {
                client: ClientId(1),
                kernel: tally_gpu::KernelDesc::builder("k")
                    .grid(1)
                    .block(32)
                    .block_cost(SimSpan::from_micros(1))
                    .build_arc(),
            },
        );
        assert_eq!(hub.device(0).unwrap().queue_depth(), 1);
        ev(
            &mut hub,
            2,
            0,
            Observation::ClientMigrated {
                key: "train".into(),
                from: 0,
                to: 1,
                from_client: ClientId(1),
                to_client: ClientId(0),
                bytes: 4_000_000_000,
                stall: SimSpan::from_millis(250),
            },
        );
        assert_eq!(hub.device(0).unwrap().queue_depth(), 0);
        assert_eq!(hub.device(0).unwrap().migrations_out, 1);
        assert_eq!(hub.device(1).unwrap().migrations_in, 1);
        assert_eq!(hub.migration_bytes(), 4_000_000_000);
        assert_eq!(hub.migration_stall(), SimSpan::from_millis(250));
        assert!(hub
            .samples()
            .iter()
            .any(|s| s.name == "migration_stall_ms" && s.value == 250.0));
        // Post-migration kernels land on the same client key.
        ev(
            &mut hub,
            3,
            1,
            Observation::KernelFinished {
                client: ClientId(0),
            },
        );
        assert_eq!(hub.client("train").unwrap().kernels, 1);
        assert_eq!(hub.migrations(), 1);
    }

    #[test]
    fn per_device_state_renders_like_a_btreemap() {
        let mut per = PerDevice::<u32>::default();
        *per.entry(2) = 7;
        *per.entry(0) = 1;
        let map: BTreeMap<usize, u32> = [(0, 1), (2, 7)].into();
        assert_eq!(format!("{per:?}"), format!("{map:?}"));
        assert_eq!(format!("{per:#?}"), format!("{map:#?}"));
        assert_eq!((per.get(1), per.get(2), per.get(9)), (None, Some(&7), None));
    }

    /// The hub as it folded client metrics before it indexed them: every
    /// per-client event looks its key up by string. Fields in the hub's
    /// order, so the derived `Debug` is the layout the hub must keep.
    #[derive(Debug, Default)]
    struct StringKeyedHub {
        devices: BTreeMap<usize, DeviceMetrics>,
        clients: BTreeMap<String, ClientMetrics>,
        migrations: u64,
        migration_bytes: u64,
        migration_stall: SimSpan,
        rebalances: u64,
        events: u64,
    }

    impl StringKeyedHub {
        fn client_mut(&mut self, device: usize, id: ClientId) -> &mut ClientMetrics {
            let key = match self.devices[&device]
                .state
                .client(id)
                .and_then(|c| c.key.clone())
            {
                Some(key) => key,
                None => format!("client-{}", id.0),
            };
            self.clients.entry(key).or_default()
        }

        fn fold(&mut self, device: usize, event: &Observation) {
            self.events += 1;
            match event {
                Observation::Rebalance { .. } => {
                    self.rebalances += 1;
                    return;
                }
                Observation::ClientMigrated {
                    from,
                    to,
                    bytes,
                    stall,
                    ..
                } => {
                    self.migrations += 1;
                    self.migration_bytes += *bytes;
                    self.migration_stall += *stall;
                    let src = self.devices.entry(*from).or_default();
                    src.migrations_out += 1;
                    src.state.apply(*from, event);
                    let dst = self.devices.entry(*to).or_default();
                    dst.migrations_in += 1;
                    dst.state.apply(*to, event);
                    return;
                }
                _ => {}
            }
            let d = self.devices.entry(device).or_default();
            d.state.apply(device, event);
            match event {
                Observation::ClientAttached { key, priority, .. } => {
                    d.attaches += 1;
                    self.clients.entry(key.clone()).or_default().high_priority = priority.is_high();
                }
                Observation::ClientDetached { .. } => d.detaches += 1,
                Observation::RequestCompleted {
                    client, latency, ..
                } => {
                    d.requests += 1;
                    d.latency.record(*latency);
                    let c = self.client_mut(device, *client);
                    c.requests += 1;
                    c.latency.record(*latency);
                }
                Observation::RequestShed { client, .. } => {
                    d.shed += 1;
                    self.client_mut(device, *client).shed += 1;
                }
                Observation::KernelDispatched { .. } => d.dispatched += 1,
                Observation::KernelFinished { client } => {
                    d.finished += 1;
                    self.client_mut(device, *client).kernels += 1;
                }
                Observation::EngineSample { .. }
                | Observation::ClientMigrated { .. }
                | Observation::Rebalance { .. } => {}
            }
        }

        /// A hub holding this fold's registries, to render its samples.
        fn as_hub(&self) -> MetricsHub {
            let mut hub = MetricsHub {
                migrations: self.migrations,
                migration_bytes: self.migration_bytes,
                migration_stall: self.migration_stall,
                rebalances: self.rebalances,
                events: self.events,
                ..MetricsHub::default()
            };
            for (&d, m) in &self.devices {
                let metrics = m.clone();
                hub.devices.entry(d).metrics = metrics;
            }
            for (k, m) in &self.clients {
                let slot = hub.clients.slot(k);
                hub.clients.metrics[slot] = m.clone();
            }
            hub
        }
    }

    #[test]
    fn hub_index_matches_the_string_keyed_fold() {
        let attach = |id: u32, key: &str, reattach: bool| Observation::ClientAttached {
            client: ClientId(id),
            key: key.into(),
            priority: if key == "hp" {
                tally_gpu::Priority::High
            } else {
                tally_gpu::Priority::BestEffort
            },
            descriptor: None,
            reattach,
        };
        let detach = |id: u32, key: &str| Observation::ClientDetached {
            client: ClientId(id),
            key: key.into(),
        };
        let finish = |id: u32| Observation::KernelFinished {
            client: ClientId(id),
        };
        let done = |id: u32, ms: u64| Observation::RequestCompleted {
            client: ClientId(id),
            arrival: SimTime::ZERO,
            latency: SimSpan::from_millis(ms),
        };
        let shed = |id: u32| Observation::RequestShed {
            client: ClientId(id),
            arrival: SimTime::ZERO,
        };
        let migrate = |key: &str, from: usize, from_client: u32, to: usize, to_client: u32| {
            Observation::ClientMigrated {
                key: key.into(),
                from,
                to,
                from_client: ClientId(from_client),
                to_client: ClientId(to_client),
                bytes: 1 << 20,
                stall: SimSpan::from_millis(1),
            }
        };
        let stream: Vec<(usize, Observation)> = vec![
            // d0/id0 finishes before any attach names it, then attaches.
            (0, finish(0)),
            (0, done(0, 3)),
            (0, attach(0, "hp", false)),
            (0, finish(0)),
            (0, done(0, 4)),
            (0, attach(1, "be", false)),
            (0, finish(1)),
            (0, shed(1)),
            // d1/id0 is charged unnamed, then under a key that leaves
            // before the migration below renames the slot again.
            (1, finish(0)),
            (1, done(0, 9)),
            (1, attach(0, "gone", false)),
            (1, finish(0)),
            (1, detach(0, "gone")),
            // A re-attach under the same key, and one under a new key.
            (0, detach(0, "hp")),
            (0, attach(0, "hp", true)),
            (0, done(0, 5)),
            (0, attach(2, "old", false)),
            (0, finish(2)),
            (0, detach(2, "old")),
            (0, attach(2, "new", true)),
            (0, finish(2)),
            // "be" moves from (d0, id1) to (d1, id0): both ends charge it.
            (0, migrate("be", 0, 1, 1, 0)),
            (1, finish(0)),
            (1, done(0, 7)),
            (1, shed(0)),
            (0, finish(1)),
            (0, done(1, 6)),
            // A key no event charged yet migrates in, then is charged.
            (1, migrate("cold", 1, 5, 0, 7)),
            (0, finish(7)),
            (0, done(7, 2)),
            (FLEET_DEVICE, Observation::Rebalance { moved: 2 }),
        ];
        let mut hub = MetricsHub::new();
        let mut reference = StringKeyedHub::default();
        for (i, (device, event)) in stream.iter().enumerate() {
            hub.on_event(SimTime::from_millis(i as u64), *device, event);
            reference.fold(*device, event);
        }
        let rendered = |it: &mut dyn Iterator<Item = (&str, &ClientMetrics)>| {
            it.map(|(k, m)| format!("{k}: {m:?}")).collect::<Vec<_>>()
        };
        assert_eq!(
            rendered(&mut hub.clients()),
            rendered(&mut reference.clients.iter().map(|(k, m)| (k.as_str(), m)))
        );
        for key in ["hp", "be", "old", "new", "gone", "cold", "client-0", "none"] {
            assert_eq!(
                format!("{:?}", hub.client(key)),
                format!("{:?}", reference.clients.get(key)),
                "{key}"
            );
        }
        assert_eq!(
            format!("{:?}", hub.samples()),
            format!("{:?}", reference.as_hub().samples())
        );
        assert_eq!(
            format!("{hub:?}"),
            format!("{reference:?}").replacen("StringKeyedHub", "MetricsHub", 1)
        );
        // The stream exercises each path: the unnamed fallback, the rename
        // by a later attach, and both ends of the migration.
        assert_eq!(hub.client("client-0").unwrap().kernels, 2);
        assert_eq!(hub.client("gone").unwrap().kernels, 1);
        assert_eq!(hub.client("hp").unwrap().kernels, 1);
        assert_eq!(hub.client("be").unwrap().kernels, 3);
        assert_eq!(hub.client("cold").unwrap().requests, 1);
    }

    #[test]
    fn timeline_windows_close_on_the_cadence() {
        let mut tl = Timeline::new(SimSpan::from_millis(10), SimSpan::from_millis(45));
        for at in [1u64, 5, 12] {
            ev(
                &mut tl,
                at,
                0,
                Observation::RequestCompleted {
                    client: ClientId(0),
                    arrival: SimTime::from_millis(at.saturating_sub(1)),
                    latency: SimSpan::from_millis(1),
                },
            );
        }
        ev(
            &mut tl,
            15,
            0,
            Observation::RequestShed {
                client: ClientId(0),
                arrival: SimTime::from_millis(15),
            },
        );
        ev(
            &mut tl,
            31,
            0,
            Observation::RequestCompleted {
                client: ClientId(0),
                arrival: SimTime::from_millis(30),
                latency: SimSpan::from_millis(1),
            },
        );
        tl.finish();
        let w = tl.windows(0);
        // 45ms run at 10ms cadence: 4 full windows + a 5ms tail.
        assert_eq!(w.len(), 5);
        assert_eq!(w[0].requests, 2);
        assert_eq!(w[1].requests, 1);
        assert_eq!(w[1].shed, 1);
        assert_eq!(w[2].requests, 0);
        assert_eq!(w[3].requests, 1);
        assert_eq!(w[4].len, SimSpan::from_millis(5));
        assert!((w[0].qps() - 200.0).abs() < 1e-9);
        assert!((w[1].shed_rate() - 0.5).abs() < 1e-9);
        // An event exactly on a boundary belongs to the next window.
        let mut tl = Timeline::new(SimSpan::from_millis(10), SimSpan::from_millis(20));
        ev(
            &mut tl,
            10,
            0,
            Observation::RequestCompleted {
                client: ClientId(0),
                arrival: SimTime::from_millis(9),
                latency: SimSpan::from_millis(1),
            },
        );
        tl.finish();
        assert_eq!(tl.windows(0)[0].requests, 0);
        assert_eq!(tl.windows(0)[1].requests, 1);
    }

    #[test]
    fn timeline_exports_are_versioned_and_stable() {
        let mut tl = Timeline::new(SimSpan::from_millis(10), SimSpan::from_millis(20));
        ev(
            &mut tl,
            3,
            0,
            Observation::RequestCompleted {
                client: ClientId(0),
                arrival: SimTime::from_millis(2),
                latency: SimSpan::from_millis(1),
            },
        );
        let json = tl.to_json();
        assert!(json.starts_with("{\"version\": 3, \"cadence_ns\": 10000000"));
        assert!(json.contains("\"qps\": 100"));
        // Export is idempotent: a second call renders the same document.
        assert_eq!(json, tl.to_json());
        let csv = tl.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 windows");
        assert!(csv.starts_with("device,start_ms"));
    }

    #[test]
    fn chrome_trace_pairs_kernel_spans() {
        let mut w = ChromeTraceWriter::new();
        ev(
            &mut w,
            0,
            0,
            Observation::ClientAttached {
                client: ClientId(0),
                key: "svc".into(),
                priority: tally_gpu::Priority::High,
                descriptor: None,
                reattach: false,
            },
        );
        let k = tally_gpu::KernelDesc::builder("conv")
            .grid(1)
            .block(32)
            .block_cost(SimSpan::from_micros(1))
            .build_arc();
        ev(
            &mut w,
            1,
            0,
            Observation::KernelDispatched {
                client: ClientId(0),
                kernel: k.clone(),
            },
        );
        ev(
            &mut w,
            2,
            0,
            Observation::KernelFinished {
                client: ClientId(0),
            },
        );
        // A dangling dispatch gets a truncated close at export.
        ev(
            &mut w,
            3,
            0,
            Observation::KernelDispatched {
                client: ClientId(0),
                kernel: k,
            },
        );
        let json = w.to_json();
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 2);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 2);
        assert_eq!(json.matches("\"truncated\": true").count(), 1);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("device 0"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(fmt_ts(SimTime::from_nanos(1_234_567)), "1234.567");
    }

    type Stream = Vec<(SimTime, usize, Observation)>;

    #[derive(Default)]
    struct Tape(Stream);

    impl SessionObserver for Tape {
        fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
            self.0.push((at, device, event.clone()));
        }
    }

    /// The stream of a two-device fleet: anti-phased high-priority
    /// bursts, best-effort trainers that `LoadAware` migrates, a
    /// best-effort crowd that `SloGuard` sheds, rebalance passes, and
    /// trainer kernels still in flight when the run ends.
    fn fleet_stream(duration: SimSpan) -> Stream {
        use crate::admission::SloGuard;
        use crate::cluster::{Cluster, LoadAware};
        use crate::harness::{HarnessConfig, JobSpec, WorkloadOp};
        use tally_gpu::{GpuSpec, KernelDesc, Priority};

        let kernel = |grid: u32, us: u64| {
            KernelDesc::builder("k")
                .grid(grid)
                .block(512)
                .block_cost(SimSpan::from_micros(us))
                .build_arc()
        };
        let bursts = |odd: u64| {
            let mut arrivals = Vec::new();
            for phase in (odd..4).step_by(2) {
                let start = phase * 250_000;
                arrivals.extend(
                    (start..start + 250_000)
                        .step_by(4000)
                        .map(SimTime::from_micros),
                );
            }
            arrivals
        };
        let service = |name, odd| {
            JobSpec::inference(
                name,
                vec![WorkloadOp::Kernel(kernel(16, 2000))],
                bursts(odd),
            )
        };
        let trainer = |name| {
            JobSpec::training(
                name,
                vec![
                    WorkloadOp::Kernel(kernel(48, 1500)),
                    WorkloadOp::CpuGap(SimSpan::from_micros(200)),
                ],
            )
        };
        let crowd = JobSpec::inference(
            "crowd",
            vec![WorkloadOp::Kernel(kernel(16, 300))],
            (0..1000).map(SimTime::from_millis).collect(),
        )
        .with_priority(Priority::BestEffort);
        let tape = Arc::new(Mutex::new(Tape::default()));
        Cluster::new()
            .devices(2, GpuSpec::tiny())
            .client(service("svc-even", 0))
            .client(service("svc-odd", 1))
            .client(trainer("t0"))
            .client(trainer("t1"))
            .client(crowd)
            .policy(LoadAware::default())
            .migrate_on_detach(false)
            .monitor_window(SimSpan::from_millis(50))
            .rebalance_every(SimSpan::from_millis(50))
            .admission_with(|_| {
                Box::new(SloGuard::new(SimSpan::from_millis(3)).qps_range(10.0, 1000.0))
            })
            .sync_observer(tape.clone())
            .config(HarnessConfig {
                duration,
                warmup: SimSpan::ZERO,
                seed: 0,
                jitter: 0.0,
                record_timelines: false,
            })
            .run();
        let stream = std::mem::take(&mut tape.lock().unwrap().0);
        stream
    }

    /// `stream` with repeats of each device's latest engine sample
    /// inserted before every later observation of that device: one
    /// halfway since the previous sample, one at the observation's own
    /// instant. None follows a device's last observation.
    fn with_repeats(stream: &Stream) -> Stream {
        let mut last: BTreeMap<usize, (SimTime, Observation)> = BTreeMap::new();
        let mut out = Vec::new();
        for (at, device, event) in stream {
            if let Some((t0, sample)) = last.get(device) {
                let mid = *t0 + at.saturating_since(*t0) / 2;
                out.push((mid, *device, sample.clone()));
                out.push((*at, *device, sample.clone()));
            }
            if matches!(event, Observation::EngineSample { .. }) {
                last.insert(*device, (*at, event.clone()));
            }
            out.push((*at, *device, event.clone()));
        }
        out
    }

    /// Everything the stream's folds answer, except `MetricsHub::events`:
    /// the timeline and Chrome trace exports, every other hub query, and
    /// each device's load-monitor signals after every observation other
    /// than a sample.
    fn folds(stream: &Stream, duration: SimSpan) -> Vec<String> {
        use crate::events::LoadMonitor;
        let mut timeline = Timeline::new(SimSpan::from_millis(50), duration);
        let mut trace = ChromeTraceWriter::new();
        let mut hub = MetricsHub::new();
        let mut monitors: BTreeMap<usize, LoadMonitor> = BTreeMap::new();
        let mut signals = Vec::new();
        for (at, device, event) in stream {
            timeline.on_event(*at, *device, event);
            trace.on_event(*at, *device, event);
            hub.on_event(*at, *device, event);
            let mut targets = vec![*device];
            if let Observation::ClientMigrated { to, .. } = event {
                targets.push(*to);
            }
            for d in targets.into_iter().filter(|&d| d != FLEET_DEVICE) {
                let m = monitors
                    .entry(d)
                    .or_insert_with(|| LoadMonitor::new(SimSpan::from_millis(50)));
                m.on_event(*at, d, event);
                if !matches!(event, Observation::EngineSample { .. }) {
                    signals.push((
                        d,
                        m.recent_occupancy(*at).to_bits(),
                        m.hp_pressure(*at).to_bits(),
                        m.queue_depth(),
                    ));
                }
            }
        }
        vec![
            timeline.to_json(),
            timeline.to_csv(),
            trace.to_json(),
            format!("{:?}", hub.samples()),
            format!("{:?}", hub.devices().collect::<Vec<_>>()),
            format!("{:?}", hub.clients().collect::<Vec<_>>()),
            format!(
                "{} {} {:?} {} {:?}",
                hub.migrations(),
                hub.migration_bytes(),
                hub.migration_stall(),
                hub.rebalances(),
                hub.fleet_latency()
            ),
            format!("{signals:?}"),
        ]
    }

    /// A sample that repeats the busy integral changes no fold but the
    /// hub's event count, so sessions may withhold repeats from
    /// observers and load monitors (admission policies still see them).
    #[test]
    fn repeated_engine_samples_change_no_fold() {
        let duration = SimSpan::from_secs(1);
        let stream = fleet_stream(duration);
        let kinds = |f: fn(&Observation) -> bool| stream.iter().filter(|(_, _, e)| f(e)).count();
        assert!(kinds(|e| matches!(e, Observation::ClientMigrated { .. })) > 0);
        assert!(kinds(|e| matches!(e, Observation::RequestShed { .. })) > 0);
        assert!(kinds(|e| matches!(e, Observation::EngineSample { .. })) > 0);
        let repeated = with_repeats(&stream);
        assert!(repeated.len() > 2 * stream.len() - 10);
        let (plain, padded) = (folds(&stream, duration), folds(&repeated, duration));
        assert!(
            plain[2].contains("\"truncated\": true"),
            "spans open at the end"
        );
        for (i, (a, b)) in plain.iter().zip(&padded).enumerate() {
            assert!(a == b, "fold {i} differs");
        }
    }
}
