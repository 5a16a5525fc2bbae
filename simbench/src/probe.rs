//! Passive timing proxies around the simulator's public plug-in traits,
//! and the host-time trace they feed.
//!
//! Each proxy forwards every call unchanged to the component it wraps and
//! charges the host time of the call to that component's layer. A proxy
//! sees only what the trait hands it, so it cannot steer a run; `main`
//! still checks that every proxied report is byte-identical to the plain
//! run's.
//!
//! Layers, one track each in the host trace:
//!
//! | layer | host time charged |
//! |---|---|
//! | `system` | `SharingSystem` calls (`scheduler` / `baselines`) |
//! | `admission` | `AdmissionPolicy` calls |
//! | `observer` | deliveries to user `SessionObserver`s (`telemetry`) |
//! | `policy` | `PlacementPolicy::place` / `migrate` |
//! | `rebalance` | time between consecutive `migrate` calls of one rebalance pass, minus the other layers' spans inside it |
//!
//! A rebalance pass is a run of `migrate` calls in strictly increasing
//! fleet order (the order `place` first saw the clients in), or up to an
//! `Observation::Rebalance` marker when an observer is registered. Between
//! two calls of one pass the cluster rebuilds every device's load snapshot
//! for the next candidate, so that gap is the snapshot cost. What a run's
//! wall time leaves after all layers is the harness's own time: engine
//! event loop, client and interception stubs, the built-in `LoadMonitor`,
//! and the cluster's barrier loop, none of which a proxy can reach.
//!
//! Spans are not kept one by one: each layer aggregates its spans into one
//! slice per epoch, and an epoch ends at every run start, placement burst
//! and rebalance pass, so the trace stays small however long a run is.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use tally_core::admission::{AdmissionPolicy, AdmissionVerdict};
use tally_core::cluster::{DeviceLoad, PlacementPolicy};
use tally_core::events::{Observation, SessionObserver, SharedSyncObserver};
use tally_core::harness::JobSpec;
use tally_core::system::{Ctx, SharingSystem};
use tally_gpu::{ClientId, KernelDesc, Notification, SimTime};

/// Host wall-clock sample. Every host-time reading of the benchmark goes
/// through here; none of it reaches simulated state.
#[allow(clippy::disallowed_methods)] // host-only instrumentation scope
pub fn host_now() -> Instant {
    Instant::now()
}

/// Host nanoseconds one clock read costs, measured as the fastest of a
/// few batches. A span brackets its call with two reads and so carries
/// about one read's cost, which [`State::span`] takes back out.
fn host_clock_cost_ns() -> u64 {
    const READS: u32 = 1000;
    (0..5)
        .map(|_| {
            let t = host_now();
            for _ in 0..READS {
                std::hint::black_box(host_now());
            }
            t.elapsed().as_nanos() as u64 / u64::from(READS)
        })
        .min()
        .unwrap_or(0)
}

/// A traced layer (one host-trace track).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    System,
    Admission,
    Observer,
    Policy,
    Rebalance,
}

impl Layer {
    pub const ALL: [Layer; 5] = [
        Layer::System,
        Layer::Admission,
        Layer::Observer,
        Layer::Policy,
        Layer::Rebalance,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::System => "system",
            Layer::Admission => "admission",
            Layer::Observer => "observer",
            Layer::Policy => "policy",
            Layer::Rebalance => "rebalance",
        }
    }
}

/// Deterministic call counts at the layer boundaries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub kernels_ready: u64,
    pub notifications: u64,
    pub polls: u64,
    pub timer_queries: u64,
    pub lifecycle: u64,
    pub admission_events: u64,
    pub verdicts: u64,
    pub admitted: u64,
    pub observer_events: u64,
    pub place_calls: u64,
    pub migrate_calls: u64,
    pub load_rows: u64,
    pub passes: u64,
}

impl Counts {
    /// Every `SharingSystem` call.
    pub fn system_calls(&self) -> u64 {
        self.kernels_ready + self.notifications + self.polls + self.timer_queries + self.lifecycle
    }
}

/// Host time of one layer over one epoch, in nanoseconds since the probe
/// was created.
#[derive(Clone, Copy, Debug)]
struct Slice {
    layer: Layer,
    start: u64,
    end: u64,
    busy: u64,
    calls: u64,
}

/// What a finished traced run measured.
#[derive(Clone, Debug)]
pub struct Measured {
    /// Self time per layer, nanoseconds, in [`Layer::ALL`] order.
    pub busy_ns: [u64; 5],
    pub counts: Counts,
}

impl Measured {
    pub fn ns(&self, layer: Layer) -> u64 {
        self.busy_ns[layer as usize]
    }

    pub fn total_ns(&self) -> u64 {
        self.busy_ns.iter().sum()
    }
}

struct State {
    origin: Instant,
    /// See [`host_clock_cost_ns`].
    clock_ns: u64,
    busy: [u64; 5],
    counts: Counts,
    /// Fleet order of every client key `place` has seen.
    order: BTreeMap<String, usize>,
    /// Exit instant and fleet order of the latest `migrate` call, while
    /// its pass may continue.
    last_migrate: Option<(u64, usize)>,
    /// Other layers' host time since `last_migrate`.
    gap_children: u64,
    placing: bool,
    epoch: u64,
    open: [Option<(u64, Slice)>; 5],
    slices: Vec<Slice>,
    /// `(name, start, end)` of every run.
    runs: Vec<(String, u64, u64)>,
}

impl State {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn aggregate(&mut self, layer: Layer, start: u64, end: u64, busy: u64) {
        let epoch = self.epoch;
        let slot = &mut self.open[layer as usize];
        match slot {
            Some((e, s)) if *e == epoch => {
                s.end = end;
                s.busy += busy;
                s.calls += 1;
            }
            _ => {
                if let Some((_, s)) = slot.take() {
                    self.slices.push(s);
                }
                *slot = Some((
                    epoch,
                    Slice {
                        layer,
                        start,
                        end,
                        busy,
                        calls: 1,
                    },
                ));
            }
        }
    }

    fn span(&mut self, layer: Layer, start: u64, end: u64) {
        let d = end.saturating_sub(start).saturating_sub(self.clock_ns);
        self.busy[layer as usize] += d;
        if self.last_migrate.is_some() {
            self.gap_children += d;
        }
        if layer != Layer::Policy {
            self.placing = false;
        }
        self.aggregate(layer, start, end, d);
    }

    fn end_pass(&mut self) {
        self.last_migrate = None;
        self.gap_children = 0;
    }

    fn place(&mut self, key: &str, start: u64, end: u64) {
        self.end_pass();
        let next = self.order.len();
        self.order.entry(key.to_string()).or_insert(next);
        if !self.placing {
            self.placing = true;
            self.epoch += 1;
        }
        self.span(Layer::Policy, start, end);
    }

    fn migrate(&mut self, key: &str, start: u64, end: u64) {
        let idx = self.order.get(key).copied();
        match (self.last_migrate, idx) {
            (Some((exit, last)), Some(i)) if i > last => {
                let gap = start
                    .saturating_sub(exit)
                    .saturating_sub(self.gap_children + self.clock_ns);
                self.busy[Layer::Rebalance as usize] += gap;
                self.aggregate(Layer::Rebalance, exit, start, gap);
            }
            _ => {
                self.counts.passes += 1;
                self.epoch += 1;
            }
        }
        self.end_pass();
        self.placing = false;
        self.span(Layer::Policy, start, end);
        self.last_migrate = idx.map(|i| (end, i));
    }

    fn close_slices(&mut self) {
        for slot in &mut self.open {
            if let Some((_, s)) = slot.take() {
                self.slices.push(s);
            }
        }
    }
}

/// Shared handle to one traced run's measurements. Cheap to clone; every
/// proxy of a run holds one.
#[derive(Clone)]
pub struct Probe(Arc<Mutex<State>>);

impl Probe {
    pub fn new() -> Self {
        Probe(Arc::new(Mutex::new(State {
            clock_ns: host_clock_cost_ns(),
            origin: host_now(),
            busy: [0; 5],
            counts: Counts::default(),
            order: BTreeMap::new(),
            last_migrate: None,
            gap_children: 0,
            placing: false,
            epoch: 0,
            open: [None; 5],
            slices: Vec::new(),
            runs: Vec::new(),
        })))
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.0
            .lock()
            .expect("probe state poisoned by a panicking run")
    }

    /// Charges the host time since `start` to `layer`.
    fn record(&self, layer: Layer, start: Instant, count: impl FnOnce(&mut Counts)) {
        let end = host_now();
        let mut s = self.lock();
        let (a, b) = (s.ns(start), s.ns(end));
        count(&mut s.counts);
        s.span(layer, a, b);
    }

    /// Marks the start of one timed `run` call.
    pub fn begin_run(&self, name: &str) {
        let now = host_now();
        let mut s = self.lock();
        let t = s.ns(now);
        s.end_pass();
        s.epoch += 1;
        s.runs.push((name.to_string(), t, t));
    }

    /// Marks the end of the latest timed `run` call.
    pub fn end_run(&self) {
        let now = host_now();
        let mut s = self.lock();
        let t = s.ns(now);
        s.end_pass();
        if let Some(run) = s.runs.last_mut() {
            run.2 = t;
        }
        s.close_slices();
    }

    pub fn measured(&self) -> Measured {
        let s = self.lock();
        Measured {
            busy_ns: s.busy,
            counts: s.counts.clone(),
        }
    }

    /// The run's host-time spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto): one track per run and per layer, one slice per epoch.
    /// `dur` is the slice's extent; `args.self_us` is the host time the
    /// layer itself spent inside it. On the run track, `self_us` is the
    /// harness's own time: the run's wall time minus every layer.
    pub fn chrome_trace(&self) -> String {
        let s = self.lock();
        let us = |ns: u64| ns as f64 / 1e3;
        let mut out = String::from("{\"traceEvents\":[\n");
        let meta = |tid: usize, name: &str, out: &mut String| {
            let _ = writeln!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{name}\"}}}},"
            );
        };
        meta(0, "run", &mut out);
        for layer in Layer::ALL {
            meta(layer as usize + 1, layer.name(), &mut out);
        }
        let mut events = Vec::new();
        for (name, start, end) in &s.runs {
            let inside: u64 = s
                .slices
                .iter()
                .filter(|x| x.start >= *start && x.end <= *end)
                .map(|x| x.busy)
                .sum();
            let wall = end - start;
            events.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{name}\",\"pid\":1,\"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"self_us\":{}}}}}",
                us(*start),
                us(wall),
                us(wall.saturating_sub(inside))
            ));
        }
        for x in &s.slices {
            events.push(format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"self_us\":{},\"calls\":{}}}}}",
                x.layer.name(),
                x.layer as usize + 1,
                us(x.start),
                us(x.end - x.start),
                us(x.busy),
                x.calls
            ));
        }
        out.push_str(&events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }

    pub fn system(&self, inner: Box<dyn SharingSystem>) -> Box<dyn SharingSystem> {
        Box::new(TimedSystem {
            inner,
            probe: self.clone(),
        })
    }

    pub fn admission(&self, inner: Box<dyn AdmissionPolicy>) -> Box<dyn AdmissionPolicy> {
        Box::new(TimedAdmission {
            inner,
            probe: self.clone(),
        })
    }

    pub fn policy(&self, inner: Box<dyn PlacementPolicy>) -> Box<dyn PlacementPolicy> {
        Box::new(TimedPolicy {
            inner,
            probe: self.clone(),
        })
    }

    pub fn observer(&self, inner: SharedSyncObserver) -> SharedSyncObserver {
        Arc::new(Mutex::new(TimedObserver {
            inner,
            probe: self.clone(),
        }))
    }
}

struct TimedSystem {
    inner: Box<dyn SharingSystem>,
    probe: Probe,
}

impl SharingSystem for TimedSystem {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        let t = host_now();
        self.inner.on_kernel_ready(ctx, client, kernel);
        self.probe
            .record(Layer::System, t, |c| c.kernels_ready += 1);
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        let t = host_now();
        self.inner.on_notification(ctx, note);
        self.probe
            .record(Layer::System, t, |c| c.notifications += 1);
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        let t = host_now();
        self.inner.poll(ctx);
        self.probe.record(Layer::System, t, |c| c.polls += 1);
    }

    fn next_timer(&self) -> Option<SimTime> {
        let t = host_now();
        let next = self.inner.next_timer();
        self.probe
            .record(Layer::System, t, |c| c.timer_queries += 1);
        next
    }

    fn on_client_attach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        let t = host_now();
        self.inner.on_client_attach(ctx, client);
        self.probe.record(Layer::System, t, |c| c.lifecycle += 1);
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        let t = host_now();
        self.inner.on_client_detach(ctx, client);
        self.probe.record(Layer::System, t, |c| c.lifecycle += 1);
    }
}

struct TimedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    probe: Probe,
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        let t = host_now();
        self.inner.on_event(at, device, event);
        self.probe
            .record(Layer::Admission, t, |c| c.admission_events += 1);
    }

    fn admit(&mut self, now: SimTime, client: ClientId, queue_depth: usize) -> AdmissionVerdict {
        let t = host_now();
        let verdict = self.inner.admit(now, client, queue_depth);
        self.probe.record(Layer::Admission, t, |c| {
            c.verdicts += 1;
            c.admitted += u64::from(verdict == AdmissionVerdict::Admit);
        });
        verdict
    }
}

struct TimedObserver {
    inner: SharedSyncObserver,
    probe: Probe,
}

impl SessionObserver for TimedObserver {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        let t = host_now();
        self.inner
            .lock()
            .expect("observer poisoned by a panicking run")
            .on_event(at, device, event);
        self.probe
            .record(Layer::Observer, t, |c| c.observer_events += 1);
        if let Observation::Rebalance { .. } = event {
            self.probe.lock().end_pass();
        }
    }
}

struct TimedPolicy {
    inner: Box<dyn PlacementPolicy>,
    probe: Probe,
}

impl PlacementPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&mut self, job: &JobSpec, devices: &[DeviceLoad]) -> usize {
        let t = host_now();
        let d = self.inner.place(job, devices);
        let end = host_now();
        let mut s = self.probe.lock();
        let (a, b) = (s.ns(t), s.ns(end));
        s.counts.place_calls += 1;
        s.counts.load_rows += devices.len() as u64;
        s.place(job.key(), a, b);
        d
    }

    fn migrate(&mut self, job: &JobSpec, from: usize, devices: &[DeviceLoad]) -> Option<usize> {
        let t = host_now();
        let target = self.inner.migrate(job, from, devices);
        let end = host_now();
        let mut s = self.probe.lock();
        let (a, b) = (s.ns(t), s.ns(end));
        s.counts.migrate_calls += 1;
        s.counts.load_rows += devices.len() as u64;
        s.migrate(job.key(), a, b);
        target
    }
}
