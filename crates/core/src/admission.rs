//! Observer-driven admission control: shed best-effort load before it
//! enters the queue.
//!
//! Open-loop traffic (see `tally_workloads::openloop`) keeps arriving
//! whether or not the device keeps up, so past the saturation knee the
//! arrival queue — and p99 sojourn — grows without bound. An
//! [`AdmissionPolicy`] is the control loop that closes the gap: it
//! watches the same live [`Observation`] stream every
//! [`SessionObserver`](crate::events::SessionObserver) sees (p99 of
//! high-priority completions, kernels in flight on the device) and
//! decides, per arriving *best-effort* request, whether to admit or shed
//! it. The policy is consulted once per arrival, in arrival order, and
//! sees the client's queue length before the request would join it.
//! High-priority requests are never gated — the whole point is to
//! sacrifice best-effort load to protect the latency-critical tenant.
//!
//! Three policies ship:
//!
//! * [`RejectNever`] — the open-loop baseline: admit everything and let
//!   the queue grow. This is what "blows through" the SLO in the
//!   saturation bench.
//! * [`QueueCap`] — bound the per-client arrival queue; shed past the
//!   cap.
//! * [`SloGuard`] — AIMD on admitted QPS driven by the live
//!   high-priority p99: multiplicative decrease on SLO breach, additive
//!   increase while healthy, enforced by a sim-time token bucket.
//!
//! Decisions are pure functions of simulated time and the per-session
//! event stream, so runs stay deterministic for every worker-thread
//! count. Sheds are counted per client
//! ([`ClientReport::shed`](crate::metrics::ClientReport::shed)) and every
//! shed arrival is announced as [`Observation::RequestShed`].
//!
//! ```
//! use tally_core::admission::QueueCap;
//! use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
//! use tally_gpu::{GpuSpec, KernelDesc, Priority, SimSpan, SimTime};
//!
//! // An open-loop best-effort client offering 2x what the device serves.
//! let k = KernelDesc::builder("be::req")
//!     .grid(64).block(256)
//!     .block_cost(SimSpan::from_millis(2))
//!     .build_arc();
//! let be = JobSpec::inference(
//!     "be-service",
//!     vec![WorkloadOp::Kernel(k)],
//!     (0..500).map(|i| SimTime::from_millis(2 * i)).collect(),
//! )
//! .with_priority(Priority::BestEffort);
//!
//! let report = Colocation::on(GpuSpec::tiny())
//!     .client(be)
//!     .admission(Box::new(QueueCap::shedding(4)))
//!     .config(HarnessConfig {
//!         duration: SimSpan::from_secs(1),
//!         warmup: SimSpan::ZERO,
//!         ..Default::default()
//!     })
//!     .run();
//! let c = &report.clients[0];
//! // The cap turned unbounded queue growth into shed requests.
//! assert!(c.shed > 0);
//! assert!(c.requests + c.shed <= 500);
//! ```

use std::collections::VecDeque;

use tally_gpu::{ClientId, SimSpan, SimTime};

use crate::events::{DeviceState, Observation};

/// What to do with one arriving best-effort request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionVerdict {
    /// Enqueue it; its latency clock starts at the original arrival.
    Admit,
    /// Reject it permanently: it never enters the queue, never runs, and
    /// never counts toward latency. Counted in
    /// [`ClientReport::shed`](crate::metrics::ClientReport::shed).
    Shed,
}

/// An admission controller for best-effort requests.
///
/// One policy instance guards one session (one device): the harness
/// feeds it every [`Observation`] the session emits — exactly the
/// observer stream, before buffering — and consults
/// [`admit`](AdmissionPolicy::admit) for each best-effort arrival whose
/// intake instant has come. In a cluster it also receives, stamped with
/// its device, every [`Observation::ClientMigrated`] of a client leaving
/// that device, just as the observers do. Policies must be `Send` so a
/// [`Cluster`](crate::cluster::Cluster) can build one per device and
/// advance sessions on worker threads; see
/// [`Cluster::admission_with`](crate::cluster::Cluster::admission_with).
///
/// The `queue_depth` argument is the *arriving client's* current arrival
/// queue length — the instantaneous backlog the request would join.
///
/// ```
/// use tally_core::admission::{AdmissionPolicy, AdmissionVerdict};
/// use tally_gpu::{ClientId, SimTime};
///
/// /// Admit every other best-effort request.
/// struct HalfRate(bool);
/// impl AdmissionPolicy for HalfRate {
///     fn name(&self) -> &str {
///         "half-rate"
///     }
///     fn admit(&mut self, _: SimTime, _: ClientId, _: usize) -> AdmissionVerdict {
///         self.0 = !self.0;
///         if self.0 {
///             AdmissionVerdict::Admit
///         } else {
///             AdmissionVerdict::Shed
///         }
///     }
/// }
///
/// let mut p = HalfRate(false);
/// let verdicts: Vec<_> = (0..4)
///     .map(|_| p.admit(SimTime::ZERO, ClientId(0), 0))
///     .collect();
/// assert_eq!(verdicts[0], AdmissionVerdict::Admit);
/// assert_eq!(verdicts[1], AdmissionVerdict::Shed);
/// ```
pub trait AdmissionPolicy: Send {
    /// A short human-readable policy name (for reports and benches).
    fn name(&self) -> &str;

    /// Receives the session's observation stream, exactly as a
    /// [`SessionObserver`](crate::events::SessionObserver) would. The
    /// default does nothing; closed-loop policies ignore the stream.
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        let _ = (at, device, event);
    }

    /// Decides the fate of one best-effort request whose intake instant
    /// is `now`, arriving at a client whose queue currently holds
    /// `queue_depth` requests.
    fn admit(&mut self, now: SimTime, client: ClientId, queue_depth: usize) -> AdmissionVerdict;
}

impl std::fmt::Debug for dyn AdmissionPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AdmissionPolicy({})", self.name())
    }
}

/// The open-loop baseline: admit everything, let the queue grow without
/// bound. Equivalent to running with no admission policy at all — it
/// exists so saturation benches can name the contrast.
#[derive(Clone, Copy, Debug, Default)]
pub struct RejectNever;

impl AdmissionPolicy for RejectNever {
    fn name(&self) -> &str {
        "reject-never"
    }

    fn admit(&mut self, _now: SimTime, _client: ClientId, _depth: usize) -> AdmissionVerdict {
        AdmissionVerdict::Admit
    }
}

/// Bounds each best-effort client's arrival queue at `cap` requests:
/// arrivals that would push past the cap are shed.
#[derive(Clone, Copy, Debug)]
pub struct QueueCap {
    cap: usize,
}

impl QueueCap {
    /// A cap that sheds past `cap` queued requests.
    pub fn shedding(cap: usize) -> Self {
        QueueCap { cap }
    }
}

impl AdmissionPolicy for QueueCap {
    fn name(&self) -> &str {
        "queue-cap"
    }

    fn admit(&mut self, _now: SimTime, _client: ClientId, depth: usize) -> AdmissionVerdict {
        if depth < self.cap {
            AdmissionVerdict::Admit
        } else {
            AdmissionVerdict::Shed
        }
    }
}

/// AIMD admission on best-effort QPS, driven by the live high-priority
/// p99 from the observation stream.
///
/// The guard keeps its own trailing window of high-priority request
/// sojourns and once per control window compares the windowed p99
/// against the SLO: breach → multiplicative decrease of the admitted
/// best-effort rate, healthy → additive increase. The rate is enforced
/// by a token bucket refilled from *simulated* time, so the controller
/// is deterministic for any thread count. It also folds its device's
/// stream (each client's scheduling class from its attach event, the
/// kernels in flight). That fold only gates breaches: while the device
/// is drained (no outstanding kernels) a breach verdict is ignored, so a
/// stale p99 sample can't keep the rate pinned down after the crowd has
/// passed.
#[derive(Debug)]
pub struct SloGuard {
    slo: SimSpan,
    window: SimSpan,
    min_qps: f64,
    max_qps: f64,
    increase: f64,
    decrease: f64,
    /// The device's client classes and kernels in flight.
    state: DeviceState,
    /// Trailing-window high-priority sojourns.
    latencies: VecDeque<(SimTime, SimSpan)>,
    admitted_qps: f64,
    tokens: f64,
    last_refill: SimTime,
    next_control: SimTime,
}

impl SloGuard {
    /// A guard holding high-priority p99 at `slo`, with a control window
    /// of `4 × slo` and default AIMD constants (halve on breach, +25
    /// QPS per healthy window, floor 1 QPS, ceiling 100k QPS — tighten
    /// with [`SloGuard::qps_range`]).
    pub fn new(slo: SimSpan) -> Self {
        assert!(!slo.is_zero(), "SLO must be positive");
        // tally-lint: allow(D1-float-schedule) -- fixed 4x scaling of an
        // integral SLO, rounded to integral nanoseconds exactly once at
        // construction; the control loop itself advances in integer time.
        let window = SimSpan::from_secs_f64(slo.as_secs_f64() * 4.0).max(SimSpan::from_millis(1));
        SloGuard {
            slo,
            window,
            min_qps: 1.0,
            max_qps: 100_000.0,
            increase: 25.0,
            decrease: 0.5,
            state: DeviceState::default(),
            latencies: VecDeque::new(),
            admitted_qps: 100_000.0,
            tokens: 1.0,
            last_refill: SimTime::ZERO,
            next_control: SimTime::ZERO + window,
        }
    }

    /// Overrides the control window (also the p99 averaging window).
    pub fn window(mut self, window: SimSpan) -> Self {
        assert!(!window.is_zero(), "control window must be positive");
        self.window = window;
        self.next_control = SimTime::ZERO + window;
        self
    }

    /// Bounds the admitted best-effort rate to `[min, max]` QPS. The
    /// guard starts wide open at `max`.
    pub fn qps_range(mut self, min: f64, max: f64) -> Self {
        assert!(min > 0.0 && max >= min, "need 0 < min <= max");
        self.min_qps = min;
        self.max_qps = max;
        self.admitted_qps = max;
        self
    }

    /// Overrides the AIMD constants: `increase` QPS added per healthy
    /// window, rate multiplied by `decrease` on breach.
    pub fn aimd(mut self, increase: f64, decrease: f64) -> Self {
        assert!(increase > 0.0, "additive increase must be positive");
        assert!(
            decrease > 0.0 && decrease < 1.0,
            "multiplicative decrease must be in (0, 1)"
        );
        self.increase = increase;
        self.decrease = decrease;
        self
    }

    /// The SLO target.
    pub fn slo(&self) -> SimSpan {
        self.slo
    }

    /// The best-effort rate currently admitted, in QPS.
    pub fn admitted_qps(&self) -> f64 {
        self.admitted_qps
    }

    /// Windowed p99 of high-priority sojourns ending at the last seen
    /// event, or `None` while the window holds no samples.
    pub fn hp_p99(&self) -> Option<SimSpan> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted: Vec<SimSpan> = self.latencies.iter().map(|&(_, l)| l).collect();
        sorted.sort_unstable();
        let rank = ((sorted.len() as f64 * 0.99).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    fn control_step(&mut self, now: SimTime) {
        while now >= self.next_control {
            let breach =
                self.hp_p99().is_some_and(|p99| p99 > self.slo) && self.state.queue_depth() > 0;
            if breach {
                self.admitted_qps = (self.admitted_qps * self.decrease).max(self.min_qps);
            } else {
                self.admitted_qps = (self.admitted_qps + self.increase).min(self.max_qps);
            }
            self.next_control += self.window;
        }
    }
}

impl AdmissionPolicy for SloGuard {
    fn name(&self) -> &str {
        "slo-guard"
    }

    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        self.state.apply(device, event);
        if let Observation::RequestCompleted {
            client, latency, ..
        } = event
        {
            if self.state.client(*client).is_some_and(|c| c.high_priority) {
                self.latencies.push_back((at, *latency));
                let boundary = at - self.window;
                while self.latencies.front().is_some_and(|&(t, _)| t < boundary) {
                    self.latencies.pop_front();
                }
            }
        }
        self.control_step(at);
    }

    fn admit(&mut self, now: SimTime, _client: ClientId, _depth: usize) -> AdmissionVerdict {
        self.control_step(now);
        // Refill from simulated time; burst capacity is 50 ms of the
        // admitted rate, at least one whole token.
        let dt = now.saturating_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        let burst = (self.admitted_qps * 0.05).max(1.0);
        self.tokens = (self.tokens + self.admitted_qps * dt).min(burst);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            AdmissionVerdict::Admit
        } else {
            AdmissionVerdict::Shed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tally_gpu::Priority;

    #[test]
    fn reject_never_admits_everything() {
        let mut p = RejectNever;
        for depth in [0, 10, 10_000] {
            assert_eq!(
                p.admit(SimTime::ZERO, ClientId(1), depth),
                AdmissionVerdict::Admit
            );
        }
    }

    #[test]
    fn queue_cap_sheds_past_the_cap() {
        let mut shed = QueueCap::shedding(4);
        assert_eq!(
            shed.admit(SimTime::ZERO, ClientId(1), 3),
            AdmissionVerdict::Admit
        );
        assert_eq!(
            shed.admit(SimTime::ZERO, ClientId(1), 4),
            AdmissionVerdict::Shed
        );
    }

    fn attach(guard: &mut SloGuard, at: SimTime, id: u32, priority: Priority) {
        guard.on_event(
            at,
            0,
            &Observation::ClientAttached {
                client: ClientId(id),
                key: format!("c{id}"),
                priority,
                descriptor: None,
                reattach: false,
            },
        );
    }

    fn complete(guard: &mut SloGuard, at: SimTime, id: u32, latency: SimSpan) {
        guard.on_event(
            at,
            0,
            &Observation::RequestCompleted {
                client: ClientId(id),
                arrival: at - latency,
                latency,
            },
        );
    }

    /// Marks the device busy so breach verdicts are honored.
    fn dispatch(guard: &mut SloGuard, at: SimTime, id: u32) {
        let k = tally_gpu::KernelDesc::builder("k")
            .grid(1)
            .block(32)
            .block_cost(SimSpan::from_micros(10))
            .build_arc();
        guard.on_event(
            at,
            0,
            &Observation::KernelDispatched {
                client: ClientId(id),
                kernel: k,
            },
        );
    }

    #[test]
    fn slo_guard_decreases_on_breach_and_recovers() {
        let slo = SimSpan::from_millis(10);
        let mut g = SloGuard::new(slo)
            .window(SimSpan::from_millis(100))
            .qps_range(10.0, 1000.0)
            .aimd(50.0, 0.5);
        attach(&mut g, SimTime::ZERO, 1, Priority::High);
        attach(&mut g, SimTime::ZERO, 2, Priority::BestEffort);
        dispatch(&mut g, SimTime::from_millis(1), 1);
        assert_eq!(g.admitted_qps(), 1000.0);
        // Breached windows: hp p99 is 5x the SLO while the device is busy.
        // Three control ticks fire (100/200/300 ms): 1000 -> 500 -> 250 -> 125.
        for ms in (10..=300).step_by(10) {
            complete(
                &mut g,
                SimTime::from_millis(ms),
                1,
                SimSpan::from_millis(50),
            );
            dispatch(&mut g, SimTime::from_millis(ms), 1);
        }
        assert!(
            g.admitted_qps() < 200.0,
            "multiplicative decrease should bite, at {}",
            g.admitted_qps()
        );
        let low = g.admitted_qps();
        // Healthy windows: p99 well under the SLO -> additive recovery.
        for ms in (310..1000).step_by(10) {
            complete(&mut g, SimTime::from_millis(ms), 1, SimSpan::from_millis(1));
        }
        assert!(
            g.admitted_qps() >= low + 100.0,
            "additive increase should recover ({} -> {})",
            low,
            g.admitted_qps()
        );
    }

    #[test]
    fn slo_guard_ignores_best_effort_latencies() {
        let mut g = SloGuard::new(SimSpan::from_millis(10)).window(SimSpan::from_millis(100));
        attach(&mut g, SimTime::ZERO, 2, Priority::BestEffort);
        dispatch(&mut g, SimTime::from_millis(1), 2);
        for ms in (10..500).step_by(10) {
            complete(&mut g, SimTime::from_millis(ms), 2, SimSpan::from_secs(5));
        }
        assert!(g.hp_p99().is_none());
        assert_eq!(g.admitted_qps(), 100_000.0, "be sojourns never breach");
    }

    #[test]
    fn slo_guard_token_bucket_paces_admission() {
        let mut g = SloGuard::new(SimSpan::from_millis(10))
            .window(SimSpan::from_millis(100))
            .qps_range(100.0, 100.0); // pinned at 100 QPS
        let mut admitted = 0;
        // 1000 arrivals over one second, offered at 1000 QPS.
        for i in 0..1000u64 {
            let t = SimTime::from_nanos(i * 1_000_000);
            if g.admit(t, ClientId(2), 0) == AdmissionVerdict::Admit {
                admitted += 1;
            }
        }
        assert!(
            (90..=120).contains(&admitted),
            "expected ~100 admits at 100 QPS, got {admitted}"
        );
    }

    /// The guard steps its controller at every observation it is shown,
    /// reading the state at that instant, so an engine sample that
    /// repeats the last busy value still moves its verdicts. This is why
    /// a session hands every sample to its admission policy.
    #[test]
    fn slo_guard_verdicts_depend_on_repeated_samples() {
        let run = |tick_at_boundary: bool| {
            let mut g = SloGuard::new(SimSpan::from_millis(1)).qps_range(1.0, 100.0);
            let ms = SimTime::from_millis;
            attach(&mut g, SimTime::ZERO, 1, Priority::High);
            dispatch(&mut g, SimTime::ZERO, 1);
            // A breach (5 ms against a 1 ms SLO) while the device is busy.
            complete(&mut g, ms(1), 1, SimSpan::from_millis(5));
            if tick_at_boundary {
                // The control boundary (4 ms) passes while still busy.
                let sample = Observation::EngineSample {
                    busy_thread_ns: 7,
                    total_thread_slots: 64,
                };
                g.on_event(ms(4), 0, &sample);
            }
            // The device drains before anything else is observed.
            g.on_event(
                ms(6),
                0,
                &Observation::KernelFinished {
                    client: ClientId(1),
                },
            );
            let qps = g.admitted_qps();
            let verdicts: Vec<_> = (0..200u64)
                .map(|i| g.admit(ms(6) + SimSpan::from_micros(500 * i), ClientId(2), 0))
                .collect();
            (qps, verdicts)
        };
        let (ticked_qps, ticked) = run(true);
        let (plain_qps, plain) = run(false);
        assert_eq!(ticked_qps, 50.0, "the tick saw the breach and halved");
        assert_eq!(
            plain_qps, 100.0,
            "without it the drained device reads healthy"
        );
        assert_ne!(ticked, plain);
    }

    #[test]
    fn slo_guard_is_deterministic() {
        let run = || {
            let mut g = SloGuard::new(SimSpan::from_millis(5)).window(SimSpan::from_millis(50));
            attach(&mut g, SimTime::ZERO, 1, Priority::High);
            let mut verdicts = Vec::new();
            for i in 0..500u64 {
                let t = SimTime::from_micros(i * 777);
                if i % 7 == 0 {
                    dispatch(&mut g, t, 1);
                    complete(&mut g, t, 1, SimSpan::from_micros(200 * (i % 50)));
                }
                verdicts.push(g.admit(t, ClientId(2), (i % 9) as usize));
            }
            verdicts
        };
        assert_eq!(run(), run());
    }
}
