//! TGS (Transparent GPU Sharing, NSDI'23) — adaptive kernel-level rate
//! control (paper §5.1 baseline iv).
//!
//! TGS sits below the containers and throttles the *launch rate* of the
//! best-effort job using feedback about the high-priority job's
//! **throughput** (not latency): as long as the high-priority job keeps up
//! with its offered load, the best-effort share grows additively; only
//! when the high-priority side becomes saturated (its queue stops
//! draining) does the share drop multiplicatively. Scheduling is at
//! whole-kernel granularity — once a best-effort kernel is on the GPU the
//! high-priority kernels behind it wait for it to finish — which is why
//! TGS's p99 overhead tracks the co-located trainer's kernel-duration
//! distribution (15.6%–751.7% across the paper's suite) even while
//! high-priority *throughput* stays healthy.

use std::collections::VecDeque;
use std::sync::Arc;

use tally_core::system::{Ctx, Launches, SharingSystem};
use tally_gpu::{ClientId, KernelDesc, LaunchRequest, Notification, Priority, SimSpan, SimTime};

// The AIMD constants below model the rate controller of the TGS paper
// (NSDI'23); this reproduction runs every experiment with these values.

/// Adaptation interval of the TGS controller.
const TICK: SimSpan = SimSpan::from_millis(100);
/// TGS multiplicative decrease of the best-effort duty cycle on saturation.
const DECREASE: f64 = 0.5;
/// TGS additive increase of the duty cycle per healthy tick.
const INCREASE: f64 = 0.05;
/// Lowest duty cycle: TGS throttles the best-effort job, never starves it.
const MIN_SHARE: f64 = 0.05;
/// Highest duty cycle: back-to-back best-effort launches.
const MAX_SHARE: f64 = 1.0;
/// TGS duty cycle before any feedback arrives.
const INITIAL_SHARE: f64 = 0.5;
/// High-priority busy fraction above which TGS's throughput feedback
/// counts the job as saturated.
const SATURATION: f64 = 0.95;

/// The TGS sharing system.
#[derive(Debug)]
pub struct Tgs {
    share: f64,
    next_tick: SimTime,
    /// Simulated time this tick during which the hp side had work queued
    /// or in flight (saturation detector).
    hp_busy_in_tick: SimSpan,
    hp_busy_since: Option<SimTime>,
    hp_queue: VecDeque<(ClientId, Arc<KernelDesc>)>,
    /// At most one launch is on the GPU, in `hp` or in `be`.
    hp: Launches,
    be_pending: VecDeque<(ClientId, Arc<KernelDesc>)>,
    be: Launches,
    /// Earliest instant the duty cycle allows the next BE launch.
    be_gate: SimTime,
}

impl Tgs {
    /// A TGS instance with default adaptation parameters.
    pub fn new() -> Self {
        Tgs {
            share: INITIAL_SHARE,
            next_tick: SimTime::ZERO,
            hp_busy_in_tick: SimSpan::ZERO,
            hp_busy_since: None,
            hp_queue: VecDeque::new(),
            hp: Launches::default(),
            be_pending: VecDeque::new(),
            be: Launches::default(),
            be_gate: SimTime::ZERO,
        }
    }

    /// The current best-effort duty cycle (for tests / introspection).
    pub fn share(&self) -> f64 {
        self.share
    }

    fn hp_has_work(&self) -> bool {
        !self.hp.is_empty() || !self.hp_queue.is_empty()
    }

    fn update_busy(&mut self, now: SimTime) {
        if let Some(since) = self.hp_busy_since {
            self.hp_busy_in_tick += now.saturating_since(since);
            self.hp_busy_since = Some(now);
        }
        if self.hp_has_work() {
            self.hp_busy_since.get_or_insert(now);
        } else {
            self.hp_busy_since = None;
        }
    }
}

impl Default for Tgs {
    fn default() -> Self {
        Self::new()
    }
}

impl SharingSystem for Tgs {
    fn name(&self) -> &str {
        "tgs"
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        if ctx.priority(client).is_high() {
            self.hp_queue.push_back((client, kernel));
        } else {
            self.be_pending.push_back((client, kernel));
        }
        self.update_busy(ctx.now());
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        if !self.hp.complete(ctx, note) {
            self.be.complete(ctx, note);
        }
        self.update_busy(ctx.now());
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        self.update_busy(now);
        // Throughput-protecting AIMD tick.
        while now >= self.next_tick {
            let busy_frac = self.hp_busy_in_tick.ratio(TICK).min(1.0);
            if busy_frac > SATURATION {
                self.share = (self.share * DECREASE).max(MIN_SHARE);
            } else {
                self.share = (self.share + INCREASE).min(MAX_SHARE);
            }
            self.hp_busy_in_tick = SimSpan::ZERO;
            self.next_tick = self.next_tick.max(now) + TICK;
        }
        // Kernel-level context exclusivity: high-priority kernels launch
        // only while no best-effort kernel owns the GPU (and vice versa) —
        // an in-flight kernel is never interrupted.
        if self.be.is_empty() {
            if self.hp.is_empty() {
                if let Some((client, kernel)) = self.hp_queue.pop_front() {
                    self.hp
                        .submit(ctx, LaunchRequest::full(&kernel, client, Priority::High));
                    return;
                }
            } else {
                return;
            }
            // GPU idle of hp work: best-effort may run if the duty cycle
            // allows.
            if now >= self.be_gate {
                if let Some((client, kernel)) = self.be_pending.pop_front() {
                    let est = kernel.solo_latency(ctx.engine.spec());
                    self.be.submit(
                        ctx,
                        LaunchRequest::full(&kernel, client, Priority::BestEffort),
                    );
                    let cooldown = est.mul_f64((1.0 - self.share).max(0.0) / self.share.max(0.01));
                    self.be_gate = now + est + cooldown;
                }
            }
        }
    }

    fn next_timer(&self) -> Option<SimTime> {
        let mut t = self.next_tick;
        if self.be.is_empty() && !self.be_pending.is_empty() && !self.hp_has_work() {
            t = t.min(self.be_gate);
        }
        Some(t)
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.hp_queue.retain(|&(c, _)| c != client);
        self.be_pending.retain(|&(c, _)| c != client);
        self.hp.preempt(ctx, client);
        self.be.preempt(ctx, client);
        // The saturation detector must stop counting the departed client.
        self.update_busy(ctx.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
    use tally_gpu::{GpuSpec, SimSpan, SimTime};

    fn run(jobs: [JobSpec; 2], system: &mut dyn SharingSystem, cfg: &HarnessConfig) {
        Colocation::on(GpuSpec::a100())
            .clients(jobs)
            .system(system)
            .config(cfg.clone())
            .run();
    }

    fn kernel(us: u64, grid: u32) -> Arc<KernelDesc> {
        KernelDesc::builder("k")
            .grid(grid)
            .block(256)
            .block_cost(SimSpan::from_micros(us))
            .mem_intensity(0.7)
            .build_arc()
    }

    fn cfg(secs: u64) -> HarnessConfig {
        HarnessConfig {
            duration: SimSpan::from_secs(secs),
            warmup: SimSpan::from_millis(200),
            seed: 0,
            jitter: 0.0,
            record_timelines: false,
        }
    }

    #[test]
    fn share_collapses_only_under_saturation() {
        // Saturating hp traffic => the hp side is always busy => throttle.
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(kernel(50, 432)); 40],
            (0..1000).map(SimTime::from_millis).collect(),
        );
        let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(290, 8640))]);
        let mut tgs = Tgs::new();
        run([hp, be], &mut tgs, &cfg(2));
        assert!(
            tgs.share() < 0.3,
            "share should collapse when hp saturates, got {}",
            tgs.share()
        );

        // Moderate load => hp throughput unaffected => share recovers high.
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(kernel(50, 432)); 10],
            (0..100).map(|i| SimTime::from_millis(20 * i)).collect(),
        );
        let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(290, 8640))]);
        let mut tgs2 = Tgs::new();
        run([hp, be], &mut tgs2, &cfg(2));
        assert!(
            tgs2.share() > 0.7,
            "share should stay high at moderate load, got {}",
            tgs2.share()
        );
    }

    #[test]
    fn hp_latency_tracks_be_kernel_duration() {
        // Long BE kernels inflate hp tail latency far more than short ones
        // — the paper's central criticism of kernel-level scheduling.
        let run_with_be_kernel = |dur_us: u64, waves: u32| {
            let hp = JobSpec::inference(
                "hp",
                vec![WorkloadOp::Kernel(kernel(50, 432)); 10],
                (0..300).map(|i| SimTime::from_millis(6 * i)).collect(),
            );
            let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(dur_us, 864 * waves))]);
            let mut tgs = Tgs::new();
            let rep = Colocation::on(GpuSpec::a100())
                .client(hp)
                .client(be)
                .system(&mut tgs)
                .config(cfg(2))
                .run();
            rep.clients[0].p99().expect("latencies")
        };
        let short = run_with_be_kernel(60, 1); // ~60us kernels
        let long = run_with_be_kernel(290, 40); // ~11.6ms kernels
        assert!(
            long > short * 3,
            "long BE kernels must inflate hp p99 (short {short}, long {long})"
        );
    }

    #[test]
    fn be_makes_progress_when_hp_mostly_idle() {
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(kernel(50, 432)); 5],
            (0..20).map(|i| SimTime::from_millis(100 * i)).collect(),
        );
        let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(290, 8640))]);
        let mut tgs = Tgs::new();
        let rep = Colocation::on(GpuSpec::a100())
            .client(hp)
            .client(be)
            .system(&mut tgs)
            .config(cfg(2))
            .run();
        assert!(
            rep.clients[1].iterations > 100,
            "got {}",
            rep.clients[1].iterations
        );
    }
}
