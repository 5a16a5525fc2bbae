//! Tally's priority-aware scheduler (paper §4.2, Figure 4).
//!
//! The algorithm is opportunistic and strictly priority-enforcing:
//!
//! * a high-priority kernel is dispatched **immediately** on arrival, in
//!   its original form, after preempting any running best-effort launches
//!   (the engine's priority dispatch then hands freed SM resources to the
//!   high-priority blocks first);
//! * best-effort kernels execute **only while no high-priority kernel is
//!   in the system**, and always in a controlled shape — either slice by
//!   slice or as a preemptible PTB launch — chosen by the transparent
//!   profiler so the estimated turnaround latency stays within the
//!   configured bound;
//! * the first executions of each best-effort kernel double as profiling
//!   runs over the candidate configurations; preempted runs are discarded,
//!   completed ones recorded, and once all candidates are measured the
//!   winner is locked in for the rest of the job.
//!
//! A best-effort kernel is preempted by every high-priority kernel and
//! relaunched afterwards, so one logical kernel can take dozens of
//! launches. The per-kernel work is therefore done once, when Tally
//! receives the kernel: the transformation plan, and the kernel's
//! profiler slot. A launch then reads its configuration from that slot and
//! borrows the kernel for [`Engine::submit`](tally_gpu::Engine::submit),
//! with no keyed search and no reference count.

use std::sync::Arc;

use tally_gpu::{
    ClientId, KernelDesc, LaunchId, LaunchRequest, LaunchShape, Notification, Priority, SimSpan,
    SimTime,
};

use crate::profiler::{LaunchCfg, ProfileSlot, ProfilerStats, TransparentProfiler};
use crate::system::{Ctx, Launches, SharingSystem};
use crate::transform::{KernelTransformer, TransformPlan, TransformStats, PTB_OVERHEAD_PPM};

/// Tally's configuration.
///
/// Client→server API forwarding cost is no longer configured here: it is
/// modeled by the session's per-client interception stubs
/// ([`Colocation::transport`](crate::harness::Colocation::transport)).
/// Every other tuning value is a constant of the module that reads it:
/// the paper sweeps only the turnaround bound (Figure 7c).
#[derive(Clone, Debug)]
pub struct TallyConfig {
    /// The turnaround-latency threshold the profiler keeps best-effort
    /// launches within (paper default 0.0316 ms).
    pub turnaround_bound: SimSpan,
}

impl Default for TallyConfig {
    fn default() -> Self {
        TallyConfig {
            turnaround_bound: SimSpan::from_nanos(31_600),
        }
    }
}

impl TallyConfig {
    /// The paper's default configuration (0.0316 ms turnaround bound).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Sets the turnaround-latency threshold (the Figure 7c sweep knob).
    pub fn with_turnaround_bound(mut self, bound: SimSpan) -> Self {
        self.turnaround_bound = bound;
        self
    }
}

#[derive(Clone, Debug)]
struct RunningLaunch {
    id: LaunchId,
    /// The profile slot and configuration of a block-level launch.
    cfg: Option<(ProfileSlot, LaunchCfg)>,
    /// Tasks this launch was asked to execute.
    tasks: u64,
    submitted: SimTime,
}

/// A best-effort client's current logical kernel.
#[derive(Debug)]
struct BeTask {
    /// The kernel to launch (the original or its replacement).
    kernel: Arc<KernelDesc>,
    /// The kernel's profiler slot, or `None` for a kernel that may only
    /// launch whole (cooperative kernels, §6).
    profile: Option<ProfileSlot>,
    total: u64,
    progress: u64,
    running: Option<RunningLaunch>,
}

/// The Tally sharing system. Construct with [`TallySystem::new`] and hand
/// to a [`Colocation`](crate::harness::Colocation) session.
///
/// On receiving a best-effort kernel it resolves the kernel's
/// transformation plan and [`TransparentProfiler`] slot once and keeps
/// them, with the kernel, in the client's task; every launch of the
/// kernel, first or after a preemption, reuses them (see the
/// [module docs](self)).
///
/// ```
/// use tally_core::scheduler::{TallyConfig, TallySystem};
///
/// let tally = TallySystem::new(TallyConfig::paper_default());
/// assert_eq!(tally.config().turnaround_bound.as_micros_f64(), 31.6);
/// ```
#[derive(Debug)]
pub struct TallySystem {
    cfg: TallyConfig,
    transformer: KernelTransformer,
    profiler: TransparentProfiler,
    /// The high-priority kernels on the GPU, one whole launch each.
    hp: Launches,
    /// Best-effort tasks, indexed by the dense [`ClientId`]. Walking it in
    /// index order keeps launch order — and so the whole simulation —
    /// deterministic across runs.
    be: Vec<Option<BeTask>>,
    preemptions_issued: u64,
}

impl TallySystem {
    /// A Tally instance with the given configuration.
    pub fn new(cfg: TallyConfig) -> Self {
        TallySystem {
            cfg,
            transformer: KernelTransformer::new(),
            profiler: TransparentProfiler::new(),
            hp: Launches::default(),
            be: Vec::new(),
            preemptions_issued: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TallyConfig {
        &self.cfg
    }

    /// Profiler counters (for the §5.7 overhead analysis).
    pub fn profiler_stats(&self) -> ProfilerStats {
        self.profiler.stats()
    }

    /// Transformer counters.
    pub fn transform_stats(&self) -> TransformStats {
        self.transformer.stats()
    }

    /// Best-effort preemptions issued so far.
    pub fn preemptions(&self) -> u64 {
        self.preemptions_issued
    }

    fn preempt_best_effort(&mut self, ctx: &mut Ctx<'_>) {
        for task in self.be.iter().flatten() {
            if let Some(run) = &task.running {
                if ctx.engine.preempt(run.id) {
                    self.preemptions_issued += 1;
                }
                // The Preempted notification will clear `running` and
                // roll progress forward.
            }
        }
    }

    /// Puts `client`'s best-effort task on the GPU in its controlled shape,
    /// unless a launch of it is running or it has finished. Takes the
    /// profiler apart from `self` so `poll` can walk `self.be` in place.
    fn launch_be(
        profiler: &mut TransparentProfiler,
        bound: SimSpan,
        ctx: &mut Ctx<'_>,
        client: ClientId,
        task: &mut BeTask,
    ) {
        if task.running.is_some() || task.progress >= task.total {
            return;
        }
        let remaining = task.total - task.progress;

        let (shape, cfg, tasks) = match task.profile {
            // Cooperative kernels: whole-kernel launches only (§6).
            None => (LaunchShape::Full, None, remaining),
            Some(slot) => {
                // The locked-in configuration once profiling has finished;
                // until then this launch doubles as a profiling run of the
                // next unmeasured candidate.
                let cfg = profiler.choose(slot, bound, ctx.now());
                match cfg {
                    LaunchCfg::Slice { blocks } => {
                        let count = blocks.min(remaining);
                        (
                            LaunchShape::Slice {
                                offset: task.progress,
                                count,
                            },
                            Some((slot, cfg)),
                            count,
                        )
                    }
                    LaunchCfg::Ptb { workers } => (
                        LaunchShape::Ptb {
                            workers: (workers as u64).min(remaining) as u32,
                            offset: task.progress,
                            overhead_ppm: PTB_OVERHEAD_PPM,
                        },
                        Some((slot, cfg)),
                        remaining,
                    ),
                }
            }
        };

        let submitted = ctx.engine.now();
        let id = ctx.engine.submit(LaunchRequest {
            kernel: &task.kernel,
            shape,
            client,
            priority: Priority::BestEffort,
        });
        task.running = Some(RunningLaunch {
            id,
            cfg,
            tasks,
            submitted,
        });
    }
}

impl SharingSystem for TallySystem {
    fn name(&self) -> &str {
        "tally"
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        if ctx.priority(client).is_high() {
            // Figure 4, lines 14–20: preempt best-effort work and dispatch
            // the high-priority kernel at once, untransformed.
            self.preempt_best_effort(ctx);
            self.hp
                .submit(ctx, LaunchRequest::full(&kernel, client, Priority::High));
        } else {
            // The kernel's plan and profile slot are resolved once, here;
            // its launches reuse them.
            let (kernel, profile) = match self.transformer.plan(&kernel) {
                TransformPlan::BlockLevel { kernel } => {
                    let slot = self.profiler.slot(ctx.engine.spec(), &kernel);
                    (kernel, Some(slot))
                }
                TransformPlan::KernelLevelOnly { kernel } => (kernel, None),
            };
            let i = client.0 as usize;
            if self.be.len() <= i {
                self.be.resize_with(i + 1, || None);
            }
            self.be[i] = Some(BeTask {
                total: kernel.grid.count(),
                kernel,
                profile,
                progress: 0,
                running: None,
            });
            // Actual scheduling happens in `poll`, where high-priority
            // activity is known.
        }
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        if self.hp.complete(ctx, note) {
            return;
        }
        match *note {
            Notification::Completed { id, client, at } => {
                let Some(task) = self.be.get_mut(client.0 as usize).and_then(Option::as_mut) else {
                    return;
                };
                let Some(run) = task.running.take() else {
                    return;
                };
                debug_assert_eq!(run.id, id);
                task.progress += run.tasks;
                if let Some((slot, cfg)) = run.cfg {
                    // A completed launch is a valid measurement; record it
                    // whether or not it was launched for profiling, but
                    // only full-size slices (tail slices bias turnaround).
                    let full_size = match cfg {
                        LaunchCfg::Slice { blocks } => run.tasks == blocks,
                        LaunchCfg::Ptb { .. } => true,
                    };
                    if full_size {
                        self.profiler.record(
                            slot,
                            cfg,
                            run.tasks,
                            at.saturating_since(run.submitted),
                        );
                    }
                }
                if task.progress >= task.total {
                    self.be[client.0 as usize] = None;
                    ctx.complete_kernel(client);
                }
            }
            Notification::Preempted {
                id,
                client,
                done_upto,
                at,
                ..
            } => {
                if let Some(task) = self.be.get_mut(client.0 as usize).and_then(Option::as_mut) {
                    if task.running.as_ref().is_some_and(|r| r.id == id) {
                        let run = task.running.take().expect("checked above");
                        let executed = done_upto.saturating_sub(task.progress);
                        // A preempted PTB run that completed at least one
                        // full round is still a valid measurement — without
                        // this, a slow candidate that never fits between
                        // high-priority bursts would be retried forever.
                        if let Some((slot, cfg @ LaunchCfg::Ptb { workers })) = run.cfg {
                            if executed >= workers as u64 {
                                self.profiler.record(
                                    slot,
                                    cfg,
                                    executed,
                                    at.saturating_since(run.submitted),
                                );
                            }
                        }
                        // `done_upto` is in original-grid task space.
                        task.progress = done_upto.max(task.progress);
                        if task.progress >= task.total {
                            self.be[client.0 as usize] = None;
                            ctx.complete_kernel(client);
                        }
                    }
                }
            }
        }
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        // Figure 4, lines 21–33: best-effort work runs only while the
        // high-priority side is inactive.
        if !self.hp.is_empty() {
            return;
        }
        let bound = self.cfg.turnaround_bound;
        for (i, task) in self.be.iter_mut().enumerate() {
            if let Some(task) = task {
                Self::launch_be(&mut self.profiler, bound, ctx, ClientId(i as u32), task);
            }
        }
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        // Reclaim the client's best-effort task (and free the GPU of its
        // running launch)…
        if let Some(task) = self.be.get_mut(client.0 as usize).and_then(Option::take) {
            if let Some(run) = task.running {
                ctx.engine.preempt(run.id);
            }
        }
        // …and any in-flight high-priority kernel it still had.
        self.hp.preempt(ctx, client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
    use crate::system::Passthrough;
    use tally_gpu::{GpuSpec, SimSpan, SimTime};

    fn run(
        spec: &GpuSpec,
        jobs: &[JobSpec],
        system: &mut dyn crate::system::SharingSystem,
        cfg: &HarnessConfig,
    ) -> crate::metrics::RunReport {
        Colocation::on(spec.clone())
            .clients(jobs.iter().cloned())
            .system(system)
            .config(cfg.clone())
            .run()
    }

    /// An inference service whose requests run `kernels` sequential kernels
    /// of `kernel_us` each — the realistic shape (BERT ≈ 80 kernels over
    /// 3.93 ms), where the one-off turnaround wait amortizes per request.
    fn inference_job(kernel_us: u64, kernels: usize, period_ms: u64, n: u64) -> JobSpec {
        let k = KernelDesc::builder("hp_kernel")
            .grid(432)
            .block(256)
            .block_cost(SimSpan::from_micros(kernel_us))
            .mem_intensity(0.5)
            .build_arc();
        JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(k); kernels],
            (0..n)
                .map(|i| SimTime::from_millis(period_ms * i))
                .collect(),
        )
    }

    /// A long-kernel trainer: 40 waves of 200us blocks per kernel ≈ 8ms.
    fn long_kernel_trainer() -> JobSpec {
        let k = KernelDesc::builder("be_long")
            .grid(864 * 40)
            .block(256)
            .block_cost(SimSpan::from_micros(200))
            .mem_intensity(0.7)
            .build_arc();
        JobSpec::training("be", vec![WorkloadOp::Kernel(k)])
    }

    fn cfg(secs: u64) -> HarnessConfig {
        HarnessConfig {
            duration: SimSpan::from_secs(secs),
            warmup: SimSpan::from_millis(500),
            seed: 0,
            jitter: 0.0,
            record_timelines: false,
        }
    }

    #[test]
    fn tally_isolates_hp_latency_against_long_kernels() {
        let spec = GpuSpec::a100();
        let jobs = [inference_job(50, 20, 5, 1000), long_kernel_trainer()];

        let solo = {
            let job = jobs[0].clone();
            crate::harness::run_solo(&spec, &job, &cfg(5))
        };
        let solo_p99 = solo.p99().expect("solo latencies");

        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let shared = run(&spec, &jobs, &mut tally, &cfg(5));
        let hp = shared.high_priority().expect("hp client");
        let p99 = hp.p99().expect("latencies recorded");
        let overhead = p99.as_secs_f64() / solo_p99.as_secs_f64() - 1.0;
        assert!(
            overhead < 0.40,
            "tally overhead vs ideal too high: p99 {p99} vs solo {solo_p99} ({:.0}%)",
            overhead * 100.0
        );

        // And the trainer still makes progress.
        let be = shared.best_effort().next().expect("be client");
        assert!(be.throughput > 0.0, "best-effort starved completely");
        assert!(tally.preemptions() > 0, "long kernels must get preempted");
    }

    #[test]
    fn tally_throughput_beats_strict_serialization() {
        // With a mostly-idle hp task, the trainer should get a large share.
        let spec = GpuSpec::a100();
        let jobs = [inference_job(50, 20, 50, 100), long_kernel_trainer()];
        let solo_be = crate::harness::run_solo(&spec, &jobs[1], &cfg(5));
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let shared = run(&spec, &jobs, &mut tally, &cfg(5));
        let be = shared.best_effort().next().expect("be");
        let share = be.throughput / solo_be.throughput;
        assert!(
            share > 0.5,
            "best-effort should keep >50% of solo throughput at ~10% load, got {share:.2}"
        );
    }

    #[test]
    fn no_scheduling_baseline_suffers_queuing() {
        // Sanity that the experimental contrast exists: under Passthrough
        // (eager dispatch), hp latency degrades much more than under Tally.
        let spec = GpuSpec::a100();
        let jobs = [inference_job(50, 20, 5, 1000), long_kernel_trainer()];
        let mut naive = Passthrough::new();
        let naive_rep = run(&spec, &jobs, &mut naive, &cfg(5));
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let tally_rep = run(&spec, &jobs, &mut tally, &cfg(5));
        let naive_p99 = naive_rep.high_priority().unwrap().p99().unwrap();
        let tally_p99 = tally_rep.high_priority().unwrap().p99().unwrap();
        assert!(
            naive_p99 > tally_p99 * 3,
            "expected >=3x contrast, got naive {naive_p99} vs tally {tally_p99}"
        );
    }

    #[test]
    fn cooperative_kernels_fall_back_to_kernel_level() {
        let spec = GpuSpec::a100();
        let coop = KernelDesc::builder("coop")
            .grid(864)
            .block(256)
            .block_cost(SimSpan::from_micros(100))
            .origin(tally_gpu::KernelOrigin::Cooperative)
            .build_arc();
        let be = JobSpec::training("coop-train", vec![WorkloadOp::Kernel(coop)]);
        let hp = inference_job(50, 10, 10, 300);
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let rep = run(&spec, &[hp, be], &mut tally, &cfg(4));
        assert!(rep.best_effort().next().unwrap().iterations > 0);
        assert_eq!(tally.transform_stats().kernel_level_only, 1);
    }

    #[test]
    fn turnaround_bound_is_configurable() {
        let cfg = TallyConfig::paper_default().with_turnaround_bound(SimSpan::from_millis(10));
        assert_eq!(cfg.turnaround_bound, SimSpan::from_millis(10));
    }
}
