//! NVIDIA MPS (Multi-Process Service) — spatial GPU sharing — and its
//! client-priority variant (paper §5.1 baselines ii and iii).
//!
//! Plain MPS eagerly dispatches every client's kernels to maximize
//! utilization: kernels from all processes co-reside on the SMs and share
//! memory bandwidth, and a latency-critical kernel queues behind whatever
//! blocks are already resident or ahead of it in line — the paper measures
//! up to 20× tail-latency inflation from exactly this.
//!
//! MPS-Priority additionally maps client priority onto the hardware
//! dispatch order, so waiting high-priority blocks are placed before
//! waiting best-effort blocks. Resident best-effort blocks still run to
//! completion and bandwidth is still shared, which is why the paper still
//! measures ~195% average p99 inflation.

use std::sync::Arc;

use tally_core::system::{Ctx, Launches, SharingSystem};
use tally_gpu::{ClientId, KernelDesc, LaunchRequest, Notification, Priority};

/// Plain MPS: eager, priority-agnostic spatial sharing. With
/// [`Mps::no_scheduling`] naming, it doubles as the *No-Scheduling*
/// ablation of the paper's Figure 7b.
#[derive(Debug)]
pub struct Mps {
    name: &'static str,
    priority_aware: bool,
    launches: Launches,
}

impl Mps {
    fn named(name: &'static str, priority_aware: bool) -> Self {
        Mps {
            name,
            priority_aware,
            launches: Launches::default(),
        }
    }

    /// Plain MPS (all clients equal).
    pub fn new() -> Self {
        Self::named("mps", false)
    }

    /// MPS with the client-priority feature enabled.
    pub fn with_priority() -> Self {
        Self::named("mps-priority", true)
    }

    /// The same eager dispatch policy, reported as the paper's
    /// "No-scheduling" ablation (Figure 7b).
    pub fn no_scheduling() -> Self {
        Self::named("no-scheduling", false)
    }
}

impl Default for Mps {
    fn default() -> Self {
        Self::new()
    }
}

impl SharingSystem for Mps {
    fn name(&self) -> &str {
        self.name
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        let priority = if self.priority_aware {
            ctx.priority(client)
        } else {
            Priority::High // one class: pure submission-order dispatch
        };
        self.launches
            .submit(ctx, LaunchRequest::full(&kernel, client, priority));
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        self.launches.complete(ctx, note);
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        // A departing MPS client's context is destroyed: preempt whatever
        // it still has resident.
        self.launches.preempt(ctx, client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
    use tally_gpu::{GpuSpec, SimSpan, SimTime};

    fn kernel(us: u64, grid: u32) -> Arc<KernelDesc> {
        KernelDesc::builder("k")
            .grid(grid)
            .block(256)
            .block_cost(SimSpan::from_micros(us))
            .mem_intensity(0.7)
            .build_arc()
    }

    fn scenario() -> [JobSpec; 2] {
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(kernel(50, 432)); 10],
            (0..150).map(|i| SimTime::from_millis(6 * i)).collect(),
        );
        // Multi-wave trainer kernels (~2.9ms each).
        let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(290, 864 * 10))]);
        [hp, be]
    }

    fn run(system: &mut dyn SharingSystem) -> tally_core::metrics::RunReport {
        let cfg = HarnessConfig {
            duration: SimSpan::from_secs(1),
            warmup: SimSpan::ZERO,
            seed: 0,
            jitter: 0.0,
            record_timelines: false,
        };
        Colocation::on(GpuSpec::a100())
            .clients(scenario())
            .system(system)
            .config(cfg)
            .run()
    }

    #[test]
    fn priority_variant_beats_plain_mps_on_latency() {
        let plain = run(&mut Mps::new());
        let prio = run(&mut Mps::with_priority());
        let p_plain = plain.clients[0].p99().expect("latencies");
        let p_prio = prio.clients[0].p99().expect("latencies");
        assert!(
            p_prio < p_plain,
            "priority dispatch should cut tail latency ({p_prio} vs {p_plain})"
        );
    }

    #[test]
    fn both_variants_keep_trainer_running() {
        let plain = run(&mut Mps::new());
        let prio = run(&mut Mps::with_priority());
        assert!(plain.clients[1].iterations > 0);
        assert!(prio.clients[1].iterations > 0);
    }

    #[test]
    fn no_scheduling_is_plain_mps_renamed() {
        let mut ns = Mps::no_scheduling();
        assert_eq!(ns.name(), "no-scheduling");
        let rep = run(&mut ns);
        let plain = run(&mut Mps::new());
        assert_eq!(
            rep.clients[0].latency.samples(),
            plain.clients[0].latency.samples(),
            "identical policy, different label"
        );
    }
}
