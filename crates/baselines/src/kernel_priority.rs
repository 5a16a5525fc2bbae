//! The "Scheduling w/o Transformations" ablation (paper Figure 7b):
//! Tally's priority-aware scheduling policy applied at **whole-kernel**
//! granularity — high-priority kernels dispatch immediately, best-effort
//! kernels launch only while the high-priority side is inactive, but with
//! no slicing or preemption an in-flight best-effort kernel always runs to
//! completion. The gap between this system and full Tally isolates the
//! contribution of the block-level kernel transformations.

use std::collections::BTreeMap;
use std::sync::Arc;

use tally_core::system::{Ctx, Launches, SharingSystem};
use tally_gpu::{ClientId, KernelDesc, LaunchRequest, Notification, Priority};

/// Priority-aware, kernel-level scheduling without transformations.
#[derive(Debug, Default)]
pub struct KernelLevelPriority {
    hp: Launches,
    // Ordered so best-effort launch order is deterministic.
    be_pending: BTreeMap<ClientId, Arc<KernelDesc>>,
    be: Launches,
}

impl KernelLevelPriority {
    /// A fresh instance.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SharingSystem for KernelLevelPriority {
    fn name(&self) -> &str {
        "sched-no-transform"
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        if ctx.priority(client).is_high() {
            self.hp
                .submit(ctx, LaunchRequest::full(&kernel, client, Priority::High));
        } else {
            self.be_pending.insert(client, kernel);
        }
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        if !self.hp.complete(ctx, note) {
            self.be.complete(ctx, note);
        }
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        if !self.hp.is_empty() {
            return;
        }
        for (client, kernel) in std::mem::take(&mut self.be_pending) {
            self.be.submit(
                ctx,
                LaunchRequest::full(&kernel, client, Priority::BestEffort),
            );
        }
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.be_pending.remove(&client);
        self.hp.preempt(ctx, client);
        self.be.preempt(ctx, client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
    use tally_core::scheduler::{TallyConfig, TallySystem};
    use tally_gpu::{GpuSpec, SimSpan, SimTime};

    fn kernel(us: u64, grid: u32) -> Arc<KernelDesc> {
        KernelDesc::builder("k")
            .grid(grid)
            .block(256)
            .block_cost(SimSpan::from_micros(us))
            .mem_intensity(0.7)
            .build_arc()
    }

    #[test]
    fn transformations_close_the_latency_gap() {
        // Against a long-kernel trainer, kernel-level priority scheduling
        // leaves multi-millisecond waits; full Tally does not (Fig. 7b).
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(kernel(50, 432)); 10],
            (0..300).map(|i| SimTime::from_millis(6 * i)).collect(),
        );
        let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(290, 864 * 40))]);
        let cfg = HarnessConfig {
            duration: SimSpan::from_secs(2),
            warmup: SimSpan::from_millis(200),
            seed: 0,
            jitter: 0.0,
            record_timelines: false,
        };
        let spec = GpuSpec::a100();
        let mut klp = KernelLevelPriority::new();
        let rep_klp = Colocation::on(spec.clone())
            .client(hp.clone())
            .client(be.clone())
            .system(&mut klp)
            .config(cfg.clone())
            .run();
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        let rep_tally = Colocation::on(spec.clone())
            .client(hp)
            .client(be)
            .system(&mut tally)
            .config(cfg)
            .run();
        let p_klp = rep_klp.clients[0].p99().expect("latencies");
        let p_tally = rep_tally.clients[0].p99().expect("latencies");
        assert!(
            p_klp > p_tally * 2,
            "kernel-level scheduling should trail full Tally (klp {p_klp}, tally {p_tally})"
        );
    }
}
