//! NVIDIA Time-Slicing: temporal GPU sharing (paper §2, §5.1 baseline i).
//!
//! The driver multiplexes whole contexts onto the GPU in round-robin
//! quanta. On Pascal-and-later GPUs the switch uses compute preemption:
//! the in-flight kernel's state is saved mid-execution (modeled here as
//! draining the resident wave) and the kernel resumes from its saved
//! progress when the context next runs. The mechanism is entirely
//! priority-agnostic: a latency-critical request arriving during another
//! context's quantum waits out the quantum plus the switch.

use std::sync::Arc;

use tally_core::system::{Ctx, SharingSystem};
use tally_gpu::{
    ClientId, KernelDesc, LaunchId, LaunchRequest, LaunchShape, Notification, Priority, SimSpan,
    SimTime,
};

/// Scheduling quantum per context: the 2 ms default time slice of
/// NVIDIA's driver-level time-slicing.
const QUANTUM: SimSpan = SimSpan::from_millis(2);

#[derive(Clone, Debug)]
struct PendingKernel {
    kernel: Arc<KernelDesc>,
    /// Original-grid progress saved by a mid-kernel context switch.
    offset: u64,
}

/// The Time-Slicing sharing system.
#[derive(Debug)]
pub struct TimeSlicing {
    pending: Vec<Option<PendingKernel>>,
    inflight: Option<(LaunchId, ClientId)>,
    preempting: bool,
    active: usize,
    quantum_end: SimTime,
    switching_until: Option<SimTime>,
}

impl TimeSlicing {
    /// A Time-Slicing instance with the default 2 ms quantum.
    pub fn new() -> Self {
        TimeSlicing {
            pending: Vec::new(),
            inflight: None,
            preempting: false,
            active: 0,
            quantum_end: SimTime::ZERO,
            switching_until: None,
        }
    }

    fn ensure_len(&mut self, n: usize) {
        if self.pending.len() < n {
            self.pending.resize(n, None);
        }
    }

    /// The next context (round-robin from `after`) that has pending work.
    fn next_with_work(&self, after: usize) -> Option<usize> {
        let n = self.pending.len();
        (1..=n)
            .map(|i| (after + i) % n)
            .find(|&c| self.pending[c].is_some())
    }
}

impl Default for TimeSlicing {
    fn default() -> Self {
        Self::new()
    }
}

impl SharingSystem for TimeSlicing {
    fn name(&self) -> &str {
        "time-slicing"
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        self.ensure_len(ctx.num_clients());
        self.pending[client.0 as usize] = Some(PendingKernel { kernel, offset: 0 });
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        match *note {
            Notification::Completed { id, client, .. } => {
                if self.inflight.is_some_and(|(l, _)| l == id) {
                    self.inflight = None;
                    self.preempting = false;
                    // Drop the finished kernel so this context no longer
                    // reads as having work (its next kernel, if any,
                    // arrives via `on_kernel_ready`).
                    self.pending[client.0 as usize] = None;
                    ctx.complete_kernel(client);
                }
            }
            Notification::Preempted {
                id,
                client,
                done_upto,
                total,
                ..
            } => {
                if self.inflight.is_some_and(|(l, _)| l == id) {
                    self.inflight = None;
                    self.preempting = false;
                    if done_upto >= total {
                        self.pending[client.0 as usize] = None;
                        ctx.complete_kernel(client);
                    } else if let Some(p) = self.pending[client.0 as usize].as_mut() {
                        // Compute-preemption saved the kernel's progress.
                        p.offset = done_upto;
                    }
                }
            }
        }
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        if self.switching_until.is_some_and(|t| t > now) {
            return; // mid context switch
        }
        self.switching_until = None;
        if self.pending.is_empty() {
            return;
        }
        // Quantum expired with a kernel mid-flight and another context
        // waiting: compute-preempt it (state save = wave drain).
        if let Some((id, client)) = self.inflight {
            if now >= self.quantum_end && !self.preempting {
                match self.next_with_work(client.0 as usize) {
                    Some(c) if c != client.0 as usize => {
                        self.preempting = true;
                        ctx.engine.preempt(id);
                    }
                    // No other context wants the GPU: the current one keeps
                    // it and the quantum restarts. Without this refresh the
                    // expired `quantum_end` timer re-fires at the same
                    // instant forever and the run livelocks.
                    _ => self.quantum_end = now + QUANTUM,
                }
            }
            return;
        }
        let active_has_work = self.pending.get(self.active).is_some_and(Option::is_some);
        if now >= self.quantum_end || !active_has_work {
            match self.next_with_work(self.active) {
                Some(next) => {
                    if next != self.active {
                        self.active = next;
                        // A real context switch burns driver time.
                        let until = now + ctx.engine.spec().context_switch_overhead;
                        self.switching_until = Some(until);
                        self.quantum_end = until + QUANTUM;
                        return;
                    }
                    self.quantum_end = now + QUANTUM;
                }
                None => return, // nothing anywhere
            }
        }
        let client = ClientId(self.active as u32);
        let Some(p) = self.pending[self.active].as_ref() else {
            return;
        };
        let total = p.kernel.grid.count();
        let shape = if p.offset == 0 {
            LaunchShape::Full
        } else {
            LaunchShape::Slice {
                offset: p.offset,
                count: total - p.offset,
            }
        };
        // Priority-agnostic: every context launches at the same class.
        let id = ctx.engine.submit(LaunchRequest {
            kernel: &p.kernel,
            shape,
            client,
            priority: Priority::High,
        });
        self.inflight = Some((id, client));
    }

    fn next_timer(&self) -> Option<SimTime> {
        if let Some(t) = self.switching_until {
            return Some(t);
        }
        if self.inflight.is_some() && !self.preempting {
            return Some(self.quantum_end);
        }
        None
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        // Drop the departed context from the round-robin: clear its pending
        // slot so `next_with_work` skips it forever after.
        let idx = client.0 as usize;
        if let Some(slot) = self.pending.get_mut(idx) {
            *slot = None;
        }
        // If its kernel owns the GPU, tear the context down immediately;
        // the Preempted notification is ignored (inflight already cleared).
        if self.inflight.is_some_and(|(_, c)| c == client) {
            let (id, _) = self.inflight.take().expect("checked above");
            self.preempting = false;
            ctx.engine.preempt(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
    use tally_core::metrics::RunReport;
    use tally_gpu::{GpuSpec, SimSpan, SimTime};

    fn kernel(us: u64, grid: u32) -> Arc<KernelDesc> {
        KernelDesc::builder("k")
            .grid(grid)
            .block(256)
            .block_cost(SimSpan::from_micros(us))
            .build_arc()
    }

    fn cfg() -> HarnessConfig {
        HarnessConfig {
            duration: SimSpan::from_secs(1),
            warmup: SimSpan::ZERO,
            seed: 0,
            jitter: 0.0,
            record_timelines: false,
        }
    }

    fn run(jobs: impl IntoIterator<Item = JobSpec>, system: &mut dyn SharingSystem) -> RunReport {
        Colocation::on(GpuSpec::a100())
            .clients(jobs)
            .system(system)
            .config(cfg())
            .run()
    }

    #[test]
    fn alternates_between_clients() {
        let a = JobSpec::training("a", vec![WorkloadOp::Kernel(kernel(500, 864))]);
        let b = JobSpec::training("b", vec![WorkloadOp::Kernel(kernel(500, 864))]);
        let rep = run([a, b], &mut TimeSlicing::new());
        let ia = rep.clients[0].iterations as f64;
        let ib = rep.clients[1].iterations as f64;
        assert!(
            ia > 100.0 && ib > 100.0,
            "both clients progress ({ia}, {ib})"
        );
        assert!(
            (ia / ib - 1.0).abs() < 0.25,
            "roughly fair split ({ia} vs {ib})"
        );
    }

    #[test]
    fn long_kernels_get_compute_preempted_at_quantum() {
        // A 12ms kernel vs a 2ms quantum: the other context must get the
        // GPU roughly every quantum, not every 12ms.
        let a = JobSpec::training("long", vec![WorkloadOp::Kernel(kernel(290, 864 * 40))]);
        let b = JobSpec::training("short", vec![WorkloadOp::Kernel(kernel(100, 432))]);
        let rep = run([a, b], &mut TimeSlicing::new());
        // The short job runs one 100us kernel per quantum-ish turn: without
        // mid-kernel preemption it would get only ~80 turns (1s / 12.4ms);
        // with it, roughly 1s / (2 quanta + overheads) ≈ 200+.
        assert!(
            rep.clients[1].iterations > 150,
            "short job starved: {} iterations",
            rep.clients[1].iterations
        );
        // And the long job still completes kernels (resume works).
        assert!(
            rep.clients[0].iterations > 20,
            "got {}",
            rep.clients[0].iterations
        );
    }

    #[test]
    fn inference_waits_out_foreign_quanta() {
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(kernel(50, 432)); 5],
            (0..200).map(|i| SimTime::from_millis(5 * i)).collect(),
        );
        let be = JobSpec::training("be", vec![WorkloadOp::Kernel(kernel(500, 864))]);
        let rep = run([hp, be], &mut TimeSlicing::new());
        let p99 = rep.clients[0].p99().expect("latencies");
        // Solo would be ~270us; with 2ms quanta it must exceed 1ms.
        assert!(
            p99 > SimSpan::from_millis(1),
            "expected quantum-scale delays, got {p99}"
        );
    }
}
