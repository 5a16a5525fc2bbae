//! Launch requests: what a sharing system submits to the GPU engine.

use std::fmt;

use crate::kernel::KernelDesc;
use crate::time::SimTime;

/// Identifier of a client process sharing the GPU.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Scheduling class of a client or launch.
///
/// Lower values are *more* important. The engine's block dispatcher serves
/// pending launches in `(priority, submission order)` order, which models
/// hardware stream priorities.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Priority {
    /// Latency-critical task governed by an SLA.
    High,
    /// Best-effort task, harvesting idle cycles only.
    BestEffort,
}

impl Priority {
    /// Whether this is the high-priority class.
    pub fn is_high(self) -> bool {
        matches!(self, Priority::High)
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Priority::High => f.write_str("high"),
            Priority::BestEffort => f.write_str("best-effort"),
        }
    }
}

/// How the kernel is launched — the physical shape the scheduler chose.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum LaunchShape {
    /// The original, untransformed kernel: all `grid.count()` blocks.
    Full,
    /// One slice of a sliced kernel: blocks `[offset, offset + count)` of
    /// the original grid (the slicing transformation adds the block-index
    /// offset parameter).
    Slice {
        /// First original block index covered by this slice.
        offset: u64,
        /// Number of blocks in this slice.
        count: u64,
    },
    /// Persistent-thread-block (preemptive) form: `workers` worker blocks
    /// iterate over original block indices `[offset, grid.count())`,
    /// fetching task indices from a global counter and honouring a
    /// preemption flag between tasks.
    Ptb {
        /// Number of persistent worker blocks.
        workers: u32,
        /// First original block index left to execute (non-zero when
        /// resuming after a preemption).
        offset: u64,
        /// Per-task slowdown of the transformed code relative to the
        /// original kernel, in parts-per-thousand above one
        /// (e.g. `250` = 25% overhead). Determined by the kernel
        /// transformer.
        overhead_ppm: u32,
    },
}

impl LaunchShape {
    /// The PTB per-task cost multiplier implied by this shape (`1.0` for
    /// non-PTB shapes).
    pub fn cost_factor(self) -> f64 {
        match self {
            LaunchShape::Ptb { overhead_ppm, .. } => 1.0 + overhead_ppm as f64 / 1000.0,
            _ => 1.0,
        }
    }
}

/// A request to execute (part of) a kernel on the GPU.
///
/// The request borrows its kernel for the length of
/// [`Engine::submit`](crate::Engine::submit), which copies the launch's
/// geometry and cost into its own launch record and keeps no reference to
/// the kernel. A caller therefore submits from whatever owns the kernel,
/// without cloning a handle to it.
#[derive(Copy, Clone, Debug)]
pub struct LaunchRequest<'a> {
    /// The kernel function being launched.
    pub kernel: &'a KernelDesc,
    /// The launch shape chosen by the sharing system.
    pub shape: LaunchShape,
    /// Owning client.
    pub client: ClientId,
    /// Dispatch priority.
    pub priority: Priority,
}

impl<'a> LaunchRequest<'a> {
    /// A full (untransformed) launch of `kernel` for `client`.
    pub fn full(kernel: &'a KernelDesc, client: ClientId, priority: Priority) -> Self {
        LaunchRequest {
            kernel,
            shape: LaunchShape::Full,
            client,
            priority,
        }
    }

    /// Number of original-grid blocks (tasks) this request will execute.
    pub fn task_count(&self) -> u64 {
        let total = self.kernel.grid.count();
        match self.shape {
            LaunchShape::Full => total,
            LaunchShape::Slice { count, .. } => count,
            LaunchShape::Ptb { offset, .. } => total.saturating_sub(offset),
        }
    }

    /// Number of thread blocks that will occupy SM slots simultaneously at
    /// most (workers for PTB, tasks otherwise).
    pub fn resident_blocks(&self) -> u64 {
        match self.shape {
            LaunchShape::Ptb { workers, .. } => workers as u64,
            _ => self.task_count(),
        }
    }
}

/// Identifier of one launch submitted to the engine.
///
/// An engine hands ids out in submission order: they are monotone and never
/// reused. Once the launch retires (completes, or drains after a
/// preemption), its id reads as inactive: [`Engine::is_active`] is `false`,
/// [`Engine::progress`] is `None` and [`Engine::preempt`] is a no-op.
///
/// [`Engine::is_active`]: crate::Engine::is_active
/// [`Engine::progress`]: crate::Engine::progress
/// [`Engine::preempt`]: crate::Engine::preempt
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LaunchId(pub u64);

impl fmt::Display for LaunchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Asynchronous engine-to-scheduler notification.
#[derive(Clone, Debug, PartialEq)]
pub enum Notification {
    /// All tasks of the launch finished.
    Completed {
        /// The finished launch.
        id: LaunchId,
        /// Owning client.
        client: ClientId,
        /// Completion instant.
        at: SimTime,
    },
    /// A preempted PTB launch has drained: all workers exited after
    /// finishing their in-flight task.
    Preempted {
        /// The preempted launch.
        id: LaunchId,
        /// Owning client.
        client: ClientId,
        /// Original-grid block indices `< done_upto` have been executed;
        /// resume by launching with `offset = done_upto`.
        done_upto: u64,
        /// Total tasks of the original request.
        total: u64,
        /// Drain instant.
        at: SimTime,
    },
}

impl Notification {
    /// The launch this notification concerns.
    pub fn launch(&self) -> LaunchId {
        match *self {
            Notification::Completed { id, .. } | Notification::Preempted { id, .. } => id,
        }
    }

    /// The owning client.
    pub fn client(&self) -> ClientId {
        match *self {
            Notification::Completed { client, .. } | Notification::Preempted { client, .. } => {
                client
            }
        }
    }

    /// When the notification fired.
    pub fn at(&self) -> SimTime {
        match *self {
            Notification::Completed { at, .. } | Notification::Preempted { at, .. } => at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;

    fn kernel(blocks: u32) -> KernelDesc {
        KernelDesc::builder("k").grid(blocks).build()
    }

    #[test]
    fn task_counts_per_shape() {
        let k = kernel(100);
        let full = LaunchRequest::full(&k, ClientId(0), Priority::High);
        assert_eq!(full.task_count(), 100);
        assert_eq!(full.resident_blocks(), 100);

        let slice = LaunchRequest {
            shape: LaunchShape::Slice {
                offset: 40,
                count: 10,
            },
            ..full
        };
        assert_eq!(slice.task_count(), 10);

        let ptb = LaunchRequest {
            shape: LaunchShape::Ptb {
                workers: 8,
                offset: 25,
                overhead_ppm: 250,
            },
            ..full
        };
        assert_eq!(ptb.task_count(), 75);
        assert_eq!(ptb.resident_blocks(), 8);
        assert!((ptb.shape.cost_factor() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn priority_ordering() {
        assert!(Priority::High < Priority::BestEffort);
        assert!(Priority::High.is_high());
        assert!(!Priority::BestEffort.is_high());
    }
}
