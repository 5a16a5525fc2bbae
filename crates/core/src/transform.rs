//! The kernel transformer: decides how each best-effort kernel can be
//! scheduled at block level, and models the cost of the transformed code.
//!
//! For kernels whose device code was intercepted (PTX available), both
//! slicing and PTB forms exist; the PTB form carries the measured ~25%
//! per-task overhead the paper reports (§5.7). Kernels from proprietary
//! libraries (cuBLAS-style, [`KernelOrigin::Opaque`]) are replaced at
//! runtime with CUTLASS-style equivalents of near-identical performance
//! (§5.1); cooperative kernels cannot be block-scheduled and fall back to
//! kernel-level scheduling (§6).
//!
//! The geometric cost model here is what the scheduler consumes; the
//! *actual* device-code rewriting this models is implemented and verified
//! in `tally_ptx::passes`.

use std::sync::Arc;

use tally_gpu::{KernelDesc, KernelOrigin};

use crate::kernel_table::KernelTable;

/// Per-task overhead of the PTB (preemptive) form, in parts per thousand:
/// 250 is the +25% average the paper measures (§5.7).
pub(crate) const PTB_OVERHEAD_PPM: u32 = 250;

/// Block-cost delta of a CUTLASS replacement for an opaque-library kernel,
/// in parts per thousand: +5%, the paper's "similar performance" (§5.1).
const OPAQUE_REPLACEMENT_PPM: u32 = 50;

/// How a kernel may be scheduled.
#[derive(Clone, Debug)]
pub enum TransformPlan {
    /// Slicing and PTB are available on `kernel` (possibly a CUTLASS
    /// replacement of the original).
    BlockLevel {
        /// The kernel to launch (original or replacement).
        kernel: Arc<KernelDesc>,
    },
    /// Only whole-kernel launches are safe (cooperative kernels).
    KernelLevelOnly {
        /// The kernel to launch unchanged.
        kernel: Arc<KernelDesc>,
    },
}

impl TransformPlan {
    /// The kernel that will actually be launched.
    pub fn kernel(&self) -> &Arc<KernelDesc> {
        match self {
            TransformPlan::BlockLevel { kernel } | TransformPlan::KernelLevelOnly { kernel } => {
                kernel
            }
        }
    }

    /// Whether block-level scheduling is available.
    pub fn block_level(&self) -> bool {
        matches!(self, TransformPlan::BlockLevel { .. })
    }
}

/// Counters of transformer activity (reported by the overhead analyses).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct TransformStats {
    /// Kernels transformed to block-level schedulable form.
    pub transformed: u64,
    /// Opaque-library kernels replaced with CUTLASS-style equivalents.
    pub replaced: u64,
    /// Cooperative kernels left at kernel-level scheduling.
    pub kernel_level_only: u64,
    /// Plan-cache hits (transformation is a one-time cost per kernel).
    pub cache_hits: u64,
}

/// Caches one [`TransformPlan`] per kernel.
#[derive(Debug, Default)]
pub struct KernelTransformer {
    plans: KernelTable<TransformPlan>,
    stats: TransformStats,
}

impl KernelTransformer {
    /// An empty transformer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Activity counters.
    pub fn stats(&self) -> TransformStats {
        self.stats
    }

    /// Returns (building and caching on first sight) the plan for `kernel`.
    pub fn plan(&mut self, kernel: &Arc<KernelDesc>) -> TransformPlan {
        if let Some(plan) = self.plans.get(kernel) {
            self.stats.cache_hits += 1;
            return plan.clone();
        }
        let plan = match kernel.origin {
            KernelOrigin::UserPtx => {
                self.stats.transformed += 1;
                TransformPlan::BlockLevel {
                    kernel: Arc::clone(kernel),
                }
            }
            KernelOrigin::Opaque => {
                self.stats.transformed += 1;
                self.stats.replaced += 1;
                let replacement = KernelDesc::builder(format!("cutlass::{}", kernel.name))
                    .grid(kernel.grid)
                    .block(kernel.block)
                    .block_cost(
                        kernel
                            .block_cost
                            .mul_f64(1.0 + OPAQUE_REPLACEMENT_PPM as f64 / 1000.0),
                    )
                    .mem_intensity(kernel.mem_intensity)
                    .smem_bytes(kernel.smem_bytes)
                    .build_arc();
                TransformPlan::BlockLevel {
                    kernel: replacement,
                }
            }
            KernelOrigin::Cooperative => {
                self.stats.kernel_level_only += 1;
                TransformPlan::KernelLevelOnly {
                    kernel: Arc::clone(kernel),
                }
            }
        };
        self.plans.insert(kernel, plan.clone());
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tally_gpu::SimSpan;

    fn kernel(origin: KernelOrigin) -> Arc<KernelDesc> {
        KernelDesc::builder("k")
            .grid(100)
            .block(256)
            .block_cost(SimSpan::from_micros(100))
            .origin(origin)
            .build_arc()
    }

    #[test]
    fn user_ptx_is_block_level() {
        let mut t = KernelTransformer::default();
        let plan = t.plan(&kernel(KernelOrigin::UserPtx));
        assert!(plan.block_level());
        assert_eq!(t.stats().transformed, 1);
    }

    #[test]
    fn opaque_gets_replaced_with_slight_cost() {
        let mut t = KernelTransformer::default();
        let k = kernel(KernelOrigin::Opaque);
        let plan = t.plan(&k);
        let replacement = plan.kernel();
        assert!(plan.block_level());
        assert!(!Arc::ptr_eq(replacement, &k));
        assert!(replacement.name.starts_with("cutlass::"));
        assert_eq!(replacement.block_cost, SimSpan::from_micros(105));
        assert_eq!(t.stats().replaced, 1);
    }

    #[test]
    fn cooperative_stays_kernel_level() {
        let mut t = KernelTransformer::default();
        let plan = t.plan(&kernel(KernelOrigin::Cooperative));
        assert!(!plan.block_level());
        assert_eq!(t.stats().kernel_level_only, 1);
    }

    #[test]
    fn plans_are_cached_per_kernel() {
        let mut t = KernelTransformer::default();
        let k = kernel(KernelOrigin::Opaque);
        let a = t.plan(&k);
        let b = t.plan(&k);
        assert!(
            Arc::ptr_eq(a.kernel(), b.kernel()),
            "same replacement reused"
        );
        assert_eq!(t.stats().cache_hits, 1);
        assert_eq!(t.stats().replaced, 1);
    }
}
