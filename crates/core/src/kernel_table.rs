//! Per-kernel lookup tables.
//!
//! A kernel is its allocation: a job builds each kernel once, and every
//! launch of it shares that one `Arc<KernelDesc>`. Tally's per-kernel
//! caches, the transformer's plans (§4.1) and the profiler's slots (§4.2),
//! therefore key by the `Arc`'s address. A [`KernelTable`] keeps a clone of
//! each key's `Arc`, so the allocation cannot be freed, and its address
//! handed to a new kernel, while the entry lives. It has no iteration
//! method: addresses differ from run to run, so their order must never
//! reach an output.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use tally_gpu::KernelDesc;

/// Values keyed by kernel allocation. See the [module docs](self).
pub(crate) struct KernelTable<V> {
    /// Each kernel's value, keyed by its address; the `Arc` pins the key.
    entries: BTreeMap<usize, (Arc<KernelDesc>, V)>,
}

impl<V> KernelTable<V> {
    /// `kernel`'s value, if it has one.
    pub(crate) fn get(&self, kernel: &Arc<KernelDesc>) -> Option<&V> {
        self.entries.get(&key(kernel)).map(|(_, value)| value)
    }

    /// Gives `kernel` `value`, pinning its allocation for as long as the
    /// table lives.
    pub(crate) fn insert(&mut self, kernel: &Arc<KernelDesc>, value: V) {
        self.entries
            .insert(key(kernel), (Arc::clone(kernel), value));
    }
}

fn key(kernel: &Arc<KernelDesc>) -> usize {
    Arc::as_ptr(kernel).addr()
}

impl<V> Default for KernelTable<V> {
    fn default() -> Self {
        KernelTable {
            entries: BTreeMap::new(),
        }
    }
}

// Addresses never reach a rendering: the table prints its size only.
impl<V> fmt::Debug for KernelTable<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelTable")
            .field("kernels", &self.entries.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use tally_gpu::{GpuSpec, KernelOrigin, SimSpan, SimTime};

    use crate::profiler::TransparentProfiler;
    use crate::transform::KernelTransformer;

    use super::*;

    /// Once every outside reference to kernel A is gone, kernels of A's
    /// size built afterwards must not take over A's profiler slot, its
    /// measurements or its transformation plan: the tables pin A, so no
    /// new kernel can be allocated at A's address.
    #[test]
    fn a_dropped_kernels_entries_never_reach_a_new_kernel() {
        let spec = GpuSpec::a100();
        // Opaque, so A's plan holds A's replacement, not A itself.
        let kernel = || {
            KernelDesc::builder("k")
                .grid(100)
                .block(256)
                .origin(KernelOrigin::Opaque)
                .build_arc()
        };
        let mut profiler = TransparentProfiler::new();
        let mut transformer = KernelTransformer::new();
        let a = kernel();
        let slot = profiler.slot(&spec, &a);
        let cfg = profiler.choose(slot, SimSpan::from_millis(1), SimTime::ZERO);
        profiler.record(slot, cfg, 100, SimSpan::from_micros(50));
        let replacement = Arc::clone(transformer.plan(&a).kernel());
        let a_addr = Arc::as_ptr(&a).addr();
        drop(a);
        for i in 0..1000 {
            let k = kernel();
            assert_ne!(
                Arc::as_ptr(&k).addr(),
                a_addr,
                "kernel {i} reuses A's address"
            );
            let s = profiler.slot(&spec, &k);
            assert_ne!(s, slot, "kernel {i} gets A's slot");
            assert_eq!(profiler.turnaround(s, cfg), None, "kernel {i} has A's data");
            let plan = transformer.plan(&k);
            assert!(
                !Arc::ptr_eq(plan.kernel(), &replacement),
                "kernel {i} gets A's plan"
            );
        }
        assert_eq!(transformer.stats().cache_hits, 0);
        assert_eq!(profiler.stats().lookups, 1001);
    }

    #[test]
    fn debug_prints_no_address() {
        let mut table = KernelTable::default();
        table.insert(&KernelDesc::builder("k").build_arc(), 7u32);
        assert_eq!(format!("{table:?}"), "KernelTable { kernels: 1 }");
    }
}
