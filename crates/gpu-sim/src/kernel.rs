//! Kernel descriptions: grid geometry, cost model, and resource footprint.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::spec::GpuSpec;
use crate::time::SimSpan;

/// A three-dimensional launch extent, as in the CUDA programming model.
///
/// ```
/// use tally_gpu::Dim3;
///
/// let grid = Dim3::new(8, 4, 1);
/// assert_eq!(grid.count(), 32);
/// assert_eq!(grid.linear_to_coords(9), (1, 1, 0));
/// ```
// `Ord` exists so dimensions can key ordered containers (the profiler's
// per-(kernel, grid) tables must never expose hash order); the derived
// lexicographic x→y→z ordering carries no semantic meaning.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Dim3 {
    /// Extent in the x dimension.
    pub x: u32,
    /// Extent in the y dimension.
    pub y: u32,
    /// Extent in the z dimension.
    pub z: u32,
}

impl Dim3 {
    /// A new extent; all dimensions must be non-zero.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(x: u32, y: u32, z: u32) -> Self {
        assert!(x > 0 && y > 0 && z > 0, "Dim3 dimensions must be non-zero");
        Dim3 { x, y, z }
    }

    /// A one-dimensional extent.
    pub fn linear(x: u32) -> Self {
        Dim3::new(x, 1, 1)
    }

    /// Total number of elements (blocks or threads) in the extent.
    pub fn count(self) -> u64 {
        self.x as u64 * self.y as u64 * self.z as u64
    }

    /// Maps a linear index back to `(x, y, z)` coordinates, x-major —
    /// the same mapping the persistent-thread-block transformation uses to
    /// reconstruct `blockIdx` from a fetched task index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.count()`.
    pub fn linear_to_coords(self, idx: u64) -> (u32, u32, u32) {
        assert!(idx < self.count(), "linear index out of range");
        let x = (idx % self.x as u64) as u32;
        let y = ((idx / self.x as u64) % self.y as u64) as u32;
        let z = (idx / (self.x as u64 * self.y as u64)) as u32;
        (x, y, z)
    }

    /// Maps `(x, y, z)` coordinates to a linear index, inverse of
    /// [`Dim3::linear_to_coords`].
    pub fn coords_to_linear(self, x: u32, y: u32, z: u32) -> u64 {
        x as u64 + self.x as u64 * (y as u64 + self.y as u64 * z as u64)
    }
}

impl Default for Dim3 {
    fn default() -> Self {
        Dim3::new(1, 1, 1)
    }
}

impl fmt::Debug for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

impl fmt::Display for Dim3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::linear(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::new(x, y, 1)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3::new(x, y, z)
    }
}

/// Globally unique identifier of a kernel *function* (not of a launch).
///
/// Recurring launches of the same kernel share a `KernelId`, which is what
/// lets Tally's transparent profiler reuse measurements across iterations.
///
/// Ids come from one process-global counter ([`fresh_kernel_id`]), so
/// building the same workload twice in one process yields different ids.
/// Reports and Chrome traces never show them, but an observer stream does
/// (through the kernel of each dispatch): two runs' streams compare
/// byte-for-byte only when the runs share one set of built jobs, or when
/// the comparison masks the ids.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct KernelId(pub u64);

impl fmt::Display for KernelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

/// Where a kernel's device code comes from.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum KernelOrigin {
    /// PTX is available through device-code interception; the kernel can be
    /// transformed (sliced / made preemptible).
    #[default]
    UserPtx,
    /// Sourced from a proprietary library (e.g. cuBLAS) that hides device
    /// code. Tally replaces such kernels at runtime with CUTLASS-style
    /// transformable equivalents (Section 5.1 of the paper).
    Opaque,
    /// Launched via `cudaLaunchCooperativeKernel`: inter-block
    /// synchronization requires all blocks co-resident, so block-level
    /// scheduling must not be applied (Section 6 of the paper).
    Cooperative,
}

/// Static description of a GPU kernel and its cost model.
///
/// The simulator charges each thread block `block_cost` (scaled by the
/// contention model), so a kernel's solo duration is
/// `waves(grid) * block_cost` plus launch overhead. Construct descriptions
/// with [`KernelDesc::builder`].
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Unique id of the kernel function.
    pub id: KernelId,
    /// Human-readable name (e.g. `"resnet50::conv2d_3x3"`).
    pub name: Arc<str>,
    /// Grid extent (number of thread blocks).
    pub grid: Dim3,
    /// Block extent (threads per block).
    pub block: Dim3,
    /// Solo execution time of one thread block.
    pub block_cost: SimSpan,
    /// Fraction of peak memory bandwidth one fully-resident grid of this
    /// kernel would consume; drives the interference model. In `[0, 1]`.
    pub mem_intensity: f64,
    /// Static + dynamic shared memory per block, in bytes.
    pub smem_bytes: u32,
    /// Registers per thread (informational; occupancy uses threads + smem).
    pub regs_per_thread: u32,
    /// Provenance of the device code.
    pub origin: KernelOrigin,
}

static NEXT_KERNEL_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh, process-unique [`KernelId`].
pub fn fresh_kernel_id() -> KernelId {
    KernelId(NEXT_KERNEL_ID.fetch_add(1, Ordering::Relaxed))
}

impl KernelDesc {
    /// Starts building a kernel description with the given name.
    ///
    /// ```
    /// use tally_gpu::{KernelDesc, SimSpan};
    ///
    /// let k = KernelDesc::builder("gemm_128x128")
    ///     .grid(432)
    ///     .block(256)
    ///     .block_cost(SimSpan::from_micros(40))
    ///     .mem_intensity(0.6)
    ///     .build();
    /// assert_eq!(k.grid.count(), 432);
    /// ```
    pub fn builder(name: impl Into<Arc<str>>) -> KernelDescBuilder {
        KernelDescBuilder {
            name: name.into(),
            grid: Dim3::linear(1),
            block: Dim3::linear(128),
            block_cost: SimSpan::from_micros(10),
            mem_intensity: 0.5,
            smem_bytes: 0,
            regs_per_thread: 32,
            origin: KernelOrigin::UserPtx,
            id: None,
        }
    }

    /// Threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block.count() as u32
    }

    /// Solo execution latency on `spec` (waves × per-block cost), excluding
    /// launch overhead.
    pub fn solo_latency(&self, spec: &GpuSpec) -> SimSpan {
        let waves = spec.waves(self.grid.count(), self.threads_per_block(), self.smem_bytes);
        self.block_cost * waves
    }

    /// Whether Tally's block-level transformations may be applied
    /// (PTX available and no inter-block cooperation).
    pub fn transformable(&self) -> bool {
        matches!(self.origin, KernelOrigin::UserPtx)
    }
}

impl PartialEq for KernelDesc {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}

impl fmt::Display for KernelDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} grid {} block {}]",
            self.name, self.id, self.grid, self.block
        )
    }
}

/// Builder for [`KernelDesc`] ([C-BUILDER]).
#[derive(Debug, Clone)]
pub struct KernelDescBuilder {
    name: Arc<str>,
    grid: Dim3,
    block: Dim3,
    block_cost: SimSpan,
    mem_intensity: f64,
    smem_bytes: u32,
    regs_per_thread: u32,
    origin: KernelOrigin,
    id: Option<KernelId>,
}

impl KernelDescBuilder {
    /// Sets the grid extent.
    pub fn grid(mut self, grid: impl Into<Dim3>) -> Self {
        self.grid = grid.into();
        self
    }

    /// Sets the block extent.
    pub fn block(mut self, block: impl Into<Dim3>) -> Self {
        self.block = block.into();
        self
    }

    /// Sets the solo per-block execution time.
    pub fn block_cost(mut self, cost: SimSpan) -> Self {
        self.block_cost = cost;
        self
    }

    /// Sets the memory-bandwidth intensity in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the value is outside `[0, 1]`.
    pub fn mem_intensity(mut self, intensity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&intensity),
            "mem_intensity must be within [0, 1]"
        );
        self.mem_intensity = intensity;
        self
    }

    /// Sets shared memory per block, in bytes.
    pub fn smem_bytes(mut self, bytes: u32) -> Self {
        self.smem_bytes = bytes;
        self
    }

    /// Sets registers per thread.
    pub fn regs_per_thread(mut self, regs: u32) -> Self {
        self.regs_per_thread = regs;
        self
    }

    /// Sets the device-code provenance.
    pub fn origin(mut self, origin: KernelOrigin) -> Self {
        self.origin = origin;
        self
    }

    /// Overrides the auto-allocated kernel id (useful in tests).
    pub fn id(mut self, id: KernelId) -> Self {
        self.id = Some(id);
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> KernelDesc {
        KernelDesc {
            id: self.id.unwrap_or_else(fresh_kernel_id),
            name: self.name,
            grid: self.grid,
            block: self.block,
            block_cost: self.block_cost,
            mem_intensity: self.mem_intensity,
            smem_bytes: self.smem_bytes,
            regs_per_thread: self.regs_per_thread,
            origin: self.origin,
        }
    }

    /// Finishes the builder and wraps the description in an [`Arc`], the
    /// form kernel descriptions are shared in across launches.
    pub fn build_arc(self) -> Arc<KernelDesc> {
        Arc::new(self.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim3_counts_and_coords() {
        let d = Dim3::new(4, 3, 2);
        assert_eq!(d.count(), 24);
        for i in 0..24 {
            let (x, y, z) = d.linear_to_coords(i);
            assert_eq!(d.coords_to_linear(x, y, z), i);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn dim3_rejects_zero() {
        let _ = Dim3::new(0, 1, 1);
    }

    #[test]
    fn builder_defaults_and_ids() {
        let a = KernelDesc::builder("a").build();
        let b = KernelDesc::builder("b").build();
        assert_ne!(a.id, b.id, "auto ids must be unique");
        assert_eq!(a.threads_per_block(), 128);
        assert!(a.transformable());
    }

    #[test]
    fn solo_latency_counts_waves() {
        let spec = GpuSpec::tiny(); // 16 block slots for 512-thread blocks
        let k = KernelDesc::builder("k")
            .grid(33)
            .block(512)
            .block_cost(SimSpan::from_micros(100))
            .build();
        // 33 blocks / 16 per wave = 3 waves.
        assert_eq!(k.solo_latency(&spec), SimSpan::from_micros(300));
    }

    #[test]
    fn opaque_kernels_not_transformable() {
        let k = KernelDesc::builder("cublas_gemm")
            .origin(KernelOrigin::Opaque)
            .build();
        assert!(!k.transformable());
        let c = KernelDesc::builder("coop")
            .origin(KernelOrigin::Cooperative)
            .build();
        assert!(!c.transformable());
    }
}
