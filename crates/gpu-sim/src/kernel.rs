//! Kernel descriptions: grid geometry, cost model, and resource footprint.

use std::fmt;
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
/// ```
#[derive(Copy, Clone, PartialEq, Eq)]
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
///
/// A kernel is its allocation: [`KernelDescBuilder::build_arc`] builds
/// each kernel once, every launch of it shares that `Arc`, and per-kernel
/// caches (Tally's transformer and profiler) key by the `Arc`, not by the
/// description's contents.
#[derive(Debug, Clone)]
pub struct KernelDesc {
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
    /// Provenance of the device code.
    pub origin: KernelOrigin,
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
            origin: KernelOrigin::UserPtx,
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
}

impl fmt::Display for KernelDesc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [grid {} block {}]", self.name, self.grid, self.block)
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
    origin: KernelOrigin,
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

    /// Sets the device-code provenance.
    pub fn origin(mut self, origin: KernelOrigin) -> Self {
        self.origin = origin;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> KernelDesc {
        KernelDesc {
            name: self.name,
            grid: self.grid,
            block: self.block,
            block_cost: self.block_cost,
            mem_intensity: self.mem_intensity,
            smem_bytes: self.smem_bytes,
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
    fn dim3_counts() {
        assert_eq!(Dim3::new(4, 3, 2).count(), 24);
        assert_eq!(Dim3::from((7, 5)).count(), 35);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn dim3_rejects_zero() {
        let _ = Dim3::new(0, 1, 1);
    }

    #[test]
    fn builder_defaults() {
        let a = KernelDesc::builder("a").build();
        assert_eq!(a.grid.count(), 1);
        assert_eq!(a.threads_per_block(), 128);
        assert_eq!(a.origin, KernelOrigin::UserPtx);
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
}
