//! Workload-construction utilities: kernel mixes with controlled duration
//! distributions, calibrated so solo execution matches published numbers.

use tally_core::harness::WorkloadOp;
use tally_gpu::rng::SmallRng;
use tally_gpu::{GpuSpec, KernelDesc, KernelOrigin, SimSpan};

/// One family of kernels within a model (e.g. "attention matmuls"):
/// `count` kernels with solo durations log-uniform in `dur_us`, the given
/// memory intensity range, and a fraction sourced from opaque libraries.
#[derive(Clone, Debug)]
pub struct Segment {
    /// How many kernel *launches* this segment contributes.
    pub count: usize,
    /// Solo duration range in microseconds (log-uniform).
    pub dur_us: (f64, f64),
    /// Memory-intensity range (uniform).
    pub mem: (f64, f64),
    /// Fraction of kernels attributed to cuBLAS-style opaque libraries
    /// (Tally replaces these with CUTLASS equivalents at runtime).
    pub opaque_frac: f64,
    /// Grid occupancy range for single-wave kernels, as a fraction of one
    /// wave's capacity. Training kernels (large batches) fill most of the
    /// machine; batch-1 inference kernels use small grids — which is why
    /// they slot into a busy GPU quickly under priority dispatch.
    pub grid_fill: (f64, f64),
}

impl Segment {
    /// A convenience constructor.
    pub fn new(count: usize, dur_us: (f64, f64), mem: (f64, f64)) -> Self {
        Segment {
            count,
            dur_us,
            mem,
            opaque_frac: 0.0,
            grid_fill: (0.4, 1.0),
        }
    }

    /// Marks a fraction of the segment's kernels opaque.
    pub fn with_opaque(mut self, frac: f64) -> Self {
        self.opaque_frac = frac;
        self
    }

    /// Overrides the single-wave grid occupancy range.
    pub fn with_grid_fill(mut self, lo: f64, hi: f64) -> Self {
        assert!(
            0.0 < lo && lo <= hi && hi <= 1.0,
            "grid fill must be within (0, 1]"
        );
        self.grid_fill = (lo, hi);
        self
    }
}

/// Most distinct kernel functions behind one segment's launches. Real DL
/// models launch a few dozen distinct kernels thousands of times per
/// iteration (paper §4.2); recurrence is what lets Tally's transparent
/// profiler converge.
const MAX_DISTINCT: usize = 48;

/// Per-block cost ceiling used when decomposing long kernels into waves.
/// Long DL kernels (large matmuls, attention) run hundreds of microseconds
/// per thread block; this constant calibrates the paper's Table 1
/// block-level turnaround (~304 µs for Whisper).
const LONG_KERNEL_BLOCK_COST: SimSpan = SimSpan::from_micros(290);

/// Builds one kernel of roughly `dur` solo latency on `spec`.
///
/// Short kernels (≲ one wave) use a partial grid with `block_cost = dur`;
/// long kernels become multi-wave grids with per-block cost capped at
/// `LONG_KERNEL_BLOCK_COST` (290 µs), which is what gives block-level scheduling
/// its microsecond-scale turnaround advantage over kernel-level scheduling.
pub fn kernel_with_duration(
    name: String,
    spec: &GpuSpec,
    dur: SimSpan,
    mem_intensity: f64,
    origin: KernelOrigin,
    grid_fill: (f64, f64),
    rng: &mut SmallRng,
) -> std::sync::Arc<KernelDesc> {
    let threads = 256u32;
    let capacity = spec.wave_capacity(threads, 0);
    let (grid, block_cost) = if dur <= LONG_KERNEL_BLOCK_COST {
        // Single wave; the grid size varies like real kernels do.
        let lo = ((capacity as f64 * grid_fill.0) as u64).max(1);
        let hi = ((capacity as f64 * grid_fill.1) as u64).max(lo);
        let blocks = rng.gen_range(lo..=hi) as u32;
        (blocks, dur)
    } else {
        let waves = dur.as_nanos().div_ceil(LONG_KERNEL_BLOCK_COST.as_nanos());
        let block_cost = SimSpan::from_nanos(dur.as_nanos() / waves);
        ((waves * capacity) as u32, block_cost)
    };
    KernelDesc::builder(name)
        .grid(grid)
        .block(threads)
        .block_cost(block_cost)
        .mem_intensity(mem_intensity)
        .origin(origin)
        .build_arc()
}

/// Estimated solo duration of an op sequence: kernels run back to back
/// (launch overhead included), CPU gaps add up.
pub fn estimate_solo(spec: &GpuSpec, ops: &[WorkloadOp]) -> SimSpan {
    let mut total = SimSpan::ZERO;
    for op in ops {
        match op {
            WorkloadOp::Kernel(k) => {
                total += spec.launch_overhead + k.solo_latency(spec);
            }
            WorkloadOp::CpuGap(g) => total += *g,
        }
    }
    total
}

/// Builds a kernel mix from `segments`, then **calibrates** it: kernel
/// durations are scaled uniformly so that GPU-busy time equals
/// `target_busy`, and if `target_total > target_busy` the difference is
/// inserted as evenly-spread CPU gaps (data loading / preprocessing
/// stalls). The result's [`estimate_solo`] equals `target_total` up to
/// launch-overhead rounding.
///
/// Deterministic for a given `seed`: templates are built once per job and
/// reused every iteration, so kernels recur with stable identities — the
/// property Tally's profiler cache relies on.
pub fn calibrated_mix(
    name: &str,
    spec: &GpuSpec,
    segments: &[Segment],
    target_busy: SimSpan,
    target_total: SimSpan,
    seed: u64,
) -> Vec<WorkloadOp> {
    assert!(target_busy <= target_total, "busy time cannot exceed total");
    let mut rng = SmallRng::seed_from_u64(seed);
    // Calibrate by scaling *counts*, not durations: the duration
    // distribution encodes published facts (e.g. "99.3% of ResNet50
    // kernels < 0.1 ms") that scaling would destroy. Segment counts are
    // relative proportions; the absolute count comes from the busy target.
    let overhead_us = spec.launch_overhead.as_micros_f64();
    let expected_busy_us: f64 = segments
        .iter()
        .map(|seg| {
            assert!(
                seg.dur_us.0 > 0.0 && seg.dur_us.1 >= seg.dur_us.0,
                "bad duration range"
            );
            let mean = if seg.dur_us.1 > seg.dur_us.0 {
                (seg.dur_us.1 - seg.dur_us.0) / (seg.dur_us.1 / seg.dur_us.0).ln()
            } else {
                seg.dur_us.0
            };
            seg.count as f64 * (mean + overhead_us)
        })
        .sum();
    let count_scale = target_busy.as_micros_f64() / expected_busy_us;

    // Draw a pool of distinct kernels per segment, then cycle the pool to
    // produce the launch sequence.
    struct Draw {
        dur: SimSpan,
        mem: f64,
        origin: KernelOrigin,
    }
    let mut pools: Vec<Vec<Draw>> = Vec::new();
    let mut seq: Vec<(usize, usize)> = Vec::new(); // (segment, pool index)
    for (si, seg) in segments.iter().enumerate() {
        let count = ((seg.count as f64 * count_scale).round() as usize).max(1);
        let distinct = seg.count.min(MAX_DISTINCT).clamp(1, count);
        let mut pool = Vec::with_capacity(distinct);
        for _ in 0..distinct {
            let log = rng.gen_range(seg.dur_us.0.ln()..=seg.dur_us.1.ln());
            pool.push(Draw {
                // tally-lint: allow(D1-float-schedule) -- seeded log-uniform
                // duration rounded to integral nanoseconds exactly once.
                dur: SimSpan::from_micros_f64(log.exp()),
                mem: rng.gen_range(seg.mem.0..=seg.mem.1),
                origin: if rng.gen_bool(seg.opaque_frac) {
                    KernelOrigin::Opaque
                } else {
                    KernelOrigin::UserPtx
                },
            });
        }
        for i in 0..count {
            seq.push((si, i % distinct));
        }
        pools.push(pool);
    }
    assert!(!seq.is_empty(), "at least one kernel required");
    // Small residual duration correction for sampling noise (a few percent
    // at most — far too small to move the distribution's quantiles).
    let overheads = spec.launch_overhead * seq.len() as u64;
    let raw_busy: SimSpan = seq.iter().map(|&(s, i)| pools[s][i].dur).sum();
    let residual = target_busy.saturating_sub(overheads).ratio(raw_busy);
    let kernels: Vec<Vec<std::sync::Arc<KernelDesc>>> = pools
        .iter()
        .enumerate()
        .map(|(si, pool)| {
            pool.iter()
                .enumerate()
                .map(|(i, d)| {
                    let dur = d.dur.mul_f64(residual).max(SimSpan::from_micros(2));
                    kernel_with_duration(
                        format!("{name}::s{si}k{i}"),
                        spec,
                        dur,
                        d.mem,
                        d.origin,
                        segments[si].grid_fill,
                        &mut rng,
                    )
                })
                .collect()
        })
        .collect();
    let mut ops: Vec<WorkloadOp> = Vec::with_capacity(seq.len() + 4);
    for &(s, i) in &seq {
        ops.push(WorkloadOp::Kernel(std::sync::Arc::clone(&kernels[s][i])));
    }
    // Spread CPU gaps through the iteration (4 stall points).
    let gap_total = target_total.saturating_sub(target_busy);
    if !gap_total.is_zero() {
        let gap = gap_total / 4;
        let stride = ops.len().div_ceil(4);
        let mut insert_at: Vec<usize> = (0..4).map(|i| (i + 1) * stride).collect();
        insert_at.retain(|&i| i <= ops.len());
        let placed = gap * insert_at.len() as u64;
        for i in insert_at.into_iter().rev() {
            ops.insert(i, WorkloadOp::CpuGap(gap));
        }
        // Account the rounding remainder in a final gap.
        if placed < gap_total {
            ops.push(WorkloadOp::CpuGap(gap_total - placed));
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_hits_targets() {
        let spec = GpuSpec::a100();
        let segments = [
            Segment::new(200, (10.0, 100.0), (0.3, 0.7)),
            Segment::new(10, (1_000.0, 10_000.0), (0.6, 0.9)),
        ];
        let ops = calibrated_mix(
            "test",
            &spec,
            &segments,
            SimSpan::from_millis(300),
            SimSpan::from_millis(500),
            7,
        );
        let est = estimate_solo(&spec, &ops);
        let err = (est.as_secs_f64() - 0.5).abs() / 0.5;
        assert!(err < 0.02, "estimated {est} vs target 500ms");
        let gap: SimSpan = ops
            .iter()
            .filter_map(|o| match o {
                WorkloadOp::CpuGap(g) => Some(*g),
                _ => None,
            })
            .sum();
        assert!((gap.as_secs_f64() - 0.2).abs() < 0.01, "gaps total {gap}");
    }

    #[test]
    fn deterministic_per_seed() {
        let spec = GpuSpec::a100();
        let seg = [Segment::new(50, (10.0, 200.0), (0.2, 0.8))];
        let a = calibrated_mix(
            "m",
            &spec,
            &seg,
            SimSpan::from_millis(10),
            SimSpan::from_millis(10),
            3,
        );
        let b = calibrated_mix(
            "m",
            &spec,
            &seg,
            SimSpan::from_millis(10),
            SimSpan::from_millis(10),
            3,
        );
        for (x, y) in a.iter().zip(&b) {
            match (x, y) {
                (WorkloadOp::Kernel(kx), WorkloadOp::Kernel(ky)) => {
                    assert_eq!(kx.grid, ky.grid);
                    assert_eq!(kx.block_cost, ky.block_cost);
                }
                (WorkloadOp::CpuGap(gx), WorkloadOp::CpuGap(gy)) => assert_eq!(gx, gy),
                _ => panic!("op sequences diverge"),
            }
        }
    }

    #[test]
    fn long_kernels_become_multi_wave() {
        let spec = GpuSpec::a100();
        let mut rng = SmallRng::seed_from_u64(0);
        let k = kernel_with_duration(
            "long".into(),
            &spec,
            SimSpan::from_millis(29),
            0.7,
            KernelOrigin::UserPtx,
            (0.4, 1.0),
            &mut rng,
        );
        assert_eq!(k.grid.count(), 100 * 864, "29ms at 290us/block = 100 waves");
        let solo = k.solo_latency(&spec);
        assert!((solo.as_millis_f64() - 29.0).abs() < 0.1);
    }

    #[test]
    fn short_kernels_single_wave() {
        let spec = GpuSpec::a100();
        let mut rng = SmallRng::seed_from_u64(0);
        let k = kernel_with_duration(
            "short".into(),
            &spec,
            SimSpan::from_micros(40),
            0.5,
            KernelOrigin::UserPtx,
            (0.4, 1.0),
            &mut rng,
        );
        assert!(k.grid.count() <= 864);
        assert_eq!(k.block_cost, SimSpan::from_micros(40));
    }
}
