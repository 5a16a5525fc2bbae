//! The transparent profiler (paper §4.2).
//!
//! Tally never asks the user for offline profiles. Instead, the first few
//! executions of each best-effort kernel double as measurements: the
//! scheduler launches the kernel under one candidate configuration at a
//! time, the profiler records the observed *turnaround latency* (how fast
//! the configuration can vacate the GPU) and *effective rate* (original
//! blocks completed per second), and once every candidate has a
//! measurement the best feasible configuration is locked in and reused for
//! the rest of the job — per unique `(kernel, grid dimensions)` pair.
//!
//! Turnaround for a sliced launch is simply the slice's duration; for a
//! PTB launch it follows the paper's Eq. 1:
//! `turnaround = kernel_latency × worker_blocks / total_blocks`.

use std::collections::BTreeMap;

use tally_gpu::{Dim3, GpuSpec, KernelDesc, KernelId, SimSpan};

/// A candidate launch configuration for a best-effort kernel.
///
/// `Ord` exists so configurations can key ordered containers (the
/// profiler's measurement tables must never expose hash order); the
/// derived variant-then-field ordering carries no semantic meaning.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum LaunchCfg {
    /// Launch slices of `blocks` original blocks, one at a time.
    Slice {
        /// Blocks per slice.
        blocks: u64,
    },
    /// Launch the PTB form with this many persistent workers.
    Ptb {
        /// Worker-block count.
        workers: u32,
    },
}

/// Slice sizes to try, as fractions of the kernel's total blocks
/// (paper §4.2: 1/32 to 1/4 of the grid).
const SLICE_FRACTIONS: [f64; 4] = [1.0 / 32.0, 1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0];

/// PTB worker counts to try, as multiples of the SM count (paper §4.2).
/// Descending: the fastest candidates are profiled first, so the
/// profiling phase itself runs near full speed.
const WORKER_MULTIPLES: [u32; 4] = [8, 4, 2, 1];

/// Generates the candidate set for a kernel (paper §4.2): PTB worker
/// counts are multiples of the SM count that fit the thread constraints;
/// slice sizes are fractions of the total block count.
pub fn candidate_configs(spec: &GpuSpec, kernel: &KernelDesc) -> Vec<LaunchCfg> {
    let total = kernel.grid.count();
    let capacity = spec.wave_capacity(kernel.threads_per_block(), kernel.smem_bytes);
    let mut out = Vec::new();
    for m in WORKER_MULTIPLES {
        let workers = (m as u64 * spec.num_sms as u64).min(capacity).min(total);
        if workers > 0 {
            let c = LaunchCfg::Ptb {
                workers: workers as u32,
            };
            if !out.contains(&c) {
                out.push(c);
            }
        }
    }
    for f in SLICE_FRACTIONS {
        let blocks = ((total as f64 * f).round() as u64).clamp(1, total);
        let c = LaunchCfg::Slice { blocks };
        if !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

/// One configuration's accumulated measurements.
#[derive(Copy, Clone, Debug, Default)]
struct Measurement {
    turnaround_ns: u128,
    rate_sum: f64,
    runs: u32,
}

impl Measurement {
    fn turnaround(&self) -> SimSpan {
        SimSpan::from_nanos((self.turnaround_ns / self.runs.max(1) as u128) as u64)
    }

    fn rate(&self) -> f64 {
        self.rate_sum / self.runs.max(1) as f64
    }
}

/// Per-(kernel, grid) profiling state.
#[derive(Clone, Debug, Default)]
struct Profile {
    measurements: BTreeMap<LaunchCfg, Measurement>,
    chosen: Option<LaunchCfg>,
}

/// Profiler counters, reported by the §5.7 overhead analysis.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfilerStats {
    /// Distinct (kernel, grid) work configurations profiled.
    pub profiles: u64,
    /// Measurements recorded.
    pub measurements: u64,
    /// Launch-configuration lookups answered from the cache.
    pub cache_hits: u64,
}

/// The transparent profiler. See the [module docs](self).
#[derive(Debug, Default)]
pub struct TransparentProfiler {
    profiles: BTreeMap<(KernelId, Dim3), Profile>,
    stats: ProfilerStats,
}

impl TransparentProfiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters.
    pub fn stats(&self) -> ProfilerStats {
        self.stats
    }

    fn key(kernel: &KernelDesc) -> (KernelId, Dim3) {
        (kernel.id, kernel.grid)
    }

    /// The locked-in configuration for `kernel`, if profiling has finished.
    pub fn chosen(&mut self, kernel: &KernelDesc) -> Option<LaunchCfg> {
        let p = self.profiles.get(&Self::key(kernel))?;
        if p.chosen.is_some() {
            self.stats.cache_hits += 1;
        }
        p.chosen
    }

    /// The next configuration that has no measurement yet, or `None` when
    /// every candidate is measured (after which
    /// [`TransparentProfiler::finalize`] picks the winner). The simulator
    /// is deterministic, so one measurement per candidate suffices; the
    /// paper averages ~10 noisy hardware runs.
    pub fn next_unmeasured(
        &mut self,
        candidates: &[LaunchCfg],
        kernel: &KernelDesc,
    ) -> Option<LaunchCfg> {
        let key = Self::key(kernel);
        if !self.profiles.contains_key(&key) {
            self.stats.profiles += 1;
        }
        let p = self.profiles.entry(key).or_default();
        candidates
            .iter()
            .copied()
            .find(|c| !p.measurements.contains_key(c))
    }

    /// Records one measurement of `launch_cfg`: `tasks` original blocks
    /// executed in `duration` using `workers` resident blocks (equal to
    /// `tasks` for slices). Repeat measurements of one configuration are
    /// averaged.
    pub fn record(
        &mut self,
        kernel: &KernelDesc,
        launch_cfg: LaunchCfg,
        tasks: u64,
        duration: SimSpan,
    ) {
        if tasks == 0 || duration.is_zero() {
            return;
        }
        let turnaround = match launch_cfg {
            LaunchCfg::Slice { .. } => duration,
            LaunchCfg::Ptb { workers } => {
                // Paper Eq. 1.
                duration.mul_f64(workers as f64 / tasks as f64)
            }
        };
        let rate = tasks as f64 / duration.as_secs_f64();
        let p = self.profiles.entry(Self::key(kernel)).or_default();
        let m = p.measurements.entry(launch_cfg).or_default();
        m.turnaround_ns += turnaround.as_nanos() as u128;
        m.rate_sum += rate;
        m.runs += 1;
        self.stats.measurements += 1;
    }

    /// Picks the winning configuration once all candidates are measured:
    /// the highest-rate configuration whose turnaround is within `bound`,
    /// falling back to the lowest-turnaround configuration when
    /// none complies (ties broken by rate).
    ///
    /// Returns the choice (also cached for [`TransparentProfiler::chosen`]).
    pub fn finalize(
        &mut self,
        bound: SimSpan,
        candidates: &[LaunchCfg],
        kernel: &KernelDesc,
    ) -> Option<LaunchCfg> {
        let p = self.profiles.get_mut(&Self::key(kernel))?;
        if p.chosen.is_some() {
            return p.chosen;
        }
        if !candidates.iter().all(|c| p.measurements.contains_key(c)) {
            return None;
        }
        // When the bound is unattainable (per-block time alone exceeds it —
        // e.g. Whisper's long kernels, Table 1), fall back to configurations
        // within 25% of the best achievable turnaround; Eq. 1 makes PTB
        // turnarounds nearly worker-count-invariant, so without the
        // tolerance an arbitrary (often slow) near-tie would win.
        let min_turnaround = candidates
            .iter()
            .map(|c| p.measurements[c].turnaround())
            .min()
            .expect("candidates nonempty");
        let effective_bound = bound.max(min_turnaround.mul_f64(1.25));
        let choice = candidates
            .iter()
            .filter(|c| p.measurements[c].turnaround() <= effective_bound)
            .max_by(|a, b| {
                p.measurements[a]
                    .rate()
                    .partial_cmp(&p.measurements[b].rate())
                    .expect("rates are finite")
            });
        p.chosen = choice.copied();
        p.chosen
    }

    /// The measured turnaround of a configuration, if recorded.
    pub fn turnaround(&self, kernel: &KernelDesc, launch_cfg: LaunchCfg) -> Option<SimSpan> {
        self.profiles
            .get(&Self::key(kernel))?
            .measurements
            .get(&launch_cfg)
            .map(Measurement::turnaround)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::TallyConfig;
    use tally_gpu::GpuSpec;

    /// The paper's default turnaround bound (0.0316 ms).
    fn paper_bound() -> SimSpan {
        TallyConfig::paper_default().turnaround_bound
    }

    fn kernel(blocks: u32, cost_us: u64) -> KernelDesc {
        KernelDesc::builder("k")
            .grid(blocks)
            .block(256)
            .block_cost(SimSpan::from_micros(cost_us))
            .build()
    }

    #[test]
    fn candidates_respect_capacity_and_grid() {
        let spec = GpuSpec::a100();
        let k = kernel(4320, 100);
        let cands = candidate_configs(&spec, &k);
        // 256-thread blocks: capacity 864 caps the 8×108=864 multiple.
        assert!(cands.contains(&LaunchCfg::Ptb { workers: 108 }));
        assert!(cands.contains(&LaunchCfg::Ptb { workers: 864 }));
        assert!(!cands
            .iter()
            .any(|c| matches!(c, LaunchCfg::Ptb { workers } if *workers > 864)));
        assert!(cands.contains(&LaunchCfg::Slice { blocks: 4320 / 32 }));
    }

    #[test]
    fn tiny_kernels_get_deduplicated_candidates() {
        let spec = GpuSpec::a100();
        let k = kernel(4, 10);
        let cands = candidate_configs(&spec, &k);
        // All PTB multiples clamp to 4 workers; all slice fractions to 1.
        assert_eq!(
            cands,
            vec![
                LaunchCfg::Ptb { workers: 4 },
                LaunchCfg::Slice { blocks: 1 }
            ]
        );
    }

    #[test]
    fn profiling_flow_measures_then_chooses() {
        let spec = GpuSpec::a100();
        let k = kernel(864, 20); // one wave of 20us blocks
        let cands = candidate_configs(&spec, &k);
        let mut prof = TransparentProfiler::new();
        assert_eq!(prof.chosen(&k), None);
        // Feed measurements: every candidate still unmeasured gets one.
        while let Some(c) = prof.next_unmeasured(&cands, &k) {
            let (tasks, duration) = match c {
                LaunchCfg::Slice { blocks } => (blocks, SimSpan::from_micros(24)),
                LaunchCfg::Ptb { workers } => {
                    // rounds = ceil(864/workers) at 25us per round
                    let rounds = 864u64.div_ceil(workers as u64);
                    (864, SimSpan::from_micros(25 * rounds + 4))
                }
            };
            prof.record(&k, c, tasks, duration);
        }
        let chosen = prof
            .finalize(paper_bound(), &cands, &k)
            .expect("all measured");
        // The 864-worker PTB config finishes 864 blocks in 29us — by far
        // the best rate, and its Eq.1 turnaround (29us × 864/864) is within
        // the 31.6us bound.
        assert_eq!(chosen, LaunchCfg::Ptb { workers: 864 });
        assert_eq!(prof.chosen(&k), Some(chosen));
        assert!(prof.stats().cache_hits > 0);
    }

    #[test]
    fn infeasible_bound_falls_back_to_min_turnaround() {
        let bound = SimSpan::from_nanos(1); // nothing fits
        let k = kernel(100, 50);
        let cands = vec![
            LaunchCfg::Slice { blocks: 50 },
            LaunchCfg::Ptb { workers: 10 },
        ];
        let mut prof = TransparentProfiler::new();
        // Slice of 50 blocks: 54us turnaround. PTB: 10 rounds of 62.5us
        // => 625us latency, turnaround = 62.5us.
        prof.record(&k, cands[0], 50, SimSpan::from_micros(54));
        prof.record(&k, cands[1], 100, SimSpan::from_micros(625));
        let chosen = prof.finalize(bound, &cands, &k).expect("measured");
        assert_eq!(
            chosen,
            LaunchCfg::Slice { blocks: 50 },
            "min turnaround wins"
        );
    }

    #[test]
    fn repeat_measurements_average_without_completing_the_profile() {
        let k = kernel(100, 10);
        let cands = vec![
            LaunchCfg::Slice { blocks: 10 },
            LaunchCfg::Slice { blocks: 20 },
        ];
        let mut prof = TransparentProfiler::new();
        assert_eq!(prof.finalize(paper_bound(), &cands, &k), None);
        prof.record(&k, cands[0], 10, SimSpan::from_micros(10));
        assert_eq!(prof.finalize(paper_bound(), &cands, &k), None);
        // A second record of a measured candidate is averaged into it...
        prof.record(&k, cands[0], 10, SimSpan::from_micros(20));
        assert_eq!(
            prof.turnaround(&k, cands[0]),
            Some(SimSpan::from_micros(15))
        );
        // ...and does not make the other candidate count as measured.
        assert_eq!(prof.next_unmeasured(&cands, &k), Some(cands[1]));
        assert_eq!(prof.finalize(paper_bound(), &cands, &k), None);
        prof.record(&k, cands[1], 20, SimSpan::from_micros(25));
        assert_eq!(prof.next_unmeasured(&cands, &k), None);
        assert!(prof.finalize(paper_bound(), &cands, &k).is_some());
    }

    #[test]
    fn eq1_turnaround_for_ptb() {
        let k = kernel(1000, 100);
        let mut prof = TransparentProfiler::new();
        prof.record(
            &k,
            LaunchCfg::Ptb { workers: 100 },
            1000,
            SimSpan::from_millis(1),
        );
        // 1ms × 100/1000 = 100us.
        assert_eq!(
            prof.turnaround(&k, LaunchCfg::Ptb { workers: 100 }),
            Some(SimSpan::from_micros(100))
        );
    }

    #[test]
    fn separate_profiles_per_grid_dims() {
        let k1 = kernel(100, 10);
        let k2 = KernelDesc {
            grid: tally_gpu::Dim3::linear(200),
            ..k1.clone()
        };
        let cands = vec![LaunchCfg::Slice { blocks: 10 }];
        let mut prof = TransparentProfiler::new();
        prof.record(&k1, cands[0], 10, SimSpan::from_micros(14));
        assert!(prof.finalize(paper_bound(), &cands, &k1).is_some());
        assert_eq!(prof.chosen(&k2), None, "different grid profiles separately");
    }
}
