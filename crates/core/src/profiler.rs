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
//! Each `(kernel, grid)` pair owns one slot in the profiler, handed out by
//! [`TransparentProfiler::slot`] when the scheduler receives the logical
//! kernel. The slot holds the pair's candidate list, built once when the
//! slot is created, and one measurement per candidate. Every launch and
//! every measurement after that addresses the slot directly
//! ([`TransparentProfiler::choose`], [`TransparentProfiler::record`]), so
//! the keyed table is searched once per received kernel, not once per
//! launch.
//!
//! Turnaround for a sliced launch is simply the slice's duration; for a
//! PTB launch it follows the paper's Eq. 1:
//! `turnaround = kernel_latency × worker_blocks / total_blocks`.

use std::collections::BTreeMap;

use tally_gpu::{Dim3, GpuSpec, KernelDesc, KernelId, SimSpan, SimTime};

/// A candidate launch configuration for a best-effort kernel.
///
/// `Ord` exists so configurations can key ordered containers, which never
/// expose hash order; the derived variant-then-field ordering carries no
/// semantic meaning.
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

/// One configuration's accumulated measurements; `runs == 0` means the
/// configuration has not been measured yet.
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
#[derive(Clone, Debug)]
struct Profile {
    /// The candidate configurations, built once when the slot is created.
    candidates: Vec<LaunchCfg>,
    /// `measurements[i]` accumulates the runs of `candidates[i]`.
    measurements: Vec<Measurement>,
    chosen: Option<LaunchCfg>,
    /// Whether any launch has used this profile yet: a kernel that is
    /// received but never launched profiles nothing.
    launched: bool,
}

impl Profile {
    /// The winning configuration once every candidate is measured: the
    /// highest-rate configuration whose turnaround is within `bound`,
    /// falling back to the lowest-turnaround configurations when none
    /// complies.
    fn pick(&self, bound: SimSpan) -> LaunchCfg {
        // When the bound is unattainable (per-block time alone exceeds it —
        // e.g. Whisper's long kernels, Table 1), fall back to configurations
        // within 25% of the best achievable turnaround; Eq. 1 makes PTB
        // turnarounds nearly worker-count-invariant, so without the
        // tolerance an arbitrary (often slow) near-tie would win.
        let min_turnaround = self
            .measurements
            .iter()
            .map(Measurement::turnaround)
            .min()
            .expect("candidates nonempty");
        let effective_bound = bound.max(min_turnaround.mul_f64(1.25));
        let (&choice, _) = self
            .candidates
            .iter()
            .zip(&self.measurements)
            .filter(|(_, m)| m.turnaround() <= effective_bound)
            .max_by(|(_, a), (_, b)| a.rate().partial_cmp(&b.rate()).expect("rates are finite"))
            .expect("the lowest turnaround is within the bound");
        choice
    }
}

/// A `(kernel, grid)` pair's slot in a [`TransparentProfiler`], from
/// [`TransparentProfiler::slot`].
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct ProfileSlot(usize);

/// Profiler counters, reported by the §5.7 overhead analysis.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfilerStats {
    /// Distinct (kernel, grid) work configurations profiled, counted at
    /// each one's first launch.
    pub profiles: u64,
    /// Measurements recorded.
    pub measurements: u64,
    /// Launch-configuration lookups answered from the cache.
    pub cache_hits: u64,
    /// Launches that ran a candidate not yet measured: the profiling ramp.
    pub profiling_launches: u64,
    /// When the last of those launches was chosen: the end of the ramp so
    /// far.
    pub last_profiling_launch: Option<SimTime>,
    /// Keyed searches of the profile table, one per
    /// [`TransparentProfiler::slot`] call.
    pub lookups: u64,
}

/// The transparent profiler. See the [module docs](self).
#[derive(Debug, Default)]
pub struct TransparentProfiler {
    /// Each `(kernel, grid)` pair's index in `profiles`.
    slots: BTreeMap<(KernelId, Dim3), usize>,
    profiles: Vec<Profile>,
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

    /// The slot of `kernel`'s `(kernel, grid)` pair: one keyed search. The
    /// first call for a pair creates its slot with the candidates
    /// [`candidate_configs`] gives on `spec`.
    pub fn slot(&mut self, spec: &GpuSpec, kernel: &KernelDesc) -> ProfileSlot {
        self.stats.lookups += 1;
        let next = self.profiles.len();
        let slot = *self.slots.entry((kernel.id, kernel.grid)).or_insert(next);
        if slot == next {
            let candidates = candidate_configs(spec, kernel);
            self.profiles.push(Profile {
                measurements: vec![Measurement::default(); candidates.len()],
                candidates,
                chosen: None,
                launched: false,
            });
        }
        ProfileSlot(slot)
    }

    /// The configuration of a launch of `slot`'s kernel chosen at `now`.
    ///
    /// While a candidate is unmeasured, the launch doubles as a profiling
    /// run of the first such candidate. The simulator is deterministic, so
    /// one measurement per candidate suffices; the paper averages ~10
    /// noisy hardware runs. The first launch after every candidate is
    /// measured locks in the highest-rate candidate whose turnaround is
    /// within `bound` (falling back to those within 25% of the lowest
    /// turnaround when none complies), and every later launch is answered
    /// from that cache.
    pub fn choose(&mut self, slot: ProfileSlot, bound: SimSpan, now: SimTime) -> LaunchCfg {
        let p = &mut self.profiles[slot.0];
        if let Some(cfg) = p.chosen {
            self.stats.cache_hits += 1;
            return cfg;
        }
        if !p.launched {
            p.launched = true;
            self.stats.profiles += 1;
        }
        if let Some(i) = p.measurements.iter().position(|m| m.runs == 0) {
            self.stats.profiling_launches += 1;
            self.stats.last_profiling_launch = Some(now);
            return p.candidates[i];
        }
        let cfg = p.pick(bound);
        p.chosen = Some(cfg);
        cfg
    }

    /// Records one measurement of `launch_cfg`, one of `slot`'s
    /// candidates: `tasks` original blocks executed in `duration` using
    /// `workers` resident blocks (equal to `tasks` for slices). Repeat
    /// measurements of one configuration are averaged.
    pub fn record(
        &mut self,
        slot: ProfileSlot,
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
        let p = &mut self.profiles[slot.0];
        let i = p
            .candidates
            .iter()
            .position(|&c| c == launch_cfg)
            .expect("a profile records only its own candidates");
        let m = &mut p.measurements[i];
        m.turnaround_ns += turnaround.as_nanos() as u128;
        m.rate_sum += rate;
        m.runs += 1;
        self.stats.measurements += 1;
    }

    /// The measured turnaround of one of `slot`'s candidates, if recorded.
    pub fn turnaround(&self, slot: ProfileSlot, launch_cfg: LaunchCfg) -> Option<SimSpan> {
        let p = &self.profiles[slot.0];
        let i = p.candidates.iter().position(|&c| c == launch_cfg)?;
        let m = p.measurements[i];
        (m.runs > 0).then(|| m.turnaround())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::TallyConfig;

    impl TransparentProfiler {
        /// The candidate configurations of `slot`.
        fn candidates(&self, slot: ProfileSlot) -> &[LaunchCfg] {
            &self.profiles[slot.0].candidates
        }
    }

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
        let mut prof = TransparentProfiler::new();
        let slot = prof.slot(&spec, &k);
        assert_eq!(prof.candidates(slot), candidate_configs(&spec, &k));
        assert_eq!(
            prof.stats().profiles,
            0,
            "a profile counts at its first launch"
        );
        // Each launch runs the next unmeasured candidate until all have a
        // measurement.
        let mut now = SimTime::ZERO;
        for _ in 0..prof.candidates(slot).len() {
            now += SimSpan::from_micros(100);
            let c = prof.choose(slot, paper_bound(), now);
            let (tasks, duration) = match c {
                LaunchCfg::Slice { blocks } => (blocks, SimSpan::from_micros(24)),
                LaunchCfg::Ptb { workers } => {
                    // rounds = ceil(864/workers) at 25us per round
                    let rounds = 864u64.div_ceil(workers as u64);
                    (864, SimSpan::from_micros(25 * rounds + 4))
                }
            };
            prof.record(slot, c, tasks, duration);
        }
        let ramp = prof.stats();
        assert_eq!(ramp.profiles, 1);
        assert_eq!(ramp.profiling_launches, prof.candidates(slot).len() as u64);
        assert_eq!(ramp.last_profiling_launch, Some(now));
        assert_eq!(ramp.cache_hits, 0);
        let chosen = prof.choose(slot, paper_bound(), now + SimSpan::from_millis(1));
        // The 864-worker PTB config finishes 864 blocks in 29us — by far
        // the best rate, and its Eq.1 turnaround (29us × 864/864) is within
        // the 31.6us bound.
        assert_eq!(chosen, LaunchCfg::Ptb { workers: 864 });
        assert_eq!(prof.choose(slot, paper_bound(), SimTime::MAX), chosen);
        let after = prof.stats();
        assert_eq!(after.cache_hits, 1, "the locking launch is not a hit");
        assert_eq!(
            (after.profiling_launches, after.last_profiling_launch),
            (ramp.profiling_launches, ramp.last_profiling_launch),
            "the ramp ended with the last unmeasured candidate"
        );
    }

    #[test]
    fn infeasible_bound_falls_back_to_min_turnaround() {
        let spec = GpuSpec::a100();
        let bound = SimSpan::from_nanos(1); // nothing fits
        let k = kernel(100, 50);
        let mut prof = TransparentProfiler::new();
        let slot = prof.slot(&spec, &k);
        // One 100-worker PTB candidate and slices of 3, 6, 13 and 25
        // blocks. PTB: one 625us round, so its Eq. 1 turnaround is 625us
        // at the best rate; each slice takes one 54us wave per 3 blocks.
        let measured: Vec<(LaunchCfg, u64, SimSpan)> = prof
            .candidates(slot)
            .iter()
            .map(|&c| match c {
                LaunchCfg::Ptb { .. } => (c, 100, SimSpan::from_micros(625)),
                LaunchCfg::Slice { blocks } => {
                    (c, blocks, SimSpan::from_micros(54 * blocks.div_ceil(3)))
                }
            })
            .collect();
        for (c, tasks, duration) in measured {
            assert_eq!(prof.choose(slot, bound, SimTime::ZERO), c);
            prof.record(slot, c, tasks, duration);
        }
        assert_eq!(
            prof.choose(slot, bound, SimTime::ZERO),
            LaunchCfg::Slice { blocks: 3 },
            "min turnaround wins"
        );
    }

    #[test]
    fn repeat_measurements_average_without_completing_the_profile() {
        let spec = GpuSpec::a100();
        let k = kernel(4, 10);
        let (ptb, slice) = (
            LaunchCfg::Ptb { workers: 4 },
            LaunchCfg::Slice { blocks: 1 },
        );
        let mut prof = TransparentProfiler::new();
        let slot = prof.slot(&spec, &k);
        assert_eq!(prof.candidates(slot), [ptb, slice]);
        let us = SimTime::from_micros;
        assert_eq!(prof.choose(slot, paper_bound(), us(1)), ptb);
        prof.record(slot, ptb, 4, SimSpan::from_micros(10));
        assert_eq!(prof.choose(slot, paper_bound(), us(2)), slice);
        // A second record of a measured candidate is averaged into it...
        prof.record(slot, ptb, 4, SimSpan::from_micros(20));
        assert_eq!(prof.turnaround(slot, ptb), Some(SimSpan::from_micros(15)));
        assert_eq!(prof.turnaround(slot, slice), None);
        // ...and does not make the other candidate count as measured.
        assert_eq!(prof.choose(slot, paper_bound(), us(3)), slice);
        prof.record(slot, slice, 1, SimSpan::from_micros(25));
        assert_eq!(prof.choose(slot, paper_bound(), us(4)), ptb);
        let stats = prof.stats();
        assert_eq!((stats.profiles, stats.measurements), (1, 3));
        assert_eq!(stats.profiling_launches, 3);
        assert_eq!(stats.last_profiling_launch, Some(us(3)));
    }

    #[test]
    fn eq1_turnaround_for_ptb() {
        let k = kernel(1080, 100);
        let mut prof = TransparentProfiler::new();
        let slot = prof.slot(&GpuSpec::a100(), &k);
        let ptb = LaunchCfg::Ptb { workers: 108 };
        prof.record(slot, ptb, 1080, SimSpan::from_millis(1));
        // 1ms × 108/1080 = 100us.
        assert_eq!(prof.turnaround(slot, ptb), Some(SimSpan::from_micros(100)));
    }

    #[test]
    fn separate_profiles_per_grid_dims() {
        let spec = GpuSpec::a100();
        let k1 = kernel(100, 10);
        let k2 = KernelDesc {
            grid: Dim3::linear(200),
            ..k1.clone()
        };
        let mut prof = TransparentProfiler::new();
        let s1 = prof.slot(&spec, &k1);
        let s2 = prof.slot(&spec, &k2);
        assert_ne!(s1, s2, "different grid profiles separately");
        assert_eq!(prof.slot(&spec, &k1), s1, "one slot per (kernel, grid)");
        assert_eq!(prof.stats().lookups, 3);
        assert_eq!(prof.candidates(s2), candidate_configs(&spec, &k2));
    }

    /// The kernel-keyed profiler the slots replaced: every call searches
    /// a map by `(kernel, grid)`, and a launch that misses the cache
    /// rebuilds the candidates. The reference the slot API must match.
    #[derive(Default)]
    struct KeyedProfiler {
        profiles: BTreeMap<(KernelId, Dim3), KeyedProfile>,
        stats: ProfilerStats,
    }

    #[derive(Default)]
    struct KeyedProfile {
        measurements: BTreeMap<LaunchCfg, Measurement>,
        chosen: Option<LaunchCfg>,
    }

    impl KeyedProfiler {
        /// The configuration of one launch of `kernel`: the cached choice,
        /// else the winner once every candidate is measured, else the
        /// next unmeasured candidate.
        fn launch(&mut self, spec: &GpuSpec, bound: SimSpan, kernel: &KernelDesc) -> LaunchCfg {
            let key = (kernel.id, kernel.grid);
            if let Some(cfg) = self.profiles.get(&key).and_then(|p| p.chosen) {
                self.stats.cache_hits += 1;
                return cfg;
            }
            let candidates = candidate_configs(spec, kernel);
            if let Some(cfg) = self.finalize(bound, &candidates, key) {
                return cfg;
            }
            if !self.profiles.contains_key(&key) {
                self.stats.profiles += 1;
            }
            let p = self.profiles.entry(key).or_default();
            candidates
                .iter()
                .copied()
                .find(|c| !p.measurements.contains_key(c))
                .unwrap_or(candidates[0])
        }

        fn finalize(
            &mut self,
            bound: SimSpan,
            candidates: &[LaunchCfg],
            key: (KernelId, Dim3),
        ) -> Option<LaunchCfg> {
            let p = self.profiles.get_mut(&key)?;
            if !candidates.iter().all(|c| p.measurements.contains_key(c)) {
                return None;
            }
            let min_turnaround = candidates
                .iter()
                .map(|c| p.measurements[c].turnaround())
                .min()?;
            let effective_bound = bound.max(min_turnaround.mul_f64(1.25));
            p.chosen = candidates
                .iter()
                .filter(|c| p.measurements[c].turnaround() <= effective_bound)
                .max_by(|a, b| {
                    p.measurements[a]
                        .rate()
                        .partial_cmp(&p.measurements[b].rate())
                        .expect("rates are finite")
                })
                .copied();
            p.chosen
        }

        fn record(&mut self, kernel: &KernelDesc, cfg: LaunchCfg, tasks: u64, duration: SimSpan) {
            if tasks == 0 || duration.is_zero() {
                return;
            }
            let turnaround = match cfg {
                LaunchCfg::Slice { .. } => duration,
                LaunchCfg::Ptb { workers } => duration.mul_f64(workers as f64 / tasks as f64),
            };
            let p = self.profiles.entry((kernel.id, kernel.grid)).or_default();
            let m = p.measurements.entry(cfg).or_default();
            m.turnaround_ns += turnaround.as_nanos() as u128;
            m.rate_sum += tasks as f64 / duration.as_secs_f64();
            m.runs += 1;
            self.stats.measurements += 1;
        }
    }

    /// Seeded launch sequences, driven the way Tally drives the profiler,
    /// get the same configurations and counters from the slots as from
    /// the kernel-keyed reference: tail slices and preempted slices (never
    /// measured), preempted PTB runs with and without a full round,
    /// kernels received again after they finish, a kernel received but
    /// never launched, and two bounds.
    #[test]
    fn slots_match_the_kernel_keyed_profiler() {
        let spec = GpuSpec::a100();
        let base = kernel(4320, 100);
        let kernels = [
            KernelDesc {
                grid: Dim3::linear(1000),
                ..base.clone()
            },
            base,
            kernel(4, 10),
            kernel(864, 20),
            kernel(100, 50),
        ];
        let never_launched = kernel(300, 30);
        for bound in [paper_bound(), SimSpan::from_millis(5)] {
            for seed in 0..6 {
                let mut rng = tally_gpu::rng::SmallRng::seed_from_u64(seed);
                let mut prof = TransparentProfiler::new();
                let mut reference = KeyedProfiler::default();
                prof.slot(&spec, &never_launched);
                // Each kernel's slot and the progress of its logical run.
                let mut runs: Vec<(ProfileSlot, u64)> =
                    kernels.iter().map(|k| (prof.slot(&spec, k), 0)).collect();
                let mut now = SimTime::ZERO;
                for _ in 0..600 {
                    let i = rng.gen_range(0..kernels.len());
                    let k = &kernels[i];
                    let total = k.grid.count();
                    if runs[i].1 >= total {
                        runs[i] = (prof.slot(&spec, k), 0); // received again
                    }
                    let (slot, progress) = runs[i];
                    let remaining = total - progress;
                    now += SimSpan::from_micros(rng.gen_range(1..100u64));
                    let cfg = prof.choose(slot, bound, now);
                    assert_eq!(cfg, reference.launch(&spec, bound, k), "seed {seed}");
                    let duration = SimSpan::from_micros(rng.gen_range(1..400u64));
                    let mut record = |tasks| {
                        prof.record(slot, cfg, tasks, duration);
                        reference.record(k, cfg, tasks, duration);
                    };
                    let executed = match cfg {
                        LaunchCfg::Slice { blocks } => {
                            let count = blocks.min(remaining);
                            if rng.gen_bool(0.7) {
                                // Completed; a tail slice is not measured.
                                if count == blocks {
                                    record(count);
                                }
                                count
                            } else {
                                rng.gen_range(0..=count) // preempted
                            }
                        }
                        LaunchCfg::Ptb { workers } => {
                            if rng.gen_bool(0.5) {
                                record(remaining); // completed
                                remaining
                            } else {
                                // Preempted: measured after a full round.
                                let executed = rng.gen_range(0..=remaining);
                                if executed >= workers as u64 {
                                    record(executed);
                                }
                                executed
                            }
                        }
                    };
                    runs[i].1 += executed;
                }
                let (got, want) = (prof.stats(), reference.stats);
                assert_eq!(
                    (got.profiles, got.measurements, got.cache_hits),
                    (want.profiles, want.measurements, want.cache_hits),
                    "seed {seed}, bound {bound}"
                );
                assert_eq!(got.profiles, kernels.len() as u64);
                assert!(got.cache_hits > 0 && got.profiling_launches > 0);
            }
        }
    }
}
