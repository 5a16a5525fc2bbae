//! Property-style tests on the GPU engine: conservation and monotonicity
//! under randomized interleavings of submissions and preemptions.
//!
//! The build environment has no access to `proptest`, so these use the
//! workspace's own deterministic PRNG ([`tally_gpu::rng::SmallRng`]) to
//! drive the same invariants over many seeded cases. Failures print the
//! offending seed; rerun with that seed to reproduce.

use tally::prelude::*;
use tally_gpu::rng::SmallRng;
use tally_gpu::{LaunchId, LaunchRequest, LaunchShape, Notification};

#[derive(Debug, Clone)]
enum Action {
    /// Submit a kernel: (blocks, threads_exp, cost_us, ptb_workers).
    Submit {
        blocks: u32,
        threads_exp: u8,
        cost_us: u64,
        ptb_workers: Option<u16>,
    },
    /// Advance simulated time by this many microseconds.
    Advance(u64),
    /// Preempt the nth-oldest still-active launch.
    Preempt(u8),
}

fn random_action(rng: &mut SmallRng) -> Action {
    match rng.gen_range(0u32..3) {
        0 => Action::Submit {
            blocks: rng.gen_range(1u32..2000),
            threads_exp: rng.gen_range(5u32..11) as u8,
            cost_us: rng.gen_range(1u64..500),
            ptb_workers: if rng.gen_bool(0.5) {
                Some(rng.gen_range(1u32..600) as u16)
            } else {
                None
            },
        },
        1 => Action::Advance(rng.gen_range(1u64..3000)),
        _ => Action::Preempt(rng.gen_range(0u32..8) as u8),
    }
}

/// Every submitted launch eventually resolves (completed or preempted),
/// all resources return to the pool, time never runs backwards, and the
/// engine never holds more launches than are live.
#[test]
fn launches_conserve_and_resolve() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(case);
        let n_actions = rng.gen_range(1usize..40);
        let actions: Vec<Action> = (0..n_actions).map(|_| random_action(&mut rng)).collect();

        let spec = GpuSpec::a100();
        let total_blocks = spec.total_block_slots();
        let total_threads = spec.total_thread_slots();
        let mut engine = Engine::new(spec);
        let mut live: Vec<LaunchId> = Vec::new();
        let mut max_live = 0usize;
        let mut submitted = 0u64;
        let mut resolved = 0u64;
        let mut last_now = engine.now();

        let mut notes = Vec::new();
        let handle =
            |notes: &mut Vec<Notification>, live: &mut Vec<LaunchId>, resolved: &mut u64| {
                for n in notes.drain(..) {
                    if let Some(pos) = live.iter().position(|&l| l == n.launch()) {
                        live.swap_remove(pos);
                        *resolved += 1;
                    }
                    if let Notification::Preempted {
                        done_upto, total, ..
                    } = n
                    {
                        assert!(
                            done_upto <= total,
                            "case {case}: progress cannot exceed total"
                        );
                    }
                }
            };

        for action in actions {
            match action {
                Action::Submit {
                    blocks,
                    threads_exp,
                    cost_us,
                    ptb_workers,
                } => {
                    let threads = 1u32 << threads_exp; // 32..=1024
                    let kernel = KernelDesc::builder("prop")
                        .grid(blocks)
                        .block(threads)
                        .block_cost(SimSpan::from_micros(cost_us))
                        .build();
                    let shape = match ptb_workers {
                        Some(w) => LaunchShape::Ptb {
                            workers: (w as u32).min(blocks),
                            offset: 0,
                            overhead_ppm: 250,
                        },
                        None => LaunchShape::Full,
                    };
                    let id = engine.submit(LaunchRequest {
                        kernel: &kernel,
                        shape,
                        client: ClientId(0),
                        priority: Priority::BestEffort,
                    });
                    live.push(id);
                    max_live = max_live.max(live.len());
                    submitted += 1;
                }
                Action::Advance(us) => {
                    let target = engine.now() + SimSpan::from_micros(us);
                    while let Step::Notified = engine.advance(target, &mut notes) {
                        handle(&mut notes, &mut live, &mut resolved);
                        assert!(engine.now() >= last_now, "case {case}: time went backwards");
                        last_now = engine.now();
                    }
                }
                Action::Preempt(n) => {
                    if let Some(&id) = live.get(n as usize) {
                        engine.preempt(id);
                    }
                }
            }
        }
        // Drain everything.
        loop {
            match engine.advance(SimTime::MAX, &mut notes) {
                Step::Notified => handle(&mut notes, &mut live, &mut resolved),
                Step::Idle => break,
                Step::ReachedLimit => unreachable!(),
            }
        }
        assert!(live.is_empty(), "case {case}: launches left unresolved");
        assert_eq!(submitted, resolved, "case {case}");
        assert!(engine.is_idle(), "case {case}");
        assert!(
            engine.stats().peak_live <= max_live as u64,
            "case {case}: the engine held launches that were no longer live"
        );
        assert_eq!(
            engine.free_block_slots(),
            total_blocks,
            "case {case}: block slots leaked"
        );
        assert_eq!(
            engine.free_thread_slots(),
            total_threads,
            "case {case}: thread slots leaked"
        );
    }
}

/// Solo latency is shape-independent for single-wave kernels and scales
/// linearly with waves for multi-wave kernels.
#[test]
fn solo_latency_matches_wave_arithmetic() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0x5EED ^ case);
        let waves = rng.gen_range(1u64..20);
        let cost_us = rng.gen_range(1u64..400);

        let spec = GpuSpec::a100();
        let capacity = spec.wave_capacity(256, 0);
        let kernel = KernelDesc::builder("waves")
            .grid((waves * capacity) as u32)
            .block(256)
            .block_cost(SimSpan::from_micros(cost_us))
            .build();
        let mut engine = Engine::new(spec.clone());
        engine.submit(LaunchRequest::full(&kernel, ClientId(0), Priority::High));
        let mut notes = Vec::new();
        let at = match engine.advance(SimTime::MAX, &mut notes) {
            Step::Notified => notes[0].at(),
            Step::Idle => panic!("case {case}: no completion"),
            Step::ReachedLimit => unreachable!(),
        };
        let expected = spec.launch_overhead + SimSpan::from_micros(cost_us) * waves;
        assert_eq!(at.saturating_since(SimTime::ZERO), expected, "case {case}");
    }
}
