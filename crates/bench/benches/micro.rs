//! Micro-benchmarks of the substrate components: engine event throughput
//! and launch-storage high-water mark, kernel transformation passes,
//! interpreter speed, scheduler decision latency, and the calls a session
//! makes into its sharing system.
//!
//! Like every harness in this crate these are standalone (no Criterion —
//! the build environment is offline): each case is warmed up, then timed
//! over enough iterations for a stable median, reported as ns/iter.

use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

use tally_bench::{banner, bench_threads, JsonSink};
use tally_core::api::Transport;
use tally_core::cluster::Cluster;
use tally_core::events::{Observation, SessionObserver};
use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
use tally_core::scheduler::{TallyConfig, TallySystem};
use tally_core::system::{Ctx, SharingSystem};
use tally_core::telemetry::MetricsHub;
use tally_gpu::{
    ClientId, Engine, GpuSpec, KernelDesc, LaunchRequest, Notification, Priority, SimSpan, SimTime,
    Step,
};
use tally_ptx::interp::{run_kernel, Launch};
use tally_ptx::{passes, samples};
use tally_workloads::maf2::{arrivals, Maf2Config};
use tally_workloads::trace::{ArrivalTrace, TraceGen};
use tally_workloads::{InferModel, TrainModel};

/// Host wall-clock sample for the bench timers below — `host_` scope per
/// the determinism contract (ARCHITECTURE rule D3): wall time here feeds
/// only the ungated `host_ns_per_iter` rows, never simulated results.
#[allow(clippy::disallowed_methods)] // host-only instrumentation scope
fn host_now() -> Instant {
    Instant::now()
}

/// Times `f` adaptively: warm up, pick an iteration count that runs for
/// roughly `budget_ms`, then report (and return) the best-of-three
/// nanoseconds per iteration.
fn bench<R>(sink: &mut JsonSink, name: &str, budget_ms: u64, mut f: impl FnMut() -> R) -> u64 {
    // Warmup + calibration.
    let t0 = host_now();
    let mut calib_iters = 0u64;
    while t0.elapsed().as_millis() < 20 || calib_iters < 3 {
        std::hint::black_box(f());
        calib_iters += 1;
    }
    let per_iter = t0.elapsed().as_nanos() as u64 / calib_iters.max(1);
    let iters = (budget_ms * 1_000_000 / per_iter.max(1)).clamp(1, 1_000_000);

    let mut best = u64::MAX;
    for _ in 0..3 {
        let t = host_now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        best = best.min(t.elapsed().as_nanos() as u64 / iters);
    }
    let human = if best >= 10_000_000 {
        format!("{:.2} ms/iter", best as f64 / 1e6)
    } else if best >= 10_000 {
        format!("{:.2} us/iter", best as f64 / 1e3)
    } else {
        format!("{best} ns/iter")
    };
    println!("{name:<44} {human:>16}   ({iters} iters)");
    // `host_` prefix: wall-clock on whatever machine ran this — tracked in
    // the trajectory but exempt from the CI regression gate, which only
    // compares deterministic simulated-time metrics across runners.
    sink.record("host_ns_per_iter", best as f64, &[("case", name)]);
    best
}

fn engine_throughput(sink: &mut JsonSink) {
    let spec = GpuSpec::a100();
    let k = KernelDesc::builder("bench")
        .grid(864)
        .block(256)
        .block_cost(SimSpan::from_micros(50))
        .build_arc();
    bench(sink, "engine: 1000 single-wave kernels", 200, || {
        let mut engine = Engine::new(spec.clone());
        for _ in 0..1000 {
            engine.submit(LaunchRequest::full(k.clone(), ClientId(0), Priority::High));
        }
        let mut notes = Vec::new();
        while let Step::Notified = engine.advance(SimTime::MAX, &mut notes) {}
        assert_eq!(notes.len(), 1000);
    });
}

/// Launch-storage high-water mark over 100,000 launches run one after
/// another (submit, drain, repeat). Untimed and deterministic: the engine
/// keeps only live launches, so the row reads 1; a per-launch history
/// table would make it read 100,000 and fail the trajectory gate.
fn engine_launch_storage(sink: &mut JsonSink) {
    const LAUNCHES: u64 = 100_000;
    let k = KernelDesc::builder("serial")
        .grid(108)
        .block(256)
        .block_cost(SimSpan::from_micros(5))
        .build_arc();
    let mut engine = Engine::new(GpuSpec::a100());
    let mut notes = Vec::new();
    for _ in 0..LAUNCHES {
        engine.submit(LaunchRequest::full(k.clone(), ClientId(0), Priority::High));
        while let Step::Notified = engine.advance(SimTime::MAX, &mut notes) {
            notes.clear();
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.completed, LAUNCHES);
    println!(
        "{:<44} {:>16}",
        "engine: peak live launches over 100k serial", stats.peak_live
    );
    sink.record("peak_live_launches", stats.peak_live as f64, &[]);
}

/// Forwards to a sharing system and counts the session's polls and timer
/// queries.
struct CallCounter<S> {
    inner: S,
    polls: u64,
    timer_queries: Cell<u64>,
}

impl<S: SharingSystem> SharingSystem for CallCounter<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        self.inner.on_kernel_ready(ctx, client, kernel);
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        self.inner.on_notification(ctx, note);
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        self.polls += 1;
        self.inner.poll(ctx);
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.timer_queries.set(self.timer_queries.get() + 1);
        self.inner.next_timer()
    }

    fn on_client_attach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.inner.on_client_attach(ctx, client);
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.inner.on_client_detach(ctx, client);
    }
}

/// The session's work per simulated run: system polls, timer queries,
/// settle passes and engine-advance calls over a 2 s Tally co-location of
/// a BERT service (MAF2 arrivals at 50% load) and a Whisper-v3 trainer
/// behind shared-memory stubs. Untimed and deterministic, so the rows are
/// gated: a session that polls at engine-internal instants, runs an extra
/// settle pass, or steps the engine one instant at a time with nobody
/// listening raises them.
fn session_work(sink: &mut JsonSink) {
    let spec = GpuSpec::a100();
    let duration = SimSpan::from_secs(2);
    let service = InferModel::Bert.job(
        &spec,
        arrivals(&Maf2Config::new(
            0.5,
            InferModel::Bert.paper_latency(),
            duration,
        )),
    );
    let mut tally = CallCounter {
        inner: TallySystem::new(TallyConfig::paper_default()),
        polls: 0,
        timer_queries: Cell::new(0),
    };
    let mut session = Colocation::on(spec.clone())
        .client(service)
        .client(TrainModel::WhisperV3.job(&spec))
        .system(&mut tally)
        .config(HarnessConfig {
            duration,
            warmup: SimSpan::ZERO,
            seed: 1,
            jitter: 0.02,
            record_timelines: false,
        })
        .transport(Transport::SharedMemory)
        .into_session();
    session.run_to_end();
    let work = session.work();
    drop(session);
    let timer_queries = tally.timer_queries.get();
    println!(
        "{:<44} {:>16}",
        "session: system polls, 2s tally pairing", tally.polls
    );
    println!(
        "{:<44} {:>16}",
        "session: timer queries, 2s tally pairing", timer_queries
    );
    println!(
        "{:<44} {:>16}",
        "session: settle passes, 2s tally pairing", work.settle_passes
    );
    println!(
        "{:<44} {:>16}",
        "session: engine advances, 2s tally pairing", work.engine_advances
    );
    sink.record("work_system_polls", tally.polls as f64, &[]);
    sink.record("work_timer_queries", timer_queries as f64, &[]);
    sink.record("work_settle_passes", work.settle_passes as f64, &[]);
    sink.record("work_engine_advances", work.engine_advances as f64, &[]);
}

fn transformation_passes(sink: &mut JsonSink) {
    let kernel = samples::block_reduce_sum();
    bench(sink, "passes: unified_sync", 100, || {
        passes::unified_sync(&kernel)
    });
    bench(sink, "passes: ptb (incl. unified_sync)", 100, || {
        passes::ptb(&kernel)
    });
    bench(sink, "passes: slicing", 100, || passes::slicing(&kernel));
}

fn interpreter(sink: &mut JsonSink) {
    let kernel = samples::block_reduce_sum();
    bench(sink, "interp: reduce 8 blocks x 8 threads", 100, || {
        // Inputs at 0..64 are 1; the accumulator slot at 64 must start 0
        // (the reduction adds into it).
        let mut mem = vec![0u64; 66];
        mem[..64].fill(1);
        run_kernel(&kernel, &Launch::linear(8, 8, vec![0, 64, 64]), &mut mem).expect("runs");
        assert_eq!(mem[64], 64);
    });
}

fn scheduler_colocation(sink: &mut JsonSink) {
    let spec = GpuSpec::a100();
    let hp_kernel = KernelDesc::builder("hp")
        .grid(432)
        .block(256)
        .block_cost(SimSpan::from_micros(50))
        .build_arc();
    let be_kernel = KernelDesc::builder("be")
        .grid(864 * 10)
        .block(256)
        .block_cost(SimSpan::from_micros(200))
        .mem_intensity(0.7)
        .build_arc();
    let cfg = HarnessConfig {
        duration: SimSpan::from_secs(1),
        warmup: SimSpan::from_millis(100),
        seed: 0,
        jitter: 0.0,
        record_timelines: false,
    };
    bench(sink, "scheduler: tally 1s co-location", 400, || {
        let hp = JobSpec::inference(
            "hp",
            vec![WorkloadOp::Kernel(hp_kernel.clone()); 10],
            (0..100).map(|i| SimTime::from_millis(10 * i)).collect(),
        );
        let be = JobSpec::training("be", vec![WorkloadOp::Kernel(be_kernel.clone())]);
        let mut tally = TallySystem::new(TallyConfig::paper_default());
        Colocation::on(spec.clone())
            .client(hp)
            .client(be)
            .system(&mut tally)
            .config(cfg.clone())
            .run()
    });
}

/// Whole-fleet advancement at 8/32/128 devices for 1/2/4 worker threads:
/// the report must be byte-identical at every thread count, and the
/// `host_*` rows record how much wall-clock the barrier loop spends
/// advancing devices (the speedup scales with physical cores — a
/// single-core host shows none).
fn fleet_thread_sweep(sink: &mut JsonSink) {
    banner("Fleet advancement: threads=1 vs N (byte-identical reports)");
    let spec = GpuSpec::a100();
    let k = KernelDesc::builder("train")
        .grid(864)
        .block(256)
        .block_cost(SimSpan::from_micros(100))
        .build_arc();
    let cfg = HarnessConfig {
        duration: SimSpan::from_millis(100),
        warmup: SimSpan::ZERO,
        seed: 5,
        jitter: 0.0,
        record_timelines: false,
    };
    for devices in [8usize, 32, 128] {
        let jobs: Vec<JobSpec> = (0..devices)
            .map(|i| {
                JobSpec::training(format!("t{i}"), vec![WorkloadOp::Kernel(k.clone())])
                    .with_client_key(format!("t{i}"))
            })
            .collect();
        let run = |threads: usize| {
            Cluster::new()
                .devices(devices, spec.clone())
                .clients(jobs.clone())
                .rebalance_every(SimSpan::from_millis(10))
                .threads(threads)
                .config(cfg.clone())
                .run()
        };
        let baseline = format!("{:?}", run(1));
        for threads in [1usize, 2, 4] {
            let d = devices.to_string();
            let t = threads.to_string();
            bench(
                sink,
                &format!("fleet: {devices} devices, {threads} threads"),
                150,
                || run(threads),
            );
            let report = run(threads);
            assert_eq!(
                baseline,
                format!("{report:?}"),
                "fleet report diverged at {devices} devices, {threads} threads"
            );
            sink.record(
                "host_fleet_advance_ns",
                report.host.advance_ns as f64,
                &[("devices", &d), ("threads", &t)],
            );
            sink.record(
                "host_fleet_barriers",
                report.host.barriers as f64,
                &[("devices", &d), ("threads", &t)],
            );
        }
    }
}

/// Barriers the drive loop runs on a small churn fleet: 4 devices under a
/// generated churn trace with migrate-on-detach on, on one worker. Every
/// trace injection and every departure before the end is a barrier. The
/// fleet is small enough that one added barrier moves the gated
/// `work_fleet_barriers` row past the diff gate's threshold.
fn fleet_barriers(sink: &mut JsonSink) {
    let spec = GpuSpec::a100();
    let duration = SimSpan::from_secs(4);
    let trace = ArrivalTrace::generate(&TraceGen::churn(duration, 1.0, 2));
    let report = Cluster::new()
        .devices(4, spec.clone())
        .trace(trace.session_events(&spec, duration))
        .expect("generated traces are valid")
        .migrate_on_detach(true)
        .threads(1)
        .config(HarnessConfig {
            duration,
            warmup: SimSpan::ZERO,
            seed: 1,
            jitter: 0.0,
            record_timelines: false,
        })
        .run();
    println!(
        "{:<44} {:>16}",
        "fleet: barriers, 4s 4-device churn", report.host.barriers
    );
    sink.record("work_fleet_barriers", report.host.barriers as f64, &[]);
}

/// Buffers a session's full observation stream for replay.
#[derive(Debug, Default)]
struct EventTape(Vec<(SimTime, usize, Observation)>);

impl SessionObserver for EventTape {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        self.0.push((at, device, event.clone()));
    }
}

/// MetricsHub ingest cost: record a deterministic event stream once (a
/// 1s co-location under an SLO guard, so completions, sheds and kernel
/// events all appear), then time replaying it into a fresh hub. Reported
/// as an ungated `host_hub_events_per_s` row so observer overhead shows
/// up in the trajectory; the tape's length is the gated
/// `work_observations_delivered` row.
fn metrics_hub_overhead(sink: &mut JsonSink) {
    banner("MetricsHub ingest (events/sec)");
    let spec = GpuSpec::a100();
    let k = KernelDesc::builder("req")
        .grid(432)
        .block(256)
        .block_cost(SimSpan::from_micros(50))
        .build_arc();
    let hp = JobSpec::inference(
        "hp",
        vec![WorkloadOp::Kernel(k.clone()); 4],
        (0..500).map(|i| SimTime::from_millis(2 * i)).collect(),
    );
    let be = JobSpec::inference(
        "be",
        vec![WorkloadOp::Kernel(k); 4],
        (0..1000).map(SimTime::from_millis).collect(),
    )
    .with_priority(Priority::BestEffort);
    let tape = std::sync::Arc::new(std::sync::Mutex::new(EventTape::default()));
    Colocation::on(spec)
        .client(hp)
        .client(be)
        .system(&mut TallySystem::new(TallyConfig::paper_default()))
        .config(HarnessConfig {
            duration: SimSpan::from_secs(1),
            warmup: SimSpan::from_millis(100),
            seed: 3,
            jitter: 0.0,
            record_timelines: false,
        })
        .admission(Box::new(
            tally_core::admission::SloGuard::new(SimSpan::from_millis(30))
                .window(SimSpan::from_millis(100))
                .qps_range(2.0, 2000.0),
        ))
        .sync_observer(tape.clone())
        .run();
    let tape = std::sync::Arc::try_unwrap(tape)
        .expect("sole owner after run")
        .into_inner()
        .expect("tape");
    let events = tape.0.len() as u64;
    assert!(events > 1000, "tape too small to time ({events} events)");
    // The tape's length is the session's delivery count: a gated work row,
    // kept out of the timed case's name so that row survives a change in
    // what the session delivers.
    sink.record("work_observations_delivered", events as f64, &[]);
    let ns_per_replay = bench(
        sink,
        "telemetry: MetricsHub ingest of the 1 s tape",
        100,
        || {
            let mut hub = MetricsHub::new();
            for (at, device, ev) in &tape.0 {
                hub.on_event(*at, *device, ev);
            }
            assert_eq!(hub.events(), events);
            hub
        },
    );
    let per_sec = events as f64 / (ns_per_replay as f64 / 1e9);
    println!("    hub ingest rate: {:.1}M events/s", per_sec / 1e6);
    sink.record("host_hub_events_per_s", per_sec, &[]);
}

fn main() {
    let mut sink = JsonSink::from_args("micro");
    // The pinned worker-thread count (if any), as trajectory metadata.
    sink.record(
        "host_threads",
        bench_threads().map_or(-1.0, |n| n as f64),
        &[],
    );
    banner("Micro-benchmarks (best-of-3 batches)");
    engine_throughput(&mut sink);
    engine_launch_storage(&mut sink);
    session_work(&mut sink);
    transformation_passes(&mut sink);
    interpreter(&mut sink);
    scheduler_colocation(&mut sink);
    fleet_thread_sweep(&mut sink);
    fleet_barriers(&mut sink);
    metrics_hub_overhead(&mut sink);
    sink.finish();
}
