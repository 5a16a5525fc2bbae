//! **Section 5.7**: Tally's own overheads.
//!
//! Three analyses, as in the paper:
//! * virtualization — workloads run solo through Tally's interception and
//!   forwarding layer vs natively (paper: ~1% average); the cost comes
//!   from the per-client `ClientStub` wired into the session, not a
//!   hand-set constant;
//! * kernel transformation — per-kernel latency of the PTB (preemptive)
//!   form vs the original across 10,000 best-effort kernel launches
//!   (paper: ~25% average, best-effort kernels only);
//! * transparent profiling — measurements are taken once per (kernel,
//!   grid) configuration and reused forever, so the profiling phase is a
//!   fixed, minutes-scale cost (paper: "completes within minutes"); the
//!   `profiling_launches` and `profile_ramp_end_s` rows show how many
//!   launches the ramp took and when it ended.
//!
//! Pass `--json PATH` to record the measurements machine-readably.

use tally_bench::{banner, JsonSink};
use tally_core::api::{ApiCall, ClientStub, Transport};
use tally_core::harness::{run_solo, Colocation, HarnessConfig, JobKind, WorkloadOp};
use tally_core::scheduler::{TallyConfig, TallySystem};
use tally_gpu::{
    ClientId, Engine, GpuSpec, LaunchRequest, LaunchShape, Priority, SimSpan, SimTime, Step,
};
use tally_workloads::maf2::poisson_arrivals;
use tally_workloads::{InferModel, TrainModel};

fn main() {
    let mut sink = JsonSink::from_args("sec57_overheads");
    let spec = GpuSpec::a100();
    virtualization_overhead(&spec, &mut sink);
    transformation_overhead(&spec, &mut sink);
    profiling_overhead(&spec, &mut sink);
    interception_breakdown(&mut sink);
    sink.finish();
}

/// Run each workload solo, natively vs behind the session-wired
/// interception stub (virtualization only — Tally's scheduling and
/// transformation costs are measured separately below, as the paper does),
/// and compare throughput / latency.
fn virtualization_overhead(spec: &GpuSpec, sink: &mut JsonSink) {
    banner("§5.7 virtualization overhead (solo, native vs through the interception layer)");
    println!(
        "{:<20} {:>12} {:>12} {:>9} {:>8}",
        "workload", "native", "virtualized", "overhead", "local%"
    );
    let mut sum = 0.0;
    let mut n = 0u32;
    for m in TrainModel::ALL {
        let secs = (15.0 / m.paper_throughput()).clamp(4.0, 30.0);
        let cfg = HarnessConfig {
            duration: SimSpan::from_secs_f64(secs),
            warmup: SimSpan::from_secs_f64(secs * 0.1),
            seed: 1,
            jitter: 0.0,
            record_timelines: false,
        };
        let native = run_solo(spec, &m.job(spec), &cfg);
        // Behind the stub, every logical launch pays the interception
        // call-sequence cost: one shared-memory round trip plus the cached
        // context reads.
        let virt = Colocation::on(spec.clone())
            .client(m.job(spec))
            .config(cfg)
            .transport(Transport::SharedMemory)
            .run();
        let client = &virt.clients[0];
        let overhead = native.throughput / client.throughput.max(1e-9) - 1.0;
        let local = client.intercept.local_fraction();
        assert!(
            local >= 0.9,
            "{}: steady-state client must answer >=90% of API calls locally, got {:.3}",
            m.name(),
            local
        );
        sum += overhead;
        n += 1;
        println!(
            "{:<20} {:>9.2}it/s {:>9.2}it/s {:>8.1}% {:>7.1}%",
            m.name(),
            native.throughput,
            client.throughput,
            overhead * 100.0,
            local * 100.0
        );
        sink.record(
            "virtualization_overhead",
            overhead,
            &[("workload", m.name()), ("kind", "training")],
        );
        sink.record("local_fraction", local, &[("workload", m.name())]);
    }
    // Inference side: the same comparison on request latency. Requests are
    // widely spaced so the measurement isolates the layer's cost — tail
    // amplification under load belongs to the co-location experiments.
    for m in [InferModel::ResNet50, InferModel::Bert] {
        let period = m.paper_latency() * 4;
        let n_req = 60u64;
        let cfg = HarnessConfig {
            duration: period * (n_req + 2),
            warmup: SimSpan::ZERO,
            seed: 1,
            jitter: 0.0,
            record_timelines: false,
        };
        let trace: Vec<SimTime> = (0..n_req).map(|i| SimTime::ZERO + period * i).collect();
        let job = m.job(spec, trace);
        let native = run_solo(spec, &job, &cfg);
        let virt = Colocation::on(spec.clone())
            .client(job)
            .config(cfg)
            .transport(Transport::SharedMemory)
            .run();
        let client = &virt.clients[0];
        let np50 = native.latency.p50().expect("latencies");
        let tp50 = client.latency.p50().expect("latencies");
        let overhead = tp50.ratio(np50) - 1.0;
        let local = client.intercept.local_fraction();
        assert!(local >= 0.9, "{}: local fraction {:.3}", m.name(), local);
        sum += overhead;
        n += 1;
        println!(
            "{:<20} {:>11?} {:>11?} {:>8.1}% {:>7.1}%",
            m.name(),
            np50,
            tp50,
            overhead * 100.0,
            local * 100.0
        );
        sink.record(
            "virtualization_overhead",
            overhead,
            &[("workload", m.name()), ("kind", "inference")],
        );
        sink.record("local_fraction", local, &[("workload", m.name())]);
    }
    let avg = sum / n as f64;
    println!("average: {:.1}%   [paper: ~1%]", avg * 100.0);
    assert!(
        avg.abs() < 0.05,
        "virtualization overhead should be ~1%, got {:.1}%",
        avg * 100.0
    );
    sink.record("virtualization_overhead_avg", avg, &[]);
}

/// Compare original vs PTB-transformed execution latency per kernel over
/// 10,000 launches drawn from the best-effort suite.
fn transformation_overhead(spec: &GpuSpec, sink: &mut JsonSink) {
    banner("§5.7 kernel transformation overhead (PTB form vs original, 10K kernels)");
    let mut kernels = Vec::new();
    for m in TrainModel::ALL {
        let JobKind::Training { iteration } = m.job(spec).kind else {
            unreachable!()
        };
        for op in iteration {
            if let WorkloadOp::Kernel(k) = op {
                kernels.push(k);
            }
        }
    }
    let mut measured = 0u64;
    let mut ratio_sum = 0.0;
    for k in kernels.iter().cycle().take(10_000) {
        let orig = run_once(spec, LaunchRequest::full(k, ClientId(0), Priority::High));
        let workers = spec.wave_capacity(k.threads_per_block(), k.smem_bytes) as u32;
        let ptb = run_once(
            spec,
            LaunchRequest {
                kernel: k,
                shape: LaunchShape::Ptb {
                    workers: workers.min(k.grid.count() as u32),
                    offset: 0,
                    overhead_ppm: 250,
                },
                client: ClientId(0),
                priority: Priority::High,
            },
        );
        ratio_sum += ptb.ratio(orig) - 1.0;
        measured += 1;
    }
    let avg = ratio_sum / measured as f64;
    println!(
        "kernels measured: {measured}; average PTB overhead: {:.1}%   [paper: ~25%]",
        avg * 100.0
    );
    println!("(applies to best-effort kernels only; high-priority kernels run untransformed)");
    sink.record("ptb_overhead_avg", avg, &[]);
}

fn run_once(spec: &GpuSpec, req: LaunchRequest<'_>) -> SimSpan {
    let mut engine = Engine::new(spec.clone());
    engine.submit(req);
    let mut notes = Vec::new();
    match engine.advance(SimTime::MAX, &mut notes) {
        Step::Notified => notes[0].at().saturating_since(SimTime::ZERO),
        other => panic!("expected completion, got {other:?}"),
    }
}

/// Show that profiling converges and its measurements get reused.
fn profiling_overhead(spec: &GpuSpec, sink: &mut JsonSink) {
    banner("§5.7 transparent profiling (convergence and reuse)");
    let cfg = HarnessConfig {
        duration: SimSpan::from_secs(12),
        warmup: SimSpan::from_secs(2),
        seed: 1,
        jitter: 0.0,
        record_timelines: false,
    };
    let trace = poisson_arrivals(0.3, InferModel::Bert.paper_latency(), cfg.duration, 3);
    let mut tally = TallySystem::new(TallyConfig::paper_default());
    Colocation::on(spec.clone())
        .client(InferModel::Bert.job(spec, trace))
        .client(TrainModel::Gpt2Large.job(spec))
        .system(&mut tally)
        .config(cfg)
        .transport(Transport::SharedMemory)
        .run();
    let p = tally.profiler_stats();
    let t = tally.transform_stats();
    println!(
        "distinct kernels profiled                       : {}",
        p.profiles
    );
    println!(
        "measurements taken                              : {}",
        p.measurements
    );
    println!(
        "launches answered from the profile cache        : {}",
        p.cache_hits
    );
    println!(
        "kernels transformed once / reused               : {} / {}",
        t.transformed, t.cache_hits
    );
    let hit_ratio = p.cache_hits as f64 / (p.cache_hits + p.measurements).max(1) as f64;
    println!(
        "cache-hit ratio: {:.1}% — profiling is a one-time, start-of-job cost",
        hit_ratio * 100.0
    );
    // The ramp: launches that ran a not-yet-measured candidate, and the
    // simulated instant of the last one (0 when nothing was profiled).
    let ramp_end = p.last_profiling_launch.map_or(0.0, SimTime::as_secs_f64);
    println!(
        "profiling launches / ramp ends at               : {} / {:.3} s",
        p.profiling_launches, ramp_end
    );
    sink.record("profile_cache_hit_ratio", hit_ratio, &[]);
    sink.record("profile_measurements", p.measurements as f64, &[]);
    sink.record("profiling_launches", p.profiling_launches as f64, &[]);
    sink.record("profile_ramp_end_s", ramp_end, &[]);
}

/// The API-interception layer itself: shared-memory forwarding plus
/// local-state caching (§4.3's two optimizations).
fn interception_breakdown(sink: &mut JsonSink) {
    banner("§4.3 API interception: transport and local-state caching");
    let workload: Vec<ApiCall> = {
        // A representative client call mix: one device query burst at
        // startup, then launches interleaved with context reads.
        let mut calls = vec![ApiCall::RegisterFatbin, ApiCall::GetDeviceProperties];
        for _ in 0..1000 {
            calls.push(ApiCall::GetDevice);
            calls.push(ApiCall::LaunchKernel);
            calls.push(ApiCall::GetLastError);
        }
        calls
    };
    for (label, tag, mut stub) in [
        (
            "socket, no caching",
            "socket",
            ClientStub::without_caching(Transport::Socket),
        ),
        (
            "shared-mem, no caching",
            "shm",
            ClientStub::without_caching(Transport::SharedMemory),
        ),
        (
            "shared-mem + caching (Tally)",
            "shm-cached",
            ClientStub::new(Transport::SharedMemory),
        ),
    ] {
        for call in &workload {
            stub.call(call);
        }
        let s = stub.stats();
        println!(
            "{:<30} total {:>10} forwarded {:>5} local {:>5} ({:.0}% local)",
            label,
            format!("{}", s.total_cost),
            s.forwarded,
            s.served_locally,
            s.local_fraction() * 100.0
        );
        sink.record(
            "intercept_total_cost_us",
            s.total_cost.as_micros_f64(),
            &[("stub", tag)],
        );
    }
}
