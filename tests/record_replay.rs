//! Capture→replay integration tests: a [`TraceRecorder`] observing a live
//! run captures an [`ArrivalTrace`] whose replay reproduces the original
//! reports byte-identically — on a single GPU under every Figure-5 sharing
//! system, and across a whole fleet through the full serialize → parse →
//! replay cycle (the ISSUE's acceptance path).

use std::sync::{Arc, Mutex};

use tally::prelude::*;
use tally_bench::{is_tally_variant, make_system, FIG5_SYSTEMS};
use tally_workloads::trace::TraceRecorder;

const DURATION: SimSpan = SimSpan::from_secs(4);

fn cfg() -> HarnessConfig {
    HarnessConfig {
        duration: DURATION,
        warmup: SimSpan::ZERO,
        seed: 9,
        jitter: 0.0,
        record_timelines: false,
    }
}

/// A seeded churn workload: trainers and services arriving, departing,
/// and re-attaching over the run.
fn churn_trace() -> ArrivalTrace {
    ArrivalTrace::generate(&TraceGen::churn(DURATION, 1.2, 23))
}

fn run_session(
    spec: &GpuSpec,
    trace: &ArrivalTrace,
    system: &str,
    recorder: Option<Arc<Mutex<TraceRecorder>>>,
) -> RunReport {
    let mut session = Colocation::on(spec.clone())
        .trace(trace.session_events(spec, DURATION))
        .expect("valid trace")
        .system_boxed(make_system(system))
        .config(cfg());
    if is_tally_variant(system) {
        session = session.transport(Transport::SharedMemory);
    }
    if let Some(rec) = recorder {
        session = session.sync_observer(rec);
    }
    session.run()
}

#[test]
fn recorded_session_replays_byte_identically_under_all_five_systems() {
    let spec = GpuSpec::a100();
    let source = churn_trace();
    for name in FIG5_SYSTEMS {
        let recorder = TraceRecorder::shared_sync();
        let live = run_session(&spec, &source, name, Some(recorder.clone()));
        let captured = recorder
            .lock()
            .expect("recorder")
            .trace()
            .expect("recordable run");
        let replay = run_session(&spec, &captured, name, None);
        assert_eq!(
            format!("{live:?}"),
            format!("{replay:?}"),
            "{name}: replaying the recorded trace diverged from the live run"
        );
    }
}

#[test]
fn recording_does_not_perturb_the_run() {
    let spec = GpuSpec::a100();
    let source = churn_trace();
    let silent = run_session(&spec, &source, "tally", None);
    let observed = run_session(&spec, &source, "tally", Some(TraceRecorder::shared_sync()));
    assert_eq!(format!("{silent:?}"), format!("{observed:?}"));
}

/// The acceptance path: record a live `Cluster` run, serialize the capture
/// with `to_text`, parse it back, replay through `Cluster::trace`, and
/// compare whole fleet reports byte for byte.
#[test]
fn recorded_cluster_run_round_trips_through_text_byte_identically() {
    let spec = GpuSpec::a100();
    let source = churn_trace();
    let run = |trace: &ArrivalTrace, recorder: Option<Arc<Mutex<TraceRecorder>>>| {
        let mut cluster = Cluster::new()
            .devices(2, spec.clone())
            .policy(LeastLoaded)
            .rebalance_every(SimSpan::from_millis(500))
            .trace(trace.session_events(&spec, DURATION))
            .expect("valid trace")
            .config(cfg());
        if let Some(rec) = recorder {
            cluster = cluster.sync_observer(rec);
        }
        cluster.run()
    };
    let recorder = TraceRecorder::shared_sync();
    let live = run(&source, Some(recorder.clone()));
    let captured = recorder
        .lock()
        .expect("recorder")
        .trace()
        .expect("recordable run");

    // The capture survives the plain-text format byte-identically…
    let text = captured.to_text();
    let reloaded = ArrivalTrace::parse(&text).expect("canonical text parses");
    assert_eq!(reloaded, captured);
    assert_eq!(reloaded.to_text(), text, "canonical text is a fixed point");

    // …and replaying it reproduces the whole fleet report, including the
    // migrations the rebalance pass performed during the live run.
    let replay = run(&reloaded, None);
    assert_eq!(
        format!("{live:?}"),
        format!("{replay:?}"),
        "fleet replay diverged from the recorded live run"
    );
    assert_eq!(live.clients.len(), source.keys().count());
}

#[test]
fn recorder_reports_hand_built_jobs_as_a_typed_error() {
    let recorder = TraceRecorder::shared_sync();
    let k = KernelDesc::builder("step")
        .grid(64)
        .block(128)
        .block_cost(SimSpan::from_micros(500))
        .build_arc();
    Colocation::on(GpuSpec::tiny())
        .client(JobSpec::training("hand-built", vec![WorkloadOp::Kernel(k)]))
        .sync_observer(recorder.clone())
        .config(HarnessConfig {
            duration: SimSpan::from_millis(50),
            warmup: SimSpan::ZERO,
            ..Default::default()
        })
        .run();
    let err = recorder
        .lock()
        .expect("recorder")
        .trace()
        .expect_err("hand-built jobs carry no descriptor");
    assert!(err.message.contains("hand-built"), "{err}");
    assert!(err.message.contains("descriptor"), "{err}");
}

#[test]
fn recorded_trace_preserves_reattach_windows() {
    // A client that leaves and comes back must be captured as two
    // arrive/depart pairs at the exact original instants.
    let spec = GpuSpec::a100();
    let mut source = ArrivalTrace::new();
    source.arrive(
        SimTime::ZERO,
        "gpt2",
        TraceJob::Train(TrainModel::Gpt2Large),
    );
    source.depart(SimTime::from_millis(900), "gpt2");
    source.arrive(
        SimTime::from_millis(1600),
        "gpt2",
        TraceJob::Train(TrainModel::Gpt2Large),
    );
    source.depart(SimTime::from_millis(3100), "gpt2");
    let recorder = TraceRecorder::shared_sync();
    let live = run_session(&spec, &source, "mps", Some(recorder.clone()));
    assert_eq!(live.clients[0].attachments, 2);
    let captured = recorder
        .lock()
        .expect("recorder")
        .trace()
        .expect("recordable run");
    assert_eq!(
        captured, source,
        "capture reproduces the source trace exactly"
    );
}
