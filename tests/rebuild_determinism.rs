//! Building the same workload twice in one process gives the same run: an
//! equal report and, byte for byte, the same rendered observer stream.
//!
//! A kernel is its allocation, and nothing process-global numbers it, so
//! a run cannot depend on what was built before it. Every run here builds
//! its jobs afresh; the streams render each dispatched kernel in full.

use std::sync::{Arc, Mutex};

use tally::prelude::*;

/// Records every observation as one line of text.
#[derive(Default)]
struct Lines(Vec<String>);

impl SessionObserver for Lines {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        self.0.push(format!("{at:?} {device} {event:?}"));
    }
}

fn cfg(duration: SimSpan) -> HarnessConfig {
    HarnessConfig {
        duration,
        warmup: SimSpan::from_millis(100),
        seed: 5,
        jitter: 0.02,
        record_timelines: false,
    }
}

fn tally() -> Box<dyn SharingSystem> {
    Box::new(TallySystem::new(TallyConfig::paper_default()))
}

/// A BERT service (MAF2 arrivals at 50% load) beside a Whisper trainer,
/// under Tally behind shared-memory stubs, with jobs built by this call.
fn tally_pairing() -> (String, Vec<String>) {
    let spec = GpuSpec::a100();
    let c = cfg(SimSpan::from_millis(600));
    let trace = arrivals(&Maf2Config::new(
        0.5,
        InferModel::Bert.paper_latency(),
        c.duration,
    ));
    let jobs = [
        InferModel::Bert.job(&spec, trace),
        TrainModel::WhisperV3.job(&spec),
    ];
    let lines = Arc::new(Mutex::new(Lines::default()));
    let report = Colocation::on(spec)
        .clients(jobs)
        .system_boxed(tally())
        .transport(Transport::SharedMemory)
        .config(c)
        .sync_observer(lines.clone())
        .run();
    let stream = std::mem::take(&mut lines.lock().expect("observer").0);
    (format!("{report:?}"), stream)
}

/// A two-device Tally fleet fed by a generated churn trace of Whisper
/// trainers and BERT services, with jobs resolved by this call.
fn churn_cluster() -> (String, Vec<String>) {
    let spec = GpuSpec::a100();
    let c = cfg(SimSpan::from_secs(1));
    let gen = TraceGen {
        duration: c.duration,
        seed: 17,
        rate: 20.0,
        burstiness: 0.3,
        window: SimSpan::from_millis(250),
        mix: vec![
            TraceMix {
                job: TraceJob::Train(TrainModel::WhisperV3),
                weight: 0.6,
                mean_service: SimSpan::from_millis(150),
                rearrive: 0.2,
                mean_gap: SimSpan::from_millis(300),
            },
            TraceMix {
                job: TraceJob::Infer {
                    model: InferModel::Bert,
                    load: 0.3,
                    seed: 3,
                },
                weight: 0.4,
                mean_service: SimSpan::from_millis(200),
                rearrive: 0.1,
                mean_gap: SimSpan::from_millis(300),
            },
        ],
    };
    let events = ArrivalTrace::generate(&gen).session_events(&spec, c.duration);
    let lines = Arc::new(Mutex::new(Lines::default()));
    let report = Cluster::new()
        .devices(2, spec)
        .trace(events)
        .expect("valid trace")
        .systems_with(|_| tally())
        .rebalance_every(SimSpan::from_millis(100))
        .sync_observer(lines.clone())
        .config(c)
        .run();
    let stream = std::mem::take(&mut lines.lock().expect("observer").0);
    (format!("{report:?}"), stream)
}

/// The first line at which two streams differ, for a readable failure.
fn first_difference(a: &[String], b: &[String]) -> Option<(usize, String, String)> {
    let missing = || "<end of stream>".to_string();
    (0..a.len().max(b.len())).find_map(|i| {
        let (x, y) = (a.get(i), b.get(i));
        (x != y).then(|| {
            (
                i,
                x.cloned().unwrap_or_else(missing),
                y.cloned().unwrap_or_else(missing),
            )
        })
    })
}

fn assert_rebuild_changes_nothing(run: fn() -> (String, Vec<String>), what: &str) {
    let (report, stream) = run();
    assert!(
        stream.iter().any(|l| l.contains("KernelDispatched")),
        "{what}: the stream must render dispatched kernels"
    );
    let (again, again_stream) = run();
    if let Some((i, first, second)) = first_difference(&stream, &again_stream) {
        panic!(
            "{what}: rebuilt stream differs at line {i}:\n  first:  {first}\n  second: {second}"
        );
    }
    assert_eq!(report, again, "{what}: rebuilt report differs");
}

#[test]
fn a_rebuilt_tally_pairing_renders_the_same_stream() {
    assert_rebuild_changes_nothing(tally_pairing, "BERT + Whisper under Tally");
}

#[test]
fn a_rebuilt_churn_cluster_renders_the_same_stream() {
    assert_rebuild_changes_nothing(churn_cluster, "churn cluster");
}
