//! Parallel-advancement determinism suite: a [`Cluster`] report — and the
//! full fleet-wide observer stream behind it — must be byte-identical for
//! every worker-thread count, on every placement policy, for both a
//! statically placed mix and a churny arrival-driven trace.
//!
//! The barrier loop (see `tally_core::cluster` module docs) buys this by
//! construction: threads only parallelize the *within-barrier* device
//! advancement, and every cross-device effect is applied in device-index
//! order on the driving thread. These tests are the contract's teeth.

use std::sync::{Arc, Mutex};

use tally::prelude::*;
use tally::workloads::mixes;

/// Captures every fleet observation as a rendered line, preserving
/// delivery order — the strictest cheap fingerprint of the event stream.
#[derive(Default)]
struct Collector(Vec<String>);

impl SessionObserver for Collector {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        self.0.push(format!("{at} d{device} {event:?}"));
    }
}

fn cfg(secs: u64) -> HarnessConfig {
    HarnessConfig {
        duration: SimSpan::from_secs(secs),
        warmup: SimSpan::from_millis(200),
        seed: 11,
        jitter: 0.0,
        record_timelines: false,
    }
}

const POLICIES: [&str; 3] = ["round-robin", "least-loaded", "load-aware"];

fn with_policy(cluster: Cluster, policy: &str) -> Cluster {
    match policy {
        "round-robin" => cluster.policy(RoundRobin::default()),
        "least-loaded" => cluster.policy(LeastLoaded),
        "load-aware" => cluster.policy(LoadAware::default()),
        other => panic!("unknown policy {other}"),
    }
}

/// Report debug string + full observer stream for the phase-shifted mix.
fn run_phase_shifted(policy: &str, threads: usize) -> (String, Vec<String>) {
    let spec = GpuSpec::a100();
    let c = cfg(4);
    let events = Arc::new(Mutex::new(Collector::default()));
    let jobs = mixes::phase_shifted(&spec, SimSpan::from_millis(500), c.duration, 0.5);
    let report = with_policy(
        Cluster::new()
            .devices(2, spec)
            .clients(jobs)
            .rebalance_every(SimSpan::from_millis(250))
            .sync_observer(events.clone())
            .threads(threads)
            .config(c),
        policy,
    )
    .run();
    let stream = events.lock().expect("collector").0.clone();
    (format!("{report:?}"), stream)
}

/// Report debug string + observer stream for a generated churn trace with
/// 200+ distinct clients arriving mid-run. Short stays and light models
/// keep the *resident* population modest while every client still runs
/// through the attach → work → depart lifecycle.
fn run_churn_trace(policy: &str, threads: usize) -> (String, Vec<String>) {
    let spec = GpuSpec::a100();
    let c = cfg(4);
    let gen = TraceGen {
        duration: c.duration,
        seed: 23,
        rate: 60.0,
        burstiness: 0.3,
        window: SimSpan::from_millis(500),
        mix: vec![
            TraceMix {
                job: TraceJob::Train(TrainModel::WhisperV3),
                weight: 0.7,
                mean_service: SimSpan::from_millis(120),
                rearrive: 0.2,
                mean_gap: SimSpan::from_secs(1),
            },
            TraceMix {
                job: TraceJob::Infer {
                    model: InferModel::Bert,
                    load: 0.2,
                    seed: 29,
                },
                weight: 0.3,
                mean_service: SimSpan::from_millis(150),
                rearrive: 0.1,
                mean_gap: SimSpan::from_secs(1),
            },
        ],
    };
    let trace = ArrivalTrace::generate(&gen);
    assert!(
        trace.keys().count() >= 200,
        "scenario needs a 200-client trace, got {}",
        trace.keys().count()
    );
    let events = Arc::new(Mutex::new(Collector::default()));
    let report = with_policy(
        Cluster::new()
            .devices(4, spec.clone())
            .trace(trace.session_events(&spec, c.duration))
            .expect("valid trace")
            .sync_observer(events.clone())
            .threads(threads)
            .config(c),
        policy,
    )
    .run();
    let stream = events.lock().expect("collector").0.clone();
    (format!("{report:?}"), stream)
}

/// Report debug string + observer stream + fleet shed count for an
/// open-loop flash-crowd mix under [`SloGuard`] admission: two
/// high-priority BERT services near capacity, two best-effort services
/// taking a 5x flash crowd, round-robin across two devices so every
/// device runs one of each. Admission verdicts (and the `RequestShed`
/// events they emit) are driven by the shared [`LoadMonitor`], whose
/// state must itself be thread-count-invariant for this to hold.
fn run_flash_crowd(threads: usize) -> (String, Vec<String>, u64) {
    let spec = GpuSpec::a100();
    let c = cfg(4);
    let cap = openloop::solo_capacity_qps(InferModel::Bert);
    let mut jobs = Vec::new();
    for (i, seed) in [31u64, 37].into_iter().enumerate() {
        jobs.push(
            openloop::service(
                &spec,
                InferModel::Bert,
                &LoadProfile::Constant { qps: 0.7 * cap },
                c.duration,
                seed,
            )
            .with_client_key(format!("hp-{i}")),
        );
    }
    for (i, seed) in [41u64, 43].into_iter().enumerate() {
        jobs.push(
            openloop::service(
                &spec,
                InferModel::Bert,
                &LoadProfile::FlashCrowd {
                    base_qps: 0.2 * cap,
                    mult: 5.0,
                    at: SimSpan::from_millis(1000),
                    len: SimSpan::from_millis(1500),
                },
                c.duration,
                seed,
            )
            .with_priority(Priority::BestEffort)
            .with_client_key(format!("be-{i}")),
        );
    }
    let events = Arc::new(Mutex::new(Collector::default()));
    let report = Cluster::new()
        .devices(2, spec)
        .clients(jobs)
        .rebalance_every(SimSpan::from_millis(250))
        .policy(RoundRobin::default())
        .admission_with(|_| {
            Box::new(
                SloGuard::new(SimSpan::from_millis(20))
                    .window(SimSpan::from_millis(100))
                    .qps_range(2.0, 2000.0),
            )
        })
        .sync_observer(events.clone())
        .threads(threads)
        .config(c)
        .run();
    let stream = events.lock().expect("collector").0.clone();
    let shed = report.shed();
    (format!("{report:?}"), stream, shed)
}

#[test]
fn flash_crowd_admission_is_identical_for_any_thread_count() {
    let (baseline, baseline_events, baseline_shed) = run_flash_crowd(1);
    assert!(
        baseline_shed > 0,
        "scenario must exercise shedding for the determinism claim to bite"
    );
    assert!(
        baseline_events.iter().any(|l| l.contains("RequestShed")),
        "shed verdicts must surface in the observer stream"
    );
    for threads in [2usize, 4] {
        let (report, events, _) = run_flash_crowd(threads);
        assert_eq!(
            baseline, report,
            "flash-crowd report diverged between threads=1 and threads={threads}"
        );
        assert_eq!(
            baseline_events, events,
            "flash-crowd observer stream diverged between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn phase_shifted_reports_are_identical_for_any_thread_count() {
    for policy in POLICIES {
        let (baseline, baseline_events) = run_phase_shifted(policy, 1);
        for threads in [2usize, 4] {
            let (report, events) = run_phase_shifted(policy, threads);
            assert_eq!(
                baseline, report,
                "{policy}: report diverged between threads=1 and threads={threads}"
            );
            assert_eq!(
                baseline_events, events,
                "{policy}: observer stream diverged between threads=1 and threads={threads}"
            );
        }
    }
}

/// Telemetry exports for the phase-shifted mix, with the telemetry
/// observers as the only observers.
fn run_phase_shifted_telemetry(threads: usize) -> (String, String) {
    let spec = GpuSpec::a100();
    let c = cfg(4);
    let jobs = mixes::phase_shifted(&spec, SimSpan::from_millis(500), c.duration, 0.5);
    let timeline = Timeline::shared_sync(SimSpan::from_millis(250), c.duration);
    let trace = ChromeTraceWriter::shared_sync();
    Cluster::new()
        .devices(2, spec)
        .clients(jobs)
        .rebalance_every(SimSpan::from_millis(250))
        .policy(LoadAware::default())
        .sync_observer(timeline.clone())
        .sync_observer(trace.clone())
        .threads(threads)
        .config(c)
        .run();
    let trace_json = trace.lock().expect("trace").to_json();
    let timeline_json = timeline.lock().expect("timeline").to_json();
    (trace_json, timeline_json)
}

#[test]
#[allow(clippy::disallowed_types)] // span-pairing scratch maps, keyed access only
fn chrome_trace_export_is_byte_identical_and_well_formed() {
    use std::collections::HashMap;
    use tally_bench::diff::{parse_json, Json};

    let (base_trace, base_timeline) = run_phase_shifted_telemetry(1);
    for threads in [2usize, 4] {
        let (trace, timeline) = run_phase_shifted_telemetry(threads);
        assert_eq!(
            base_trace, trace,
            "Chrome trace diverged between threads=1 and threads={threads}"
        );
        assert_eq!(
            base_timeline, timeline,
            "timeline export diverged between threads=1 and threads={threads}"
        );
    }

    // Well-formed JSON by the bench reader's rules.
    let doc = parse_json(&base_trace).expect("Chrome trace must parse as JSON");
    parse_json(&base_timeline).expect("timeline must parse as JSON");
    let Json::Obj(root) = &doc else {
        panic!("trace root must be an object");
    };
    let Some(Json::Arr(events)) = root.get("traceEvents") else {
        panic!("trace must carry a traceEvents array");
    };

    // Every duration event properly paired per (pid, tid) with a
    // non-negative duration; every async request span matched by id.
    let field = |e: &std::collections::BTreeMap<String, Json>, k: &str| -> f64 {
        match e.get(k) {
            Some(Json::Num(v)) => *v,
            other => panic!("event field {k} must be a number, got {other:?}"),
        }
    };
    let mut kernel_stacks: HashMap<(u64, u64), Vec<f64>> = HashMap::new();
    let mut open_requests: HashMap<String, f64> = HashMap::new();
    let (mut kernels, mut requests) = (0u64, 0u64);
    for ev in events {
        let Json::Obj(e) = ev else {
            panic!("trace event must be an object");
        };
        let Some(Json::Str(ph)) = e.get("ph") else {
            panic!("trace event must carry ph");
        };
        match ph.as_str() {
            "B" => {
                kernels += 1;
                let key = (field(e, "pid") as u64, field(e, "tid") as u64);
                kernel_stacks.entry(key).or_default().push(field(e, "ts"));
            }
            "E" => {
                let key = (field(e, "pid") as u64, field(e, "tid") as u64);
                let begin = kernel_stacks
                    .get_mut(&key)
                    .and_then(Vec::pop)
                    .unwrap_or_else(|| panic!("E without matching B on {key:?}"));
                assert!(
                    field(e, "ts") >= begin,
                    "negative kernel duration on {key:?}"
                );
            }
            "b" => {
                requests += 1;
                let Some(Json::Str(id)) = e.get("id") else {
                    panic!("async begin must carry an id");
                };
                let prev = open_requests.insert(id.clone(), field(e, "ts"));
                assert!(prev.is_none(), "duplicate async span id {id}");
            }
            "e" => {
                let Some(Json::Str(id)) = e.get("id") else {
                    panic!("async end must carry an id");
                };
                let begin = open_requests
                    .remove(id)
                    .unwrap_or_else(|| panic!("async end without begin for {id}"));
                assert!(field(e, "ts") >= begin, "negative request duration {id}");
            }
            "M" | "i" => {}
            other => panic!("unexpected trace phase {other:?}"),
        }
    }
    for (key, stack) in &kernel_stacks {
        assert!(stack.is_empty(), "unclosed kernel span(s) on {key:?}");
    }
    assert!(open_requests.is_empty(), "unclosed async request span(s)");
    assert!(kernels > 0, "scenario must render kernel spans");
    assert!(requests > 0, "scenario must render request spans");
}

/// The phase-shifted mix over a real interconnect: the Whisper trainers
/// carry ~24 GB of optimizer state, so every shuttle over the NVLink
/// topology is charged an ~80 ms transfer stall. Report, observer stream,
/// and Chrome trace (with its `migrate-stall` async spans) must stay
/// byte-identical for every worker-thread count.
fn run_stalled_migration(threads: usize) -> (String, Vec<String>, String, SimSpan) {
    let spec = GpuSpec::a100();
    let c = cfg(4);
    let events = Arc::new(Mutex::new(Collector::default()));
    let trace = ChromeTraceWriter::shared_sync();
    let jobs = mixes::phase_shifted(&spec, SimSpan::from_millis(500), c.duration, 0.5);
    let report = Cluster::new()
        .devices(2, spec)
        .topology(Topology::new(2).link(0, 1, Link::nvlink()))
        .clients(jobs)
        .rebalance_every(SimSpan::from_millis(250))
        .policy(LoadAware::default())
        .sync_observer(events.clone())
        .sync_observer(trace.clone())
        .threads(threads)
        .config(c)
        .run();
    let stream = events.lock().expect("collector").0.clone();
    let trace_json = trace.lock().expect("trace").to_json();
    let stall = report.migration_stall;
    (format!("{report:?}"), stream, trace_json, stall)
}

#[test]
fn stalled_migrations_are_identical_for_any_thread_count() {
    let (baseline, baseline_events, baseline_trace, baseline_stall) = run_stalled_migration(1);
    // The claim must bite: migrations happen AND carry nonzero stalls,
    // which surface in the event stream and as trace spans.
    assert!(
        !baseline_stall.is_zero(),
        "scenario must charge migration stalls"
    );
    assert!(
        baseline_events
            .iter()
            .any(|l| l.contains("ClientMigrated") && !l.contains("stall: 0ns")),
        "observer stream must carry stalled migrations"
    );
    assert!(
        baseline_trace.contains("migrate-stall"),
        "Chrome trace must render the stall spans"
    );
    for threads in [2usize, 4] {
        let (report, events, trace, _) = run_stalled_migration(threads);
        assert_eq!(
            baseline, report,
            "stalled-migration report diverged between threads=1 and threads={threads}"
        );
        assert_eq!(
            baseline_events, events,
            "stalled-migration observer stream diverged between threads=1 and threads={threads}"
        );
        assert_eq!(
            baseline_trace, trace,
            "stalled-migration Chrome trace diverged between threads=1 and threads={threads}"
        );
    }
}

#[test]
fn phase_shifted_scenario_actually_migrates() {
    // The determinism claim must cover migrations: the load-aware policy
    // shuttles trainers at every phase flip on this mix.
    let spec = GpuSpec::a100();
    let c = cfg(4);
    let jobs = mixes::phase_shifted(&spec, SimSpan::from_millis(500), c.duration, 0.5);
    let report = Cluster::new()
        .devices(2, spec)
        .clients(jobs)
        .rebalance_every(SimSpan::from_millis(250))
        .policy(LoadAware::default())
        .threads(2)
        .config(c)
        .run();
    assert!(report.migrations > 0, "scenario must exercise migration");
}

#[test]
fn churn_trace_reports_are_identical_for_any_thread_count() {
    for policy in POLICIES {
        let (baseline, baseline_events) = run_churn_trace(policy, 1);
        for threads in [2usize, 4] {
            let (report, events) = run_churn_trace(policy, threads);
            assert_eq!(
                baseline, report,
                "{policy}: report diverged between threads=1 and threads={threads}"
            );
            assert_eq!(
                baseline_events, events,
                "{policy}: observer stream diverged between threads=1 and threads={threads}"
            );
        }
    }
}

#[test]
fn a_churning_client_adds_one_barrier_per_window_close() {
    // One client cycles through 20 activity windows on its device while
    // seven single-trainer devices sit in steady state. Each window close
    // before the end is a departure the loop must barrier on (attach
    // edges replay inside the session, no barrier); the last window closes
    // at the end, whose barrier is the run's final one.
    let spec = GpuSpec::a100();
    let c = cfg(4);
    let mut windows = Vec::new();
    for w in 0..20u64 {
        let from = SimTime::from_millis(100 + 200 * w);
        windows.push(ActivityWindow::new(
            from,
            Some(from + SimSpan::from_millis(100)),
        ));
    }
    let mut jobs = vec![TrainModel::PointNet
        .job(&spec)
        .with_client_key("churner")
        .with_schedule(windows)];
    for i in 0..7 {
        jobs.push(
            TrainModel::Bert
                .job(&spec)
                .with_client_key(format!("steady-{i}")),
        );
    }
    let report = Cluster::new()
        .devices(8, spec)
        .clients(jobs)
        .policy(RoundRobin::default())
        .threads(1)
        .config(c)
        .run();
    assert_eq!(report.host.barriers, 20, "one barrier per window close");
}
