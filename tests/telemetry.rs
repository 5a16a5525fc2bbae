//! Telemetry acceptance suite: observers must be *passive* — registering
//! them changes no simulation output — and the distilled registries must
//! agree exactly with the report counters the harness computes on its own.
//!
//! The passivity test is the contract every `BENCH_*.json` trajectory
//! relies on: `bench_suite --telemetry DIR` attaches these observers to
//! the same runs whose metrics are diffed across PRs, so a telemetry
//! registration that perturbed scheduling would silently invalidate the
//! whole trajectory.

use tally::prelude::*;
use tally::workloads::mixes;

const SPIKE_AT: SimSpan = SimSpan::from_millis(1000);
const SPIKE_LEN: SimSpan = SimSpan::from_millis(1500);

fn cfg(record_timelines: bool) -> HarnessConfig {
    HarnessConfig {
        duration: SimSpan::from_secs(4),
        warmup: SimSpan::from_millis(200),
        seed: 11,
        jitter: 0.0,
        record_timelines,
    }
}

/// The flash-crowd jobs: one hp BERT service near capacity, one
/// best-effort service taking a 5x crowd — guaranteed shedding under the
/// [`SloGuard`] below.
fn flash_crowd_jobs(spec: &GpuSpec, duration: SimSpan) -> Vec<JobSpec> {
    let cap = openloop::solo_capacity_qps(InferModel::Bert);
    vec![
        openloop::service(
            spec,
            InferModel::Bert,
            &LoadProfile::Constant { qps: 0.7 * cap },
            duration,
            31,
        )
        .with_client_key("hp"),
        openloop::service(
            spec,
            InferModel::Bert,
            &LoadProfile::FlashCrowd {
                base_qps: 0.2 * cap,
                mult: 5.0,
                at: SPIKE_AT,
                len: SPIKE_LEN,
            },
            duration,
            41,
        )
        .with_priority(Priority::BestEffort)
        .with_client_key("be"),
    ]
}

fn guard() -> Box<dyn AdmissionPolicy> {
    Box::new(
        SloGuard::new(SimSpan::from_millis(20))
            .window(SimSpan::from_millis(100))
            .qps_range(2.0, 2000.0),
    )
}

/// One single-device flash-crowd run; when `telemetry` is set, all three
/// observers ride along and are returned for inspection.
type Attached = (
    TimelineSync,
    std::sync::Arc<std::sync::Mutex<ChromeTraceWriter>>,
    HubSync,
);

fn run_colocation(record_timelines: bool, telemetry: bool) -> (RunReport, Option<Attached>) {
    let spec = GpuSpec::a100();
    let c = cfg(record_timelines);
    let mut session = Colocation::on(spec.clone())
        .clients(flash_crowd_jobs(&spec, c.duration))
        .admission(guard())
        .config(c.clone());
    let attached = if telemetry {
        let timeline = Timeline::shared_sync(SimSpan::from_millis(250), c.duration);
        let trace = ChromeTraceWriter::shared_sync();
        let hub = MetricsHub::shared_sync();
        session = session
            .sync_observer(timeline.clone())
            .sync_observer(trace.clone())
            .sync_observer(hub.clone());
        Some((timeline, trace, hub))
    } else {
        None
    };
    let report = session
        .system(&mut TallySystem::new(TallyConfig::paper_default()))
        .run();
    (report, attached)
}

/// Same contract on the fleet path: phase-shifted mix, 2 devices,
/// load-aware placement, two worker threads.
fn run_cluster(telemetry: bool) -> (ClusterReport, Option<(TimelineSync, HubSync)>) {
    let spec = GpuSpec::a100();
    let c = cfg(false);
    let jobs = mixes::phase_shifted(&spec, SimSpan::from_millis(500), c.duration, 0.5);
    let mut cluster = Cluster::new()
        .devices(2, spec)
        .clients(jobs)
        .rebalance_every(SimSpan::from_millis(250))
        .policy(LoadAware::default())
        .threads(2)
        .config(c.clone());
    let attached = if telemetry {
        let timeline = Timeline::shared_sync(SimSpan::from_millis(250), c.duration);
        let hub = MetricsHub::shared_sync();
        cluster = cluster
            .sync_observer(timeline.clone())
            .sync_observer(hub.clone());
        Some((timeline, hub))
    } else {
        None
    };
    (cluster.run(), attached)
}

type TimelineSync = std::sync::Arc<std::sync::Mutex<Timeline>>;
type HubSync = std::sync::Arc<std::sync::Mutex<MetricsHub>>;

/// Registering telemetry observers must change no simulation output: the
/// full report debug rendering — every counter, latency sample, and
/// timeline — is byte-identical with and without them.
#[test]
fn observers_leave_reports_unperturbed() {
    let (bare, _) = run_colocation(true, false);
    let (observed, attached) = run_colocation(true, true);
    assert_eq!(
        format!("{bare:?}"),
        format!("{observed:?}"),
        "attaching telemetry observers perturbed a Colocation report"
    );
    // Sanity: the observers actually saw the run.
    let (_, _, hub) = attached.expect("telemetry attached");
    assert!(
        hub.lock().expect("hub").events() > 0,
        "hub must have observed events"
    );

    let (bare, _) = run_cluster(false);
    let (observed, attached) = run_cluster(true);
    assert_eq!(
        format!("{bare:?}"),
        format!("{observed:?}"),
        "attaching telemetry observers perturbed a Cluster report"
    );
    let (_, hub) = attached.expect("telemetry attached");
    assert!(hub.lock().expect("hub").events() > 0);
}

/// The hub's distilled counters agree exactly with the harness's own
/// report: requests, sheds, kernels, and the per-client split.
#[test]
fn hub_totals_match_report_counters() {
    let (report, attached) = run_colocation(false, true);
    let (_, _, hub) = attached.expect("telemetry attached");
    let hub = hub.lock().expect("hub");

    let total = |f: fn(&ClientReport) -> u64| -> u64 { report.clients.iter().map(f).sum() };
    let dev = hub.device(0).expect("device 0 metrics");
    assert_eq!(dev.requests, total(|c| c.requests));
    assert_eq!(dev.shed, total(|c| c.shed));
    assert_eq!(dev.finished, total(|c| c.kernels));
    // Kernels still in flight at the duration cutoff stay dispatched but
    // never finish; the queue-depth gauge is exactly that difference.
    assert!(dev.dispatched >= dev.finished);
    assert_eq!(dev.queue_depth() as u64, dev.dispatched - dev.finished);
    assert_eq!(hub.fleet_latency().count(), total(|c| c.requests));

    // The hub labels clients by their *key* (set via `with_client_key`);
    // report.clients is in client-id order, matching the job order above.
    for (key, client) in ["hp", "be"].iter().zip(&report.clients) {
        let m = hub
            .client(key)
            .unwrap_or_else(|| panic!("hub is missing client {key:?}"));
        assert_eq!(m.requests, client.requests, "{key} requests");
        assert_eq!(m.shed, client.shed, "{key} sheds");
        assert_eq!(m.kernels, client.kernels, "{key} kernels");
        assert_eq!(m.high_priority, client.high_priority);
        assert_eq!(m.latency.count(), client.requests);
    }
    assert!(
        report.clients.iter().map(|c| c.shed).sum::<u64>() > 0,
        "the flash crowd must shed"
    );
}

/// Timeline windows tile the run exactly: per-device window totals sum to
/// the report's whole-run counters, and the shed wave lands in the spike.
#[test]
fn timeline_window_totals_match_report() {
    let (report, attached) = run_colocation(false, true);
    let (timeline, _, _) = attached.expect("telemetry attached");
    let mut timeline = timeline.lock().expect("timeline");
    timeline.finish();

    let windows = timeline.windows(0);
    assert_eq!(windows.len(), 16, "4s run at 250ms cadence");
    let total = |f: fn(&TimelineWindow) -> u64| -> u64 { windows.iter().map(f).sum() };
    let report_total = |f: fn(&ClientReport) -> u64| -> u64 { report.clients.iter().map(f).sum() };
    assert_eq!(total(|w| w.requests), report_total(|c| c.requests));
    assert_eq!(total(|w| w.shed), report_total(|c| c.shed));
    assert_eq!(total(|w| w.kernels), report_total(|c| c.kernels));

    // The shed wave concentrates in (and just after) the flash crowd.
    let spike_shed: u64 = windows
        .iter()
        .filter(|w| w.start >= SimTime::ZERO + SPIKE_AT)
        .map(|w| w.shed)
        .sum();
    let pre_shed = total(|w| w.shed) - spike_shed;
    assert!(
        spike_shed > pre_shed,
        "sheds must concentrate in the spike (pre {pre_shed} vs spike {spike_shed})"
    );
}

/// With timelines recorded, [`ClientReport::windowed`] exposes per-window
/// shed rates that tile the whole-run shed counter — the satellite that
/// lets figures plot shed-rate series straight from the report.
#[test]
fn windowed_shed_rates_tile_the_run() {
    let (report, _) = run_colocation(true, false);
    let be = report
        .clients
        .iter()
        .find(|c| !c.high_priority)
        .expect("best-effort client");
    assert!(be.shed > 0, "the crowd must shed");
    assert_eq!(be.timed_sheds.len() as u64, be.shed);

    let window = SimSpan::from_millis(250);
    let mut tiled = 0u64;
    let mut spike_rate_seen = false;
    let mut at = SimTime::ZERO;
    while at < SimTime::ZERO + report.duration {
        let w = be.windowed(at, at + window);
        tiled += w.sheds;
        if w.sheds > 0 {
            assert!(w.shed_rate() > 0.0);
            assert!(
                at >= SimTime::ZERO + SPIKE_AT,
                "sheds before the flash crowd at {at}"
            );
            spike_rate_seen = true;
        }
        at += window;
    }
    assert_eq!(tiled, be.shed, "windowed sheds must tile the run total");
    assert!(spike_rate_seen, "some spike window must show a shed rate");

    // Without recorded timelines the per-window series is empty, but the
    // whole-run scalar still reports.
    let (unrecorded, _) = run_colocation(false, false);
    let be = unrecorded
        .clients
        .iter()
        .find(|c| !c.high_priority)
        .expect("best-effort client");
    assert!(be.shed > 0);
    assert!(be.timed_sheds.is_empty());
    assert_eq!(
        be.windowed(SimTime::ZERO, SimTime::ZERO + unrecorded.duration)
            .sheds,
        0
    );
}

/// The fleet path agrees too: on the load-aware two-device run, which
/// migrates, the hub's per-key and per-device counters equal the
/// cluster report's, and each device's queue-depth gauge equals the one
/// its last timeline window closed with.
#[test]
fn hub_and_timeline_match_the_cluster_report() {
    let (report, attached) = run_cluster(true);
    let (timeline, hub) = attached.expect("telemetry attached");
    let hub = hub.lock().expect("hub");
    let mut timeline = timeline.lock().expect("timeline");
    timeline.finish();

    assert!(
        report.migrations > 0,
        "the phase-shifted fleet must migrate"
    );
    assert_eq!(hub.migrations(), report.migrations);
    for c in &report.clients {
        let m = hub
            .client(&c.key)
            .unwrap_or_else(|| panic!("hub is missing client {:?}", c.key));
        assert_eq!(m.requests, c.report.requests, "{} requests", c.key);
        assert_eq!(m.kernels, c.report.kernels, "{} kernels", c.key);
        assert_eq!(m.shed, c.report.shed, "{} sheds", c.key);
    }
    for dev in &report.devices {
        let m = hub.device(dev.device).expect("device metrics");
        assert_eq!(m.migrations_in, dev.migrations_in, "device {}", dev.device);
        assert_eq!(
            m.migrations_out, dev.migrations_out,
            "device {}",
            dev.device
        );
        let last = timeline.windows(dev.device).last().expect("closed windows");
        assert_eq!(m.queue_depth(), last.queue_depth, "device {}", dev.device);
    }
}

/// Every observation delivered to it, in delivery order.
#[derive(Debug, Default)]
struct EventTape(Vec<(SimTime, usize, Observation)>);

impl SessionObserver for EventTape {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        self.0.push((at, device, event.clone()));
    }
}

type TapeSync = std::sync::Arc<std::sync::Mutex<EventTape>>;

fn rendered(tape: &TapeSync) -> String {
    format!("{:?}", tape.lock().unwrap().0)
}

/// Sessions hand observers their stream in bounded batches during a run
/// and flush the rest before returning. The stream must be the one a
/// session stepped by hand delivers after every settle, for a plain
/// session, a 1-device cluster on one worker (which runs its sessions
/// with batches) and on two (which holds them to each barrier).
#[test]
fn batched_delivery_equals_per_settle_delivery() {
    let spec = GpuSpec::a100();
    let c = HarnessConfig {
        duration: SimSpan::from_secs(2),
        ..cfg(false)
    };
    let jobs = flash_crowd_jobs(&spec, c.duration);
    let session = |tape: &TapeSync| {
        Colocation::on(spec.clone())
            .clients(jobs.clone())
            .admission(guard())
            .config(c.clone())
            .sync_observer(tape.clone())
            .into_session()
    };

    let stepped = TapeSync::default();
    let mut s = session(&stepped);
    let mut settles = 0u64;
    loop {
        s.settle();
        settles += 1;
        if s.is_done() {
            break;
        }
        let wake = s.next_wake();
        s.advance_to(wake);
    }
    let expected = rendered(&stepped);

    let batched = TapeSync::default();
    let mut s = session(&batched);
    s.run_to_end();
    let batches = s.work().observer_batches;
    assert_eq!(rendered(&batched), expected, "run_to_end");
    assert!(
        batches * 10 < settles,
        "{batches} batches for {settles} settles"
    );

    for threads in [1, 2] {
        let tape = TapeSync::default();
        Cluster::new()
            .device(spec.clone())
            .clients(jobs.clone())
            .admission_with(|_| guard())
            .threads(threads)
            .config(c.clone())
            .sync_observer(tape.clone())
            .run();
        assert_eq!(rendered(&tape), expected, "cluster at {threads} threads");
    }
}

/// FNV-1a, 64-bit: a digest whose value no Rust release can change,
/// unlike std's `DefaultHasher`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digests of the four exports, in the order Chrome JSON, Timeline
/// JSON, Timeline CSV and the hub's `samples()` rendering.
fn export_digests(
    trace: &ChromeTraceWriter,
    timeline: &mut Timeline,
    hub: &MetricsHub,
) -> [u64; 4] {
    [
        fnv1a64(trace.to_json().as_bytes()),
        fnv1a64(timeline.to_json().as_bytes()),
        fnv1a64(timeline.to_csv().as_bytes()),
        fnv1a64(format!("{:?}", hub.samples()).as_bytes()),
    ]
}

/// A small fleet whose Whisper trainers carry their optimizer state over
/// an NVLink pair, so the load-aware rebalancer's moves charge transfer
/// stalls.
fn run_stalled_fleet() -> (ChromeTraceWriter, Timeline, MetricsHub) {
    let spec = GpuSpec::a100();
    let c = HarnessConfig {
        duration: SimSpan::from_secs(2),
        ..cfg(false)
    };
    let jobs = mixes::phase_shifted(&spec, SimSpan::from_millis(500), c.duration, 0.5);
    assert!(
        jobs.iter().any(|j| j.state_bytes > 0),
        "jobs must carry state"
    );
    let timeline = Timeline::shared_sync(SimSpan::from_millis(250), c.duration);
    let trace = ChromeTraceWriter::shared_sync();
    let hub = MetricsHub::shared_sync();
    Cluster::new()
        .devices(2, spec)
        .topology(Topology::new(2).link(0, 1, Link::nvlink()))
        .clients(jobs)
        .rebalance_every(SimSpan::from_millis(250))
        .policy(LoadAware::default())
        .sync_observer(timeline.clone())
        .sync_observer(trace.clone())
        .sync_observer(hub.clone())
        .config(c)
        .run();
    (take(trace), take(timeline), take(hub))
}

/// The observer behind a handle the run has released.
fn take<T>(handle: std::sync::Arc<std::sync::Mutex<T>>) -> T {
    std::sync::Arc::try_unwrap(handle)
        .ok()
        .expect("the run released its handle")
        .into_inner()
        .expect("observer")
}

/// The exports are pinned byte for byte, so a refactor of the telemetry
/// layer that claims identical output is checked here: the single-device
/// flash crowd (sheds, request spans) and a stalled-migration fleet
/// (migrate marks, stall spans, per-window stall).
#[test]
fn exports_match_their_digests() {
    let (_, attached) = run_colocation(false, true);
    let (timeline, trace, hub) = attached.expect("telemetry attached");
    let crowd = export_digests(
        &trace.lock().expect("trace"),
        &mut timeline.lock().expect("timeline"),
        &hub.lock().expect("hub"),
    );

    let (trace, mut timeline, hub) = run_stalled_fleet();
    let json = trace.to_json();
    for mark in ["\"migrate-in\"", "\"migrate-out\"", "\"migrate-stall\""] {
        assert!(json.contains(mark), "the fleet trace must render {mark}");
    }
    let stall = hub
        .samples()
        .into_iter()
        .find(|s| s.name == "migration_stall_ms")
        .expect("fleet stall sample");
    assert!(stall.value > 0.0, "the fleet must charge a migration stall");
    let fleet = export_digests(&trace, &mut timeline, &hub);
    assert!(
        (0..2).any(|d| timeline
            .windows(d)
            .iter()
            .any(|w| !w.migration_stall.is_zero())),
        "some timeline window must carry a migration stall"
    );

    assert_eq!(
        crowd,
        [
            0x15b4_dd74_e1f6_958e,
            0x7b4e_c95a_3c21_b8b0,
            0x5280_7432_159c_d0bc,
            0x2db6_0d4f_1f0a_97fd,
        ],
        "flash-crowd export digests"
    );
    assert_eq!(
        fleet,
        [
            0xfddb_ae18_b4d4_cd4e,
            0x87eb_07c0_e1da_e9e8,
            0xb78e_7031_afa2_4254,
            0xf888_173d_437d_f136,
        ],
        "stalled-fleet export digests"
    );
}
