//! Fleet digests: every scenario's `ClusterReport` `Debug` text, and the
//! telemetry exports of the DGX scenario, pinned by FNV-1a digest. A
//! refactor of the placement, injection or migration code that claims
//! identical output is checked here, and a mismatch names the scenario.

use tally::prelude::*;
use tally::workloads::mixes;

/// FNV-1a, 64-bit: a digest whose value no Rust release can change,
/// unlike std's `DefaultHasher`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cfg(duration: SimSpan) -> HarnessConfig {
    HarnessConfig {
        duration,
        warmup: SimSpan::from_millis(100),
        seed: 5,
        jitter: 0.0,
        record_timelines: false,
    }
}

/// Three A100s under `policy`, rebalanced every 50 ms. The up-front
/// clients are the phase-shifted services and trainers, a trainer that
/// starts late and one that leaves and comes back.
fn placement_fleet(policy: Box<dyn PlacementPolicy>) -> ClusterReport {
    let spec = GpuSpec::a100();
    let duration = SimSpan::from_secs(1);
    let mut jobs = mixes::phase_shifted(&spec, SimSpan::from_millis(250), duration, 0.5);
    jobs.push(
        TrainModel::PointNet
            .job(&spec)
            .active_from(SimTime::from_millis(300)),
    );
    jobs.push(
        TrainModel::Gpt2Large
            .job(&spec)
            .active_window(SimTime::ZERO, SimTime::from_millis(200))
            .also_active(SimTime::from_millis(600), None),
    );
    Cluster::new()
        .devices(3, spec)
        .clients(jobs)
        .policy_boxed(policy)
        .rebalance_every(SimSpan::from_millis(50))
        .threads(1)
        .config(cfg(duration))
        .run()
}

#[test]
fn placement_fleets_match_their_digests() {
    let policies: [(&str, Box<dyn PlacementPolicy>, u64); 4] = [
        (
            "round-robin",
            Box::new(RoundRobin::default()),
            0x7f54_5695_9144_445d,
        ),
        ("least-loaded", Box::new(LeastLoaded), 0xe291_c798_7218_dc47),
        (
            "best-effort-packing",
            Box::new(BestEffortPacking),
            0x4bc2_6ce1_0bdf_7e59,
        ),
        (
            "load-aware",
            Box::new(LoadAware::default()),
            0x6544_208a_1d0d_5442,
        ),
    ];
    let mut wrong = Vec::new();
    for (name, policy, expected) in policies {
        let report = placement_fleet(policy);
        assert_eq!(report.policy, name);
        let digest = fnv1a64(format!("{report:?}").as_bytes());
        if digest != expected {
            wrong.push(format!("{name}: {digest:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "placement fleet digests differ: {wrong:?}"
    );
}

/// Four DGX A100s under Tally behind the shared-memory stub: the
/// phase-shifted mix up front, a churn trace injected on top, `LoadAware`
/// placement and per-device `SloGuard` admission, with the hub, the
/// timeline and the Chrome trace attached.
#[test]
fn dgx_churn_fleet_matches_its_digests() {
    let spec = GpuSpec::a100();
    let duration = SimSpan::from_secs(2);
    let jobs = mixes::phase_shifted(&spec, SimSpan::from_millis(500), duration, 0.5);
    assert!(jobs.iter().all(|j| j.state_bytes > 0), "jobs carry state");
    let trace = ArrivalTrace::generate(&TraceGen::churn(duration, 2.0, 7));
    let hub = MetricsHub::shared_sync();
    let timeline = Timeline::shared_sync(SimSpan::from_millis(250), duration);
    let chrome = ChromeTraceWriter::shared_sync();
    let report = Cluster::new()
        .devices(4, spec.clone())
        .topology(Topology::dgx(4))
        .systems_with(|_| Box::new(TallySystem::new(TallyConfig::paper_default())))
        .transport(Transport::SharedMemory)
        .clients(jobs)
        .trace(trace.session_events(&spec, duration))
        .expect("generated traces are valid")
        .policy(LoadAware::default())
        .admission_with(|_| {
            Box::new(
                SloGuard::new(SimSpan::from_millis(20))
                    .window(SimSpan::from_millis(100))
                    .qps_range(2.0, 2000.0),
            )
        })
        .rebalance_every(SimSpan::from_millis(100))
        .sync_observer(hub.clone())
        .sync_observer(timeline.clone())
        .sync_observer(chrome.clone())
        .threads(1)
        .config(cfg(duration))
        .run();
    assert!(report.migrations > 0, "the scenario must migrate");
    let digests = [
        fnv1a64(format!("{report:?}").as_bytes()),
        fnv1a64(format!("{:?}", hub.lock().expect("hub").samples()).as_bytes()),
        fnv1a64(timeline.lock().expect("timeline").to_json().as_bytes()),
        fnv1a64(chrome.lock().expect("chrome").to_json().as_bytes()),
    ];
    assert_eq!(
        digests,
        [
            0xc623_4677_4129_ad87,
            0x98ff_9db4_a656_053f,
            0x7d64_74da_e9a2_5f5c,
            0x90bd_2586_1cc9_4e60,
        ],
        "dgx churn fleet digests (report, hub, timeline, chrome)"
    );
}
