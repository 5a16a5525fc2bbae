//! Cluster integration tests: placement determinism across runs, client
//! conservation under migration, near-linear fleet scaling, and the
//! skew-sensitivity ordering between placement policies.

use tally::prelude::*;
use tally::workloads::mixes;
use tally_bench::make_system;

fn cfg(secs: u64, warmup_ms: u64) -> HarnessConfig {
    HarnessConfig {
        duration: SimSpan::from_secs(secs),
        warmup: SimSpan::from_millis(warmup_ms),
        seed: 7,
        jitter: 0.0,
        record_timelines: false,
    }
}

/// A churny fleet workload that exercises every lifecycle edge: a service
/// that retires mid-run, packed trainers, and periodic rebalance — the
/// scenario most likely to expose nondeterminism or a lost client.
fn churny_cluster(policy: &str) -> ClusterReport {
    let spec = GpuSpec::a100();
    let c = cfg(6, 500);
    let mut jobs = mixes::standard(&spec, 0.5, c.duration);
    jobs.truncate(1);
    jobs[0] = jobs[0].clone().active_until(SimTime::from_secs(3));
    for i in 0..4 {
        let mut trainer = mixes::standard(&spec, 0.5, c.duration).remove(1);
        trainer.client_key = Some(format!("trainer-{i}"));
        jobs.push(trainer);
    }
    let cluster = Cluster::new()
        .devices(2, spec.clone())
        .clients(jobs)
        .rebalance_every(SimSpan::from_secs(2))
        .config(c);
    let cluster = match policy {
        "round-robin" => cluster.policy(RoundRobin::default()),
        "least-loaded" => cluster.policy(LeastLoaded),
        "best-effort-packing" => cluster.policy(BestEffortPacking),
        other => panic!("unknown policy {other}"),
    };
    cluster.run()
}

#[test]
fn every_policy_is_deterministic_across_runs_including_migrations() {
    for policy in ["round-robin", "least-loaded", "best-effort-packing"] {
        let a = churny_cluster(policy);
        let b = churny_cluster(policy);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{policy}: cluster reports must be byte-identical across runs"
        );
        let placements_a: Vec<usize> = a.clients.iter().map(|c| c.initial_device).collect();
        let placements_b: Vec<usize> = b.clients.iter().map(|c| c.initial_device).collect();
        assert_eq!(placements_a, placements_b, "{policy}: placements diverged");
    }
    // The scenario actually migrates under the packing policy, so the
    // determinism claim covers post-migration state too.
    assert!(
        churny_cluster("best-effort-packing").migrations > 0,
        "scenario must exercise migration"
    );
}

#[test]
fn migration_never_drops_or_duplicates_a_client() {
    let report = churny_cluster("best-effort-packing");
    assert!(report.migrations > 0, "scenario must migrate");
    assert_eq!(report.clients.len(), 5, "every job reports exactly once");
    let mut keys: Vec<&str> = report.clients.iter().map(|c| c.key.as_str()).collect();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(keys.len(), 5, "client keys must stay unique");
    // Conservation: every client is resident somewhere at the end, and the
    // device counters agree with the per-client migration counts.
    let residents: usize = report.devices.iter().map(|d| d.residents).sum();
    assert_eq!(residents, 5);
    let ins: u64 = report.devices.iter().map(|d| d.migrations_in).sum();
    let outs: u64 = report.devices.iter().map(|d| d.migrations_out).sum();
    let per_client: u64 = report.clients.iter().map(|c| u64::from(c.migrations)).sum();
    assert_eq!(ins, report.migrations);
    assert_eq!(outs, report.migrations);
    assert_eq!(per_client, report.migrations);
    // Migrated trainers kept working: whole-run iteration counts are
    // cumulative across devices and nonzero for every trainer.
    for c in report.clients.iter().filter(|c| !c.report.high_priority) {
        assert!(
            c.report.iterations > 0,
            "{} did no work after placement/migration",
            c.key
        );
        assert!(c.report.kernels > 0, "{} launched no kernels", c.key);
    }
}

#[test]
fn fleet_throughput_scales_with_device_count() {
    let spec = GpuSpec::a100();
    let c = cfg(6, 500);
    // Solo references for normalization.
    let mix = mixes::standard(&spec, 0.5, c.duration);
    let solo: Vec<f64> = mix
        .iter()
        .map(|j| run_solo(&spec, j, &c).throughput)
        .collect();
    let normalized = |report: &ClusterReport| -> f64 {
        report
            .clients
            .iter()
            .map(|cl| {
                let idx = if cl.report.high_priority { 0 } else { 1 };
                cl.report.throughput / solo[idx]
            })
            .sum()
    };
    let run = |n: usize| -> ClusterReport {
        Cluster::new()
            .devices(n, spec.clone())
            .clients(mixes::replicated(&spec, n, 0.5, c.duration))
            .policy(RoundRobin::default())
            .systems_with(|_| make_system("tally"))
            .transport(Transport::SharedMemory)
            .config(c.clone())
            .run()
    };
    let single = normalized(&run(1));
    for n in [2usize, 4] {
        let fleet = normalized(&run(n));
        assert!(
            fleet >= 0.9 * n as f64 * single,
            "{n} GPUs delivered {fleet:.2} vs single-GPU {single:.2} (need >= {:.2})",
            0.9 * n as f64 * single
        );
    }
}

#[test]
fn least_loaded_beats_round_robin_on_the_skewed_mix() {
    let spec = GpuSpec::a100();
    let c = cfg(10, 1000);
    let jobs = mixes::skewed(&spec, 2);
    let solo: Vec<f64> = jobs
        .iter()
        .map(|j| run_solo(&spec, j, &c).throughput)
        .collect();
    let worst = |report: &ClusterReport| -> f64 {
        report
            .clients
            .iter()
            .enumerate()
            .map(|(i, cl)| cl.report.throughput / solo[i])
            .fold(f64::INFINITY, f64::min)
    };
    let run = |least_loaded: bool| -> ClusterReport {
        let cluster = Cluster::new()
            .devices(2, spec.clone())
            .clients(jobs.clone())
            .config(c.clone());
        if least_loaded {
            cluster.policy(LeastLoaded).run()
        } else {
            cluster.policy(RoundRobin::default()).run()
        }
    };
    let rr = worst(&run(false));
    let ll = worst(&run(true));
    assert!(
        ll > rr,
        "least-loaded worst-client norm {ll:.3} must beat round-robin {rr:.3}"
    );
}

#[test]
fn periodic_rebalance_triggers_migration_without_any_detach() {
    // BestEffortPacking stacks all four trainers away from the service;
    // with detach-triggered migration off and no client ever departing,
    // only the periodic rebalance timer can spread them back out.
    let spec = GpuSpec::a100();
    let c = cfg(6, 500);
    let mut jobs = mixes::standard(&spec, 0.5, c.duration);
    jobs.truncate(1); // the service, active for the whole run
    for i in 0..4 {
        let mut trainer = mixes::standard(&spec, 0.5, c.duration).remove(1);
        trainer.client_key = Some(format!("trainer-{i}"));
        jobs.push(trainer);
    }
    let run = |rebalance: bool| {
        let cluster = Cluster::new()
            .devices(2, spec.clone())
            .clients(jobs.clone())
            .policy(BestEffortPacking)
            .migrate_on_detach(false)
            .config(c.clone());
        if rebalance {
            cluster.rebalance_every(SimSpan::from_secs(1)).run()
        } else {
            cluster.run()
        }
    };
    assert_eq!(run(false).migrations, 0, "no trigger, no migration");
    let report = run(true);
    assert!(
        report.migrations > 0,
        "the periodic rebalance alone must migrate a packed trainer"
    );
    let migrant = report.clients.iter().find(|cl| cl.migrations > 0).unwrap();
    assert!(!migrant.report.high_priority, "only best-effort migrates");
    assert_ne!(migrant.device, migrant.initial_device);
}

#[test]
fn best_effort_packing_spreads_services_and_packs_trainers() {
    let spec = GpuSpec::a100();
    let c = cfg(4, 500);
    let jobs = mixes::replicated(&spec, 2, 0.3, c.duration);
    let report = Cluster::new()
        .devices(2, spec.clone())
        .clients(jobs)
        .policy(BestEffortPacking)
        .migrate_on_detach(false)
        .config(c)
        .run();
    let svc_devices: Vec<usize> = report
        .clients
        .iter()
        .filter(|cl| cl.report.high_priority)
        .map(|cl| cl.initial_device)
        .collect();
    assert_eq!(svc_devices.len(), 2);
    assert_ne!(svc_devices[0], svc_devices[1], "services must spread");
    let be_devices: Vec<usize> = report
        .clients
        .iter()
        .filter(|cl| !cl.report.high_priority)
        .map(|cl| cl.initial_device)
        .collect();
    assert_eq!(be_devices[0], be_devices[1], "trainers must pack");
}

#[test]
fn heterogeneous_devices_are_supported() {
    // One big GPU and one tiny one: demand-aware placement must send the
    // work to the big device first, and the run must stay deterministic.
    let spec_big = GpuSpec::a100();
    let spec_small = GpuSpec::tiny();
    let c = cfg(2, 0);
    let jobs = vec![
        TrainModel::PointNet.job(&spec_big),
        TrainModel::PointNet.job(&spec_big),
    ];
    let run = || {
        Cluster::new()
            .device(spec_big.clone())
            .device(spec_small.clone())
            .clients(jobs.clone())
            .policy(LeastLoaded)
            .config(c.clone())
            .run()
    };
    let a = run();
    let b = run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert_eq!(a.clients.len(), 2);
    assert!(a.clients.iter().all(|cl| cl.report.iterations > 0));
}

// ---- job_demand degenerate-trace properties ---------------------------
//
// The `span` clamp in `job_demand` (an inference trace's span is at least
// one request's busy time) was previously only covered indirectly through
// placement outcomes; these seeded property loops pin down its contract.

/// The GPU-busy seconds one request of `svc` asks for, recovered through
/// the estimator itself using a single-arrival trace (whose span clamps
/// to exactly one serial request, i.e. demand 1.0 times busy/busy).
fn one_request_busy(spec: &GpuSpec, request: &[WorkloadOp]) -> f64 {
    request
        .iter()
        .map(|op| match op {
            WorkloadOp::Kernel(k) => k.solo_latency(spec).as_secs_f64(),
            WorkloadOp::CpuGap(_) => 0.0,
        })
        .sum()
}

#[test]
fn job_demand_degenerate_inference_traces() {
    use tally_core::cluster::job_demand;
    let spec = GpuSpec::a100();
    let k = KernelDesc::builder("req")
        .grid(64)
        .block(128)
        .block_cost(SimSpan::from_micros(500))
        .build_arc();
    let request = vec![WorkloadOp::Kernel(k)];
    let svc = |arrivals: Vec<SimTime>| JobSpec::inference("svc", request.clone(), arrivals);

    // Empty arrivals: no work, no demand.
    assert_eq!(job_demand(&svc(Vec::new()), &spec), 0.0);

    // A single arrival: the span clamps to at least the request's own
    // busy time, so a lone request at t=0 reads "one saturated serial
    // stream" (exactly 1.0) and a later lone request reads busy/at.
    let busy = one_request_busy(&spec, &request);
    assert!(busy > 0.0);
    for at in [SimTime::ZERO, SimTime::from_millis(3)] {
        let d = job_demand(&svc(vec![at]), &spec);
        let span = at.saturating_since(SimTime::ZERO).as_secs_f64().max(busy);
        let expected = busy / span;
        assert!(
            (d - expected).abs() < 1e-9,
            "single arrival at {at}: demand {d}, expected {expected}"
        );
    }

    // A burst of n requests all at t=0: the clamp normalizes over one
    // request's busy time, so the estimate reads n serial streams — large
    // but finite, never a division blow-up.
    for n in [2usize, 10, 1000] {
        let d = job_demand(&svc(vec![SimTime::ZERO; n]), &spec);
        assert!(d.is_finite(), "burst demand must stay finite");
        assert!(
            (d - n as f64).abs() < 1e-6,
            "burst of {n} at t=0 reads {n} serial streams, got {d}"
        );
    }
}

#[test]
fn job_demand_random_traces_stay_bounded() {
    use tally_core::cluster::job_demand;
    let spec = GpuSpec::a100();
    // A seeded deterministic loop over random arrival traces, including
    // heavy duplicate timestamps (bursts) and a random request mix.
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for case in 0..200 {
        let kernel_us = 1 + next() % 5_000;
        let k = KernelDesc::builder("req")
            .grid(1 + (next() % 512) as u32)
            .block(32 + (next() % 8) as u32 * 32)
            .block_cost(SimSpan::from_micros(kernel_us))
            .build_arc();
        let request = vec![
            WorkloadOp::Kernel(k),
            WorkloadOp::CpuGap(SimSpan::from_micros(next() % 2_000)),
        ];
        let n = (next() % 40) as usize;
        let mut arrivals: Vec<SimTime> = (0..n)
            .map(|_| SimTime::from_micros(next() % 2_000_000))
            .collect();
        arrivals.sort_unstable();
        if next() % 3 == 0 {
            // Degenerate variant: collapse everything into a t=0 burst.
            arrivals = vec![SimTime::ZERO; n];
        }
        let job = JobSpec::inference("svc", request.clone(), arrivals.clone());
        let d = job_demand(&job, &spec);
        assert!(d.is_finite() && d >= 0.0, "case {case}: demand {d}");
        if arrivals.is_empty() {
            assert_eq!(d, 0.0, "case {case}: empty trace has no demand");
        } else {
            // The span clamp guarantees span >= busy, so the estimate is
            // bounded by the arrival count (n serial streams at worst).
            assert!(
                d <= arrivals.len() as f64 + 1e-9,
                "case {case}: demand {d} exceeds {} serial streams",
                arrivals.len()
            );
        }
        // Scale invariance under the clamp: doubling every arrival's
        // timestamp (halving the rate) must not increase the estimate.
        if let Some(&last) = arrivals.last() {
            if last > SimTime::ZERO {
                let stretched: Vec<SimTime> = arrivals
                    .iter()
                    .map(|t| SimTime::ZERO + t.saturating_since(SimTime::ZERO) * 2)
                    .collect();
                let slower = job_demand(
                    &JobSpec::inference("svc", request.clone(), stretched),
                    &spec,
                );
                assert!(
                    slower <= d + 1e-9,
                    "case {case}: halving the rate raised demand ({slower} > {d})"
                );
            }
        }
    }
}

// ---- migration-cost edge cases ------------------------------------------

/// One observed migration: (key, from, to, bytes, stall).
type Migration = (String, usize, usize, u64, SimSpan);

/// Typed collector for migration events.
#[derive(Default)]
struct MigrationLog(Vec<Migration>);

impl SessionObserver for MigrationLog {
    fn on_event(&mut self, _at: SimTime, _device: usize, event: &Observation) {
        if let Observation::ClientMigrated {
            key,
            from,
            to,
            bytes,
            stall,
            ..
        } = event
        {
            self.0.push((key.clone(), *from, *to, *bytes, *stall));
        }
    }
}

/// The churny mix with every job's migration state pinned to `state_bytes`,
/// run on `n` devices under `BestEffortPacking` + detach-triggered
/// migration, with an optional topology.
fn churny_with_state(
    n: usize,
    state_bytes: u64,
    topology: Option<Topology>,
) -> (ClusterReport, Vec<Migration>) {
    let spec = GpuSpec::a100();
    let c = cfg(6, 500);
    let mut jobs = mixes::standard(&spec, 0.5, c.duration);
    jobs.truncate(1);
    jobs[0] = jobs[0].clone().active_until(SimTime::from_secs(3));
    for i in 0..4 {
        let mut trainer = mixes::standard(&spec, 0.5, c.duration).remove(1);
        trainer.client_key = Some(format!("trainer-{i}"));
        jobs.push(trainer);
    }
    for job in &mut jobs {
        job.state_bytes = state_bytes;
    }
    let log = std::sync::Arc::new(std::sync::Mutex::new(MigrationLog::default()));
    let mut cluster = Cluster::new()
        .devices(n, spec)
        .clients(jobs)
        .policy(BestEffortPacking)
        .migrate_on_detach(true)
        .rebalance_every(SimSpan::from_secs(2))
        .sync_observer(log.clone())
        .config(c);
    if let Some(t) = topology {
        cluster = cluster.topology(t);
    }
    let report = cluster.run();
    let events = log.lock().expect("migration log").0.clone();
    (report, events)
}

#[test]
fn explicit_flat_topology_is_byte_identical_to_the_default() {
    // Real model state sizes ride along (mixes now stamp them), so this
    // also proves nonzero `state_bytes` stays free without a topology.
    let spec = GpuSpec::a100();
    let c = cfg(6, 500);
    let jobs = mixes::standard(&spec, 0.5, c.duration);
    assert!(
        jobs.iter().any(|j| j.state_bytes > 0),
        "model jobs must carry state estimates for this test to bite"
    );
    let (default_run, default_events) = churny_with_state(2, 12_000_000_000, None);
    let (flat_run, flat_events) = churny_with_state(2, 12_000_000_000, Some(Topology::flat(2)));
    assert!(default_run.migrations > 0, "scenario must migrate");
    assert_eq!(format!("{default_run:?}"), format!("{flat_run:?}"));
    assert_eq!(default_events, flat_events);
    assert_eq!(default_run.migration_stall, SimSpan::ZERO);
    assert_eq!(
        default_run.migration_bytes,
        default_run.migrations * 12_000_000_000
    );
}

#[test]
fn zero_byte_state_migrates_free_on_real_links() {
    let slow = Topology::new(2).link(0, 1, Link::node_cross());
    let (report, events) = churny_with_state(2, 0, Some(slow));
    assert!(report.migrations > 0, "scenario must migrate");
    assert_eq!(report.migration_stall, SimSpan::ZERO);
    assert_eq!(report.migration_bytes, 0);
    assert!(events
        .iter()
        .all(|&(_, _, _, bytes, stall)| bytes == 0 && stall.is_zero()));
    // And the run is byte-identical to the same scenario without any
    // topology: a zero-byte transfer never perturbs behavior.
    let (free_report, free_events) = churny_with_state(2, 0, None);
    assert_eq!(format!("{report:?}"), format!("{free_report:?}"));
    assert_eq!(events, free_events);
}

#[test]
fn migration_stall_is_charged_per_path_and_sums_into_reports() {
    // Heterogeneous three-device fleet: an NVLink pair plus a V100 node
    // reachable only through device 1's cross-node uplink, so a 0 -> 2
    // migration must be charged at the 12.5 GB/s bottleneck of its
    // two-hop path, not the NVLink first hop.
    const STATE: u64 = 2_500_000_000;
    let topology = || {
        Topology::new(3)
            .link(0, 1, Link::nvlink())
            .link(1, 2, Link::node_cross())
    };
    let spec = GpuSpec::a100();
    let v100 = GpuSpec::v100();
    let c = cfg(6, 500);
    let mut jobs = mixes::standard(&spec, 0.5, c.duration);
    jobs.truncate(1);
    jobs[0] = jobs[0].clone().active_until(SimTime::from_secs(3));
    for i in 0..4 {
        let mut trainer = mixes::standard(&spec, 0.5, c.duration).remove(1);
        trainer.client_key = Some(format!("trainer-{i}"));
        trainer.state_bytes = STATE;
        jobs.push(trainer);
    }
    jobs[0].state_bytes = STATE;
    let log = std::sync::Arc::new(std::sync::Mutex::new(MigrationLog::default()));
    let report = Cluster::new()
        .device(spec.clone())
        .device(spec)
        .device(v100)
        .topology(topology())
        .clients(jobs)
        .policy(BestEffortPacking)
        .migrate_on_detach(true)
        .rebalance_every(SimSpan::from_secs(2))
        .sync_observer(log.clone())
        .config(c)
        .run();
    let events = log.lock().expect("migration log").0.clone();
    assert!(report.migrations > 0, "scenario must migrate");
    assert_eq!(events.len() as u64, report.migrations);
    // Every observed stall is exactly bytes over the widest-path
    // bottleneck bandwidth for that hop.
    let t = topology();
    let mut total = SimSpan::ZERO;
    for &(_, from, to, bytes, stall) in &events {
        assert_eq!(bytes, STATE);
        assert_eq!(
            stall,
            t.transfer_time(bytes, from, to).expect("reachable path"),
            "stall mispriced for {from} -> {to}"
        );
        total += stall;
    }
    assert_eq!(report.migration_stall, total);
    assert_eq!(report.migration_bytes, report.migrations * STATE);
    // Per-client stall accounting survives the re-attach on the new
    // device and sums to the fleet total.
    let per_client: Vec<SimSpan> = report.clients.iter().map(|c| c.migration_stall).collect();
    let mut summed = SimSpan::ZERO;
    for s in per_client {
        summed += s;
    }
    assert_eq!(summed, total);
    // A stalled, migrated client still re-attaches and keeps working.
    for c in report.clients.iter().filter(|c| c.migrations > 0) {
        assert!(
            c.report.iterations > 0 || c.report.requests > 0,
            "{} stalled forever after migrating",
            c.key
        );
    }
}

// ---- admission policies see migrations ----------------------------------

/// One stamped migration: (at, stamped device, key, from, to).
type StampedMigration = (SimTime, usize, String, usize, usize);
type MigrationSink = std::sync::Arc<std::sync::Mutex<Vec<StampedMigration>>>;

fn record_migration(sink: &MigrationSink, at: SimTime, device: usize, event: &Observation) {
    if let Observation::ClientMigrated { key, from, to, .. } = event {
        sink.lock()
            .expect("migration sink")
            .push((at, device, key.clone(), *from, *to));
    }
}

/// An admission policy that admits everything and records the
/// migrations in its stream.
struct RecordingPolicy(MigrationSink);

impl AdmissionPolicy for RecordingPolicy {
    fn name(&self) -> &str {
        "recording"
    }
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        record_migration(&self.0, at, device, event);
    }
    fn admit(&mut self, _: SimTime, _: ClientId, _: usize) -> AdmissionVerdict {
        AdmissionVerdict::Admit
    }
}

/// An observer recording the migrations in its stream.
struct RecordingObserver(MigrationSink);

impl SessionObserver for RecordingObserver {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        record_migration(&self.0, at, device, event);
    }
}

/// Each device's admission policy sees exactly the `ClientMigrated`
/// events the observers see stamped with that device's index — the
/// migrations off it — so a policy's view of the device never keeps a
/// migrated client's preempted kernel in flight.
#[test]
fn admission_policies_see_the_migrations_off_their_device() {
    let spec = GpuSpec::a100();
    let c = cfg(4, 200);
    let n = 2;
    let per_device: Vec<MigrationSink> = (0..n).map(|_| MigrationSink::default()).collect();
    let observed = MigrationSink::default();
    let sinks = per_device.clone();
    let report = Cluster::new()
        .devices(n, spec.clone())
        .clients(mixes::phase_shifted(
            &spec,
            SimSpan::from_millis(500),
            c.duration,
            0.5,
        ))
        .rebalance_every(SimSpan::from_millis(250))
        .policy(LoadAware::default())
        .admission_with(move |d| Box::new(RecordingPolicy(sinks[d].clone())))
        .sync_observer(std::sync::Arc::new(std::sync::Mutex::new(
            RecordingObserver(observed.clone()),
        )))
        .config(c)
        .run();
    assert!(report.migrations > 0, "LoadAware must migrate here");
    let observed = observed.lock().expect("observer sink").clone();
    assert_eq!(observed.len() as u64, report.migrations);
    for (d, sink) in per_device.iter().enumerate() {
        let want: Vec<_> = observed.iter().filter(|m| m.1 == d).cloned().collect();
        assert!(want.iter().all(|m| m.3 == d), "stamped with the source");
        assert_eq!(*sink.lock().expect("policy sink"), want, "device {d}");
    }
}

// ---- barrier schedule ---------------------------------------------------

/// Records the instant of every fleet-level `Rebalance` marker.
#[derive(Default)]
struct RebalanceLog(Vec<SimTime>);

impl SessionObserver for RebalanceLog {
    fn on_event(&mut self, at: SimTime, _device: usize, event: &Observation) {
        if matches!(event, Observation::Rebalance { .. }) {
            self.0.push(at);
        }
    }
}

/// The drive loop stops exactly at every departure, rebalance tick and
/// trace injection before the end, once per distinct instant, plus once
/// at the end; a rebalance pass runs at every departure and tick.
#[test]
fn barriers_fall_exactly_on_departures_ticks_and_injections() {
    let spec = GpuSpec::a100();
    let ms = SimTime::from_millis;
    let duration = SimSpan::from_secs(1);
    let end = SimTime::ZERO + duration;
    let departures = [ms(250), ms(600)];
    let ticks = [ms(300), ms(600), ms(900)];
    let injection = ms(450);
    let trainer = |key: &str| TrainModel::PointNet.job(&spec).with_client_key(key);
    let log = std::sync::Arc::new(std::sync::Mutex::new(RebalanceLog::default()));
    let report = Cluster::new()
        .devices(3, spec.clone())
        .client(
            trainer("windowed")
                .active_until(departures[0])
                .also_active(ms(400), Some(departures[1])),
        )
        .client(trainer("steady"))
        .trace([(
            injection,
            SessionEvent::Arrive {
                key: "late".into(),
                job: trainer("late"),
            },
        )])
        .expect("valid trace")
        .rebalance_every(SimSpan::from_millis(300))
        .sync_observer(log.clone())
        .threads(1)
        .config(HarnessConfig {
            duration,
            warmup: SimSpan::ZERO,
            ..Default::default()
        })
        .run();

    let passes: std::collections::BTreeSet<SimTime> = departures
        .into_iter()
        .chain(ticks)
        .filter(|&t| t < end)
        .collect();
    let mut points = passes.clone();
    points.insert(injection);
    let interior = points.iter().filter(|&&t| t > SimTime::ZERO).count() as u64;
    assert_eq!(report.host.barriers, interior + 1);
    let rebalances = log.lock().expect("rebalance log").0.clone();
    assert_eq!(rebalances, passes.into_iter().collect::<Vec<_>>());
}
