//! Admission conservation: every arrival is either served or shed.
//!
//! An open-loop high-priority + best-effort pairing runs under Tally once
//! per in-tree admission policy. Arrivals stop well before the run ends,
//! so every queue drains and each admitted request completes: for every
//! client, `requests + shed` equals its number of arrivals. High-priority
//! requests are never gated, so they are never shed.

use tally::prelude::*;

/// Arrivals are generated over this span only.
const ARRIVALS_FOR: SimSpan = SimSpan::from_secs(1);
/// The run lasts long enough for the backlog left at `ARRIVALS_FOR` to
/// drain under every policy.
const RUN: SimSpan = SimSpan::from_secs(3);

/// A BERT service at half its solo capacity plus a best-effort BERT
/// service offered its full solo capacity: together they overload the
/// device while arrivals last.
fn pairing(spec: &GpuSpec) -> Vec<JobSpec> {
    let cap = openloop::solo_capacity_qps(InferModel::Bert);
    let service = |qps: f64, seed| {
        openloop::service(
            spec,
            InferModel::Bert,
            &LoadProfile::Constant { qps },
            ARRIVALS_FOR,
            seed,
        )
    };
    vec![
        service(0.5 * cap, 3).with_client_key("hp"),
        service(cap, 4)
            .with_priority(Priority::BestEffort)
            .with_client_key("be"),
    ]
}

fn arrivals(job: &JobSpec) -> u64 {
    match &job.kind {
        JobKind::Inference { arrivals, .. } => arrivals.len() as u64,
        JobKind::Training { .. } => panic!("the pairing is inference-only"),
    }
}

/// Runs the pairing under `policy` and checks conservation per client;
/// returns the best-effort client's shed count.
fn conserved_under(policy: Box<dyn AdmissionPolicy>) -> u64 {
    let name = policy.name().to_string();
    let spec = GpuSpec::a100();
    let jobs = pairing(&spec);
    let offered: Vec<u64> = jobs.iter().map(arrivals).collect();
    let report = Colocation::on(spec)
        .clients(jobs)
        .system_boxed(Box::new(TallySystem::new(TallyConfig::default())))
        .admission(policy)
        .config(HarnessConfig {
            duration: RUN,
            warmup: SimSpan::ZERO,
            seed: 5,
            jitter: 0.0,
            record_timelines: false,
        })
        .run();
    for (client, offered) in report.clients.iter().zip(offered) {
        assert!(offered > 0, "{name}: {} got no arrivals", client.name);
        assert_eq!(
            client.requests + client.shed,
            offered,
            "{name}: {} lost or invented requests",
            client.name
        );
    }
    let hp = report.high_priority().expect("high-priority client");
    assert_eq!(hp.shed, 0, "{name}: high-priority requests are never gated");
    report
        .clients
        .iter()
        .find(|c| !c.high_priority)
        .expect("best-effort client")
        .shed
}

#[test]
fn reject_never_serves_every_arrival() {
    assert_eq!(conserved_under(Box::new(RejectNever)), 0);
}

#[test]
fn queue_cap_conserves_requests() {
    assert!(conserved_under(Box::new(QueueCap::shedding(4))) > 0);
}

#[test]
fn slo_guard_conserves_requests() {
    // An SLO below BERT's 3.93 ms solo latency breaches in every control
    // window that ends with kernels in flight, so the guard sheds.
    let guard = SloGuard::new(SimSpan::from_millis(2))
        .window(SimSpan::from_millis(50))
        .qps_range(2.0, 2000.0);
    assert!(conserved_under(Box::new(guard)) > 0);
}
