//! The three benchmark workloads: their seeded inputs, the runs they time,
//! and the simulated results and output checks drawn from those runs.
//!
//! Every run goes through a public entry point (`Colocation::run`,
//! `Cluster::run`) at one worker thread. The seed reaches only the input
//! generators; the simulator's own engine seed is a fixed constant.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use tally_baselines::Tgs;
use tally_core::admission::{AdmissionPolicy, SloGuard};
use tally_core::api::Transport;
use tally_core::cluster::{Cluster, ClusterReport, LoadAware, PlacementPolicy, RoundRobin};
use tally_core::events::{ClientEvent, SharedSyncObserver};
use tally_core::harness::{Colocation, HarnessConfig, JobKind, JobSpec, SessionEvent, WorkloadOp};
use tally_core::metrics::{ClientReport, LatencyRecorder, RunReport};
use tally_core::scheduler::{TallyConfig, TallySystem};
use tally_core::system::{Passthrough, SharingSystem};
use tally_core::telemetry::{MetricsHub, Timeline};
use tally_core::topology::Topology;
use tally_gpu::rng::SmallRng;
use tally_gpu::{GpuSpec, KernelDesc, Priority, SimSpan, SimTime};
use tally_workloads::maf2::{self, Maf2Config};
use tally_workloads::openloop::{self, LoadProfile};
use tally_workloads::trace::{ArrivalTrace, TraceGen, TraceJob, TraceMix};
use tally_workloads::{InferModel, TrainModel};

use crate::probe::{host_now, Probe};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Coloc,
    Fleet128,
    Crowd,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "coloc" => Some(Workload::Coloc),
            "fleet128" => Some(Workload::Fleet128),
            "crowd" => Some(Workload::Crowd),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Coloc => "coloc",
            Workload::Fleet128 => "fleet128",
            Workload::Crowd => "crowd",
        }
    }

    /// Timed `run` calls per repetition.
    pub fn runs(self) -> u64 {
        match self {
            Workload::Coloc => 4,
            Workload::Fleet128 | Workload::Crowd => 1,
        }
    }
}

/// `coloc`: one A100, a BERT service beside a closed-loop Whisper-v3
/// trainer (the Figure 5 pairing), under Tally and under TGS, plus the
/// two solo ("Ideal") runs. 40 s give ~5000 hp requests, so the p99 has
/// ~50 samples beyond it.
fn coloc_config() -> HarnessConfig {
    HarnessConfig {
        duration: SimSpan::from_secs(40),
        warmup: SimSpan::from_secs(1),
        seed: 1,
        jitter: 0.02,
        record_timelines: false,
    }
}

/// The coloc service's arrivals: the MAF2 generator at load 0.5 with its
/// lognormal bursts and rare spikes turned off, i.e. Poisson arrivals.
/// With them on, one seed's p99 is 22 ms and another's 110 ms, too wide
/// for any bound to mean something.
fn coloc_arrivals(duration: SimSpan, seed: u64) -> Vec<SimTime> {
    let mut cfg = Maf2Config::new(0.5, InferModel::Bert.paper_latency(), duration).with_seed(seed);
    cfg.burstiness = 0.0;
    cfg.spike_prob = 0.0;
    maf2::arrivals(&cfg)
}

/// `fleet128`: 128 A100s, one synthetic trainer each, Passthrough,
/// round-robin placement, a rebalance pass every 10 ms.
const FLEET_DEVICES: usize = 128;

fn fleet_config() -> HarnessConfig {
    HarnessConfig {
        duration: SimSpan::from_millis(100),
        warmup: SimSpan::ZERO,
        seed: 5,
        jitter: 0.0,
        record_timelines: false,
    }
}

/// `crowd`: 8 A100s in one DGX node, Tally on each, cost-aware
/// `LoadAware` placement, a per-device `SloGuard` with a 60 ms SLO, and
/// `MetricsHub` plus `Timeline` observers.
const CROWD_DEVICES: usize = 8;
const CROWD_SLO: SimSpan = SimSpan::from_millis(60);

fn crowd_config() -> HarnessConfig {
    HarnessConfig {
        duration: SimSpan::from_secs(4),
        warmup: SimSpan::from_secs(1),
        seed: 1,
        jitter: 0.02,
        record_timelines: false,
    }
}

/// The time-series observer a run keeps a handle to, for the export.
pub type Telemetry = Arc<Mutex<Timeline>>;

/// One repetition of a workload: its runs, built and ready to time.
pub struct Plan {
    kind: PlanKind,
    probe: Option<Probe>,
    /// Host nanoseconds spent generating the inputs.
    pub gen_ns: u64,
}

enum PlanKind {
    Coloc(Vec<(&'static str, Colocation<'static>)>),
    Fleet {
        cluster: Box<Cluster>,
        telemetry: Option<Telemetry>,
        jobs: Vec<JobSpec>,
    },
}

/// The reports of one repetition.
pub enum Reports {
    Coloc(Vec<(&'static str, RunReport)>),
    Fleet {
        report: ClusterReport,
        telemetry: Option<Telemetry>,
        /// Every client's job as generated, in fleet order.
        jobs: Vec<JobSpec>,
    },
}

/// FNV-1a hash of a value's `Debug` text, streamed so that a large
/// report's text is never held in memory.
fn debug_hash(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl std::fmt::Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for b in s.bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    std::fmt::write(&mut h, format_args!("{value:?}")).expect("hashing cannot fail");
    h.0
}

impl Reports {
    /// The determinism fingerprint: a hash of the reports' `Debug` text.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Reports::Coloc(runs) => debug_hash(runs),
            Reports::Fleet { report, .. } => debug_hash(report),
        }
    }

    /// Every client report, across all runs.
    pub fn clients(&self) -> Vec<&ClientReport> {
        match self {
            Reports::Coloc(runs) => runs.iter().flat_map(|(_, r)| &r.clients).collect(),
            Reports::Fleet { report, .. } => report.clients.iter().map(|c| &c.report).collect(),
        }
    }

    pub fn cluster(&self) -> Option<&ClusterReport> {
        match self {
            Reports::Coloc(_) => None,
            Reports::Fleet { report, .. } => Some(report),
        }
    }

    pub fn telemetry(&self) -> Option<&Telemetry> {
        match self {
            Reports::Coloc(_) => None,
            Reports::Fleet { telemetry, .. } => telemetry.as_ref(),
        }
    }
}

/// One timed repetition.
pub struct Rep {
    /// Host nanoseconds inside the timed `run` calls.
    pub wall_ns: u64,
    /// Simulated seconds those calls covered.
    pub sim_s: f64,
    pub reports: Reports,
}

/// Generates the inputs of `workload` from `seed` and builds one
/// repetition's runs, wrapping every plug-in in `probe`'s timing proxies
/// when tracing.
pub fn build(workload: Workload, seed: u64, probe: Option<&Probe>) -> Plan {
    let spec = GpuSpec::a100();
    let start = host_now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let system = |s: Box<dyn SharingSystem>| match probe {
        Some(p) => p.system(s),
        None => s,
    };
    let (kind, gen_ns) = match workload {
        Workload::Coloc => {
            let cfg = coloc_config();
            let bert = InferModel::Bert;
            let hp = bert.job(&spec, coloc_arrivals(cfg.duration, rng.next_u64()));
            let be = TrainModel::WhisperV3.job(&spec);
            let gen_ns = start.elapsed().as_nanos() as u64;
            let on = |jobs: Vec<JobSpec>, s: Box<dyn SharingSystem>| {
                Colocation::on(spec.clone())
                    .clients(jobs)
                    .system_boxed(system(s))
                    .config(cfg.clone())
            };
            let tally = Box::new(TallySystem::new(TallyConfig::paper_default()));
            let runs = vec![
                (
                    "tally",
                    on(vec![hp.clone(), be.clone()], tally).transport(Transport::SharedMemory),
                ),
                (
                    "tgs",
                    on(vec![hp.clone(), be.clone()], Box::new(Tgs::new())),
                ),
                ("solo-hp", on(vec![hp], Box::new(Passthrough::new()))),
                ("solo-be", on(vec![be], Box::new(Passthrough::new()))),
            ];
            (PlanKind::Coloc(runs), gen_ns)
        }
        Workload::Fleet128 => {
            let jobs = fleet_trainers(&mut rng);
            let gen_ns = start.elapsed().as_nanos() as u64;
            let policy: Box<dyn PlacementPolicy> = Box::new(RoundRobin::default());
            let p = probe.cloned();
            let cluster = Cluster::new()
                .devices(FLEET_DEVICES, spec)
                .clients(jobs.clone())
                .policy_boxed(match probe {
                    Some(p) => p.policy(policy),
                    None => policy,
                })
                .systems_with(move |_| {
                    let s: Box<dyn SharingSystem> = Box::new(Passthrough::new());
                    match &p {
                        Some(p) => p.system(s),
                        None => s,
                    }
                })
                .rebalance_every(SimSpan::from_millis(10))
                .threads(1)
                .config(fleet_config());
            let kind = PlanKind::Fleet {
                cluster: Box::new(cluster),
                telemetry: None,
                jobs,
            };
            (kind, gen_ns)
        }
        Workload::Crowd => {
            let cfg = crowd_config();
            let (mut jobs, churn) = crowd_inputs(&spec, &cfg, &mut rng);
            let events = churn.session_events(&spec, cfg.duration);
            let gen_ns = start.elapsed().as_nanos() as u64;
            let upfront = jobs.clone();
            jobs.extend(trace_jobs(&events));
            // Sync observers are fed directly as each device settles; `Rc`
            // ones would buffer every event between barriers, and this
            // workload's barriers are seconds apart.
            let hub = MetricsHub::shared_sync();
            let timeline = Timeline::shared_sync(SimSpan::from_millis(50), cfg.duration);
            let observe = |o: SharedSyncObserver| match probe {
                Some(p) => p.observer(o),
                None => o,
            };
            let policy: Box<dyn PlacementPolicy> = Box::new(LoadAware::default());
            let (p_sys, p_adm) = (probe.cloned(), probe.cloned());
            let ceiling = 2.0 * crowd_be_base_qps();
            let cluster = Cluster::new()
                .devices(CROWD_DEVICES, spec)
                .topology(Topology::dgx(CROWD_DEVICES))
                .clients(upfront)
                .trace(events)
                .expect("generated churn traces are well formed")
                .systems_with(move |_| {
                    let s: Box<dyn SharingSystem> =
                        Box::new(TallySystem::new(TallyConfig::paper_default()));
                    match &p_sys {
                        Some(p) => p.system(s),
                        None => s,
                    }
                })
                .transport(Transport::SharedMemory)
                .policy_boxed(match probe {
                    Some(p) => p.policy(policy),
                    None => policy,
                })
                // A half-second monitor window keeps LoadAware from chasing
                // 100 ms hp-pressure noise, which otherwise herds every
                // best-effort service onto one device on some seeds.
                .monitor_window(SimSpan::from_millis(500))
                .admission_with(move |_| {
                    let a: Box<dyn AdmissionPolicy> = Box::new(
                        SloGuard::new(CROWD_SLO)
                            .window(SimSpan::from_millis(100))
                            .qps_range(2.0, ceiling)
                            .aimd(25.0, 0.25),
                    );
                    match &p_adm {
                        Some(p) => p.admission(a),
                        None => a,
                    }
                })
                .sync_observer(observe(hub))
                .sync_observer(observe(timeline.clone()))
                .threads(1)
                .config(cfg);
            let kind = PlanKind::Fleet {
                cluster: Box::new(cluster),
                telemetry: Some(timeline),
                jobs,
            };
            (kind, gen_ns)
        }
    };
    Plan {
        kind,
        probe: probe.cloned(),
        gen_ns,
    }
}

/// One synthetic trainer per device. Every fleet holds the same mix of
/// iteration shapes (one to three kernels of one or two 864-block waves);
/// the seed deals the shapes out to devices and draws each kernel's block
/// cost in 50–150 µs, so the fleet's total work barely moves with it.
fn fleet_trainers(rng: &mut SmallRng) -> Vec<JobSpec> {
    let mut shapes: Vec<usize> = (0..FLEET_DEVICES).collect();
    for i in (1..shapes.len()).rev() {
        shapes.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    shapes
        .into_iter()
        .enumerate()
        .map(|(i, shape)| {
            let (kernels, waves) = (1 + shape % 3, 1 + (shape / 3) % 2);
            let ops = (0..kernels)
                .map(|k| {
                    let kernel = KernelDesc::builder(format!("t{i}.k{k}"))
                        .grid(864 * waves as u32)
                        .block(256)
                        .block_cost(SimSpan::from_micros(50 + rng.next_u64() % 101))
                        .build_arc();
                    WorkloadOp::Kernel(kernel)
                })
                .collect();
            JobSpec::training(format!("t{i}"), ops).with_client_key(format!("t{i}"))
        })
        .collect()
}

fn crowd_be_base_qps() -> f64 {
    0.2 * openloop::solo_capacity_qps(InferModel::Bert)
}

/// The crowd's up-front services and its trainer churn: per device an hp
/// BERT service at 0.6x solo capacity and a best-effort BERT service whose
/// base load takes a 5x flash crowd from 30% to 60% of the run, plus
/// Whisper-v3 trainers arriving and leaving as a seeded churn trace.
fn crowd_inputs(
    spec: &GpuSpec,
    cfg: &HarnessConfig,
    rng: &mut SmallRng,
) -> (Vec<JobSpec>, ArrivalTrace) {
    let bert = InferModel::Bert;
    let d = cfg.duration;
    let hp = LoadProfile::Constant {
        qps: 0.6 * openloop::solo_capacity_qps(bert),
    };
    let crowd = LoadProfile::FlashCrowd {
        base_qps: crowd_be_base_qps(),
        mult: 5.0,
        at: d.mul_f64(0.3),
        len: d.mul_f64(0.3),
    };
    let mut jobs = Vec::new();
    for i in 0..CROWD_DEVICES {
        jobs.push(
            openloop::service(spec, bert, &hp, d, rng.next_u64())
                .with_client_key(format!("hp-{i}")),
        );
    }
    for i in 0..CROWD_DEVICES {
        jobs.push(
            openloop::service(spec, bert, &crowd, d, rng.next_u64())
                .with_priority(Priority::BestEffort)
                .with_client_key(format!("be-{i}")),
        );
    }
    // A light churn, about two trainers attached at a time: the trainers
    // take GPU time from the best-effort services, so the more of them,
    // the more the services' throughput swings from seed to seed.
    let churn = ArrivalTrace::generate(&TraceGen {
        duration: d,
        seed: rng.next_u64(),
        rate: 2.0,
        burstiness: 0.0,
        window: SimSpan::from_millis(500),
        mix: vec![TraceMix {
            job: TraceJob::Train(TrainModel::WhisperV3),
            weight: 1.0,
            mean_service: SimSpan::from_secs(1),
            rearrive: 0.0,
            mean_gap: SimSpan::from_secs(1),
        }],
    });
    (jobs, churn)
}

/// The distinct trace clients' jobs, in first-arrival order (the order
/// the cluster appends them to its client list).
fn trace_jobs(events: &[(SimTime, SessionEvent)]) -> Vec<JobSpec> {
    let mut seen = BTreeSet::new();
    events
        .iter()
        .filter_map(|(_, e)| match e {
            ClientEvent::Arrive { key, job } if seen.insert(key.clone()) => {
                Some(job.clone().with_client_key(key.clone()))
            }
            _ => None,
        })
        .collect()
}

impl Plan {
    /// Executes the repetition's `run` calls, timing each one.
    pub fn run(self) -> Rep {
        let probe = self.probe;
        let timed = |name: &str, f: &mut dyn FnMut()| -> u64 {
            if let Some(p) = &probe {
                p.begin_run(name);
            }
            let t = host_now();
            f();
            let ns = t.elapsed().as_nanos() as u64;
            if let Some(p) = &probe {
                p.end_run();
            }
            ns
        };
        match self.kind {
            PlanKind::Coloc(runs) => {
                let mut wall_ns = 0;
                let mut sim_s = 0.0;
                let mut reports = Vec::new();
                for (name, coloc) in runs {
                    let mut coloc = Some(coloc);
                    let mut report = None;
                    wall_ns += timed(name, &mut || report = coloc.take().map(Colocation::run));
                    let report = report.expect("run executed");
                    sim_s += report.duration.as_secs_f64();
                    reports.push((name, report));
                }
                Rep {
                    wall_ns,
                    sim_s,
                    reports: Reports::Coloc(reports),
                }
            }
            PlanKind::Fleet {
                cluster,
                telemetry,
                jobs,
            } => {
                let mut cluster = Some(cluster);
                let mut report = None;
                let wall_ns = timed("cluster", &mut || {
                    report = cluster.take().map(|c| (*c).run())
                });
                let report = report.expect("run executed");
                Rep {
                    wall_ns,
                    sim_s: report.duration.as_secs_f64(),
                    reports: Reports::Fleet {
                        report,
                        telemetry,
                        jobs,
                    },
                }
            }
        }
    }
}

/// Runs a fleet workload once at `threads` worker threads (a check, never
/// timed) and returns the report fingerprint; `None` for `coloc`.
pub fn fleet_fingerprint_at(workload: Workload, seed: u64, threads: usize) -> Option<u64> {
    match build(workload, seed, None).kind {
        PlanKind::Coloc(_) => None,
        PlanKind::Fleet { cluster, .. } => Some(debug_hash(&(*cluster).threads(threads).run())),
    }
}

/// The workload's simulated results. Deterministic for a seed: a change
/// that only speeds the simulator up leaves every one of them unchanged.
#[derive(Clone, Debug)]
pub struct SimResults {
    /// Pooled high-priority request latencies (coloc: under Tally).
    pub hp: LatencyRecorder,
    /// coloc only: Tally's hp p99 over the solo ("Ideal") p99.
    pub hp_p99_overhead: Option<f64>,
    /// coloc only: sum of solo-normalized throughputs under Tally.
    pub system_throughput: Option<f64>,
    /// Best-effort iterations plus requests per simulated second.
    pub be_throughput: f64,
    pub requests_completed: u64,
    pub requests_shed: u64,
    /// Kernels completed in one repetition's timed runs.
    pub kernels: u64,
    /// Named pass/fail output checks, each naming its evidence.
    pub checks: Vec<(String, bool)>,
}

fn pooled<'a>(clients: impl IntoIterator<Item = &'a ClientReport>) -> LatencyRecorder {
    let mut rec = LatencyRecorder::new();
    for c in clients.into_iter().filter(|c| c.high_priority) {
        for &l in c.latency.samples() {
            rec.record(l);
        }
    }
    rec
}

fn p99(rec: &LatencyRecorder) -> SimSpan {
    rec.p99().unwrap_or(SimSpan::ZERO)
}

fn normalized(report: &ClientReport, solo: &ClientReport) -> f64 {
    if solo.throughput > 0.0 {
        report.throughput / solo.throughput
    } else {
        0.0
    }
}

/// Derives the simulated results and output checks of one repetition.
pub fn results(reports: &Reports) -> SimResults {
    let clients = reports.clients();
    let mut out = SimResults {
        hp: LatencyRecorder::new(),
        hp_p99_overhead: None,
        system_throughput: None,
        be_throughput: 0.0,
        requests_completed: clients.iter().map(|c| c.requests).sum(),
        requests_shed: clients.iter().map(|c| c.shed).sum(),
        kernels: clients.iter().map(|c| c.kernels).sum(),
        checks: Vec::new(),
    };
    match reports {
        Reports::Coloc(runs) => {
            let get = |name: &str| &runs.iter().find(|(n, _)| *n == name).expect("run").1;
            let (tally, tgs) = (get("tally"), get("tgs"));
            let solo_hp = &get("solo-hp").clients[0];
            let solo_be = &get("solo-be").clients[0];
            let ideal = p99(&pooled([solo_hp]));
            let overhead = |r: &RunReport| p99(&pooled(&r.clients)).ratio(ideal);
            let (tally_ovh, tgs_ovh) = (overhead(tally), overhead(tgs));
            out.checks.push((
                format!("tally hp p99 overhead {tally_ovh:.3}x is below tgs {tgs_ovh:.3}x"),
                tally_ovh < tgs_ovh,
            ));
            let hp = tally.high_priority().expect("hp client");
            let be = tally.best_effort().next().expect("be client");
            out.hp = hp.latency.clone();
            out.hp_p99_overhead = Some(tally_ovh);
            out.system_throughput = Some(normalized(hp, solo_hp) + normalized(be, solo_be));
            out.be_throughput = be.throughput;
        }
        Reports::Fleet { report, jobs, .. } => {
            out.hp = pooled(clients.iter().copied());
            out.be_throughput = clients
                .iter()
                .filter(|c| !c.high_priority)
                .map(|c| c.throughput)
                .sum();
            let keys_match = report.clients.len() == jobs.len()
                && report
                    .clients
                    .iter()
                    .zip(jobs)
                    .all(|(c, j)| c.key == j.key());
            out.checks.push((
                format!("{} clients report in fleet order", jobs.len()),
                keys_match,
            ));
            if report.devices.len() == FLEET_DEVICES {
                let stalled = clients.iter().filter(|c| c.iterations == 0).count();
                out.checks.push((
                    format!("every trainer progresses ({stalled} stalled)"),
                    stalled == 0,
                ));
            } else {
                let over = report
                    .clients
                    .iter()
                    .zip(jobs)
                    .filter(|(c, job)| match &job.kind {
                        JobKind::Inference { arrivals, .. } => {
                            c.report.requests + c.report.shed > arrivals.len() as u64
                        }
                        JobKind::Training { .. } => false,
                    })
                    .count();
                out.checks.push((
                    format!("per client, completed + shed <= generated arrivals ({over} over)"),
                    over == 0,
                ));
                out.checks.push((
                    format!("admission sheds requests ({} shed)", out.requests_shed),
                    out.requests_shed > 0,
                ));
            }
        }
    }
    out
}
