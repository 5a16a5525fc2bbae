//! # tally — non-intrusive performance isolation for concurrent DL workloads
//!
//! A full-system reproduction of *"Tally: Non-Intrusive Performance
//! Isolation for Concurrent Deep Learning Workloads"* (Zhao, Jayarajan,
//! Pekhimenko — ASPLOS 2025), built on a from-scratch discrete-event GPU
//! simulator and a mini-PTX compiler stack.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`gpu`] ([`tally_gpu`]) — the A100-class discrete-event GPU engine;
//! * [`ptx`] ([`tally_ptx`]) — the mini-PTX IR, Tally's three kernel
//!   transformation passes, and the verifying interpreter;
//! * [`core`] ([`tally_core`]) — Tally itself: virtualization layer,
//!   transparent profiler, priority-aware scheduler, co-location harness;
//! * [`workloads`] ([`tally_workloads`]) — the paper's Table 2 benchmark
//!   suite and MAF2-style traffic;
//! * [`baselines`] ([`tally_baselines`]) — Time-Slicing, MPS,
//!   MPS-Priority, TGS, and the Figure 7b ablations.
//!
//! ```
//! use tally::prelude::*;
//!
//! let spec = GpuSpec::a100();
//! let trainer = TrainModel::PointNet.job(&spec);
//! let arrivals = tally::workloads::maf2::poisson_arrivals(
//!     0.3,
//!     InferModel::ResNet50.paper_latency(),
//!     SimSpan::from_secs(2),
//!     7,
//! );
//! let service = InferModel::ResNet50.job(&spec, arrivals);
//! let mut tally = TallySystem::new(TallyConfig::paper_default());
//! let report = Colocation::on(spec)
//!     .client(service)
//!     .client(trainer)
//!     .system(&mut tally)
//!     .config(HarnessConfig {
//!         duration: SimSpan::from_secs(2),
//!         warmup: SimSpan::from_millis(200),
//!         ..Default::default()
//!     })
//!     .transport(Transport::SharedMemory)
//!     .run();
//! assert!(report.high_priority().unwrap().requests > 0);
//! ```

#![warn(missing_docs)]

pub use tally_baselines as baselines;
pub use tally_core as core;
pub use tally_gpu as gpu;
pub use tally_ptx as ptx;
pub use tally_workloads as workloads;

/// One-stop imports for examples and downstream experiments.
pub mod prelude {
    pub use tally_baselines::{KernelLevelPriority, Mps, Tgs, TimeSlicing};
    pub use tally_core::admission::{
        AdmissionPolicy, AdmissionVerdict, QueueCap, RejectNever, SloGuard,
    };
    pub use tally_core::api::{ApiCall, ClientStub, InterceptStats, Transport};
    pub use tally_core::cluster::{
        BestEffortPacking, Cluster, ClusterClientReport, ClusterReport, DeviceLoad, DeviceReport,
        LeastLoaded, LoadAware, PlacementPolicy, RoundRobin,
    };
    pub use tally_core::events::{
        Observation, SessionObserver, SharedSyncObserver, TraceError, FLEET_DEVICE,
    };
    pub use tally_core::harness::{
        run_solo, ActivityWindow, Colocation, HarnessConfig, JobKind, JobSpec, Session,
        SessionEvent, WorkloadOp,
    };
    pub use tally_core::metrics::{ClientReport, LatencyRecorder, RunReport, Windowed};
    pub use tally_core::scheduler::{TallyConfig, TallySystem};
    pub use tally_core::system::{Passthrough, SharingSystem};
    pub use tally_core::topology::{Link, LinkKind, Topology};

    pub use tally_core::telemetry::{
        ChromeTraceWriter, ClientMetrics, DeviceMetrics, Histogram, MetricSample, MetricsHub,
        Timeline, TimelineWindow,
    };
    pub use tally_gpu::{
        ClientId, Dim3, Engine, GpuSpec, KernelDesc, KernelOrigin, LaunchRequest, LaunchShape,
        Priority, SimSpan, SimTime, Step,
    };
    pub use tally_workloads::maf2::{arrivals, Maf2Config};
    pub use tally_workloads::openloop::{self, LoadProfile};
    pub use tally_workloads::trace::{
        ArrivalTrace, ClientEvent, TraceGen, TraceJob, TraceMix, TraceRecorder,
    };
    pub use tally_workloads::{InferModel, TrainModel};
}
