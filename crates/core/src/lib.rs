//! # tally-core — the Tally GPU-sharing system
//!
//! A reproduction of *"Tally: Non-Intrusive Performance Isolation for
//! Concurrent Deep Learning Workloads"* (ASPLOS 2025). Tally is a
//! transparent virtualization layer that co-locates one latency-critical
//! task with best-effort tasks on a single GPU while keeping the
//! latency-critical task's tail latency within a few percent of solo
//! execution.
//!
//! The pieces, mapped to the paper:
//!
//! | paper component | module |
//! |---|---|
//! | non-intrusive virtualization layer (§4.3) | [`api`] |
//! | kernel transformer (§4.1; device-code passes in `tally_ptx::passes`) | [`transform`] |
//! | transparent profiler + turnaround estimation (§4.2, Eq. 1) | [`profiler`] |
//! | priority-aware scheduler (Figure 4) | [`scheduler`] |
//! | co-location experiment harness + metrics (§5.1) | [`harness`], [`metrics`] |
//! | the `SharingSystem` interface baselines implement | [`system`] |
//! | multi-GPU placement, barrier-parallel drive, migration (beyond the paper) | [`cluster`] |
//! | typed event stream, observers, runtime load signals (beyond the paper) | [`events`] |
//! | observer-driven admission control for open-loop load (beyond the paper) | [`admission`] |
//! | metrics registry, time-series sampler, Chrome-trace export (beyond the paper) | [`telemetry`] |
//! | device-interconnect graph + migration transfer costs (beyond the paper) | [`topology`] |
//!
//! ## Quickstart
//!
//! ```
//! use tally_core::api::Transport;
//! use tally_core::harness::{Colocation, HarnessConfig, JobSpec, WorkloadOp};
//! use tally_core::scheduler::{TallyConfig, TallySystem};
//! use tally_gpu::{GpuSpec, KernelDesc, SimSpan, SimTime};
//!
//! // A high-priority inference service…
//! let infer = KernelDesc::builder("bert::layer")
//!     .grid(432).block(256)
//!     .block_cost(SimSpan::from_micros(50))
//!     .build_arc();
//! let hp = JobSpec::inference(
//!     "bert-infer",
//!     vec![WorkloadOp::Kernel(infer)],
//!     (0..200).map(|i| SimTime::from_millis(5 * i)).collect(),
//! );
//! // …co-located with a best-effort trainer that joins 500 ms in.
//! let train = KernelDesc::builder("whisper::attn")
//!     .grid(8640).block(256)
//!     .block_cost(SimSpan::from_micros(150))
//!     .mem_intensity(0.7)
//!     .build_arc();
//! let be = JobSpec::training("whisper-train", vec![WorkloadOp::Kernel(train)])
//!     .active_from(SimTime::from_millis(500));
//!
//! let mut tally = TallySystem::new(TallyConfig::paper_default());
//! let report = Colocation::on(GpuSpec::a100())
//!     .client(hp)
//!     .client(be)
//!     .system(&mut tally)
//!     .config(HarnessConfig {
//!         duration: SimSpan::from_secs(2),
//!         warmup: SimSpan::from_millis(200),
//!         ..Default::default()
//!     })
//!     .transport(Transport::SharedMemory) // §4.3 interception layer
//!     .run();
//! println!("p99 = {:?}", report.high_priority().unwrap().p99());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod admission;
pub mod api;
pub mod cluster;
pub mod events;
pub mod harness;
pub mod metrics;
pub mod profiler;
pub mod scheduler;
pub mod system;
pub mod telemetry;
pub mod topology;
pub mod transform;

pub use admission::{AdmissionPolicy, AdmissionVerdict, QueueCap, RejectNever, SloGuard};
pub use api::{ApiCall, ClientStub, InterceptStats, Transport};
pub use cluster::{
    BestEffortPacking, Cluster, ClusterClientReport, ClusterReport, DeviceLoad, DeviceReport,
    LeastLoaded, LoadAware, PlacementPolicy, RoundRobin,
};
pub use events::{
    ClientEvent, Observation, SessionObserver, SharedSyncObserver, TraceError, FLEET_DEVICE,
};
pub use harness::{
    run_solo, Colocation, HarnessConfig, JobKind, JobSpec, Session, SessionEvent, WorkloadOp,
};
pub use metrics::{ClientReport, HostStats, LatencyRecorder, RunReport, Windowed};
pub use scheduler::{TallyConfig, TallySystem};
pub use system::{ClientMeta, Ctx, Passthrough, SharingSystem};
pub use telemetry::{
    ChromeTraceWriter, ClientMetrics, DeviceMetrics, Histogram, MetricSample, MetricsHub, Timeline,
    TimelineWindow,
};
pub use topology::{Link, LinkKind, Topology};
