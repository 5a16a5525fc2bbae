//! # tally-gpu — a discrete-event GPU simulator for scheduling research
//!
//! This crate is the hardware substrate of the Tally reproduction. It models
//! an NVIDIA A100-class GPU at the granularity that matters for GPU-sharing
//! studies: **thread-block occupancy**. Kernels are described by their grid
//! geometry and a per-block cost model ([`KernelDesc`]); the engine places
//! blocks into SM resources wave by wave, honours launch priorities, applies
//! a memory-bandwidth interference model, and supports the two block-level
//! scheduling shapes Tally's kernel transformations produce — slices and
//! persistent-thread-block (preemptible) launches ([`LaunchShape`]).
//!
//! ## Quick tour
//!
//! ```
//! use tally_gpu::{
//!     ClientId, Engine, GpuSpec, KernelDesc, LaunchRequest, LaunchShape,
//!     Priority, SimSpan, SimTime, Step,
//! };
//!
//! let mut engine = Engine::new(GpuSpec::a100());
//!
//! // A best-effort kernel in preemptible (PTB) form.
//! let train = KernelDesc::builder("whisper::attention")
//!     .grid(4320)
//!     .block(256)
//!     .block_cost(SimSpan::from_micros(120))
//!     .mem_intensity(0.7)
//!     .build();
//! let be = engine.submit(LaunchRequest {
//!     kernel: &train,
//!     shape: LaunchShape::Ptb { workers: 432, offset: 0, overhead_ppm: 250 },
//!     client: ClientId(0),
//!     priority: Priority::BestEffort,
//! });
//!
//! // A high-priority kernel arrives 1ms in: preempt and take over.
//! let mut notes = Vec::new();
//! engine.advance(SimTime::from_millis(1), &mut notes);
//! engine.preempt(be);
//! let infer = KernelDesc::builder("bert::qkv")
//!     .grid(864)
//!     .block(256)
//!     .block_cost(SimSpan::from_micros(40))
//!     .build();
//! engine.submit(LaunchRequest::full(&infer, ClientId(1), Priority::High));
//!
//! while let Step::Notified = engine.advance(SimTime::MAX, &mut notes) {
//!     for n in notes.drain(..) {
//!         println!("{:?}", n);
//!     }
//! }
//! ```
//!
//! The engine is deterministic: identical submissions produce identical
//! timelines (optional duration jitter is driven by a seedable PRNG).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod kernel;
mod launch;
pub mod rng;
mod spec;
mod time;

pub use engine::{Engine, EngineStats, Step};
pub use kernel::{fresh_kernel_id, Dim3, KernelDesc, KernelDescBuilder, KernelId, KernelOrigin};
pub use launch::{ClientId, LaunchId, LaunchRequest, LaunchShape, Notification, Priority};
pub use spec::GpuSpec;
pub use time::{SimSpan, SimTime};
