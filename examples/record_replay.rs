//! Recording a live run and replaying it: the event-stream observer API
//! end to end.
//!
//! A two-GPU fleet serves a churny, trace-driven workload under the
//! `LoadAware` placement policy (which reads the live `DeviceLoad`
//! signals distilled from the same event stream). While the fleet runs,
//! two observers ride along:
//!
//! * a [`TraceRecorder`] captures every client lifecycle edge, producing
//!   an `ArrivalTrace` that — serialized to text, parsed back, and
//!   replayed — reproduces the whole fleet report byte for byte;
//! * a tiny custom [`SessionObserver`] tallies the raw event volume, the
//!   kind of instrumentation the typed stream makes one-liners.
//!
//! Run with: `cargo run --release --example record_replay`

use std::sync::{Arc, Mutex};

use tally::prelude::*;
use tally_workloads::trace::TraceRecorder;

/// Counts observations by kind — a minimal custom observer.
#[derive(Default)]
struct EventTally {
    attaches: u64,
    detaches: u64,
    kernels: u64,
    requests: u64,
    migrations: u64,
}

impl SessionObserver for EventTally {
    fn on_event(&mut self, _at: SimTime, _device: usize, event: &Observation) {
        match event {
            Observation::ClientAttached { .. } => self.attaches += 1,
            Observation::ClientDetached { .. } => self.detaches += 1,
            Observation::KernelFinished { .. } => self.kernels += 1,
            Observation::RequestCompleted { .. } => self.requests += 1,
            Observation::ClientMigrated { .. } => self.migrations += 1,
            _ => {}
        }
    }
}

fn main() {
    let spec = GpuSpec::a100();
    let duration = SimSpan::from_secs(8);
    let cfg = HarnessConfig {
        duration,
        warmup: SimSpan::ZERO,
        seed: 11,
        jitter: 0.0,
        record_timelines: false,
    };

    // A seeded churn trace drives the fleet: trainers and services that
    // arrive, depart, and re-attach over the run.
    let source = ArrivalTrace::generate(&TraceGen::churn(duration, 1.0, 77));
    println!(
        "source trace: {} events over {} clients",
        source.len(),
        source.keys().count()
    );

    let run = |trace: &ArrivalTrace,
               recorder: Option<Arc<Mutex<TraceRecorder>>>,
               tally: Option<Arc<Mutex<EventTally>>>| {
        let mut cluster = Cluster::new()
            .devices(2, spec.clone())
            .policy(LoadAware::default())
            .rebalance_every(SimSpan::from_millis(250))
            .trace(trace.session_events(&spec, duration))
            .expect("valid trace")
            .config(cfg.clone());
        if let Some(rec) = recorder {
            cluster = cluster.sync_observer(rec);
        }
        if let Some(t) = tally {
            cluster = cluster.sync_observer(t);
        }
        cluster.run()
    };

    // 1. The live run, observed.
    let recorder = TraceRecorder::shared_sync();
    let tally = Arc::new(Mutex::new(EventTally::default()));
    let live = run(&source, Some(recorder.clone()), Some(tally.clone()));
    {
        let t = tally.lock().expect("tally");
        println!("\n=== live run ({} policy) ===", live.policy);
        println!(
            "observed: {} attaches, {} detaches, {} kernels, {} requests, {} migrations",
            t.attaches, t.detaches, t.kernels, t.requests, t.migrations
        );
    }
    for d in &live.devices {
        println!(
            "device {}: {} placed, {} resident at end, throughput {:.2}",
            d.device, d.placed, d.residents, d.throughput
        );
    }

    // 2. The capture, serialized exactly as you would check it in.
    let captured = recorder
        .lock()
        .expect("recorder")
        .trace()
        .expect("recordable run");
    let text = captured.to_text();
    println!("\n=== captured trace ({} events) ===", captured.len());
    for line in text.lines().take(8) {
        println!("  {line}");
    }
    println!(
        "  ... ({} more lines)",
        text.lines().count().saturating_sub(8)
    );

    // 3. Parse the text back and replay the fleet: byte-identical report.
    let reloaded = ArrivalTrace::parse(&text).expect("canonical text parses");
    let replay = run(&reloaded, None, None);
    assert_eq!(
        format!("{live:?}"),
        format!("{replay:?}"),
        "replaying the recorded text diverged from the live run"
    );
    println!(
        "\nreplay of the captured text reproduces the live fleet report byte-identically \
         ({} clients, {} migrations, fleet p99 {:?})",
        replay.clients.len(),
        replay.migrations,
        replay.fleet_p99()
    );
}
