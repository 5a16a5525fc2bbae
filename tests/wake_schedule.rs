//! The wake-up contract between a session and its sharing system.
//!
//! A session wakes only when it or its system has work: a client edge, an
//! in-transit launch, an engine notification or the system's timer. It
//! never polls at instants where only engine-internal events happen, and a
//! settle polls again at the same instant only when its last pass left
//! work due. That is sound only because every in-tree system's `poll` is
//! idempotent at an instant and makes its decisions from notifications,
//! client advances and timer expiries.
//!
//! These tests pin that contract: wrapping each system so that it is also
//! polled at every engine event, or polled twice per call, must leave the
//! run report and the observer stream unchanged.

use std::sync::{Arc, Mutex};

use tally::core::system::Ctx;
use tally::gpu::Notification;
use tally::prelude::*;

const DURATION: SimSpan = SimSpan::from_secs(1);

fn cfg() -> HarnessConfig {
    HarnessConfig {
        duration: DURATION,
        warmup: SimSpan::from_millis(100),
        seed: 3,
        jitter: 0.02,
        record_timelines: true,
    }
}

/// Asks to be polled at every engine event as well as at the inner
/// system's timer: the wake schedule of a session that woke at each
/// launch arrival, wave and PTB round.
struct PollAtEngineEvents<S: ?Sized> {
    inner: Box<S>,
    engine_next: Option<SimTime>,
}

impl<S: SharingSystem + ?Sized> PollAtEngineEvents<S> {
    fn new(inner: Box<S>) -> Self {
        PollAtEngineEvents {
            inner,
            engine_next: None,
        }
    }

    fn note(&mut self, ctx: &Ctx<'_>) {
        self.engine_next = ctx.engine.next_event_time();
    }
}

impl<S: SharingSystem + ?Sized> SharingSystem for PollAtEngineEvents<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        self.inner.on_kernel_ready(ctx, client, kernel);
        self.note(ctx);
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        self.inner.on_notification(ctx, note);
        self.note(ctx);
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.poll(ctx);
        self.note(ctx);
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.engine_next
            .into_iter()
            .chain(self.inner.next_timer())
            .min()
    }

    fn on_client_attach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.inner.on_client_attach(ctx, client);
        self.note(ctx);
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.inner.on_client_detach(ctx, client);
        self.note(ctx);
    }
}

/// Polls the inner system twice per call: a second poll with no new input
/// at the same instant must do nothing.
struct PollTwice<S: ?Sized>(Box<S>);

impl<S: SharingSystem + ?Sized> SharingSystem for PollTwice<S> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        self.0.on_kernel_ready(ctx, client, kernel);
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        self.0.on_notification(ctx, note);
    }

    fn poll(&mut self, ctx: &mut Ctx<'_>) {
        self.0.poll(ctx);
        self.0.poll(ctx);
    }

    fn next_timer(&self) -> Option<SimTime> {
        self.0.next_timer()
    }

    fn on_client_attach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.0.on_client_attach(ctx, client);
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.0.on_client_detach(ctx, client);
    }
}

/// Records every observation as one line of text.
#[derive(Default)]
struct Lines(Vec<String>);

impl SessionObserver for Lines {
    fn on_event(&mut self, at: SimTime, device: usize, event: &Observation) {
        self.0.push(format!("{at:?} {device} {event:?}"));
    }
}

/// A BERT service (MAF2 arrivals at 50% load) beside a PointNet trainer.
/// Built once: kernel ids are global, so rebuilt jobs would read as a
/// different observer stream.
fn pairing() -> Vec<JobSpec> {
    let spec = GpuSpec::a100();
    let trace = arrivals(&Maf2Config::new(
        0.5,
        InferModel::Bert.paper_latency(),
        DURATION,
    ));
    vec![
        InferModel::Bert.job(&spec, trace),
        TrainModel::PointNet.job(&spec),
    ]
}

/// Runs `jobs` under `system`; returns the report's `Debug` text and the
/// observer stream.
fn run(
    jobs: &[JobSpec],
    system: Box<dyn SharingSystem>,
    transport: Option<Transport>,
) -> (String, Vec<String>) {
    let lines = Arc::new(Mutex::new(Lines::default()));
    let mut session = Colocation::on(GpuSpec::a100())
        .clients(jobs.iter().cloned())
        .system_boxed(system)
        .config(cfg())
        .sync_observer(lines.clone());
    if let Some(t) = transport {
        session = session.transport(t);
    }
    let report = format!("{:?}", session.run());
    let stream = std::mem::take(&mut lines.lock().expect("observer").0);
    (report, stream)
}

/// Every in-tree sharing system.
const SYSTEMS: [fn() -> Box<dyn SharingSystem>; 8] = [
    || Box::new(Passthrough::new()),
    || Box::new(TallySystem::new(TallyConfig::paper_default())),
    || Box::new(Tgs::new()),
    || Box::new(TimeSlicing::new()),
    || Box::new(Mps::new()),
    || Box::new(Mps::with_priority()),
    || Box::new(Mps::no_scheduling()),
    || Box::new(KernelLevelPriority::new()),
];

/// Runs every in-tree system plain, polled at every engine event, and
/// polled twice, and checks that all three runs agree.
fn extra_polls_change_nothing(transport: Option<Transport>) {
    let jobs = pairing();
    for make in SYSTEMS {
        let name = make().name().to_string();
        let (report, stream) = run(&jobs, make(), transport);
        assert!(!stream.is_empty(), "{name}: the observer saw the run");
        let (at_events, at_events_stream) =
            run(&jobs, Box::new(PollAtEngineEvents::new(make())), transport);
        assert_eq!(
            report, at_events,
            "{name} ({transport:?}): polling at every engine event changed the report"
        );
        assert!(
            stream == at_events_stream,
            "{name} ({transport:?}): polling at every engine event changed the observer stream"
        );
        let (twice, twice_stream) = run(&jobs, Box::new(PollTwice(make())), transport);
        assert_eq!(
            report, twice,
            "{name} ({transport:?}): a second poll changed the report"
        );
        assert!(
            stream == twice_stream,
            "{name} ({transport:?}): a second poll changed the observer stream"
        );
    }
}

#[test]
fn extra_polls_change_nothing_natively() {
    extra_polls_change_nothing(None);
}

#[test]
fn extra_polls_change_nothing_behind_shared_memory_stubs() {
    extra_polls_change_nothing(Some(Transport::SharedMemory));
}
