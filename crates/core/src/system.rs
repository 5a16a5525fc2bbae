//! The [`SharingSystem`] abstraction: how a GPU-sharing policy plugs into
//! the co-location harness.
//!
//! A sharing system sits between clients (whose kernels arrive one at a
//! time, in order) and the [`Engine`]. The harness tells the system when a
//! client's next kernel is ready; the system decides *when and in what
//! shape* to put work on the GPU, and signals logical kernel completion
//! back through [`Ctx::complete_kernel`] so the harness can advance the
//! client's program.
//!
//! Both Tally and every baseline (Time-Slicing, MPS, MPS-Priority, TGS, and
//! the ablations) implement this one trait, which is what makes the
//! paper's head-to-head experiments one-liners.

use std::sync::Arc;

use tally_gpu::{
    ClientId, Engine, KernelDesc, LaunchId, LaunchRequest, Notification, Priority, SimTime,
};

/// Static facts about one client, available to systems through [`Ctx`].
#[derive(Clone, Debug)]
pub struct ClientMeta {
    /// Display name.
    pub name: String,
    /// Scheduling class.
    pub priority: Priority,
    /// Stable client identity (see
    /// [`JobSpec::client_key`](crate::harness::JobSpec::client_key)):
    /// unlike the [`ClientId`] index, it survives detach/re-attach and
    /// cross-device migration. `None` when the job did not set one.
    pub client_key: Option<String>,
}

/// The interface a sharing system sees while a co-location run executes.
///
/// Wraps the engine plus the client table, and appends the logical
/// kernel-completion signals the system emits to a completion list the
/// harness owns. A `Ctx` borrows that list rather than owning one, so the
/// signals land where the harness reads them next and a session that
/// reuses one list signals completions without allocating.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The GPU engine; systems submit and preempt launches through it.
    pub engine: &'a mut Engine,
    clients: &'a [ClientMeta],
    completions: &'a mut Vec<ClientId>,
}

impl<'a> Ctx<'a> {
    /// Creates a context (harness-internal; public for custom harnesses).
    /// [`Ctx::complete_kernel`] appends to `completions`, which the caller
    /// drains.
    pub fn new(
        engine: &'a mut Engine,
        clients: &'a [ClientMeta],
        completions: &'a mut Vec<ClientId>,
    ) -> Self {
        Ctx {
            engine,
            clients,
            completions,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Scheduling class of `client`.
    pub fn priority(&self, client: ClientId) -> Priority {
        self.clients[client.0 as usize].priority
    }

    /// Stable identity of `client`, when its job carries one — the key to
    /// use for per-client state that should survive re-attach or
    /// cross-device migration (the session-local [`ClientId`] does not).
    pub fn client_key(&self, client: ClientId) -> Option<&str> {
        self.clients[client.0 as usize].client_key.as_deref()
    }

    /// Number of clients in the run.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Signals that `client`'s current logical kernel has finished; the
    /// harness will advance that client's program.
    pub fn complete_kernel(&mut self, client: ClientId) {
        self.completions.push(client);
    }
}

/// A GPU-sharing policy under test.
///
/// The harness guarantees:
///
/// * per client, at most one logical kernel is outstanding — a new
///   [`SharingSystem::on_kernel_ready`] for a client only follows that
///   client's [`Ctx::complete_kernel`];
/// * every engine [`Notification`] is delivered exactly once, in timestamp
///   order, via [`SharingSystem::on_notification`];
/// * [`SharingSystem::poll`] runs after each batch of deliveries and
///   client-program advances, and at every [`SharingSystem::next_timer`]
///   expiry — all scheduling decisions can be confined there;
/// * `poll` is not called at instants where only engine-internal events
///   happen (a launch arriving on the GPU, a wave or PTB round ending):
///   those change nothing a system is told about. A system that must act
///   at such an instant asks for it through `next_timer`.
///
/// In return, a system's `poll` must be a no-op when nothing reached the
/// system since its previous poll at the same instant. The harness may
/// or may not repeat a poll at an instant, and outputs must not depend on
/// which. `tests/wake_schedule.rs` checks both halves for every in-tree
/// system.
///
/// Systems must be [`Send`]: a multi-GPU
/// [`Cluster`](crate::cluster::Cluster) advances each device's session on
/// a worker thread between barriers, carrying the system with it. A
/// system is never *shared* between threads (no `Sync` needed) — it just
/// has to be movable, so keep `Rc`/`RefCell` out of system state.
pub trait SharingSystem: Send {
    /// Short system name (used in reports, e.g. `"tally"`, `"mps"`).
    fn name(&self) -> &str;

    /// A client's next logical kernel is ready for scheduling.
    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>);

    /// An engine notification (launch completed / preempted) fired.
    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification);

    /// Make scheduling decisions (called after deliveries, client advances
    /// and timer fires). Must be a no-op when nothing reached the system
    /// since its previous poll at the same instant. Default: no-op.
    fn poll(&mut self, _ctx: &mut Ctx<'_>) {}

    /// The next instant the system wants `poll` to run even with no other
    /// activity (rate controllers, time-slicing quanta). `None` = no timer.
    fn next_timer(&self) -> Option<SimTime> {
        None
    }

    /// A client attached to the session (an activity window opened).
    ///
    /// Called before the client issues any kernel. A client with a
    /// multi-window schedule *re-attaches* through this same hook after
    /// each detach — under the same [`ClientId`] (and stable
    /// [`Ctx::client_key`]) — so an implementation must tolerate seeing a
    /// previously detached client again. Default: no-op.
    fn on_client_attach(&mut self, _ctx: &mut Ctx<'_>, _client: ClientId) {}

    /// A client detached from the session (its activity window closed).
    ///
    /// The system must reclaim all per-client state: forget queued kernels,
    /// preempt the client's in-flight launches, and drop it from any
    /// scheduling rotation. No [`SharingSystem::on_kernel_ready`] will
    /// arrive for this client while it is detached, and completion signals
    /// for it are discarded by the harness — but a scheduled re-attach may
    /// bring it back later (see [`SharingSystem::on_client_attach`]). A
    /// system that books its whole-kernel launches in a [`Launches`] ledger
    /// reclaims them with [`Launches::preempt`]. Default: no-op.
    fn on_client_detach(&mut self, _ctx: &mut Ctx<'_>, _client: ClientId) {}
}

/// The launches a system has put on the GPU, one per client's logical
/// kernel, that have not completed yet.
///
/// Systems that submit every logical kernel as one whole launch share this
/// ledger: it books each launch against its client, turns the launch's
/// [`Notification::Completed`] into [`Ctx::complete_kernel`], and
/// preempts a departing client's launches. Since a client has at most one
/// logical kernel outstanding, it has at most one booked launch per
/// ledger.
#[derive(Debug, Default)]
pub struct Launches {
    booked: Vec<(LaunchId, ClientId)>,
}

impl Launches {
    /// Submits `req` to the engine and books the launch for its client.
    pub fn submit(&mut self, ctx: &mut Ctx<'_>, req: LaunchRequest<'_>) -> LaunchId {
        let client = req.client;
        let id = ctx.engine.submit(req);
        self.booked.push((id, client));
        id
    }

    /// When `note` is the completion of a booked launch, signals its
    /// client's kernel complete, forgets the launch and returns `true`.
    /// Any other notification is left alone.
    pub fn complete(&mut self, ctx: &mut Ctx<'_>, note: &Notification) -> bool {
        let Notification::Completed { id, .. } = *note else {
            return false;
        };
        let Some(pos) = self.booked.iter().position(|&(l, _)| l == id) else {
            return false;
        };
        let (_, client) = self.booked.swap_remove(pos);
        ctx.complete_kernel(client);
        true
    }

    /// Preempts and forgets `client`'s booked launches (the
    /// [`SharingSystem::on_client_detach`] duty).
    pub fn preempt(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.booked.retain(|&(id, c)| {
            if c == client {
                ctx.engine.preempt(id);
            }
            c != client
        });
    }

    /// Whether no launch is booked.
    pub fn is_empty(&self) -> bool {
        self.booked.is_empty()
    }
}

/// The trivial system: forwards every kernel to the GPU immediately at its
/// client's priority and reports completion when the engine does.
///
/// Used for solo ("Ideal") runs and for fleets that exercise the cluster
/// rather than a sharing policy. It is not the paper's *No-Scheduling*
/// ablation (Figure 7b): the benches run `tally_baselines::Mps::no_scheduling`
/// for that, which dispatches every kernel at one priority, while
/// `Passthrough` keeps each client's. API forwarding cost is not modeled
/// here: it belongs to the session's interception layer
/// ([`Colocation::transport`](crate::harness::Colocation::transport)).
#[derive(Debug, Default)]
pub struct Passthrough {
    launches: Launches,
}

impl Passthrough {
    /// Native passthrough.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SharingSystem for Passthrough {
    fn name(&self) -> &str {
        "passthrough"
    }

    fn on_kernel_ready(&mut self, ctx: &mut Ctx<'_>, client: ClientId, kernel: Arc<KernelDesc>) {
        let priority = ctx.priority(client);
        self.launches
            .submit(ctx, LaunchRequest::full(&kernel, client, priority));
    }

    fn on_notification(&mut self, ctx: &mut Ctx<'_>, note: &Notification) {
        self.launches.complete(ctx, note);
    }

    fn on_client_detach(&mut self, ctx: &mut Ctx<'_>, client: ClientId) {
        self.launches.preempt(ctx, client);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tally_gpu::{GpuSpec, SimSpan, Step};

    fn metas() -> Vec<ClientMeta> {
        vec![
            ClientMeta {
                name: "a".into(),
                priority: Priority::High,
                client_key: None,
            },
            ClientMeta {
                name: "b".into(),
                priority: Priority::BestEffort,
                client_key: Some("tenant-b".into()),
            },
        ]
    }

    #[test]
    fn ctx_collects_completions() {
        let mut engine = Engine::new(GpuSpec::tiny());
        let clients = metas();
        let mut completions = vec![ClientId(1)];
        let mut ctx = Ctx::new(&mut engine, &clients, &mut completions);
        assert_eq!(ctx.priority(ClientId(1)), Priority::BestEffort);
        assert_eq!(ctx.client_key(ClientId(0)), None);
        assert_eq!(ctx.client_key(ClientId(1)), Some("tenant-b"));
        ctx.complete_kernel(ClientId(0));
        ctx.complete_kernel(ClientId(1));
        // Signals append after what the list already held.
        assert_eq!(completions, vec![ClientId(1), ClientId(0), ClientId(1)]);
    }

    fn kernel() -> KernelDesc {
        KernelDesc::builder("k")
            .grid(4)
            .block(128)
            .block_cost(SimSpan::from_micros(10))
            .build()
    }

    /// Books one launch per client, preempts client 0's, and runs the
    /// engine dry: returns both launch ids and every notification.
    fn preempt_client_0(
        ctx: &mut Ctx<'_>,
        launches: &mut Launches,
    ) -> (LaunchId, LaunchId, Vec<Notification>) {
        let k = kernel();
        let a = launches.submit(ctx, LaunchRequest::full(&k, ClientId(0), Priority::High));
        let b = launches.submit(ctx, LaunchRequest::full(&k, ClientId(1), Priority::High));
        launches.preempt(ctx, ClientId(0));
        assert!(!ctx.engine.is_active(a), "client 0's launch is preempted");
        assert!(ctx.engine.is_active(b), "client 1's launch still runs");
        assert!(!launches.is_empty(), "client 1's launch is still booked");
        let mut notes = Vec::new();
        while ctx.engine.advance(SimTime::MAX, &mut notes) != Step::Idle {}
        (a, b, notes)
    }

    #[test]
    fn launches_preempt_only_the_departing_clients_launch() {
        let mut engine = Engine::new(GpuSpec::tiny());
        let clients = metas();
        let mut completions = Vec::new();
        let mut ctx = Ctx::new(&mut engine, &clients, &mut completions);
        let mut launches = Launches::default();
        let (a, b, notes) = preempt_client_0(&mut ctx, &mut launches);
        assert!(matches!(notes[..], [
            Notification::Preempted { id: pa, .. },
            Notification::Completed { id: cb, .. },
        ] if pa == a && cb == b));
    }

    #[test]
    fn launches_complete_only_booked_completions_for_their_client() {
        let mut engine = Engine::new(GpuSpec::tiny());
        let clients = metas();
        let mut completions = Vec::new();
        let mut ctx = Ctx::new(&mut engine, &clients, &mut completions);
        let mut launches = Launches::default();
        let (a, _, notes) = preempt_client_0(&mut ctx, &mut launches);
        // A preemption never completes a kernel, and neither does the
        // completion of a launch the ledger has forgotten.
        assert!(!launches.complete(&mut ctx, &notes[0]));
        let unbooked = Notification::Completed {
            id: a,
            client: ClientId(0),
            at: ctx.now(),
        };
        assert!(!launches.complete(&mut ctx, &unbooked));
        assert!(launches.complete(&mut ctx, &notes[1]));
        assert!(launches.is_empty());
        assert!(!launches.complete(&mut ctx, &notes[1]), "already forgotten");
        assert_eq!(completions, vec![ClientId(1)]);
    }
}
