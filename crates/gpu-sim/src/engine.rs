//! The discrete-event GPU execution engine.
//!
//! The engine models the part of a GPU that matters for scheduling-granularity
//! studies: a pool of SM resources (block slots, thread slots, shared memory),
//! a hardware block dispatcher that places pending thread blocks into free
//! slots in `(priority, submission order)` order, per-launch progress, and a
//! memory-bandwidth interference model.
//!
//! The engine keeps only *live* launches — pending (not yet arrived),
//! resident, or draining. A launch is retired the moment it completes or
//! finishes draining after a preemption, so the engine's memory is bounded
//! by what is in flight, not by how many launches a run has submitted.
//! A [`LaunchRequest`] borrows its kernel: [`Engine::submit`] copies the
//! launch's geometry and cost (threads per block, shared memory, block
//! cost, memory intensity and the wave-chunk cap) into the live record
//! and keeps no reference to the kernel, so submitting and retiring a
//! launch touch no reference count.
//!
//! [`Engine::advance`] appends the notifications it fires to a buffer the
//! caller owns and passes in, so a driver that reuses one buffer steps the
//! engine without allocating. [`Engine::advance_sampled`] also appends the
//! busy integral of every instant it runs through to a second such
//! buffer, so a caller that samples the device still advances in one
//! call.
//!
//! # Execution model
//!
//! * A [`LaunchRequest`] becomes dispatchable after
//!   [`GpuSpec::launch_overhead`].
//! * `Full` and `Slice` launches execute their blocks in *waves*: as many
//!   blocks as fit are placed at once and complete together after the
//!   kernel's per-block cost (scaled by contention). Blocks of one wave are
//!   batched into a single event, which keeps event counts proportional to
//!   kernels × waves instead of kernels × blocks.
//! * `Ptb` launches place `workers` persistent blocks that consume tasks in
//!   *rounds* of `workers` tasks. Between rounds the engine checks the
//!   preemption flag; [`Engine::preempt`] therefore drains within one
//!   per-task cost — exactly the turnaround behaviour of the paper's
//!   persistent-thread-block transformation. Workers have identical per-task
//!   cost, so the lockstep-round model is exact.
//! * Preempting a `Full`/`Slice` launch stops placement of new blocks and
//!   lets resident waves drain (used to model slice-at-a-time scheduling and
//!   driver-level drains).
//!
//! # Contention model
//!
//! When a wave or round starts, its duration is scaled by
//! `1 + contention_beta × Σ_other mem_intensity × resident-thread share`.
//! Solo execution is never penalised, so workload calibrations done in
//! isolation stay valid.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use crate::rng::SmallRng;

use crate::launch::{ClientId, LaunchId, LaunchRequest, LaunchShape, Notification, Priority};
use crate::spec::GpuSpec;
use crate::time::{SimSpan, SimTime};

/// Result of one [`Engine::advance`] call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Step {
    /// One or more notifications fired and were appended to the caller's
    /// buffer; simulated time is at the instant of the first of them (or
    /// unchanged for notifications produced synchronously, e.g. by
    /// preempting an idle launch).
    Notified,
    /// No notification fired before `limit`; `now` has been set to `limit`.
    ReachedLimit,
    /// The engine has no pending events at all; `now` has been set to
    /// `limit` if `limit` is finite, otherwise left unchanged.
    Idle,
}

/// Aggregate counters the engine maintains; useful for experiment reports.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Launches submitted over the engine's lifetime.
    pub submitted: u64,
    /// Launches that ran to completion.
    pub completed: u64,
    /// Launches that were preempted (drained early).
    pub preempted: u64,
    /// Wave/round events processed.
    pub groups: u64,
    /// Most launches held at once (pending, resident or draining): the
    /// high-water mark of the engine's launch storage.
    pub peak_live: u64,
}

#[derive(Copy, Clone, Debug)]
struct Capacity {
    blocks: u64,
    threads: u64,
    smem: u64,
}

#[derive(Clone, Debug)]
enum Ev {
    Arrive(LaunchId),
    GroupDone { id: LaunchId, blocks: u64 },
    RoundDone { id: LaunchId, take: u64 },
}

#[derive(Clone, Debug)]
struct HeapEntry {
    time: SimTime,
    seq: u64,
    ev: Ev,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// One live launch. Everything the engine reads of the kernel is copied
/// here at submit, so the engine keeps no reference to it.
#[derive(Debug)]
struct Active {
    id: LaunchId,
    client: ClientId,
    priority: Priority,
    shape: LaunchShape,
    /// Threads per block.
    threads: u64,
    /// Shared memory per block, in bytes.
    smem: u64,
    /// Per-block execution time at full speed.
    block_cost: SimSpan,
    /// The kernel's memory-bandwidth intensity (contention model).
    mem_intensity: f64,
    /// Most blocks one wave chunk places (Full/Slice).
    chunk_cap: u64,
    /// First original-grid block index covered by this launch.
    base_offset: u64,
    /// Tasks (original blocks) this launch must execute.
    total: u64,
    /// Tasks dispatched (Full/Slice) or fetched by workers (Ptb).
    fetched: u64,
    /// Tasks finished.
    done: u64,
    /// Wave groups currently in flight (Full/Slice only).
    in_flight: u32,
    /// Thread blocks currently holding SM resources.
    resident_blocks: u64,
    preempt: bool,
    arrived: bool,
    /// PTB: requested worker count.
    ptb_target: u64,
    /// PTB: a round is currently executing.
    round_active: bool,
}

impl Active {
    fn is_ptb(&self) -> bool {
        matches!(self.shape, LaunchShape::Ptb { .. })
    }

    fn wants_dispatch(&self) -> bool {
        if !self.arrived || self.preempt {
            return false;
        }
        if self.is_ptb() {
            self.resident_blocks == 0 && !self.round_active
        } else {
            self.fetched < self.total
        }
    }
}

/// The discrete-event GPU engine. See the module docs for the
/// execution model.
///
/// ```
/// use tally_gpu::{Engine, GpuSpec, KernelDesc, LaunchRequest, ClientId, Priority, SimSpan, SimTime, Step};
///
/// let mut engine = Engine::new(GpuSpec::a100());
/// let k = KernelDesc::builder("demo")
///     .grid(864)
///     .block(256)
///     .block_cost(SimSpan::from_micros(50))
///     .build();
/// engine.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
/// let mut notes = Vec::new();
/// match engine.advance(SimTime::MAX, &mut notes) {
///     Step::Notified => assert_eq!(notes.len(), 1),
///     other => panic!("expected a completion, got {other:?}"),
/// }
/// // 4us launch overhead + one 50us wave.
/// assert_eq!(engine.now(), SimTime::from_micros(54));
/// ```
#[derive(Debug)]
pub struct Engine {
    spec: GpuSpec,
    now: SimTime,
    event_seq: u64,
    /// The id the next submitted launch gets; ids follow submission order.
    next_id: u64,
    heap: BinaryHeap<Reverse<HeapEntry>>,
    /// Live launches only, pushed on submit and `swap_remove`d on retire.
    /// Events find their launch by a linear scan; dispatch and placement
    /// address launches by position, since nothing retires mid-dispatch.
    /// The dispatch and contention scans iterate this list in a fixed,
    /// deterministic order.
    active: Vec<Active>,
    free: Capacity,
    out: VecDeque<Notification>,
    jitter: f64,
    rng: SmallRng,
    busy_thread_ns: u128,
    stats: EngineStats,
}

impl Engine {
    /// A new engine over the given hardware spec, with duration jitter
    /// disabled and a fixed RNG seed.
    pub fn new(spec: GpuSpec) -> Self {
        Engine::with_seed(spec, 0)
    }

    /// A new engine with an explicit RNG seed (only used when duration
    /// jitter is enabled via [`Engine::set_jitter`]).
    pub fn with_seed(spec: GpuSpec, seed: u64) -> Self {
        let free = Capacity {
            blocks: spec.total_block_slots(),
            threads: spec.total_thread_slots(),
            smem: spec.total_shared_mem(),
        };
        Engine {
            spec,
            now: SimTime::ZERO,
            event_seq: 0,
            next_id: 0,
            heap: BinaryHeap::new(),
            active: Vec::new(),
            free,
            out: VecDeque::new(),
            jitter: 0.0,
            rng: SmallRng::seed_from_u64(seed),
            busy_thread_ns: 0,
            stats: EngineStats::default(),
        }
    }

    /// The hardware spec this engine simulates.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Lifetime counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Enables multiplicative duration jitter: each wave/round duration is
    /// scaled by a factor drawn uniformly from `[1 - j, 1 + j]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= j < 1.0`.
    pub fn set_jitter(&mut self, j: f64) {
        assert!((0.0..1.0).contains(&j), "jitter must be in [0, 1)");
        self.jitter = j;
    }

    /// Integral of busy thread-nanoseconds; divide by
    /// `elapsed × total_thread_slots` for mean occupancy.
    pub fn busy_thread_ns(&self) -> u128 {
        self.busy_thread_ns
    }

    /// Free resident-thread capacity right now.
    pub fn free_thread_slots(&self) -> u64 {
        self.free.threads
    }

    /// Free resident-block capacity right now.
    pub fn free_block_slots(&self) -> u64 {
        self.free.blocks
    }

    /// Whether any launch is resident or pending.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty()
    }

    /// Whether the given launch is still live (pending, resident, or
    /// draining). A retired id — completed or fully drained — reads as
    /// inactive forever, since ids are never reused.
    pub fn is_active(&self, id: LaunchId) -> bool {
        self.find(id).is_some()
    }

    /// Number of tasks the launch has completed so far (in its own task
    /// space), or `None` once the launch has retired.
    pub fn progress(&self, id: LaunchId) -> Option<u64> {
        self.find(id).map(|i| self.active[i].done)
    }

    /// Position of a live launch in `active`; `None` once it has retired.
    fn find(&self, id: LaunchId) -> Option<usize> {
        self.active.iter().position(|a| a.id == id)
    }

    /// Submits a launch request; it becomes dispatchable after the launch
    /// overhead. Returns the launch's id.
    ///
    /// The engine copies what it reads of `req.kernel` (block geometry,
    /// per-block cost, memory intensity) into its launch record and keeps
    /// no reference to the kernel, so the request only borrows it.
    pub fn submit(&mut self, req: LaunchRequest<'_>) -> LaunchId {
        let base_offset = match req.shape {
            LaunchShape::Full => 0,
            LaunchShape::Slice { offset, .. } => offset,
            LaunchShape::Ptb { offset, .. } => offset,
        };
        let total = req.task_count();
        let ptb_target = match req.shape {
            LaunchShape::Ptb { workers, .. } => workers as u64,
            _ => 0,
        };
        assert!(total > 0, "launch must execute at least one task");
        if let LaunchShape::Ptb { workers, .. } = req.shape {
            assert!(workers > 0, "PTB launch must have at least one worker");
        }
        let kernel = req.kernel;
        let wave = self
            .spec
            .wave_capacity(kernel.threads_per_block(), kernel.smem_bytes);
        let id = LaunchId(self.next_id);
        self.next_id += 1;
        self.stats.submitted += 1;
        self.active.push(Active {
            id,
            client: req.client,
            priority: req.priority,
            shape: req.shape,
            threads: kernel.threads_per_block() as u64,
            smem: kernel.smem_bytes as u64,
            block_cost: kernel.block_cost,
            mem_intensity: kernel.mem_intensity,
            chunk_cap: (wave / Self::WAVE_CHUNKS).max(1),
            base_offset,
            total,
            fetched: 0,
            done: 0,
            in_flight: 0,
            resident_blocks: 0,
            preempt: false,
            arrived: false,
            ptb_target,
            round_active: false,
        });
        self.stats.peak_live = self.stats.peak_live.max(self.active.len() as u64);
        let at = self.now + self.spec.launch_overhead;
        self.push(at, Ev::Arrive(id));
        id
    }

    /// Requests preemption of a launch.
    ///
    /// PTB launches drain at the next task boundary; `Full`/`Slice` launches
    /// stop placing new blocks and drain their resident waves. Returns
    /// `false` if the launch has already retired (finished or drained), in
    /// which case no notification will fire.
    ///
    /// A [`Notification::Preempted`] is delivered by a subsequent
    /// [`Engine::advance`] call once the launch has fully drained (possibly
    /// immediately, without time passing).
    pub fn preempt(&mut self, id: LaunchId) -> bool {
        let Some(pos) = self.find(id) else {
            return false;
        };
        let active = &mut self.active[pos];
        if active.preempt {
            return true;
        }
        active.preempt = true;
        let draining = active.in_flight > 0 || active.round_active;
        if !draining {
            // Nothing resident: drain completes instantly.
            let note = Notification::Preempted {
                id,
                client: active.client,
                done_upto: active.base_offset + active.done,
                total: active.total,
                at: self.now,
            };
            self.stats.preempted += 1;
            self.active.swap_remove(pos);
            self.out.push_back(note);
            self.dispatch();
        }
        true
    }

    /// Earliest pending event time, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if !self.out.is_empty() {
            return Some(self.now);
        }
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Advances simulated time, processing events until a notification
    /// fires or `limit` is reached. See [`Step`].
    ///
    /// The notifications that fired are appended to `notes`, which the
    /// caller owns: the engine never clears it, and a caller that drains
    /// and reuses one buffer advances without allocating.
    pub fn advance(&mut self, limit: SimTime, notes: &mut Vec<Notification>) -> Step {
        self.run(limit, notes, None)
    }

    /// [`Engine::advance`], also appending `(instant, busy_thread_ns)` to
    /// `instants` for every instant it ran events at and then left before
    /// stopping: one record per instant, taken after its last event. The
    /// instant the call stops at (a notification's, or `limit`) is not
    /// recorded; read it from [`Engine::now`] and
    /// [`Engine::busy_thread_ns`]. Like `notes`, the buffer is the
    /// caller's and is never cleared.
    pub fn advance_sampled(
        &mut self,
        limit: SimTime,
        notes: &mut Vec<Notification>,
        instants: &mut Vec<(SimTime, u128)>,
    ) -> Step {
        self.run(limit, notes, Some(instants))
    }

    // Inlined into both callers, so `advance` keeps no trace of the
    // record-keeping.
    #[inline(always)]
    fn run(
        &mut self,
        limit: SimTime,
        notes: &mut Vec<Notification>,
        mut instants: Option<&mut Vec<(SimTime, u128)>>,
    ) -> Step {
        // Whether this call ran an event at `self.now`.
        let mut ran = false;
        let mut leave = |engine: &Engine, ran: bool| {
            if let Some(instants) = instants.as_deref_mut() {
                if ran && engine.now < limit {
                    instants.push((engine.now, engine.busy_thread_ns));
                }
            }
        };
        loop {
            if !self.out.is_empty() {
                notes.extend(self.out.drain(..));
                return Step::Notified;
            }
            match self.heap.peek() {
                None => {
                    leave(self, ran);
                    if limit != SimTime::MAX {
                        self.now = self.now.max(limit);
                    }
                    return Step::Idle;
                }
                Some(Reverse(entry)) if entry.time > limit => {
                    leave(self, ran);
                    self.now = self.now.max(limit);
                    return Step::ReachedLimit;
                }
                Some(_) => {
                    let Reverse(entry) = self.heap.pop().expect("peeked entry exists");
                    debug_assert!(entry.time >= self.now, "event time must be monotone");
                    if entry.time > self.now {
                        leave(self, ran);
                    }
                    self.now = entry.time;
                    ran = true;
                    self.process(entry.ev);
                }
            }
        }
    }

    fn push(&mut self, time: SimTime, ev: Ev) {
        self.event_seq += 1;
        self.heap.push(Reverse(HeapEntry {
            time,
            seq: self.event_seq,
            ev,
        }));
    }

    fn fit(&self, n: u64, threads: u64, smem: u64) -> u64 {
        let by_blocks = self.free.blocks;
        let by_threads = self.free.threads.checked_div(threads).unwrap_or(n);
        let by_smem = self.free.smem.checked_div(smem).unwrap_or(n);
        n.min(by_blocks).min(by_threads).min(by_smem)
    }

    fn reserve(&mut self, blocks: u64, threads: u64, smem: u64) {
        self.free.blocks -= blocks;
        self.free.threads -= blocks * threads;
        self.free.smem -= blocks * smem;
    }

    fn release(&mut self, blocks: u64, threads: u64, smem: u64) {
        self.free.blocks += blocks;
        self.free.threads += blocks * threads;
        self.free.smem += blocks * smem;
        debug_assert!(self.free.blocks <= self.spec.total_block_slots());
        debug_assert!(self.free.threads <= self.spec.total_thread_slots());
        debug_assert!(self.free.smem <= self.spec.total_shared_mem());
    }

    /// Interference factor applied to a starting wave/round of `exclude`.
    fn slowdown(&self, exclude: LaunchId) -> f64 {
        if self.spec.contention_beta == 0.0 {
            return 1.0;
        }
        let total_threads = self.spec.total_thread_slots() as f64;
        let mut interference = 0.0;
        for a in &self.active {
            if a.id != exclude && a.resident_blocks > 0 {
                let share = (a.resident_blocks * a.threads) as f64 / total_threads;
                interference += a.mem_intensity * share;
            }
        }
        1.0 + self.spec.contention_beta * interference
    }

    fn jitter_factor(&mut self) -> f64 {
        if self.jitter == 0.0 {
            1.0
        } else {
            1.0 + self.rng.gen_range(-self.jitter..=self.jitter)
        }
    }

    fn process(&mut self, ev: Ev) {
        match ev {
            // A launch preempted before its arrival has already retired.
            Ev::Arrive(id) => {
                if let Some(pos) = self.find(id) {
                    self.active[pos].arrived = true;
                    self.dispatch();
                }
            }
            Ev::GroupDone { id, blocks } => self.group_done(id, blocks),
            Ev::RoundDone { id, take } => self.round_done(id, take),
        }
    }

    fn group_done(&mut self, id: LaunchId, blocks: u64) {
        let pos = self
            .find(id)
            .expect("group completion for a retired launch");
        let (threads, smem, finished, note);
        {
            let active = &mut self.active[pos];
            threads = active.threads;
            smem = active.smem;
            active.done += blocks;
            active.resident_blocks -= blocks;
            active.in_flight -= 1;
            self.stats.groups += 1;
            let drained = active.in_flight == 0;
            if active.preempt && drained {
                finished = true;
                note = Some(Notification::Preempted {
                    id,
                    client: active.client,
                    done_upto: active.base_offset + active.done,
                    total: active.total,
                    at: self.now,
                });
                self.stats.preempted += 1;
            } else if active.done == active.total {
                debug_assert!(drained, "all tasks done implies no waves in flight");
                finished = true;
                note = Some(Notification::Completed {
                    id,
                    client: active.client,
                    at: self.now,
                });
                self.stats.completed += 1;
            } else {
                finished = false;
                note = None;
            }
        }
        self.release(blocks, threads, smem);
        if finished {
            self.active.swap_remove(pos);
        }
        if let Some(n) = note {
            self.out.push_back(n);
        }
        self.dispatch();
    }

    fn round_done(&mut self, id: LaunchId, take: u64) {
        let pos = self
            .find(id)
            .expect("round completion for a retired launch");
        let active = &mut self.active[pos];
        active.done += take;
        active.round_active = false;
        self.stats.groups += 1;
        let threads = active.threads;
        let smem = active.smem;
        if active.preempt || active.done == active.total {
            let workers = active.resident_blocks;
            active.resident_blocks = 0;
            let note = if active.done == active.total && !active.preempt {
                self.stats.completed += 1;
                Notification::Completed {
                    id,
                    client: active.client,
                    at: self.now,
                }
            } else {
                self.stats.preempted += 1;
                Notification::Preempted {
                    id,
                    client: active.client,
                    done_upto: active.base_offset + active.done,
                    total: active.total,
                    at: self.now,
                }
            };
            self.active.swap_remove(pos);
            self.release(workers, threads, smem);
            self.out.push_back(note);
            self.dispatch();
        } else {
            self.start_round(pos);
            // Freed tail workers (if any) may unblock other launches.
            self.dispatch();
        }
    }

    /// Starts the next PTB round for the launch at `pos`: tops workers up
    /// toward the target, releases workers that have no task left to
    /// fetch, fetches one task per remaining worker, and schedules the
    /// round completion.
    fn start_round(&mut self, pos: usize) {
        let (id, threads, smem, want_more, remaining);
        {
            let active = &self.active[pos];
            id = active.id;
            threads = active.threads;
            smem = active.smem;
            want_more = active.ptb_target.saturating_sub(active.resident_blocks);
            remaining = active.total - active.fetched;
        }
        debug_assert!(remaining > 0, "start_round requires unfetched tasks");
        let top_up = self.fit(want_more, threads, smem);
        if top_up > 0 {
            self.reserve(top_up, threads, smem);
        }
        let slow = self.slowdown(id);
        let jitter = self.jitter_factor();
        let active = &mut self.active[pos];
        active.resident_blocks += top_up;
        let take = active.resident_blocks.min(remaining);
        // Workers beyond the remaining work exit the persistent loop now.
        let excess = active.resident_blocks - take;
        active.resident_blocks = take;
        active.fetched += take;
        active.round_active = true;
        let factor = active.shape.cost_factor();
        let duration = active.block_cost.mul_f64(factor * slow * jitter);
        self.busy_thread_ns += duration.as_nanos() as u128 * (take * threads) as u128;
        if excess > 0 {
            self.release(excess, threads, smem);
        }
        let at = self.now + duration;
        self.push(at, Ev::RoundDone { id, take });
    }

    /// How many chunks a full wave is split into. Chunked placement (plus
    /// duration jitter) staggers block completions within a wave, so
    /// co-resident kernels exchange resources at sub-wave granularity —
    /// as on real hardware, where blocks of a running kernel retire
    /// continuously rather than in lockstep.
    const WAVE_CHUNKS: u64 = 2;

    /// Places pending work into free SM resources: launches are visited in
    /// `(priority, submission order)` but each round-robin pass places at
    /// most one wave *chunk* per launch, so same-priority kernels share
    /// the machine spatially instead of strictly head-of-line (MPS-like
    /// concurrency).
    fn dispatch(&mut self) {
        // Fast path: at most one launch wants resources (the common case —
        // solo phases, or one best-effort kernel while the high-priority
        // side is idle).
        let mut wanting = (0..self.active.len()).filter(|&pos| self.active[pos].wants_dispatch());
        let Some(first) = wanting.next() else { return };
        if wanting.next().is_none() {
            if self.active[first].is_ptb() {
                self.place_ptb(first);
            } else {
                while self.place_wave_chunk(first) {}
            }
            return;
        }
        // Ids follow submission order, so `(priority, id)` is the
        // `(priority, submission order)` visit order. Placement never
        // retires a launch, so the positions stay valid for the whole pass.
        // The sort is the stable one: `active` is nearly in id order, and
        // the stable sort merges such runs in linear time.
        let mut order: Vec<(Priority, LaunchId, usize)> = self
            .active
            .iter()
            .enumerate()
            .filter(|(_, a)| a.wants_dispatch())
            .map(|(pos, a)| (a.priority, a.id, pos))
            .collect();
        order.sort();
        loop {
            let mut placed_any = false;
            for &(_, _, pos) in &order {
                if self.free.blocks == 0 {
                    return;
                }
                let active = &self.active[pos];
                if !active.wants_dispatch() {
                    continue;
                }
                let placed = if active.is_ptb() {
                    self.place_ptb(pos)
                } else {
                    self.place_wave_chunk(pos)
                };
                placed_any |= placed;
            }
            if !placed_any {
                return;
            }
        }
    }

    /// Places at most one wave chunk of the launch at `pos`; returns
    /// whether anything was placed.
    fn place_wave_chunk(&mut self, pos: usize) -> bool {
        let (id, threads, smem, pending, chunk_cap);
        {
            let active = &self.active[pos];
            id = active.id;
            threads = active.threads;
            smem = active.smem;
            pending = active.total - active.fetched;
            chunk_cap = active.chunk_cap;
        }
        if pending == 0 {
            return false;
        }
        let m = self.fit(pending.min(chunk_cap), threads, smem);
        if m == 0 {
            return false;
        }
        self.reserve(m, threads, smem);
        let slow = self.slowdown(id);
        let jitter = self.jitter_factor();
        let active = &mut self.active[pos];
        active.fetched += m;
        active.in_flight += 1;
        active.resident_blocks += m;
        let duration = active.block_cost.mul_f64(slow * jitter);
        self.busy_thread_ns += duration.as_nanos() as u128 * (m * threads) as u128;
        let at = self.now + duration;
        self.push(at, Ev::GroupDone { id, blocks: m });
        true
    }

    fn place_ptb(&mut self, pos: usize) -> bool {
        let (threads, smem, target);
        {
            let active = &self.active[pos];
            debug_assert!(active.resident_blocks == 0 && !active.round_active);
            threads = active.threads;
            smem = active.smem;
            target = active.ptb_target;
        }
        let m = self.fit(target, threads, smem);
        if m == 0 {
            return false;
        }
        self.reserve(m, threads, smem);
        self.active[pos].resident_blocks = m;
        self.start_round(pos);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;
    use crate::launch::{ClientId, Priority};
    use crate::time::SimSpan;

    fn kernel(blocks: u32, threads: u32, cost_us: u64) -> KernelDesc {
        KernelDesc::builder("test")
            .grid(blocks)
            .block(threads)
            .block_cost(SimSpan::from_micros(cost_us))
            .mem_intensity(0.5)
            .build()
    }

    fn drain(engine: &mut Engine) -> Vec<Notification> {
        let mut all = Vec::new();
        loop {
            match engine.advance(SimTime::MAX, &mut all) {
                Step::Notified => {}
                Step::Idle => return all,
                Step::ReachedLimit => unreachable!("limit is MAX"),
            }
        }
    }

    #[test]
    fn single_wave_kernel_completes() {
        let mut e = Engine::new(GpuSpec::tiny()); // 16 blocks @ 512 threads
        let k = kernel(16, 512, 100);
        let id = e.submit(LaunchRequest::full(&k, ClientId(1), Priority::High));
        let notes = drain(&mut e);
        assert_eq!(
            notes,
            vec![Notification::Completed {
                id,
                client: ClientId(1),
                at: SimTime::from_micros(104), // 4us launch + 100us wave
            }]
        );
        assert!(e.is_idle());
        assert_eq!(e.free_block_slots(), 16);
        assert_eq!(e.free_thread_slots(), 8192);
    }

    #[test]
    fn multi_wave_kernel_runs_in_waves() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(33, 512, 100); // 3 waves of <=16 blocks
        e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
        let notes = drain(&mut e);
        assert_eq!(notes.len(), 1);
        assert_eq!(notes[0].at(), SimTime::from_micros(4 + 300));
        // Waves are placed in chunks (WAVE_CHUNKS per wave).
        assert!(e.stats().groups >= 3 && e.stats().groups <= 12);
    }

    #[test]
    fn slice_launch_runs_only_its_blocks() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(64, 512, 100);
        let req = LaunchRequest {
            kernel: &k,
            shape: LaunchShape::Slice {
                offset: 16,
                count: 16,
            },
            client: ClientId(0),
            priority: Priority::BestEffort,
        };
        e.submit(req);
        let notes = drain(&mut e);
        assert_eq!(notes[0].at(), SimTime::from_micros(104));
    }

    #[test]
    fn ptb_runs_in_rounds_and_completes() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(40, 512, 100);
        let req = LaunchRequest {
            kernel: &k,
            shape: LaunchShape::Ptb {
                workers: 8,
                offset: 0,
                overhead_ppm: 0,
            },
            client: ClientId(0),
            priority: Priority::BestEffort,
        };
        e.submit(req);
        let notes = drain(&mut e);
        // 40 tasks / 8 workers = 5 rounds of 100us.
        assert_eq!(notes[0].at(), SimTime::from_micros(4 + 500));
        assert_eq!(e.stats().groups, 5);
    }

    #[test]
    fn ptb_overhead_factor_scales_rounds() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(8, 512, 100);
        let req = LaunchRequest {
            kernel: &k,
            shape: LaunchShape::Ptb {
                workers: 8,
                offset: 0,
                overhead_ppm: 250,
            },
            client: ClientId(0),
            priority: Priority::BestEffort,
        };
        e.submit(req);
        let notes = drain(&mut e);
        assert_eq!(notes[0].at(), SimTime::from_micros(4 + 125));
    }

    #[test]
    fn ptb_preemption_drains_at_task_boundary() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(64, 512, 100);
        let req = LaunchRequest {
            kernel: &k,
            shape: LaunchShape::Ptb {
                workers: 16,
                offset: 0,
                overhead_ppm: 0,
            },
            client: ClientId(2),
            priority: Priority::BestEffort,
        };
        let id = e.submit(req);
        // Let the first round start (arrival at 4us), then preempt mid-round.
        assert_eq!(
            e.advance(SimTime::from_micros(50), &mut Vec::new()),
            Step::ReachedLimit
        );
        assert!(e.preempt(id));
        let notes = drain(&mut e);
        assert_eq!(
            notes,
            vec![Notification::Preempted {
                id,
                client: ClientId(2),
                done_upto: 16, // the in-flight round finished
                total: 64,
                at: SimTime::from_micros(104),
            }]
        );
        // All resources returned.
        assert_eq!(e.free_block_slots(), 16);
    }

    #[test]
    fn ptb_resume_after_preemption_finishes_remaining_tasks() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(64, 512, 100);
        let mk = |offset| LaunchRequest {
            kernel: &k,
            shape: LaunchShape::Ptb {
                workers: 16,
                offset,
                overhead_ppm: 0,
            },
            client: ClientId(0),
            priority: Priority::BestEffort,
        };
        let id = e.submit(mk(0));
        e.advance(SimTime::from_micros(50), &mut Vec::new());
        e.preempt(id);
        let notes = drain(&mut e);
        let done_upto = match notes[0] {
            Notification::Preempted { done_upto, .. } => done_upto,
            ref other => panic!("expected preemption, got {other:?}"),
        };
        e.submit(mk(done_upto));
        let notes = drain(&mut e);
        // 48 remaining tasks / 16 workers = 3 rounds.
        assert_eq!(notes[0].at(), SimTime::from_micros(104 + 4 + 300),);
    }

    #[test]
    fn preempting_unstarted_launch_completes_instantly() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(16, 512, 100);
        let id = e.submit(LaunchRequest::full(&k, ClientId(0), Priority::BestEffort));
        // Preempt before the launch-overhead arrival.
        assert!(e.preempt(id));
        let notes = drain(&mut e);
        assert!(matches!(
            notes[0],
            Notification::Preempted {
                done_upto: 0,
                total: 16,
                ..
            }
        ));
        assert!(e.is_idle());
    }

    #[test]
    fn stale_arrival_of_launch_preempted_before_arrival_is_ignored() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(16, 512, 100);
        let id = e.submit(LaunchRequest::full(&k, ClientId(0), Priority::BestEffort));
        // Retire it while its arrival is still queued, then keep a second
        // launch running past that arrival instant.
        assert!(e.preempt(id));
        let other = e.submit(LaunchRequest::full(&k, ClientId(1), Priority::BestEffort));
        let notes = drain(&mut e);
        let preempted: Vec<_> = notes
            .iter()
            .filter(|n| matches!(n, Notification::Preempted { .. }))
            .collect();
        assert_eq!(preempted.len(), 1);
        assert_eq!(preempted[0].launch(), id);
        assert_eq!(notes.len(), 2);
        assert_eq!(notes[1].launch(), other);
        assert_eq!(e.stats().groups, 2, "the stale arrival placed nothing");
        assert!(e.is_idle());
        assert_eq!(e.free_block_slots(), 16);
    }

    #[test]
    fn retired_ids_read_as_inactive() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(16, 512, 100);
        let done = e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
        let drained = e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
        assert!(e.is_active(done) && e.progress(done) == Some(0));
        assert!(e.preempt(drained));
        let notes = drain(&mut e);
        assert_eq!(notes.len(), 2);
        for id in [done, drained] {
            assert!(!e.is_active(id));
            assert_eq!(e.progress(id), None);
            assert!(!e.preempt(id), "a retired launch cannot be preempted");
        }
        assert_eq!(
            e.advance(SimTime::MAX, &mut Vec::new()),
            Step::Idle,
            "no late notification"
        );
    }

    #[test]
    fn ids_stay_monotone_across_retirements() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(16, 512, 10);
        let mut last = None;
        for _ in 0..1000 {
            let id = e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
            assert!(last.is_none_or(|prev| id > prev), "{id} after {last:?}");
            last = Some(id);
            assert_eq!(drain(&mut e).len(), 1);
        }
        let late = e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
        assert!(late > last.expect("submitted"));
    }

    #[test]
    fn peak_live_is_the_high_water_of_live_launches() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(16, 512, 10);
        for _ in 0..3 {
            e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
        }
        drain(&mut e);
        for _ in 0..100 {
            e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
            drain(&mut e);
        }
        assert_eq!(e.stats().submitted, 103);
        assert_eq!(
            e.stats().peak_live,
            3,
            "retired launches leave nothing behind"
        );
    }

    #[test]
    fn high_priority_jumps_queue_of_waiting_blocks() {
        let mut e = Engine::new(GpuSpec::tiny());
        // Best-effort kernel saturates the GPU for 2 waves.
        let be = kernel(32, 512, 100);
        e.submit(LaunchRequest::full(&be, ClientId(0), Priority::BestEffort));
        // Advance past its arrival so the first wave is resident.
        e.advance(SimTime::from_micros(10), &mut Vec::new());
        // High-priority kernel arrives; its blocks must be placed before the
        // best-effort kernel's second wave.
        let hp = kernel(16, 512, 50);
        let hp_id = e.submit(LaunchRequest::full(&hp, ClientId(1), Priority::High));
        let notes = drain(&mut e);
        let hp_done = notes
            .iter()
            .find(|n| n.launch() == hp_id)
            .expect("high-priority launch completes");
        // First BE wave ends at 104us; HP wave runs 104..154 (with contention
        // disabled in tiny spec); BE's second wave only starts at 154.
        assert_eq!(hp_done.at(), SimTime::from_micros(154));
        let be_done = notes
            .iter()
            .find(|n| n.launch() != hp_id)
            .expect("BE completes");
        assert_eq!(be_done.at(), SimTime::from_micros(254));
    }

    #[test]
    fn fifo_within_same_priority() {
        let mut e = Engine::new(GpuSpec::tiny());
        let a = kernel(16, 512, 100);
        let b = kernel(16, 512, 100);
        let ida = e.submit(LaunchRequest::full(&a, ClientId(0), Priority::BestEffort));
        let idb = e.submit(LaunchRequest::full(&b, ClientId(1), Priority::BestEffort));
        let notes = drain(&mut e);
        assert_eq!(notes[0].launch(), ida);
        assert_eq!(notes[1].launch(), idb);
        assert_eq!(notes[1].at() - notes[0].at(), SimSpan::from_micros(100));
    }

    #[test]
    fn contention_slows_co_resident_kernels() {
        let mut spec = GpuSpec::tiny();
        spec.contention_beta = 1.0;
        let mut e = Engine::new(spec);
        // Two kernels that each fill half the GPU co-reside.
        let a = kernel(8, 512, 100);
        let b = kernel(8, 512, 100);
        e.submit(LaunchRequest::full(&a, ClientId(0), Priority::High));
        e.submit(LaunchRequest::full(&b, ClientId(1), Priority::High));
        let notes = drain(&mut e);
        // Kernel A was placed first with nothing else resident: 100us.
        assert_eq!(notes[0].at(), SimTime::from_micros(104));
        // Kernel B was placed while A held half the thread slots with
        // intensity 0.5: slowdown = 1 + 1.0*0.5*0.5 = 1.25 => 125us.
        assert_eq!(notes[1].at(), SimTime::from_micros(129));
    }

    #[test]
    fn advance_respects_limit() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(16, 512, 100);
        e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
        assert_eq!(
            e.advance(SimTime::from_micros(50), &mut Vec::new()),
            Step::ReachedLimit
        );
        assert_eq!(e.now(), SimTime::from_micros(50));
        assert!(matches!(
            e.advance(SimTime::from_micros(200), &mut Vec::new()),
            Step::Notified
        ));
    }

    #[test]
    fn idle_engine_advances_to_finite_limit() {
        let mut e = Engine::new(GpuSpec::tiny());
        assert_eq!(
            e.advance(SimTime::from_millis(5), &mut Vec::new()),
            Step::Idle
        );
        assert_eq!(e.now(), SimTime::from_millis(5));
        // MAX limit leaves time unchanged.
        assert_eq!(e.advance(SimTime::MAX, &mut Vec::new()), Step::Idle);
        assert_eq!(e.now(), SimTime::from_millis(5));
    }

    #[test]
    fn busy_accounting_matches_work() {
        let mut e = Engine::new(GpuSpec::tiny());
        let k = kernel(16, 512, 100);
        e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
        drain(&mut e);
        // 16 blocks * 512 threads * 100us.
        assert_eq!(e.busy_thread_ns(), 16 * 512 * 100_000);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let run = |seed| {
            let mut e = Engine::with_seed(GpuSpec::tiny(), seed);
            e.set_jitter(0.1);
            let k = kernel(16, 512, 100);
            e.submit(LaunchRequest::full(&k, ClientId(0), Priority::High));
            drain(&mut e)[0].at()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    /// `advance_sampled` records exactly the instants a caller stepping
    /// one event instant at a time would stop at short of the limit, with
    /// the busy integral it would read there, and otherwise moves like
    /// `advance`.
    #[test]
    fn advance_sampled_records_each_instant_it_runs_through() {
        let setup = || {
            let mut e = Engine::new(GpuSpec::tiny());
            let hp = kernel(48, 512, 100);
            let be = kernel(24, 256, 70);
            e.submit(LaunchRequest::full(&hp, ClientId(0), Priority::High));
            e.submit(LaunchRequest::full(&be, ClientId(1), Priority::BestEffort));
            e
        };
        let us = SimTime::from_micros;
        for limit in [us(150), us(1000), SimTime::MAX] {
            let (mut sampled, mut plain, mut stepped) = (setup(), setup(), setup());
            let (mut notes, mut instants) = (Vec::new(), Vec::new());
            let (mut plain_notes, mut stepped_notes, mut expected) =
                (Vec::new(), Vec::new(), Vec::new());
            loop {
                let step = sampled.advance_sampled(limit, &mut notes, &mut instants);
                assert_eq!(plain.advance(limit, &mut plain_notes), step);
                let reference = loop {
                    let to = stepped.next_event_time().map_or(limit, |t| t.min(limit));
                    match stepped.advance(to, &mut stepped_notes) {
                        Step::Notified => break Step::Notified,
                        last if to == limit => break last,
                        _ => expected.push((stepped.now(), stepped.busy_thread_ns())),
                    }
                };
                assert_eq!(step, reference);
                assert_eq!(instants, expected);
                assert_eq!((&notes, sampled.now()), (&plain_notes, plain.now()));
                assert_eq!((&notes, sampled.now()), (&stepped_notes, stepped.now()));
                if step != Step::Notified {
                    break;
                }
            }
            assert!(instants.len() >= 2, "limit {limit}: {instants:?}");
        }
    }
}
