//! Arrival-driven client traces: who shows up, when, and for how long.
//!
//! The paper's turnaround and churn experiments (the Table 1 sweeps) are
//! driven by clients *arriving and departing* over time. This module makes
//! that workload dimension first-class: an [`ArrivalTrace`] is a
//! time-ordered list of [`ClientEvent`]s — `Arrive { key, job }` /
//! `Depart { key }` — that can be
//!
//! * **generated** deterministically ([`ArrivalTrace::generate`]) from a
//!   seeded, MAF2-flavored process: Poisson-like client inter-arrivals
//!   with per-window lognormal rate modulation, exponential attached
//!   durations per model-mix entry, and geometric re-arrivals (the same
//!   key coming back — the re-attach churn real fleets see);
//! * **serialized** as plain text ([`ArrivalTrace::to_text`] /
//!   [`ArrivalTrace::parse`]) so traces can be checked into a repository
//!   and replayed byte-identically later;
//! * **validated** ([`ArrivalTrace::validate`]): well-formed keys and
//!   loads, plus the monotonic timestamps and balanced arrive/depart
//!   alternation per key that [`compile_trace`] checks — the one trace
//!   compiler, shared with `Colocation::trace` and `Cluster::trace`, so
//!   all of them reject a stream with the same [`TraceError`];
//! * **replayed** through a single-GPU session or a whole fleet:
//!   [`ArrivalTrace::session_events`] resolves the symbolic [`TraceJob`]s
//!   into concrete [`JobSpec`]s and feeds
//!   [`Colocation::trace`](tally_core::harness::Colocation::trace) or
//!   [`Cluster::trace`](tally_core::cluster::Cluster::trace);
//! * **recorded** from a live run ([`TraceRecorder`]): a session observer
//!   that captures the client lifecycle edges as they happen, so a real
//!   experiment can be saved, minimized, and replayed byte-identically.
//!
//! ```
//! use tally_gpu::{GpuSpec, SimSpan};
//! use tally_workloads::trace::{ArrivalTrace, TraceGen};
//! use tally_core::harness::{Colocation, HarnessConfig};
//!
//! let trace = ArrivalTrace::generate(&TraceGen::churn(
//!     SimSpan::from_secs(4),
//!     0.8, // mean client arrivals per second
//!     7,   // seed
//! ));
//! trace.validate().unwrap();
//! let text = trace.to_text();
//! assert_eq!(ArrivalTrace::parse(&text).unwrap(), trace); // byte-stable
//!
//! let spec = GpuSpec::a100();
//! let report = Colocation::on(spec.clone())
//!     .trace(trace.session_events(&spec, SimSpan::from_secs(4)))
//!     .unwrap()
//!     .config(HarnessConfig {
//!         duration: SimSpan::from_secs(4),
//!         warmup: SimSpan::ZERO,
//!         ..Default::default()
//!     })
//!     .run();
//! assert_eq!(report.clients.len(), trace.keys().count());
//! ```

use std::sync::{Arc, Mutex};

use tally_core::events::{Observation, SessionObserver};
use tally_core::harness::{compile_trace, ActivityWindow, JobSpec, SessionEvent, TraceClient};
use tally_gpu::rng::SmallRng;
use tally_gpu::{GpuSpec, SimSpan, SimTime};

use crate::maf2::{arrivals, lognormal_factor, poisson_window, Maf2Config};
use crate::openloop::LoadProfile;
use crate::{InferModel, TrainModel};

/// Why a trace failed to validate or parse — the workspace-wide typed
/// trace error, shared with `tally_core` (see
/// [`tally_core::events::TraceError`]).
pub use tally_core::events::TraceError;

/// A symbolic, serializable job reference: which Table 2 model a trace
/// client runs, without baking in kernel streams or request arrivals.
///
/// Resolution to a concrete [`JobSpec`] happens at replay time
/// ([`ArrivalTrace::session_events`]), against a concrete GPU. For an
/// inference client the request arrivals are generated *per activity
/// window*: window `w` of a client uses a MAF2 trace at `load` over the
/// window's span, seeded `seed + w` and offset to the window start — so a
/// replay is a pure function of the trace text and the GPU spec.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceJob {
    /// A best-effort training client of the given model.
    Train(TrainModel),
    /// A high-priority inference client of the given model, driven at
    /// `load` (fraction of solo capacity, in `(0, 1)`) by a MAF2-style
    /// request trace seeded with `seed`.
    Infer {
        /// The model served.
        model: InferModel,
        /// Target load in `(0, 1)`.
        load: f64,
        /// Request-trace RNG seed.
        seed: u64,
    },
    /// An *open-loop* inference client: `model` driven at the absolute
    /// QPS described by `profile`
    /// ([`LoadProfile`]), independent of
    /// completions — offered load may exceed capacity. Serialized as a
    /// trace-format **v2** record kind (`openloop <model> <profile…>
    /// seed=<u64>`); traces containing one are emitted under the v2
    /// header, and the parser accepts both versions.
    OpenLoop {
        /// The model served.
        model: InferModel,
        /// The offered-load shape, in absolute requests per second.
        profile: LoadProfile,
        /// Arrival-stream RNG seed.
        seed: u64,
    },
}

impl TraceJob {
    /// The Table 2 model name this job references.
    pub fn model_name(&self) -> &'static str {
        match self {
            TraceJob::Train(m) => m.name(),
            TraceJob::Infer { model, .. } => model.name(),
            TraceJob::OpenLoop { model, .. } => model.name(),
        }
    }

    /// The job's symbolic descriptor — the exact byte sequence the
    /// plain-text trace format uses after the client key (`train <model>`,
    /// `infer <model> load=<f64> seed=<u64>`, or
    /// `openloop <model> <profile…> seed=<u64>`). Stamped onto every
    /// resolved [`JobSpec`] (as [`JobSpec::descriptor`]) so a
    /// [`TraceRecorder`] observing a live run can re-serialize the client;
    /// [`TraceJob::from_descriptor`] inverts it.
    pub fn descriptor(&self) -> String {
        match self {
            TraceJob::Train(m) => format!("train {}", m.name()),
            TraceJob::Infer { model, load, seed } => {
                format!("infer {} load={load} seed={seed}", model.name())
            }
            TraceJob::OpenLoop {
                model,
                profile,
                seed,
            } => {
                format!(
                    "openloop {} {} seed={seed}",
                    model.name(),
                    profile.descriptor()
                )
            }
        }
    }

    /// Parses a symbolic descriptor (see [`TraceJob::descriptor`]).
    pub fn from_descriptor(s: &str) -> Result<TraceJob, TraceError> {
        let mut tok = s.split(' ');
        let kind = tok
            .next()
            .filter(|t| !t.is_empty())
            .ok_or_else(|| TraceError::semantic("missing job kind"))?;
        let model = tok
            .next()
            .ok_or_else(|| TraceError::semantic("missing model name"))?;
        let job = match kind {
            "train" => TraceJob::Train(TrainModel::from_name(model).ok_or_else(|| {
                TraceError::semantic(format!("unknown training model `{model}`"))
            })?),
            "infer" => {
                let m = InferModel::from_name(model).ok_or_else(|| {
                    TraceError::semantic(format!("unknown inference model `{model}`"))
                })?;
                let load = tok
                    .next()
                    .and_then(|t| t.strip_prefix("load="))
                    .and_then(|t| t.parse::<f64>().ok())
                    .ok_or_else(|| TraceError::semantic("expected `load=<f64>`"))?;
                let seed = tok
                    .next()
                    .and_then(|t| t.strip_prefix("seed="))
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| TraceError::semantic("expected `seed=<u64>`"))?;
                TraceJob::Infer {
                    model: m,
                    load,
                    seed,
                }
            }
            "openloop" => {
                let m = InferModel::from_name(model).ok_or_else(|| {
                    TraceError::semantic(format!("unknown inference model `{model}`"))
                })?;
                // Everything between the model and the trailing
                // `seed=<u64>` token is the profile descriptor.
                let rest: Vec<&str> = tok.by_ref().collect();
                let (&seed_tok, profile_toks) = rest
                    .split_last()
                    .ok_or_else(|| TraceError::semantic("missing load profile"))?;
                let seed = seed_tok
                    .strip_prefix("seed=")
                    .and_then(|t| t.parse::<u64>().ok())
                    .ok_or_else(|| TraceError::semantic("expected trailing `seed=<u64>`"))?;
                let profile = LoadProfile::from_descriptor(&profile_toks.join(" "))
                    .map_err(TraceError::semantic)?;
                TraceJob::OpenLoop {
                    model: m,
                    profile,
                    seed,
                }
            }
            other => {
                return Err(TraceError::semantic(format!("unknown job kind `{other}`")));
            }
        };
        if tok.next().is_some() {
            return Err(TraceError::semantic("trailing tokens after the job"));
        }
        Ok(job)
    }

    /// Resolves the symbolic job into a concrete [`JobSpec`] active over
    /// `windows` (open-ended windows run to `duration`).
    fn resolve(&self, spec: &GpuSpec, windows: &[ActivityWindow], duration: SimSpan) -> JobSpec {
        let job = match self {
            TraceJob::Train(m) => m.job(spec),
            TraceJob::Infer { model, load, seed } => {
                let reqs = window_arrivals(windows, duration, *seed, |span, seed| {
                    arrivals(&Maf2Config::new(*load, model.paper_latency(), span).with_seed(seed))
                });
                model.job(spec, reqs)
            }
            TraceJob::OpenLoop {
                model,
                profile,
                seed,
            } => {
                let reqs = window_arrivals(windows, duration, *seed, |span, seed| {
                    profile.arrivals(span, seed)
                });
                model.job(spec, reqs)
            }
        };
        job.with_schedule(windows.to_vec())
            .with_descriptor(self.descriptor())
    }
}

/// The request arrivals of a client active over `windows`: window `w`,
/// clipped to `duration` and skipped when empty, draws `draw(span, seed +
/// w)` over its span, shifted to the window's start.
fn window_arrivals(
    windows: &[ActivityWindow],
    duration: SimSpan,
    seed: u64,
    draw: impl Fn(SimSpan, u64) -> Vec<SimTime>,
) -> Vec<SimTime> {
    let end = SimTime::ZERO + duration;
    let mut reqs = Vec::new();
    for (w, win) in windows.iter().enumerate() {
        let until = win.until.unwrap_or(end).min(end);
        let span = until.saturating_since(win.from);
        if span.is_zero() {
            continue;
        }
        reqs.extend(
            draw(span, seed.wrapping_add(w as u64))
                .into_iter()
                .map(|t| win.from + t.saturating_since(SimTime::ZERO)),
        );
    }
    reqs
}

/// One client lifecycle event of an [`ArrivalTrace`]: the workspace-wide
/// [`ClientEvent`](tally_core::events::ClientEvent) vocabulary carrying a
/// symbolic [`TraceJob`] payload (keys must contain no whitespace). The
/// harness speaks the same vocabulary with resolved
/// [`JobSpec`] payloads — see
/// [`tally_core::harness::SessionEvent`] — and
/// [`ArrivalTrace::session_events`] converts one into the other.
pub type ClientEvent = tally_core::events::ClientEvent<TraceJob>;

/// A timestamped [`ClientEvent`].
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// When the event fires.
    pub at: SimTime,
    /// What happens.
    pub event: ClientEvent,
}

fn err(line: usize, message: impl Into<String>) -> TraceError {
    TraceError::at_line(line, message)
}

/// Header line of the original plain-text format (versioned so future
/// extensions can stay readable).
const HEADER: &str = "# tally-arrival-trace v1";

/// Header line of format v2, which adds the `openloop` record kind.
/// Traces without open-loop records keep serializing under v1 so
/// existing checked-in traces stay byte-stable; the parser accepts both.
const HEADER_V2: &str = "# tally-arrival-trace v2";

/// A time-ordered stream of client arrive/depart events.
///
/// See the [module docs](self) for the life cycle: generate (or build by
/// hand), validate, serialize, replay.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ArrivalTrace {
    /// The events, in non-decreasing timestamp order.
    pub events: Vec<TraceEvent>,
}

impl ArrivalTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends an arrival. Events must be appended in timestamp order
    /// ([`ArrivalTrace::validate`] checks).
    pub fn arrive(&mut self, at: SimTime, key: impl Into<String>, job: TraceJob) -> &mut Self {
        self.events.push(TraceEvent {
            at,
            event: ClientEvent::Arrive {
                key: key.into(),
                job,
            },
        });
        self
    }

    /// Appends a departure.
    pub fn depart(&mut self, at: SimTime, key: impl Into<String>) -> &mut Self {
        self.events.push(TraceEvent {
            at,
            event: ClientEvent::Depart { key: key.into() },
        });
        self
    }

    /// The distinct client keys, in first-arrival order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        let mut seen = Vec::new();
        for e in &self.events {
            if let ClientEvent::Arrive { key, .. } = &e.event {
                if !seen.contains(&key.as_str()) {
                    seen.push(key.as_str());
                }
            }
        }
        seen.into_iter()
    }

    /// Checks the trace invariants: well-formed keys (non-empty, no
    /// whitespace), inference loads in `(0, 1)`, valid open-loop profiles,
    /// and the stream shape [`compile_trace`] checks for every harness
    /// stream too — non-decreasing timestamps and balanced arrive/depart
    /// alternation per key (every departure closes an open arrival
    /// strictly after it, and a key only re-arrives once departed). A
    /// trailing open arrival (client stays to the end) is legal.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.compile().map(drop)
    }

    /// [Validates](ArrivalTrace::validate) the trace and returns its
    /// compiled clients, in first-arrival order.
    fn compile(&self) -> Result<Vec<TraceClient<'_, TraceJob>>, TraceError> {
        for e in &self.events {
            let key = e.event.key();
            if key.is_empty() || key.chars().any(|c| c.is_whitespace() || c.is_control()) {
                return Err(err(0, format!("malformed key {key:?}")));
            }
            match &e.event {
                ClientEvent::Arrive {
                    job: TraceJob::Infer { load, .. },
                    ..
                } if !(*load > 0.0 && *load < 1.0) => {
                    return Err(err(0, format!("`{key}` load {load} outside (0, 1)")));
                }
                ClientEvent::Arrive {
                    job: TraceJob::OpenLoop { profile, .. },
                    ..
                } => {
                    if let Err(e) = profile.validate() {
                        return Err(err(0, format!("`{key}` profile: {e}")));
                    }
                }
                _ => {}
            }
        }
        compile_trace(self.events.iter().map(|e| (e.at, &e.event)))
    }

    /// Serializes to the canonical plain-text form: a header line (v1,
    /// or v2 when an open-loop record is present), then one event per
    /// line (`@<nanos> arrive <key> train <model>`,
    /// `@<nanos> arrive <key> infer <model> load=<f64> seed=<u64>`,
    /// `@<nanos> arrive <key> openloop <model> <profile…> seed=<u64>`, or
    /// `@<nanos> depart <key>`). [`ArrivalTrace::parse`] inverts this
    /// byte-identically: `to_text(parse(s)) == s` for canonical `s`, and
    /// `parse(to_text(t)) == t` for any valid trace `t`.
    pub fn to_text(&self) -> String {
        let v2 = self.events.iter().any(|e| {
            matches!(
                &e.event,
                ClientEvent::Arrive {
                    job: TraceJob::OpenLoop { .. },
                    ..
                }
            )
        });
        let mut out = String::from(if v2 { HEADER_V2 } else { HEADER });
        out.push('\n');
        for e in &self.events {
            out.push('@');
            out.push_str(&e.at.as_nanos().to_string());
            match &e.event {
                ClientEvent::Arrive { key, job } => {
                    out.push_str(" arrive ");
                    out.push_str(key);
                    out.push(' ');
                    out.push_str(&job.descriptor());
                }
                ClientEvent::Depart { key } => {
                    out.push_str(" depart ");
                    out.push_str(key);
                }
            }
            out.push('\n');
        }
        out
    }

    /// Parses the plain-text form (see [`ArrivalTrace::to_text`]). Blank
    /// lines and `#` comments after the header are tolerated (the
    /// canonical form emits none). The parsed trace is also
    /// [validated](ArrivalTrace::validate).
    pub fn parse(text: &str) -> Result<ArrivalTrace, TraceError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim_end() == HEADER || first.trim_end() == HEADER_V2 => {}
            _ => return Err(err(1, format!("missing header `{HEADER}` (or v2)"))),
        }
        let mut trace = ArrivalTrace::new();
        for (idx, line) in lines {
            let lineno = idx + 1;
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tok = line.split(' ');
            let at = tok
                .next()
                .and_then(|t| t.strip_prefix('@'))
                .and_then(|t| t.parse::<u64>().ok())
                .map(SimTime::from_nanos)
                .ok_or_else(|| err(lineno, "expected `@<nanos>`"))?;
            let verb = tok.next().ok_or_else(|| err(lineno, "missing verb"))?;
            let key = tok
                .next()
                .ok_or_else(|| err(lineno, "missing client key"))?
                .to_string();
            match verb {
                "depart" => {
                    if tok.next().is_some() {
                        return Err(err(lineno, "trailing tokens after depart"));
                    }
                    trace.depart(at, key);
                }
                "arrive" => {
                    let descriptor = tok.collect::<Vec<&str>>().join(" ");
                    let job = TraceJob::from_descriptor(&descriptor)
                        .map_err(|e| err(lineno, e.message))?;
                    trace.arrive(at, key, job);
                }
                other => return Err(err(lineno, format!("unknown verb `{other}`"))),
            }
        }
        trace.validate()?;
        Ok(trace)
    }

    /// Resolves the trace into the timed
    /// [`SessionEvent`] stream that
    /// [`Colocation::trace`](tally_core::harness::Colocation::trace) and
    /// [`Cluster::trace`](tally_core::cluster::Cluster::trace) consume.
    /// Each key's symbolic job is resolved once (see [`TraceJob`]) against
    /// `spec`, with open windows running to `duration`.
    ///
    /// # Panics
    ///
    /// Panics if the trace does not [validate](ArrivalTrace::validate).
    pub fn session_events(
        &self,
        spec: &GpuSpec,
        duration: SimSpan,
    ) -> Vec<(SimTime, SessionEvent)> {
        let clients = self.compile().unwrap_or_else(|e| panic!("{e}"));
        // Resolve each key once, with its count of arrivals still to come
        // (one per window), then mirror the event stream: every arrival but
        // a key's last gets a clone, and the last takes the job itself.
        let mut resolved: std::collections::BTreeMap<&str, (usize, JobSpec)> = clients
            .iter()
            .map(|c| {
                let job = c.job.resolve(spec, &c.windows, duration);
                (c.key, (c.windows.len(), job))
            })
            .collect();
        self.events
            .iter()
            .map(|e| {
                let ev = match &e.event {
                    ClientEvent::Arrive { key, .. } => {
                        let (left, job) = resolved.get_mut(key.as_str()).expect("compiled key");
                        *left -= 1;
                        let job = if *left == 0 {
                            resolved.remove(key.as_str()).expect("compiled key").1
                        } else {
                            job.clone()
                        };
                        SessionEvent::Arrive {
                            key: key.clone(),
                            job,
                        }
                    }
                    ClientEvent::Depart { key } => SessionEvent::Depart { key: key.clone() },
                };
                (e.at, ev)
            })
            .collect()
    }

    /// Generates a trace from a seeded arrival process (see [`TraceGen`]).
    /// Deterministic: the same config always yields the same trace.
    pub fn generate(cfg: &TraceGen) -> ArrivalTrace {
        assert!(!cfg.mix.is_empty(), "trace mix must not be empty");
        assert!(cfg.rate > 0.0, "arrival rate must be positive");
        let total_weight: f64 = cfg.mix.iter().map(|m| m.weight).sum();
        assert!(total_weight > 0.0, "mix weights must sum positive");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let total_s = cfg.duration.as_secs_f64();
        let window_s = cfg.window.as_secs_f64();
        let end = SimTime::ZERO + cfg.duration;

        // Client arrival instants: per-window lognormal-modulated Poisson,
        // as in `maf2::arrivals` but with no spikes and no normal draw
        // when `burstiness` is 0.
        let mut client_arrivals: Vec<SimTime> = Vec::new();
        let num_windows = (total_s / window_s).ceil() as usize;
        for w in 0..num_windows {
            let start = w as f64 * window_s;
            let factor = if cfg.burstiness > 0.0 {
                lognormal_factor(&mut rng, cfg.burstiness)
            } else {
                1.0
            };
            let span = start..(start + window_s).min(total_s);
            poisson_window(&mut rng, cfg.rate * factor, span, &mut client_arrivals);
        }

        // Per client: pick a mix entry, then emit its windows (service
        // duration, optional geometric re-arrivals after think-time gaps).
        let mut events: Vec<TraceEvent> = Vec::new();
        for (i, mut from) in client_arrivals.into_iter().enumerate() {
            let mut pick = rng.gen_range(0.0..total_weight);
            let entry = cfg
                .mix
                .iter()
                .find(|m| {
                    pick -= m.weight;
                    pick < 0.0
                })
                .unwrap_or_else(|| cfg.mix.last().expect("non-empty mix"));
            let key = format!("{}#{i}", entry.job.model_name());
            loop {
                if from >= end {
                    break;
                }
                let service_s =
                    -rng.gen_range(f64::EPSILON..1.0f64).ln() * entry.mean_service.as_secs_f64();
                // tally-lint: allow(D1-float-schedule) -- seeded exponential
                // draw rounded to integral nanoseconds once; `from` stays
                // integral, so repeated stays cannot accumulate drift.
                let stay = SimSpan::from_secs_f64(service_s).max(SimSpan::from_nanos(1));
                let until = (from + stay).min(end);
                events.push(TraceEvent {
                    at: from,
                    event: ClientEvent::Arrive {
                        key: key.clone(),
                        job: entry.job.clone(),
                    },
                });
                events.push(TraceEvent {
                    at: until,
                    event: ClientEvent::Depart { key: key.clone() },
                });
                if until >= end || !rng.gen_bool(entry.rearrive) {
                    break;
                }
                let gap_s =
                    -rng.gen_range(f64::EPSILON..1.0f64).ln() * entry.mean_gap.as_secs_f64();
                // tally-lint: allow(D1-float-schedule) -- seeded exponential
                // gap rounded to integral nanoseconds once off integral `until`.
                from = until + SimSpan::from_secs_f64(gap_s).max(SimSpan::from_nanos(1));
            }
        }
        // Stable sort keeps per-key order (arrive before its depart at
        // equal instants) and generation order across keys.
        events.sort_by_key(|e| e.at);
        let trace = ArrivalTrace { events };
        debug_assert!(trace.validate().is_ok());
        trace
    }
}

/// Parameters of [`ArrivalTrace::generate`].
#[derive(Clone, Debug)]
pub struct TraceGen {
    /// Trace length: no event fires at or after `duration` (departures are
    /// clamped to it).
    pub duration: SimSpan,
    /// RNG seed — the only source of randomness.
    pub seed: u64,
    /// Mean client arrivals per second (the churn rate).
    pub rate: f64,
    /// Sigma of the per-window lognormal arrival-rate modulation
    /// (0 = plain Poisson; MAF2-flavored burstiness otherwise).
    pub burstiness: f64,
    /// Width of a rate-modulation window.
    pub window: SimSpan,
    /// The job mix sampled per arrival, by weight.
    pub mix: Vec<TraceMix>,
}

impl TraceGen {
    /// A representative churn workload at `rate` client arrivals per
    /// second: mostly best-effort trainers (GPT2-Large and Whisper, the
    /// paper's heavy hitters) that stay a few seconds and often come back,
    /// plus the occasional short-lived BERT service.
    pub fn churn(duration: SimSpan, rate: f64, seed: u64) -> TraceGen {
        TraceGen {
            duration,
            seed,
            rate,
            burstiness: 0.3,
            window: SimSpan::from_millis(500),
            mix: vec![
                TraceMix {
                    job: TraceJob::Train(TrainModel::Gpt2Large),
                    weight: 0.5,
                    mean_service: SimSpan::from_secs(4),
                    rearrive: 0.4,
                    mean_gap: SimSpan::from_secs(2),
                },
                TraceMix {
                    job: TraceJob::Train(TrainModel::WhisperV3),
                    weight: 0.3,
                    mean_service: SimSpan::from_secs(3),
                    rearrive: 0.3,
                    mean_gap: SimSpan::from_secs(2),
                },
                TraceMix {
                    job: TraceJob::Infer {
                        model: InferModel::Bert,
                        load: 0.3,
                        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
                    },
                    weight: 0.2,
                    mean_service: SimSpan::from_secs(5),
                    rearrive: 0.2,
                    mean_gap: SimSpan::from_secs(3),
                },
            ],
        }
    }
}

/// A built-in [`SessionObserver`] that captures a replayable
/// [`ArrivalTrace`] from a live run.
///
/// The recorder listens to the client lifecycle edges of the observation
/// stream: every attach becomes an `arrive` event, every detach a
/// `depart`, at the exact simulated instants they happened. Clients must
/// carry a symbolic descriptor
/// ([`JobSpec::descriptor`](tally_core::harness::JobSpec::descriptor) in
/// the [`TraceJob::descriptor`] syntax) — which every job resolved through
/// [`ArrivalTrace::session_events`] does — so the captured trace can be
/// serialized with [`ArrivalTrace::to_text`], checked in, parsed back,
/// and replayed: the replay reproduces the original client schedule, and
/// therefore the original reports, byte for byte.
///
/// Cross-device migrations are *not* lifecycle edges and are not
/// recorded: a migrated client's schedule is unchanged, and replaying the
/// trace under the same cluster configuration reproduces the same
/// migrations. (Caveat: two *distinct* clients whose first arrivals share
/// the exact same nanosecond on different devices are recorded in device
/// order, which may differ from the source trace's within-instant order.)
///
/// ```
/// use tally_gpu::{GpuSpec, SimSpan, SimTime};
/// use tally_workloads::trace::{ArrivalTrace, TraceJob, TraceRecorder};
/// use tally_workloads::TrainModel;
/// use tally_core::harness::{Colocation, HarnessConfig};
///
/// let spec = GpuSpec::a100();
/// let duration = SimSpan::from_secs(1);
/// let cfg = HarnessConfig {
///     duration,
///     warmup: SimSpan::ZERO,
///     ..Default::default()
/// };
/// let mut original = ArrivalTrace::new();
/// original.arrive(SimTime::ZERO, "gpt2", TraceJob::Train(TrainModel::Gpt2Large));
/// original.depart(SimTime::from_millis(700), "gpt2");
///
/// // Record a live run…
/// let recorder = TraceRecorder::shared_sync();
/// let live = Colocation::on(spec.clone())
///     .trace(original.session_events(&spec, duration))
///     .unwrap()
///     .sync_observer(recorder.clone())
///     .config(cfg.clone())
///     .run();
/// // …and the captured trace replays to the identical report.
/// let captured = recorder.lock().unwrap().trace().unwrap();
/// assert_eq!(captured, original);
/// let replay = Colocation::on(spec.clone())
///     .trace(captured.session_events(&spec, duration))
///     .unwrap()
///     .config(cfg)
///     .run();
/// assert_eq!(format!("{live:?}"), format!("{replay:?}"));
/// ```
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Vec<TraceEvent>,
    error: Option<TraceError>,
}

impl TraceRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A shared handle to a fresh recorder, ready to pass to
    /// `Colocation::sync_observer` / `Cluster::sync_observer` (keep a clone
    /// to read the trace back after the run).
    pub fn shared_sync() -> Arc<Mutex<TraceRecorder>> {
        Arc::new(Mutex::new(TraceRecorder::new()))
    }

    /// Lifecycle events captured so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been captured yet.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The captured trace, validated.
    ///
    /// Returns a [`TraceError`] if an observed client carried no parsable
    /// symbolic descriptor (a hand-built [`JobSpec`] rather than a
    /// trace-resolved one), or if the captured stream does not validate.
    pub fn trace(&self) -> Result<ArrivalTrace, TraceError> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        let mut events = self.events.clone();
        events.sort_by_key(|e| e.at);
        let trace = ArrivalTrace { events };
        trace.validate()?;
        Ok(trace)
    }
}

impl SessionObserver for TraceRecorder {
    fn on_event(&mut self, at: SimTime, _device: usize, event: &Observation) {
        if self.error.is_some() {
            return;
        }
        match event {
            Observation::ClientAttached {
                key, descriptor, ..
            } => {
                let Some(descriptor) = descriptor else {
                    self.error = Some(TraceError::semantic(format!(
                        "client `{key}` carries no symbolic descriptor; \
                         only trace-resolved jobs can be recorded"
                    )));
                    return;
                };
                match TraceJob::from_descriptor(descriptor) {
                    Ok(job) => {
                        self.events.push(TraceEvent {
                            at,
                            event: ClientEvent::Arrive {
                                key: key.clone(),
                                job,
                            },
                        });
                    }
                    Err(e) => {
                        self.error = Some(TraceError::semantic(format!(
                            "client `{key}` descriptor `{descriptor}`: {}",
                            e.message
                        )));
                    }
                }
            }
            Observation::ClientDetached { key, .. } => {
                self.events.push(TraceEvent {
                    at,
                    event: ClientEvent::Depart { key: key.clone() },
                });
            }
            _ => {}
        }
    }
}

/// One entry of a [`TraceGen`] job mix.
#[derive(Clone, Debug)]
pub struct TraceMix {
    /// The job arriving clients of this entry run.
    pub job: TraceJob,
    /// Relative arrival weight.
    pub weight: f64,
    /// Mean attached duration (exponential).
    pub mean_service: SimSpan,
    /// Probability that a departing client later re-arrives under the same
    /// key (geometric across attachments).
    pub rearrive: f64,
    /// Mean detached think-time gap before a re-arrival (exponential).
    pub mean_gap: SimSpan,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArrivalTrace {
        let mut t = ArrivalTrace::new();
        t.arrive(
            SimTime::ZERO,
            "svc",
            TraceJob::Infer {
                model: InferModel::Bert,
                load: 0.5,
                seed: 9,
            },
        );
        t.arrive(
            SimTime::from_millis(250),
            "gpt2",
            TraceJob::Train(TrainModel::Gpt2Large),
        );
        t.depart(SimTime::from_millis(900), "gpt2");
        t.arrive(
            SimTime::from_millis(1400),
            "gpt2",
            TraceJob::Train(TrainModel::Gpt2Large),
        );
        t.depart(SimTime::from_secs(2), "gpt2");
        t.depart(SimTime::from_secs(2), "svc");
        t
    }

    #[test]
    fn round_trips_canonically() {
        let t = sample();
        t.validate().unwrap();
        let text = t.to_text();
        let parsed = ArrivalTrace::parse(&text).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(parsed.to_text(), text, "canonical text is a fixed point");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        let bad = [
            "nonsense",                                                                  // no header
            "# tally-arrival-trace v1\n@x arrive a train gpt2-large-train",              // bad time
            "# tally-arrival-trace v1\n@0 arrive a train no-such-model", // bad model
            "# tally-arrival-trace v1\n@0 levitate a",                   // bad verb
            "# tally-arrival-trace v1\n@0 arrive a infer bert-infer load=1.5 seed=1", // bad load
            "# tally-arrival-trace v1\n@0 depart a",                     // orphan depart
            "# tally-arrival-trace v1\n@5 arrive a train gpt2-large-train\n@0 depart a", // disorder
        ];
        for text in bad {
            assert!(ArrivalTrace::parse(text).is_err(), "accepted: {text:?}");
        }
    }

    #[test]
    fn validate_catches_unbalanced_keys() {
        let mut t = ArrivalTrace::new();
        t.arrive(SimTime::ZERO, "a", TraceJob::Train(TrainModel::Bert));
        t.arrive(
            SimTime::from_millis(1),
            "a",
            TraceJob::Train(TrainModel::Bert),
        );
        assert!(t.validate().is_err());
        let mut t = ArrivalTrace::new();
        t.arrive(SimTime::ZERO, "a", TraceJob::Train(TrainModel::Bert));
        t.depart(SimTime::ZERO, "a"); // zero-length window
        assert!(t.validate().is_err());
        let mut t = ArrivalTrace::new();
        t.arrive(SimTime::ZERO, "a b", TraceJob::Train(TrainModel::Bert));
        assert!(t.validate().is_err(), "whitespace key must be rejected");
    }

    #[test]
    fn generator_is_deterministic_and_valid() {
        let cfg = TraceGen::churn(SimSpan::from_secs(10), 1.0, 42);
        let a = ArrivalTrace::generate(&cfg);
        let b = ArrivalTrace::generate(&cfg);
        assert_eq!(a, b);
        a.validate().unwrap();
        assert!(!a.is_empty());
        let c = ArrivalTrace::generate(&TraceGen::churn(SimSpan::from_secs(10), 1.0, 43));
        assert_ne!(a, c, "different seeds give different traces");
    }

    #[test]
    fn generator_rate_scales_arrivals() {
        let slow = ArrivalTrace::generate(&TraceGen::churn(SimSpan::from_secs(30), 0.3, 7));
        let fast = ArrivalTrace::generate(&TraceGen::churn(SimSpan::from_secs(30), 3.0, 7));
        assert!(
            fast.keys().count() > 4 * slow.keys().count(),
            "10x the rate should produce several times the clients ({} vs {})",
            fast.keys().count(),
            slow.keys().count()
        );
    }

    #[test]
    fn generator_produces_re_arrivals() {
        let t = ArrivalTrace::generate(&TraceGen::churn(SimSpan::from_secs(30), 1.5, 11));
        let mut arrivals_per_key: std::collections::BTreeMap<&str, usize> = Default::default();
        for e in &t.events {
            if let ClientEvent::Arrive { key, .. } = &e.event {
                *arrivals_per_key.entry(key).or_default() += 1;
            }
        }
        assert!(
            arrivals_per_key.values().any(|&n| n > 1),
            "churn mix re-arrives some clients"
        );
    }

    #[test]
    fn openloop_records_round_trip_under_the_v2_header() {
        let mut t = ArrivalTrace::new();
        t.arrive(
            SimTime::ZERO,
            "surge",
            TraceJob::OpenLoop {
                model: InferModel::Bert,
                profile: LoadProfile::FlashCrowd {
                    base_qps: 100.0,
                    mult: 5.0,
                    at: SimSpan::from_secs(1),
                    len: SimSpan::from_millis(500),
                },
                seed: 31,
            },
        );
        t.depart(SimTime::from_secs(2), "surge");
        t.validate().unwrap();
        let text = t.to_text();
        assert!(text.starts_with("# tally-arrival-trace v2\n"), "{text}");
        let parsed = ArrivalTrace::parse(&text).unwrap();
        assert_eq!(parsed, t);
        assert_eq!(parsed.to_text(), text, "v2 text is a fixed point");
        // Plain traces keep the v1 header byte-for-byte.
        assert!(sample().to_text().starts_with("# tally-arrival-trace v1\n"));
    }

    #[test]
    fn openloop_parse_rejects_malformed_records() {
        let bad = [
            // No profile.
            "# tally-arrival-trace v2\n@0 arrive a openloop bert-infer seed=1",
            // Unknown profile kind.
            "# tally-arrival-trace v2\n@0 arrive a openloop bert-infer wave qps=1 seed=1",
            // Missing seed.
            "# tally-arrival-trace v2\n@0 arrive a openloop bert-infer const qps=1",
            // Degenerate rate.
            "# tally-arrival-trace v2\n@0 arrive a openloop bert-infer const qps=0 seed=1",
        ];
        for text in bad {
            assert!(ArrivalTrace::parse(text).is_err(), "accepted: {text:?}");
        }
    }

    #[test]
    fn openloop_records_resolve_to_window_offset_arrivals() {
        let spec = GpuSpec::a100();
        let mut t = ArrivalTrace::new();
        t.arrive(
            SimTime::from_millis(500),
            "svc",
            TraceJob::OpenLoop {
                model: InferModel::Bert,
                profile: LoadProfile::Constant { qps: 200.0 },
                seed: 3,
            },
        );
        t.depart(SimTime::from_millis(1500), "svc");
        let events = t.session_events(&spec, SimSpan::from_secs(2));
        let (_, SessionEvent::Arrive { job, .. }) = &events[0] else {
            panic!("first event is the arrival");
        };
        let tally_core::harness::JobKind::Inference { arrivals, .. } = &job.kind else {
            panic!("open-loop job resolves to inference");
        };
        assert!(!arrivals.is_empty());
        assert!(arrivals
            .iter()
            .all(|&a| a >= SimTime::from_millis(500) && a < SimTime::from_millis(1500)));
        // And the window generator matches the profile generator directly.
        let direct: Vec<SimTime> = LoadProfile::Constant { qps: 200.0 }
            .arrivals(SimSpan::from_secs(1), 3)
            .into_iter()
            .map(|a| SimTime::from_millis(500) + a.saturating_since(SimTime::ZERO))
            .collect();
        assert_eq!(*arrivals, direct);
    }

    #[test]
    fn session_events_resolve_per_window_arrivals() {
        let spec = GpuSpec::a100();
        let t = sample();
        let events = t.session_events(&spec, SimSpan::from_secs(2));
        assert_eq!(events.len(), t.len());
        // The service's resolved job has request arrivals only inside its
        // window and in order.
        let (_, SessionEvent::Arrive { job, .. }) = &events[0] else {
            panic!("first event is the service arrival");
        };
        let tally_core::harness::JobKind::Inference { arrivals, .. } = &job.kind else {
            panic!("service resolves to an inference job");
        };
        assert!(!arrivals.is_empty());
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        assert!(arrivals.iter().all(|&a| a < SimTime::from_secs(2)));
    }

    #[test]
    fn session_events_hand_every_arrival_its_keys_job() {
        let spec = GpuSpec::a100();
        let duration = SimSpan::from_secs(30);
        let t = ArrivalTrace::generate(&TraceGen::churn(duration, 1.5, 11));
        let events = t.session_events(&spec, duration);
        let mut first: std::collections::BTreeMap<&str, String> = Default::default();
        let mut arrivals = 0;
        for (_, ev) in &events {
            if let SessionEvent::Arrive { key, job } = ev {
                arrivals += 1;
                let job = format!("{job:?}");
                assert_eq!(
                    *first.entry(key).or_insert_with(|| job.clone()),
                    job,
                    "{key}"
                );
            }
        }
        assert!(arrivals > first.len(), "the trace must have re-arrivals");
    }
}
