//! Latency and throughput metrics — the quantities the paper reports.

use std::cell::RefCell;
use std::fmt;

use tally_gpu::{SimSpan, SimTime};

use crate::api::InterceptStats;

/// Records a stream of latency samples and answers quantile queries.
///
/// The paper's headline metric is the 99th-percentile latency of the
/// high-priority inference task ([`LatencyRecorder::p99`]).
///
/// ```
/// use tally_core::metrics::LatencyRecorder;
/// use tally_gpu::SimSpan;
///
/// let mut rec = LatencyRecorder::new();
/// for ms in 1..=100 {
///     rec.record(SimSpan::from_millis(ms));
/// }
/// assert_eq!(rec.p99(), Some(SimSpan::from_millis(99)));
/// assert_eq!(rec.quantile(0.5), Some(SimSpan::from_millis(50)));
/// ```
#[derive(Clone, Default)]
pub struct LatencyRecorder {
    samples: Vec<SimSpan>,
    /// Lazily-sorted copy of `samples`, rebuilt on the first quantile
    /// query after a `record` (benches query p99/p50/mean repeatedly on
    /// the same recorder). Staleness check: `samples` only ever grows, so
    /// a length mismatch is exactly "a record happened since the sort".
    sorted: RefCell<Vec<SimSpan>>,
}

/// Manual impl so the cache never leaks into debug output: report debug
/// strings double as determinism fingerprints, and whether a quantile was
/// queried must not change them.
impl fmt::Debug for LatencyRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatencyRecorder")
            .field("samples", &self.samples)
            .finish()
    }
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample.
    pub fn record(&mut self, latency: SimSpan) {
        self.samples.push(latency);
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The raw samples, in arrival order.
    pub fn samples(&self) -> &[SimSpan] {
        &self.samples
    }

    /// The `q`-quantile (nearest-rank), `q` in `[0, 1]`.
    ///
    /// Returns `None` when no samples exist.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<SimSpan> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.sorted.borrow_mut();
        if sorted.len() != self.samples.len() {
            sorted.clear();
            sorted.extend_from_slice(&self.samples);
            sorted.sort_unstable();
        }
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        Some(sorted[rank - 1])
    }

    /// The 99th-percentile latency.
    pub fn p99(&self) -> Option<SimSpan> {
        self.quantile(0.99)
    }

    /// The median latency.
    pub fn p50(&self) -> Option<SimSpan> {
        self.quantile(0.50)
    }

    /// The arithmetic mean.
    pub fn mean(&self) -> Option<SimSpan> {
        if self.samples.is_empty() {
            return None;
        }
        let total: u128 = self.samples.iter().map(|s| s.as_nanos() as u128).sum();
        Some(SimSpan::from_nanos(
            (total / self.samples.len() as u128) as u64,
        ))
    }

    /// The maximum sample.
    pub fn max(&self) -> Option<SimSpan> {
        self.samples.iter().copied().max()
    }
}

/// Per-client outcome of a co-location run.
#[derive(Clone, Debug)]
pub struct ClientReport {
    /// Client name (e.g. `"bert-infer"`).
    pub name: String,
    /// Whether the client ran as the high-priority task.
    pub high_priority: bool,
    /// Inference requests completed (0 for training jobs).
    pub requests: u64,
    /// Training iterations completed (0 for inference jobs).
    pub iterations: u64,
    /// GPU kernels completed.
    pub kernels: u64,
    /// Times the client attached over the run: 1 for a classic one-window
    /// client, one per scheduled window for re-attaching clients, plus one
    /// per cross-device migration reconnect. Metrics are cumulative across
    /// all attachments.
    pub attachments: u64,
    /// Requests rejected outright by an
    /// [`AdmissionPolicy`](crate::admission::AdmissionPolicy) (never
    /// enqueued; excluded from latency and throughput).
    pub shed: u64,
    /// Request latencies (inference jobs, post-warmup).
    pub latency: LatencyRecorder,
    /// Work units (requests or iterations) per second of simulated time,
    /// measured post-warmup and normalized over the client's active window.
    pub throughput: f64,
    /// Interception-layer counters for this client — all zero when the
    /// session ran natively (without a
    /// [`ClientStub`](crate::api::ClientStub)).
    pub intercept: InterceptStats,
    /// `(arrival, latency)` per request, whole run — only populated when
    /// the harness records timelines.
    pub timed_latencies: Vec<(tally_gpu::SimTime, SimSpan)>,
    /// Arrival instant of every shed request, whole run — only populated
    /// when the harness records timelines. Lets [`ClientReport::windowed`]
    /// compute per-window shed rates instead of a whole-run scalar.
    pub timed_sheds: Vec<tally_gpu::SimTime>,
    /// Completion instant of every program op — only populated when the
    /// harness records timelines.
    pub op_times: Vec<tally_gpu::SimTime>,
}

impl ClientReport {
    /// The 99th-percentile latency, if any requests completed.
    pub fn p99(&self) -> Option<SimSpan> {
        self.latency.p99()
    }

    /// Metrics restricted to the window `[from, until)` — the building
    /// block of time-series and phased figures (requests are attributed to
    /// the window their *arrival* falls in, ops to their completion).
    ///
    /// Requires the run to have recorded timelines
    /// ([`HarnessConfig::record_timelines`](crate::harness::HarnessConfig::record_timelines));
    /// without them every window is empty.
    pub fn windowed(&self, from: SimTime, until: SimTime) -> Windowed {
        let mut latency = LatencyRecorder::new();
        for &(arrival, l) in &self.timed_latencies {
            if arrival >= from && arrival < until {
                latency.record(l);
            }
        }
        let ops = self
            .op_times
            .iter()
            .filter(|&&t| t >= from && t < until)
            .count() as u64;
        let sheds = self
            .timed_sheds
            .iter()
            .filter(|&&t| t >= from && t < until)
            .count() as u64;
        let secs = until.saturating_since(from).as_secs_f64().max(1e-9);
        let throughput = if self.iterations > 0 {
            // Training: ops completed in the window, in iterations.
            let ops_per_iter = self.op_times.len().max(1) as f64 / self.iterations as f64;
            ops as f64 / ops_per_iter / secs
        } else {
            // Inference: requests arriving in the window.
            latency.len() as f64 / secs
        };
        Windowed {
            latency,
            ops,
            sheds,
            throughput,
        }
    }
}

/// One time window of a client's run (see [`ClientReport::windowed`]).
///
/// ```
/// # use tally_core::metrics::{ClientReport, LatencyRecorder};
/// # use tally_core::api::InterceptStats;
/// use tally_gpu::{SimSpan, SimTime};
/// # let report = ClientReport {
/// #     name: "svc".into(), high_priority: true, requests: 2,
/// #     iterations: 0, kernels: 2, attachments: 1, shed: 0,
/// #     latency: LatencyRecorder::new(),
/// #     throughput: 0.0, intercept: InterceptStats::default(),
/// #     timed_latencies: vec![
/// #         (SimTime::ZERO, SimSpan::from_millis(1)),
/// #         (SimTime::from_secs(3), SimSpan::from_millis(9)),
/// #     ],
/// #     timed_sheds: Vec::new(),
/// #     op_times: vec![SimTime::from_millis(1)],
/// # };
/// let early = report.windowed(SimTime::ZERO, SimTime::from_secs(2));
/// assert_eq!(early.p99(), Some(SimSpan::from_millis(1)));
/// assert_eq!(early.requests(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Windowed {
    /// Latencies of the requests that arrived inside the window.
    pub latency: LatencyRecorder,
    /// Program ops completed inside the window.
    pub ops: u64,
    /// Requests shed inside the window (by arrival instant).
    pub sheds: u64,
    /// Work units per second over the window: iterations for training
    /// clients, requests for inference clients.
    pub throughput: f64,
}

impl Windowed {
    /// Requests that arrived inside the window.
    pub fn requests(&self) -> u64 {
        self.latency.len() as u64
    }

    /// The window's 99th-percentile latency (`None` when no requests
    /// arrived in it).
    pub fn p99(&self) -> Option<SimSpan> {
        self.latency.p99()
    }

    /// The window's mean latency.
    pub fn mean(&self) -> Option<SimSpan> {
        self.latency.mean()
    }

    /// Fraction of the window's arrivals that were shed:
    /// `sheds / (requests + sheds)`, 0 when nothing arrived.
    pub fn shed_rate(&self) -> f64 {
        let arrivals = self.requests() + self.sheds;
        if arrivals == 0 {
            0.0
        } else {
            self.sheds as f64 / arrivals as f64
        }
    }
}

/// Outcome of one co-location run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Name of the sharing system that produced this run.
    pub system: String,
    /// Simulated duration.
    pub duration: SimSpan,
    /// Per-client outcomes, in client-id order.
    pub clients: Vec<ClientReport>,
}

impl RunReport {
    /// The report of the first high-priority client.
    pub fn high_priority(&self) -> Option<&ClientReport> {
        self.clients.iter().find(|c| c.high_priority)
    }

    /// Reports of all best-effort clients.
    pub fn best_effort(&self) -> impl Iterator<Item = &ClientReport> {
        self.clients.iter().filter(|c| !c.high_priority)
    }

    /// System throughput: the sum over clients of their throughput
    /// normalized by the matching solo throughput (the paper's definition).
    ///
    /// `solo` maps client index → solo throughput in the same units.
    ///
    /// # Panics
    ///
    /// Panics if `solo` has fewer entries than there are clients.
    pub fn system_throughput(&self, solo: &[f64]) -> f64 {
        assert!(
            solo.len() >= self.clients.len(),
            "missing solo throughput entries"
        );
        self.clients
            .iter()
            .zip(solo)
            .map(|(c, &s)| if s > 0.0 { c.throughput / s } else { 0.0 })
            .sum()
    }
}

/// Host-side (wall-clock) execution counters for a cluster run.
///
/// These describe how the *simulator itself* performed, not the simulated
/// GPUs: how many barriers the parallel drive executed, how long the
/// advancement phases took on the host, and how much simulation work was
/// processed. They surface in benches as `host_*` metrics — tracked in
/// the trajectory, never gated, because wall-clock varies by machine.
///
/// All fields except the `*_ns` wall-clock timings are deterministic
/// functions of the workload; the timings depend on the machine and the
/// thread count. `HostStats` is deliberately excluded from
/// [`ClusterReport`](crate::cluster::ClusterReport)'s `Debug` output so
/// that the report's debug string stays a byte-identical determinism
/// fingerprint across thread counts and hosts.
#[derive(Clone, Debug, Default)]
pub struct HostStats {
    /// Worker threads used for device advancement: the requested pool
    /// size, capped at the device count.
    pub threads: usize,
    /// Barriers executed by the cluster drive loop.
    pub barriers: u64,
    /// Total wall-clock nanoseconds spent in parallel advancement phases.
    pub advance_ns: u64,
    /// Longest single advancement phase, wall-clock nanoseconds.
    pub max_barrier_ns: u64,
    /// Observations delivered to the per-device load monitors and the
    /// observers, fleet-wide (deterministic).
    pub events: u64,
    /// Engine→system notifications delivered, fleet-wide (deterministic).
    pub notifications: u64,
    /// Linear next-departure scans performed, fleet-wide (deterministic).
    /// The cluster caches each device's next departure and re-scans only
    /// when the device's client lifecycle changed, so this stays near
    /// O(devices + lifecycle edges) instead of O(barriers × devices).
    pub departure_scans: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_recorder_has_no_quantiles() {
        let rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.p99(), None);
        assert_eq!(rec.mean(), None);
        assert_eq!(rec.max(), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut rec = LatencyRecorder::new();
        rec.record(SimSpan::from_micros(7));
        assert_eq!(rec.p50(), Some(SimSpan::from_micros(7)));
        assert_eq!(rec.p99(), Some(SimSpan::from_micros(7)));
        assert_eq!(rec.quantile(0.0), Some(SimSpan::from_micros(7)));
        assert_eq!(rec.quantile(1.0), Some(SimSpan::from_micros(7)));
    }

    #[test]
    fn quantile_cache_invalidates_on_record() {
        let mut rec = LatencyRecorder::new();
        rec.record(SimSpan::from_micros(10));
        assert_eq!(rec.p99(), Some(SimSpan::from_micros(10)));
        // A new sample after a query must be visible to the next query.
        rec.record(SimSpan::from_micros(90));
        assert_eq!(rec.p99(), Some(SimSpan::from_micros(90)));
        assert_eq!(rec.quantile(0.0), Some(SimSpan::from_micros(10)));
        // The cache stays out of the debug fingerprint.
        assert!(!format!("{rec:?}").contains("sorted"));
    }

    #[test]
    fn p99_ignores_order() {
        let mut a = LatencyRecorder::new();
        let mut b = LatencyRecorder::new();
        for i in 0..200 {
            a.record(SimSpan::from_micros(i));
            b.record(SimSpan::from_micros(199 - i));
        }
        assert_eq!(a.p99(), b.p99());
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn windowed_splits_requests_and_ops_by_instant() {
        let report = ClientReport {
            name: "svc".into(),
            high_priority: true,
            requests: 3,
            iterations: 0,
            kernels: 3,
            attachments: 1,
            shed: 0,
            latency: LatencyRecorder::new(),
            throughput: 0.0,
            intercept: InterceptStats::default(),
            timed_latencies: vec![
                (SimTime::ZERO, SimSpan::from_millis(1)),
                (SimTime::from_millis(500), SimSpan::from_millis(5)),
                (SimTime::from_secs(1), SimSpan::from_millis(9)),
            ],
            timed_sheds: vec![SimTime::from_millis(600), SimTime::from_millis(1500)],
            op_times: vec![
                SimTime::from_millis(1),
                SimTime::from_millis(501),
                SimTime::from_millis(1001),
            ],
        };
        let w = report.windowed(SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(w.requests(), 2);
        assert_eq!(w.ops, 2);
        assert_eq!(w.sheds, 1);
        assert!((w.shed_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(w.p99(), Some(SimSpan::from_millis(5)));
        assert_eq!(w.mean(), Some(SimSpan::from_millis(3)));
        // 2 requests in a 1s window.
        assert!((w.throughput - 2.0).abs() < 1e-9);
        let late = report.windowed(SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(late.requests(), 1);
        assert_eq!(late.p99(), Some(SimSpan::from_millis(9)));
        let empty = report.windowed(SimTime::from_secs(5), SimTime::from_secs(6));
        assert_eq!(empty.requests(), 0);
        assert_eq!(empty.p99(), None);
        assert_eq!(empty.shed_rate(), 0.0);
    }

    #[test]
    fn windowed_training_throughput_counts_iterations() {
        // 4 ops per iteration, 2 iterations completed, all ops at t<1s.
        let report = ClientReport {
            name: "train".into(),
            high_priority: false,
            requests: 0,
            iterations: 2,
            kernels: 8,
            attachments: 1,
            shed: 0,
            latency: LatencyRecorder::new(),
            throughput: 0.0,
            intercept: InterceptStats::default(),
            timed_latencies: Vec::new(),
            timed_sheds: Vec::new(),
            op_times: (0..8).map(|i| SimTime::from_millis(100 * i)).collect(),
        };
        let w = report.windowed(SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(w.ops, 8);
        // 8 ops / (4 ops per iter) / 1s = 2 it/s.
        assert!((w.throughput - 2.0).abs() < 1e-9);
    }

    #[test]
    fn system_throughput_normalizes() {
        let report = RunReport {
            system: "test".into(),
            duration: SimSpan::from_secs(1),
            clients: vec![
                ClientReport {
                    name: "hp".into(),
                    high_priority: true,
                    requests: 100,
                    iterations: 0,
                    kernels: 0,
                    attachments: 1,
                    shed: 0,
                    latency: LatencyRecorder::new(),
                    throughput: 50.0,
                    intercept: InterceptStats::default(),
                    timed_latencies: Vec::new(),
                    timed_sheds: Vec::new(),
                    op_times: Vec::new(),
                },
                ClientReport {
                    name: "be".into(),
                    high_priority: false,
                    requests: 0,
                    iterations: 10,
                    kernels: 0,
                    attachments: 1,
                    shed: 0,
                    latency: LatencyRecorder::new(),
                    throughput: 5.0,
                    intercept: InterceptStats::default(),
                    timed_latencies: Vec::new(),
                    timed_sheds: Vec::new(),
                    op_times: Vec::new(),
                },
            ],
        };
        // hp at 50/100 = 0.5, be at 5/10 = 0.5.
        let st = report.system_throughput(&[100.0, 10.0]);
        assert!((st - 1.0).abs() < 1e-12);
    }
}
