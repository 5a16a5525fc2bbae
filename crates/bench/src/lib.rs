//! # tally-bench — experiment machinery for regenerating the paper's tables
//! and figures
//!
//! Each bench target under `benches/` is a standalone harness (no Criterion
//! wrapper) that prints the rows/series of one table or figure of the
//! paper, with the paper's reference numbers alongside where published.
//! Absolute values are not expected to match a hardware testbed; the
//! *shapes* — who wins, by roughly what factor, where crossovers fall —
//! are.
//!
//! Shared machinery lives here: per-model run lengths, system construction
//! by name, combo runners with solo normalization, and a work-queue
//! parallel map for multicore hosts.

#![warn(missing_docs)]

pub mod diff;
pub mod json;

pub use json::JsonSink;

use tally_baselines::{KernelLevelPriority, Mps, Tgs, TimeSlicing};
use tally_core::api::Transport;
use tally_core::harness::{run_solo, Colocation, HarnessConfig, JobSpec};
use tally_core::metrics::RunReport;
use tally_core::scheduler::{TallyConfig, TallySystem};
use tally_core::system::SharingSystem;
use tally_gpu::{GpuSpec, SimSpan};
use tally_workloads::maf2::{arrivals, Maf2Config};
use tally_workloads::{InferModel, TrainModel};

/// The systems of Figure 5, in paper order, plus Tally.
pub const FIG5_SYSTEMS: [&str; 5] = ["time-slicing", "mps", "mps-priority", "tgs", "tally"];

/// Name of the environment variable selecting the bench profile.
pub const PROFILE_ENV: &str = "TALLY_BENCH_PROFILE";

/// Name of the environment variable pinning the cluster worker-thread
/// count for bench runs (`bench_suite --threads N` exports it to every
/// child bench). Unset: each [`Cluster`](tally_core::cluster::Cluster)
/// defaults to the host's available parallelism.
pub const THREADS_ENV: &str = "TALLY_BENCH_THREADS";

/// Name of the environment variable pointing benches at a directory for
/// telemetry exports (`bench_suite --telemetry DIR` exports it to every
/// child bench). Unset: benches skip telemetry export entirely, keeping
/// the default runs observer-free.
pub const TELEMETRY_ENV: &str = "TALLY_TELEMETRY_DIR";

/// The telemetry export directory, when [`TELEMETRY_ENV`] is set.
/// Registering telemetry observers never changes simulated results (they
/// are passive event-stream consumers), so the recorded `BENCH_*.json`
/// metrics are identical with or without this set.
pub fn telemetry_dir() -> Option<std::path::PathBuf> {
    std::env::var_os(TELEMETRY_ENV).map(std::path::PathBuf::from)
}

/// The pinned cluster worker-thread count, when [`THREADS_ENV`] is set.
///
/// CI pins `--threads 1` for its bench-trajectory run so the recorded
/// `host_*` wall-clock metrics are comparable across runners; simulated
/// metrics are thread-count-invariant either way.
///
/// # Panics
///
/// Panics on an unparsable or zero value — a pinned thread count must
/// never be silently ignored.
pub fn bench_threads() -> Option<usize> {
    let v = std::env::var(THREADS_ENV).ok()?;
    let n: usize = v
        .parse()
        .unwrap_or_else(|e| panic!("bad {THREADS_ENV}={v}: {e}"));
    assert!(n > 0, "{THREADS_ENV} must be positive, got {v}");
    Some(n)
}

/// Applies the [`bench_threads`] pin to a cluster builder, when set.
pub fn with_bench_threads(cluster: tally_core::cluster::Cluster) -> tally_core::cluster::Cluster {
    match bench_threads() {
        Some(n) => cluster.threads(n),
        None => cluster,
    }
}

/// Whether the reduced-duration profile is active
/// (`TALLY_BENCH_PROFILE=quick`, which `bench_suite --profile quick`
/// exports to every child bench). The CI perf-trajectory gate runs — and
/// the committed `BENCH_*.json` documents are refreshed — under this
/// profile, so the diffed numbers are apples-to-apples; run the default
/// full profile for paper-fidelity numbers.
pub fn quick_profile() -> bool {
    std::env::var(PROFILE_ENV).is_ok_and(|v| v == "quick")
}

/// Picks a bench parameter by profile: `full` fidelity by default, the
/// cheaper `quick` value under the reduced-duration profile.
pub fn full_or_quick<T>(full: T, quick: T) -> T {
    if quick_profile() {
        quick
    } else {
        full
    }
}

/// Whether the named system is Tally (or a Tally ablation) and therefore
/// runs behind Tally's §4.3 interception layer. Baselines are native GPU
/// mechanisms and pay no interception cost.
pub fn is_tally_variant(name: &str) -> bool {
    matches!(name, "tally" | "no-scheduling" | "sched-no-transform")
}

/// Runs `jobs` under the named system with the deployment-faithful
/// interception mode (see [`is_tally_variant`]) and returns the report.
pub fn run_session(
    spec: &GpuSpec,
    jobs: impl IntoIterator<Item = JobSpec>,
    system_name: &str,
    cfg: &HarnessConfig,
) -> RunReport {
    let mut session = Colocation::on(spec.clone())
        .clients(jobs)
        .system_boxed(make_system(system_name))
        .config(cfg.clone());
    if is_tally_variant(system_name) {
        session = session.transport(Transport::SharedMemory);
    }
    session.run()
}

/// Builds a fresh sharing system by report name.
///
/// # Panics
///
/// Panics on an unknown name.
pub fn make_system(name: &str) -> Box<dyn SharingSystem> {
    match name {
        "time-slicing" => Box::new(TimeSlicing::new()),
        "mps" => Box::new(Mps::new()),
        "mps-priority" => Box::new(Mps::with_priority()),
        "tgs" => Box::new(Tgs::new()),
        "tally" => Box::new(TallySystem::new(TallyConfig::paper_default())),
        "no-scheduling" => Box::new(Mps::no_scheduling()),
        "sched-no-transform" => Box::new(KernelLevelPriority::new()),
        other => panic!("unknown system `{other}`"),
    }
}

/// Simulated run length appropriate for an inference model: long-latency
/// services need longer windows to accumulate enough requests for a stable
/// tail estimate. Under the reduced-duration profile ([`quick_profile`])
/// the windows shrink — tails get noisier but stay deterministic, which is
/// all the CI trajectory diff needs.
pub fn harness_for(infer: InferModel) -> HarnessConfig {
    let long = infer.paper_latency() >= SimSpan::from_millis(100);
    if long {
        HarnessConfig {
            duration: full_or_quick(SimSpan::from_secs(36), SimSpan::from_secs(16)),
            warmup: full_or_quick(SimSpan::from_secs(4), SimSpan::from_secs(2)),
            seed: 1,
            jitter: 0.02,
            record_timelines: false,
        }
    } else {
        HarnessConfig {
            duration: full_or_quick(SimSpan::from_secs(10), SimSpan::from_secs(5)),
            warmup: SimSpan::from_secs(1),
            seed: 1,
            jitter: 0.02,
            record_timelines: false,
        }
    }
}

/// Solo reference numbers for one inference × training pairing.
#[derive(Clone, Debug)]
pub struct SoloRefs {
    /// Solo p99 of the inference service at the given load.
    pub ideal_p99: SimSpan,
    /// Solo request throughput of the inference service.
    pub infer_thr: f64,
    /// Solo iteration throughput of the trainer.
    pub train_thr: f64,
}

/// One co-location measurement.
#[derive(Clone, Debug)]
pub struct ComboOutcome {
    /// System under test.
    pub system: String,
    /// Measured p99 of the high-priority service.
    pub p99: SimSpan,
    /// p99 overhead vs the solo ("Ideal") run, as a fraction (0.072 = 7.2%).
    pub overhead: f64,
    /// Normalized high-priority throughput.
    pub hp_norm: f64,
    /// Normalized best-effort throughput.
    pub be_norm: f64,
    /// System throughput (sum of normalized throughputs).
    pub system_throughput: f64,
}

/// Builds the high-priority job for `infer` at `load` using the MAF2-style
/// trace, matched to `cfg`'s duration.
pub fn inference_job(spec: &GpuSpec, infer: InferModel, load: f64, cfg: &HarnessConfig) -> JobSpec {
    let trace = arrivals(&Maf2Config::new(load, infer.paper_latency(), cfg.duration));
    infer.job(spec, trace)
}

/// Runs the solo references for a pairing.
pub fn solo_refs(
    spec: &GpuSpec,
    infer: InferModel,
    train: TrainModel,
    load: f64,
    cfg: &HarnessConfig,
) -> SoloRefs {
    let hp = inference_job(spec, infer, load, cfg);
    let solo_hp = run_solo(spec, &hp, cfg);
    let solo_be = run_solo(spec, &train.job(spec), cfg);
    SoloRefs {
        ideal_p99: solo_hp.p99().unwrap_or(SimSpan::ZERO),
        infer_thr: solo_hp.throughput,
        train_thr: solo_be.throughput,
    }
}

/// Runs one inference × training co-location under `system_name` and
/// normalizes against `refs`.
pub fn run_combo(
    spec: &GpuSpec,
    infer: InferModel,
    train: TrainModel,
    load: f64,
    system_name: &str,
    refs: &SoloRefs,
    cfg: &HarnessConfig,
) -> ComboOutcome {
    let jobs = [inference_job(spec, infer, load, cfg), train.job(spec)];
    let report = run_session(spec, jobs, system_name, cfg);
    outcome_from_report(&report, refs)
}

/// Converts a raw report into a normalized [`ComboOutcome`].
pub fn outcome_from_report(report: &RunReport, refs: &SoloRefs) -> ComboOutcome {
    let hp = report.high_priority().expect("high-priority client");
    let be = report.best_effort().next().expect("best-effort client");
    let p99 = hp.p99().unwrap_or(SimSpan::ZERO);
    let overhead = if refs.ideal_p99.is_zero() {
        0.0
    } else {
        p99.ratio(refs.ideal_p99) - 1.0
    };
    let hp_norm = if refs.infer_thr > 0.0 {
        hp.throughput / refs.infer_thr
    } else {
        0.0
    };
    let be_norm = if refs.train_thr > 0.0 {
        be.throughput / refs.train_thr
    } else {
        0.0
    };
    ComboOutcome {
        system: report.system.clone(),
        p99,
        overhead,
        hp_norm,
        be_norm,
        system_throughput: hp_norm + be_norm,
    }
}

/// Formats a span as milliseconds with sensible precision.
pub fn ms(s: SimSpan) -> String {
    let v = s.as_millis_f64();
    if v >= 100.0 {
        format!("{v:.0}ms")
    } else if v >= 1.0 {
        format!("{v:.2}ms")
    } else {
        format!("{:.0}us", s.as_micros_f64())
    }
}

/// Prints a section banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}
