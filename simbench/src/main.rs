//! `simbench` — the simulator's benchmark: simulated seconds per host
//! second on three named workloads, with per-layer host accounting
//! measured from outside the simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload coloc|fleet128|crowd --seed N --seconds S --trace 0|1
//! ```
//!
//! Each invocation generates the workload's inputs from `--seed`, then
//! repeats the workload (build, then the timed `run` calls) until
//! `--seconds` of host time have passed. With `--trace 0` it prints the
//! end-to-end metrics from plain runs. With `--trace 1` it alternates
//! plain runs with runs whose plug-ins sit behind the timing proxies of
//! [`probe`], prints the per-layer metrics, and writes the last traced
//! run's host-time spans to `simbench/out/`. Either way it checks the
//! outputs, and the last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! Host times are summarized by the fastest repetition. On a shared host,
//! neighbours contending for caches and memory slow the simulator by up
//! to 2x for tens of seconds at a time (measured: a repetition's host time
//! varied 2x within one run, a CPU-only probe by 10%), and the slowdown
//! only ever adds time, so the fastest repetition is the steadiest
//! estimate of the simulator's own speed.

mod probe;
mod workloads;

use std::time::Duration;

use probe::{host_now, Layer, Measured, Probe};
use workloads::{Rep, Reports, Workload};

const USAGE: &str =
    "usage: simbench --workload coloc|fleet128|crowd [--seed N] [--seconds S] [--trace 0|1]";

/// The seed used when none is given; the benchmark's held-out seed is 2.
const DEFAULT_SEED: u64 = 1;

/// Fewest repetitions a run summarizes, however long they take.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value `{value}` for {flag}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The nearest-rank `q`-quantile of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The fastest of a host time's repetitions: see the module docs.
fn fast(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Peak resident set size of this process in MB (`VmHWM`), when the
/// platform reports it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What one repetition must reproduce exactly: the reports' `Debug`
/// text and the deterministic counters that stay out of it.
#[derive(PartialEq)]
struct Fingerprint {
    reports: u64,
    counters: Vec<u64>,
}

fn fingerprint(reports: &Reports) -> Fingerprint {
    let mut counters = Vec::new();
    if let Some(c) = reports.cluster() {
        counters.extend([
            c.host.barriers,
            c.host.events,
            c.host.notifications,
            c.host.departure_scans,
        ]);
    }
    Fingerprint {
        reports: reports.fingerprint(),
        counters,
    }
}

/// One plain repetition, reduced to what the summary needs.
struct Plain {
    setup_s: f64,
    gen_s: f64,
    wall_s: f64,
    sim_s: f64,
    advance_s: f64,
    /// The first repetition keeps its reports; the others are compared
    /// with them and dropped, so memory does not grow with the run.
    reports: Option<Reports>,
    same_as_first: bool,
}

/// Builds (the set-up) and runs one plain repetition.
fn plain(args: &Args, first: Option<&Fingerprint>) -> (Plain, Option<Fingerprint>) {
    let t = host_now();
    let plan = workloads::build(args.workload, args.seed, None);
    let setup_s = t.elapsed().as_secs_f64();
    let gen_s = secs(plan.gen_ns);
    let Rep {
        wall_ns,
        sim_s,
        reports,
    } = plan.run();
    let advance_s = reports.cluster().map_or(0.0, |c| secs(c.host.advance_ns));
    let mut p = Plain {
        setup_s,
        gen_s,
        wall_s: secs(wall_ns),
        sim_s,
        advance_s,
        reports: None,
        same_as_first: true,
    };
    match first {
        Some(f) => {
            p.same_as_first = fingerprint(&reports) == *f;
            (p, None)
        }
        None => {
            let f = fingerprint(&reports);
            p.reports = Some(reports);
            (p, Some(f))
        }
    }
}

/// Repeats `once` for `seconds`: at least [`MIN_REPS`] times, then while
/// another repetition of average length still fits. `once` sees the first
/// repetition's fingerprint.
fn repeat<T>(
    seconds: f64,
    mut once: impl FnMut(Option<&Fingerprint>) -> (T, Option<Fingerprint>),
) -> Vec<T> {
    let start = host_now();
    let budget = Duration::from_secs_f64(seconds);
    let mut first = None;
    let mut out: Vec<T> = Vec::new();
    while out.len() < MIN_REPS
        || start.elapsed() * (out.len() as u32 + 1) / out.len() as u32 <= budget
    {
        let (rep, f) = once(first.as_ref());
        if first.is_none() {
            first = f;
        }
        out.push(rep);
    }
    out
}

/// The metrics of one invocation plus the output checks behind `correct`.
#[derive(Default)]
struct Outcome {
    metrics: Vec<(&'static str, f64, &'static str)>,
    checks: Vec<(String, bool)>,
    attempted: u64,
    failed: u64,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    /// Counts the repetitions that did not reproduce the first one.
    fn check_repeats(&mut self, workload: Workload, same: &[bool]) {
        let diverged = same.iter().filter(|s| !**s).count() as u64;
        self.attempted += same.len() as u64 * workload.runs();
        self.failed += diverged * workload.runs();
        self.check(
            format!(
                "{} repetitions reproduce the first one's reports and counters ({diverged} diverged)",
                same.len()
            ),
            diverged == 0,
        );
    }

    fn print(&self) {
        for (what, ok) in &self.checks {
            println!("check {:<4} {what}", if *ok { "ok" } else { "FAIL" });
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<26} {value:>18.6} {unit}");
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok) && self.failed == 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The value a coloc-only or hp-only metric reads on a workload it does
/// not apply to: 1, the neutral value of a ratio and never 0.
const NOT_APPLICABLE: f64 = 1.0;

fn end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let runs = repeat(args.seconds, |first| plain(args, first));
    let peak = peak_rss_mb();
    let mut out = Outcome::default();
    out.check_repeats(w, &runs.iter().map(|p| p.same_as_first).collect::<Vec<_>>());
    let first = runs[0]
        .reports
        .as_ref()
        .expect("first repetition keeps its reports");
    let sim = workloads::results(first);
    for (what, ok) in &sim.checks {
        out.check(what.clone(), *ok);
    }
    if let Some(at_two) = workloads::fleet_fingerprint_at(w, args.seed, 2) {
        out.check(
            "report at threads(2) is byte-identical to threads(1)",
            at_two == first.fingerprint(),
        );
    }

    let walls: Vec<f64> = runs.iter().map(|p| p.wall_s).collect();
    let wall = fast(&walls);
    let setup: Vec<f64> = runs.iter().map(|p| p.setup_s).collect();
    println!(
        "{} repetitions; host time per repetition: fastest {wall:.4} s, median {:.4} s",
        runs.len(),
        quantile(&walls, 0.5)
    );
    out.metric("sim_s_per_host_s", runs[0].sim_s / wall, "s/s");
    out.metric(
        "host_ns_per_kernel",
        wall * 1e9 / sim.kernels.max(1) as f64,
        "ns",
    );
    out.metric("setup_s", fast(&setup), "s");
    out.metric("peak_rss_mb", peak.unwrap_or(f64::NAN), "MB");

    let samples = sim.hp.len();
    let beyond = samples - (samples as f64 * 0.99).ceil() as usize;
    println!("hp latency samples: {samples} ({beyond} beyond the p99)");
    let ms = |q: f64| {
        sim.hp
            .quantile(q)
            .map_or(NOT_APPLICABLE, |s| s.as_millis_f64())
    };
    out.metric("hp_p50_ms", ms(0.5), "sim_ms");
    out.metric("hp_p99_ms", ms(0.99), "sim_ms");
    out.metric(
        "hp_p99_overhead",
        sim.hp_p99_overhead.unwrap_or(NOT_APPLICABLE),
        "ratio",
    );
    out.metric(
        "system_throughput",
        sim.system_throughput.unwrap_or(NOT_APPLICABLE),
        "normalized",
    );
    out.metric("be_throughput", sim.be_throughput, "1/sim_s");
    let attempted = sim.requests_completed + sim.requests_shed;
    out.metric(
        "requests_served_frac",
        if attempted == 0 {
            NOT_APPLICABLE
        } else {
            sim.requests_completed as f64 / attempted as f64
        },
        "ratio",
    );
    out
}

/// One traced repetition's measurements.
struct Traced {
    wall_s: f64,
    measured: Measured,
    export_s: f64,
    probe: Probe,
}

/// Builds and runs one repetition behind the timing proxies.
fn traced(args: &Args, first: Option<&Fingerprint>) -> (Traced, bool) {
    let probe = Probe::new();
    let rep = workloads::build(args.workload, args.seed, Some(&probe)).run();
    let mut export_s = 0.0;
    if let Some(timeline) = rep.reports.telemetry() {
        let t = host_now();
        let mut timeline = timeline
            .lock()
            .expect("timeline poisoned by a panicking run");
        let bytes = timeline.to_json().len() + timeline.to_csv().len();
        export_s = t.elapsed().as_secs_f64();
        assert!(bytes > 0, "timeline exports are never empty");
    }
    let same = first.is_none_or(|f| fingerprint(&rep.reports) == *f);
    let t = Traced {
        wall_s: secs(rep.wall_ns),
        measured: probe.measured(),
        export_s,
        probe,
    };
    (t, same)
}

fn per_layer(args: &Args) -> Outcome {
    let w = args.workload;
    // Plain and proxied repetitions alternate, and every one of them must
    // reproduce the first plain one: the proxies never perturb a report.
    let pairs = repeat(args.seconds, |first| {
        let (p, f) = plain(args, first);
        let (t, same) = traced(args, first.or(f.as_ref()));
        ((p, t, same), f)
    });
    let mut out = Outcome::default();
    let same: Vec<bool> = pairs
        .iter()
        .flat_map(|(p, _, same)| [p.same_as_first, *same])
        .collect();
    out.check_repeats(w, &same);
    let counts = &pairs[0].1.measured.counts;
    out.check(
        "layer call counts repeat exactly across traced repetitions",
        pairs.iter().all(|(_, t, _)| t.measured.counts == *counts),
    );
    let first = pairs[0]
        .0
        .reports
        .as_ref()
        .expect("first repetition keeps its reports");
    let sim = workloads::results(first);

    let stat =
        |f: &dyn Fn(&(Plain, Traced, bool)) -> f64| fast(&pairs.iter().map(f).collect::<Vec<_>>());
    let wall = stat(&|(p, _, _)| p.wall_s);
    let traced_wall = stat(&|(_, t, _)| t.wall_s);
    let layer = |l: Layer| stat(&|(_, t, _)| secs(t.measured.ns(l)));
    let layers = stat(&|(_, t, _)| secs(t.measured.total_ns()));
    // The proxies' own cost lands outside every span, so subtracting the
    // layers from the plain runs' wall time keeps it out of the harness.
    let harness = (wall - layers).max(0.0);
    let share = |s: f64| s / wall;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let cluster =
        |f: &dyn Fn(&tally_core::cluster::ClusterReport) -> f64| first.cluster().map_or(0.0, f);
    let c = counts;
    let system = layer(Layer::System);
    let admission = layer(Layer::Admission);
    let observer = layer(Layer::Observer);
    let policy = layer(Layer::Policy);
    let rebalance = layer(Layer::Rebalance);
    let advance = stat(&|(p, _, _)| p.advance_s);
    let migrations = first.cluster().map_or(0, |r| r.migrations);
    let clients = first.clients();

    out.metric("cluster.advance_s", advance, "s");
    out.metric(
        "cluster.driver_s",
        if first.cluster().is_some() {
            (wall - advance).max(0.0)
        } else {
            0.0
        },
        "s",
    );
    out.metric("cluster.rebalance_s", rebalance, "s");
    out.metric("cluster.rebalance_share", share(rebalance), "ratio");
    out.metric("cluster.policy_s", policy, "s");
    out.metric("cluster.policy_share", share(policy), "ratio");
    out.metric("cluster.place_calls", c.place_calls as f64, "count");
    out.metric("cluster.migrate_calls", c.migrate_calls as f64, "count");
    out.metric("cluster.rebalance_passes", c.passes as f64, "count");
    out.metric("cluster.load_rows", c.load_rows as f64, "count");
    out.metric(
        "cluster.barriers",
        cluster(&|r| r.host.barriers as f64),
        "count",
    );
    out.metric(
        "cluster.departure_scans",
        cluster(&|r| r.host.departure_scans as f64),
        "count",
    );
    out.metric("cluster.migrations", migrations as f64, "count");
    out.metric(
        "cluster.migrate_yield",
        ratio(migrations, c.migrate_calls),
        "ratio",
    );
    out.metric(
        "cluster.migration_stall_ms",
        cluster(&|r| r.migration_stall.as_millis_f64()),
        "sim_ms",
    );

    out.metric("harness.self_s", harness, "s");
    out.metric("harness.share", share(harness), "ratio");
    out.metric("harness.kernels", sim.kernels as f64, "count");
    out.metric(
        "harness.events",
        cluster(&|r| r.host.events as f64),
        "count",
    );
    out.metric("harness.hp_requests", sim.hp.len() as f64, "count");

    out.metric("system.s", system, "s");
    out.metric("system.share", share(system), "ratio");
    out.metric("system.calls", c.system_calls() as f64, "count");
    out.metric("system.kernels_ready", c.kernels_ready as f64, "count");
    out.metric("system.notifications", c.notifications as f64, "count");
    out.metric("system.polls", c.polls as f64, "count");
    out.metric("system.timer_queries", c.timer_queries as f64, "count");
    out.metric(
        "system.ns_per_call",
        system * 1e9 / c.system_calls().max(1) as f64,
        "ns",
    );

    out.metric(
        "api.forwarded",
        clients.iter().map(|c| c.intercept.forwarded).sum::<u64>() as f64,
        "count",
    );
    out.metric(
        "api.served_locally",
        clients
            .iter()
            .map(|c| c.intercept.served_locally)
            .sum::<u64>() as f64,
        "count",
    );

    out.metric("admission.s", admission, "s");
    out.metric("admission.share", share(admission), "ratio");
    out.metric("admission.events", c.admission_events as f64, "count");
    out.metric("admission.verdicts", c.verdicts as f64, "count");
    out.metric(
        "admission.admit_frac",
        ratio(c.admitted, c.verdicts),
        "ratio",
    );
    let failed_frac = ratio(
        sim.requests_shed,
        sim.requests_completed + sim.requests_shed,
    );
    out.metric("requests_failed_frac", failed_frac, "ratio");

    out.metric("observer.s", observer, "s");
    out.metric("observer.share", share(observer), "ratio");
    out.metric("observer.events", c.observer_events as f64, "count");
    out.metric("telemetry.export_s", stat(&|(_, t, _)| t.export_s), "s");
    out.metric("workloads.gen_s", stat(&|(p, _, _)| p.gen_s), "s");
    out.metric("trace.overhead_frac", (traced_wall - wall) / wall, "ratio");

    // The traced run must show the workload stressing what it claims to.
    let shares = [
        ("harness", harness),
        ("system", system),
        ("admission", admission),
        ("observer", observer),
        ("policy", policy),
        ("rebalance", rebalance),
    ];
    let top = shares
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("", |(k, _)| *k);
    match w {
        Workload::Fleet128 => out.check(
            format!("rebalance holds the largest share of host time (largest: {top})"),
            top == "rebalance",
        ),
        Workload::Coloc => out.check(
            "system time is non-zero and no cluster, admission or observer time appears",
            system > 0.0 && admission == 0.0 && observer == 0.0 && policy == 0.0,
        ),
        Workload::Crowd => out.check(
            "admission and observer time are non-zero and requests are shed",
            admission > 0.0 && observer > 0.0 && failed_frac > 0.0,
        ),
    }

    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let path = dir.join(format!("host-trace-{}-seed{}.json", w.name(), args.seed));
    let last = &pairs[pairs.len() - 1].1;
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, last.probe.chrome_trace()));
    out.check(
        format!("host trace written to {}", path.display()),
        written.is_ok(),
    );
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("simbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    outcome.print();
}
