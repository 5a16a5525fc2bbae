//! The telemetry subsystem end to end: a flash crowd rendered as a
//! per-device time series, a labeled metrics registry, and a
//! Perfetto-loadable Chrome trace.
//!
//! Two BERT services run near capacity across a two-GPU fleet while two
//! best-effort services take a 5x flash crowd under [`SloGuard`]
//! admission. Three telemetry observers ride the event stream, and
//! because the fleet delivers it in device order at every thread count,
//! every export is byte-identical for every worker-thread count
//! (asserted below for threads 1, 2, and 4).
//!
//! The exports land in `target/telemetry/`:
//!
//! * `timeline.json` / `timeline.csv` — per-device QPS / shed-rate /
//!   occupancy / queue-depth series at a 250 ms cadence, in which the
//!   flash crowd is visible as an arrival surge followed by a shed wave;
//! * `trace.json` — a Chrome trace-event timeline (one track per device,
//!   one row per client): open it at <https://ui.perfetto.dev>.
//!
//! Run with: `cargo run --release --example telemetry`

use tally::prelude::*;
use tally_bench::diff::parse_json;

const CADENCE: SimSpan = SimSpan::from_millis(250);
const SPIKE_AT: SimSpan = SimSpan::from_millis(1000);
const SPIKE_LEN: SimSpan = SimSpan::from_millis(1500);

struct Exports {
    timeline_json: String,
    timeline_csv: String,
    trace_json: String,
    registry: String,
    shed: u64,
}

/// One fleet run with all three telemetry observers attached.
fn run(threads: usize) -> Exports {
    let spec = GpuSpec::a100();
    let cfg = HarnessConfig {
        duration: SimSpan::from_secs(4),
        warmup: SimSpan::from_millis(200),
        seed: 11,
        jitter: 0.0,
        record_timelines: false,
    };
    let cap = openloop::solo_capacity_qps(InferModel::Bert);
    let mut jobs = Vec::new();
    for (i, seed) in [31u64, 37].into_iter().enumerate() {
        jobs.push(
            openloop::service(
                &spec,
                InferModel::Bert,
                &LoadProfile::Constant { qps: 0.7 * cap },
                cfg.duration,
                seed,
            )
            .with_client_key(format!("hp-{i}")),
        );
    }
    for (i, seed) in [41u64, 43].into_iter().enumerate() {
        jobs.push(
            openloop::service(
                &spec,
                InferModel::Bert,
                &LoadProfile::FlashCrowd {
                    base_qps: 0.2 * cap,
                    mult: 5.0,
                    at: SPIKE_AT,
                    len: SPIKE_LEN,
                },
                cfg.duration,
                seed,
            )
            .with_priority(Priority::BestEffort)
            .with_client_key(format!("be-{i}")),
        );
    }

    let timeline = Timeline::shared_sync(CADENCE, cfg.duration);
    let trace = ChromeTraceWriter::shared_sync();
    let hub = MetricsHub::shared_sync();
    let report = Cluster::new()
        .devices(2, spec)
        .clients(jobs)
        .rebalance_every(SimSpan::from_millis(250))
        .policy(RoundRobin::default())
        .admission_with(|_| {
            Box::new(
                SloGuard::new(SimSpan::from_millis(20))
                    .window(SimSpan::from_millis(100))
                    .qps_range(2.0, 2000.0),
            )
        })
        .sync_observer(timeline.clone())
        .sync_observer(trace.clone())
        .sync_observer(hub.clone())
        .threads(threads)
        .config(cfg)
        .run();

    let mut timeline = timeline.lock().expect("timeline");
    let hub = hub.lock().expect("hub");
    let trace_json = trace.lock().expect("trace").to_json();
    Exports {
        timeline_json: timeline.to_json(),
        timeline_csv: timeline.to_csv(),
        trace_json,
        registry: format!("{:?}", hub.samples()),
        shed: report.shed(),
    }
}

fn main() {
    println!("Running the flash-crowd fleet with telemetry observers attached...");
    let base = run(1);
    assert!(base.shed > 0, "the flash crowd must trigger shedding");

    // The exports are pure functions of the per-device event streams, so
    // the worker-thread count must not leave a fingerprint in any byte.
    for threads in [2usize, 4] {
        let other = run(threads);
        assert_eq!(
            base.timeline_json, other.timeline_json,
            "timeline JSON diverged at {threads} threads"
        );
        assert_eq!(
            base.timeline_csv, other.timeline_csv,
            "timeline CSV diverged at {threads} threads"
        );
        assert_eq!(
            base.trace_json, other.trace_json,
            "Chrome trace diverged at {threads} threads"
        );
        assert_eq!(
            base.registry, other.registry,
            "metrics registry diverged at {threads} threads"
        );
    }
    println!("Exports byte-identical for threads 1, 2, 4.");

    // Both exports must be well-formed JSON by the bench reader's rules.
    let timeline_doc = parse_json(&base.timeline_json).expect("timeline JSON parses");
    parse_json(&base.trace_json).expect("Chrome trace JSON parses");

    // Walk the parsed timeline and retell the flash-crowd story: arrivals
    // surge once the spike hits, and the SLO guard's shed wave follows.
    use tally_bench::diff::Json;
    let obj = match &timeline_doc {
        Json::Obj(m) => m,
        other => panic!("timeline root must be an object, got {other:?}"),
    };
    assert_eq!(obj.get("version"), Some(&Json::Num(3.0)));
    let series = match obj.get("series") {
        Some(Json::Arr(s)) => s,
        other => panic!("series must be an array, got {other:?}"),
    };
    assert_eq!(series.len(), 2, "one series per device");

    // Aggregate both devices window-by-window.
    let num = |w: &std::collections::BTreeMap<String, Json>, k: &str| -> f64 {
        match w.get(k) {
            Some(Json::Num(v)) => *v,
            other => panic!("window field {k} must be a number, got {other:?}"),
        }
    };
    let mut fleet: Vec<(f64, f64, f64)> = Vec::new(); // (start_ms, requests, shed)
    for dev in series {
        let windows = match dev {
            Json::Obj(d) => match d.get("windows") {
                Some(Json::Arr(w)) => w,
                other => panic!("windows must be an array, got {other:?}"),
            },
            other => panic!("series entry must be an object, got {other:?}"),
        };
        for (i, w) in windows.iter().enumerate() {
            let w = match w {
                Json::Obj(w) => w,
                other => panic!("window must be an object, got {other:?}"),
            };
            let row = (num(w, "start_ns") / 1e6, num(w, "requests"), num(w, "shed"));
            if i == fleet.len() {
                fleet.push(row);
            } else {
                fleet[i].1 += row.1;
                fleet[i].2 += row.2;
            }
        }
    }

    println!(
        "\nFleet time series ({} windows of {CADENCE}):",
        fleet.len()
    );
    println!(
        "{:>9} {:>10} {:>7} {:>11}",
        "window", "completed", "shed", "shed rate"
    );
    let spike_from = SPIKE_AT.as_millis_f64();
    let spike_until = (SPIKE_AT + SPIKE_LEN).as_millis_f64();
    let (mut pre, mut spike) = ((0.0, 0.0), (0.0, 0.0));
    for &(start_ms, requests, shed) in &fleet {
        let rate = if requests + shed > 0.0 {
            shed / (requests + shed)
        } else {
            0.0
        };
        let phase = if start_ms < spike_from {
            pre.0 += requests;
            pre.1 += shed;
            ""
        } else if start_ms < spike_until {
            spike.0 += requests;
            spike.1 += shed;
            " <- flash crowd"
        } else {
            ""
        };
        println!("{start_ms:>7}ms {requests:>10} {shed:>7} {rate:>11.3}{phase}");
    }

    // The story: sheds concentrate in (and after) the spike. Before it
    // the guard is quiet; once the crowd lands the shed rate jumps.
    let pre_rate = pre.1 / (pre.0 + pre.1).max(1.0);
    let spike_rate = spike.1 / (spike.0 + spike.1).max(1.0);
    assert!(
        spike.1 > pre.1,
        "sheds must concentrate in the spike (pre {} vs spike {})",
        pre.1,
        spike.1
    );
    assert!(
        spike_rate > pre_rate,
        "shed rate must jump when the crowd hits ({pre_rate:.3} -> {spike_rate:.3})"
    );
    println!("\nShed rate {pre_rate:.3} pre-spike -> {spike_rate:.3} during the crowd.");

    // Ship the exports for a human (or CI) to open.
    let dir = std::path::Path::new("target/telemetry");
    std::fs::create_dir_all(dir).expect("create target/telemetry");
    for (file, text) in [
        ("timeline.json", &base.timeline_json),
        ("timeline.csv", &base.timeline_csv),
        ("trace.json", &base.trace_json),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).expect("write export");
        println!("wrote {}", path.display());
    }
    println!("Open target/telemetry/trace.json at https://ui.perfetto.dev");
}
