//! **Saturation sweep** (beyond the paper's figures): open-loop load —
//! arrivals injected at a target rate, independent of completions — swept
//! across the Figure 5 sharing systems, plus an admission-control contrast
//! under a 5× flash crowd.
//!
//! Part 1 sweeps offered QPS for a BERT service co-located with a Whisper
//! trainer. Below the knee, completed throughput tracks offered QPS and
//! p99 stays flat; past it, the queue grows without bound and p99 is
//! dominated by queueing delay. Where the knee falls is exactly the
//! capacity each sharing system leaves the service.
//!
//! Part 2 pits [`SloGuard`] against [`RejectNever`] on the same device
//! while a best-effort service takes a 5× flash crowd: unchecked, the
//! crowd steals enough capacity to saturate the high-priority service and
//! its open-loop queue grows for the rest of the run; the guard sheds
//! best-effort arrivals on SLO breach and holds the hp tail within budget.

use tally_bench::{
    banner, full_or_quick, make_system, ms, run_session, telemetry_dir, JsonSink, FIG5_SYSTEMS,
};
use tally_core::admission::{AdmissionPolicy, RejectNever, SloGuard};
use tally_core::harness::{Colocation, HarnessConfig};
use tally_core::metrics::RunReport;
use tally_core::telemetry::{ChromeTraceWriter, MetricsHub, Timeline};
use tally_gpu::{GpuSpec, Priority, SimSpan, SimTime};
use tally_workloads::openloop::{self, LoadProfile};
use tally_workloads::{InferModel, TrainModel};

fn config() -> HarnessConfig {
    HarnessConfig {
        duration: full_or_quick(SimSpan::from_secs(10), SimSpan::from_secs(5)),
        warmup: SimSpan::from_secs(1),
        seed: 1,
        jitter: 0.02,
        record_timelines: false,
    }
}

/// One sweep point: offered vs completed hp QPS, and the hp p99.
struct Point {
    offered: f64,
    completed: f64,
    p99: SimSpan,
}

fn main() {
    let mut sink = JsonSink::from_args("fig_saturation");
    let spec = GpuSpec::a100();
    let cfg = config();
    let model = InferModel::Bert;
    let cap = openloop::solo_capacity_qps(model);
    let fracs = [0.25, 0.5, 0.75, 0.9, 1.1, 1.5];

    banner(&format!(
        "Saturation sweep: open-loop {} + {} trainer (solo capacity {:.0} QPS)",
        model.name(),
        TrainModel::WhisperV3.name(),
        cap
    ));
    println!(
        "{:<14} {:>8} {:>10} {:>10} {:>11}",
        "system", "offered", "completed", "p99", "knee?"
    );

    let mut knees = 0usize;
    let mut tally_curve: Vec<Point> = Vec::new();
    for &system in FIG5_SYSTEMS.iter() {
        let curve: Vec<Point> = fracs
            .iter()
            .map(|&frac| {
                let offered = cap * frac;
                let hp = openloop::service(
                    &spec,
                    model,
                    &LoadProfile::Constant { qps: offered },
                    cfg.duration,
                    7,
                );
                let report =
                    run_session(&spec, [hp, TrainModel::WhisperV3.job(&spec)], system, &cfg);
                let hp = report.high_priority().expect("hp client");
                Point {
                    offered,
                    completed: hp.throughput,
                    p99: hp.p99().unwrap_or(SimSpan::ZERO),
                }
            })
            .collect();

        // A knee: the low end tracks the offered rate, the high end has
        // detached from it, and the tail has blown up in between.
        let knee = curve[0].completed >= 0.85 * curve[0].offered
            && curve[5].completed <= 0.9 * curve[5].offered
            && curve[5].p99 >= curve[0].p99 * 10;
        if knee {
            knees += 1;
        }
        for (point, &frac) in curve.iter().zip(&fracs) {
            let frac_tag = format!("{frac}");
            let tags = [("system", system), ("offered_frac", frac_tag.as_str())];
            sink.record("completed_req_per_s", point.completed, &tags);
            sink.record("p99_ms", point.p99.as_millis_f64(), &tags);
            println!(
                "{:<14} {:>8.0} {:>10.1} {:>10} {:>11}",
                system,
                point.offered,
                point.completed,
                ms(point.p99),
                if knee { "yes" } else { "-" }
            );
        }
        // Every system's completed rate plateaus once saturated.
        assert!(
            curve[5].completed <= curve[4].completed * 1.15,
            "{system}: completed rate must plateau past saturation \
             ({:.1} at 1.1x vs {:.1} at 1.5x)",
            curve[4].completed,
            curve[5].completed
        );
        if system == "tally" {
            tally_curve = curve;
        }
    }
    assert!(
        knees >= 3,
        "expected a saturation knee for at least 3 sharing systems, got {knees}"
    );
    // Tally holds the service near solo capacity, so its linear region
    // spans the low half of the sweep: doubling offered doubles completed.
    let (low, mid) = (&tally_curve[0], &tally_curve[1]);
    assert!(
        (mid.completed - 2.0 * low.completed).abs() <= 0.15 * (2.0 * low.completed),
        "tally sub-knee throughput must scale linearly ({:.1} -> {:.1})",
        low.completed,
        mid.completed
    );
    assert!(
        tally_curve[5].p99 >= tally_curve[1].p99 * 10,
        "tally past-knee p99 must be queueing-dominated ({} -> {})",
        ms(tally_curve[1].p99),
        ms(tally_curve[5].p99)
    );
    println!(
        "\nKnee reproduced for {knees}/{} systems.",
        FIG5_SYSTEMS.len()
    );

    // ---- Part 2: admission control under a 5x flash crowd --------------
    //
    // The hp service runs at 0.6x solo capacity — fine while the
    // best-effort service idles, saturated the moment the crowd keeps the
    // other time-slicing context busy (each context then gets ~half the
    // device). RejectNever lets the crowd's backlog persist long past the
    // spike, so the hp queue grows for the rest of the run; SloGuard
    // sheds best-effort arrivals within a few control windows and the hp
    // tail is back within the SLO once the spike passes. The gated
    // quantity is therefore the p99 of the *recovery window* after the
    // spike; the whole-run p99 (which includes the pre-reaction
    // transient) is recorded alongside.
    let slo = SimSpan::from_millis(60);
    let mut cfg = cfg;
    cfg.record_timelines = true;
    let spike_at = full_or_quick(SimSpan::from_secs(3), SimSpan::from_millis(1500));
    let spike_len = full_or_quick(SimSpan::from_secs(3), SimSpan::from_millis(1500));
    let recovery_from = full_or_quick(SimSpan::from_secs(7), SimSpan::from_secs(4));
    let be_profile = LoadProfile::FlashCrowd {
        base_qps: 0.2 * cap,
        mult: 5.0,
        at: spike_at,
        len: spike_len,
    };
    banner(&format!(
        "Admission under a 5x flash crowd (time-slicing, hp SLO {})",
        ms(slo)
    ));
    println!(
        "{:<14} {:>12} {:>10} {:>8} {:>10}",
        "policy", "recovery p99", "run p99", "shed", "be compl/s"
    );
    // With `--telemetry DIR` (TALLY_TELEMETRY_DIR), attach the telemetry
    // observers and export the flash crowd as a time series + Chrome
    // trace. Observers are passive, so every recorded metric below is
    // byte-identical with or without them.
    let run = |name: &str, policy: Box<dyn AdmissionPolicy>| -> RunReport {
        let hp = openloop::service(
            &spec,
            model,
            &LoadProfile::Constant { qps: 0.6 * cap },
            cfg.duration,
            11,
        );
        let be = openloop::service(&spec, model, &be_profile, cfg.duration, 12)
            .with_priority(Priority::BestEffort);
        let mut session = Colocation::on(spec.clone())
            .client(hp)
            .client(be)
            .system_boxed(make_system("time-slicing"))
            .config(cfg.clone())
            .admission(policy);
        let telemetry = if let Some(dir) = telemetry_dir() {
            let timeline = Timeline::shared_sync(SimSpan::from_millis(100), cfg.duration);
            let trace = ChromeTraceWriter::shared_sync();
            let hub = MetricsHub::shared_sync();
            session = session
                .sync_observer(timeline.clone())
                .sync_observer(trace.clone())
                .sync_observer(hub.clone());
            Some((dir, timeline, trace, hub))
        } else {
            None
        };
        let report = session.run();
        if let Some((dir, timeline, trace, hub)) = telemetry {
            std::fs::create_dir_all(&dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
            let mut timeline = timeline.lock().expect("timeline");
            let write = |file: String, text: String| {
                let path = dir.join(file);
                std::fs::write(&path, text)
                    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
                eprintln!("fig_saturation: telemetry -> {}", path.display());
            };
            write(
                format!("saturation_timeline_{name}.json"),
                timeline.to_json(),
            );
            write(format!("saturation_timeline_{name}.csv"), timeline.to_csv());
            write(
                format!("saturation_trace_{name}.json"),
                trace.lock().expect("trace").to_json(),
            );
            let hub = hub.lock().expect("hub");
            eprintln!(
                "fig_saturation: [{name}] hub saw {} events, fleet p99 {}",
                hub.events(),
                hub.fleet_latency().p99().map_or_else(|| "-".into(), ms)
            );
        }
        report
    };
    let mut outcomes: Vec<(&str, SimSpan, u64)> = Vec::new();
    for (name, policy) in [
        (
            "reject-never",
            Box::new(RejectNever) as Box<dyn AdmissionPolicy>,
        ),
        (
            "slo-guard",
            Box::new(
                SloGuard::new(slo)
                    .window(SimSpan::from_millis(100))
                    .qps_range(2.0, 2000.0)
                    .aimd(25.0, 0.25),
            ),
        ),
    ] {
        let report = run(name, policy);
        let hp = report.high_priority().expect("hp client");
        let run_p99 = hp.p99().unwrap_or(SimSpan::ZERO);
        let recovery = hp
            .windowed(SimTime::ZERO + recovery_from, SimTime::ZERO + cfg.duration)
            .p99()
            .unwrap_or(SimSpan::ZERO);
        let shed: u64 = report.clients.iter().map(|c| c.shed).sum();
        let be_thr: f64 = report
            .clients
            .iter()
            .filter(|c| !c.high_priority)
            .map(|c| c.throughput)
            .sum();
        let tags = [("policy", name)];
        sink.record("admission_hp_p99_ms", recovery.as_millis_f64(), &tags);
        sink.record("admission_hp_run_p99_ms", run_p99.as_millis_f64(), &tags);
        sink.record("admission_shed_count", shed as f64, &tags);
        println!(
            "{name:<14} {:>12} {:>10} {shed:>8} {be_thr:>10.1}",
            ms(recovery),
            ms(run_p99)
        );
        outcomes.push((name, recovery, shed));
    }
    let (_, never_p99, never_shed) = outcomes[0];
    let (_, guard_p99, guard_shed) = outcomes[1];
    assert_eq!(never_shed, 0, "RejectNever must not shed");
    assert!(guard_shed > 0, "SloGuard must shed under the flash crowd");
    assert!(
        guard_p99 <= slo,
        "SloGuard must restore hp p99 to the {} budget after the spike, got {}",
        ms(slo),
        ms(guard_p99)
    );
    assert!(
        never_p99 >= guard_p99 * 10,
        "unchecked flash crowd must blow through the budget \
         (reject-never {} vs slo-guard {})",
        ms(never_p99),
        ms(guard_p99)
    );
    println!(
        "\nExpected shape: completed throughput tracks offered QPS up to each\n\
         system's knee then plateaus while p99 blows up; under the flash crowd\n\
         the SLO guard sheds best-effort arrivals and holds the hp tail within\n\
         budget while reject-never lets the open-loop queue run away."
    );
    sink.finish();
}
