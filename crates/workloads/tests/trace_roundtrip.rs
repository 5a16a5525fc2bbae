//! Property tests for the plain-text trace format: many seeded random
//! traces must serialize → parse → serialize byte-identically (the
//! proptest-style seeded loop of PR 1, sans proptest).

use tally_gpu::rng::SmallRng;
use tally_gpu::{SimSpan, SimTime};
use tally_workloads::trace::{ArrivalTrace, ClientEvent, TraceGen, TraceJob, TraceMix};
use tally_workloads::{InferModel, TrainModel};

/// A randomized generator config: rate, burstiness, mix weights, service
/// shapes all drawn from the case seed.
fn random_cfg(rng: &mut SmallRng) -> TraceGen {
    let models = [
        TraceJob::Train(TrainModel::Gpt2Large),
        TraceJob::Train(TrainModel::WhisperV3),
        TraceJob::Train(TrainModel::PointNet),
        TraceJob::Infer {
            model: InferModel::Bert,
            load: rng.gen_range(0.05f64..0.9),
            seed: rng.next_u64(),
        },
        TraceJob::Infer {
            model: InferModel::ResNet50,
            load: rng.gen_range(0.05f64..0.9),
            seed: rng.next_u64(),
        },
    ];
    let n_mix = rng.gen_range(1usize..=models.len());
    let mix = models
        .into_iter()
        .take(n_mix)
        .map(|job| TraceMix {
            job,
            weight: rng.gen_range(0.1f64..2.0),
            mean_service: SimSpan::from_millis(rng.gen_range(200u64..5_000)),
            rearrive: rng.gen_range(0.0f64..0.7),
            mean_gap: SimSpan::from_millis(rng.gen_range(100u64..3_000)),
        })
        .collect();
    TraceGen {
        duration: SimSpan::from_millis(rng.gen_range(500u64..20_000)),
        seed: rng.next_u64(),
        rate: rng.gen_range(0.2f64..8.0),
        burstiness: rng.gen_range(0.0f64..0.8),
        window: SimSpan::from_millis(rng.gen_range(100u64..1_000)),
        mix,
    }
}

#[test]
fn serialize_parse_round_trips_for_many_seeds() {
    let mut rng = SmallRng::seed_from_u64(0xDECAF);
    for case in 0..200 {
        let cfg = random_cfg(&mut rng);
        let trace = ArrivalTrace::generate(&cfg);
        trace
            .validate()
            .unwrap_or_else(|e| panic!("case {case}: generated trace invalid: {e}"));
        let text = trace.to_text();
        let parsed = ArrivalTrace::parse(&text)
            .unwrap_or_else(|e| panic!("case {case}: parse failed: {e}\n{text}"));
        assert_eq!(parsed, trace, "case {case}: parse(to_text) != original");
        assert_eq!(
            parsed.to_text(),
            text,
            "case {case}: canonical text not a serialization fixed point"
        );
    }
}

#[test]
fn generated_departures_balance_arrivals() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for case in 0..50 {
        let cfg = random_cfg(&mut rng);
        let trace = ArrivalTrace::generate(&cfg);
        let mut open: std::collections::BTreeMap<&str, i64> = Default::default();
        for e in &trace.events {
            match &e.event {
                ClientEvent::Arrive { key, .. } => *open.entry(key).or_default() += 1,
                ClientEvent::Depart { key } => *open.entry(key).or_default() -= 1,
            }
            assert!(
                open.values().all(|&n| n == 0 || n == 1),
                "case {case}: key over-opened"
            );
        }
        assert!(
            open.values().all(|&n| n == 0),
            "case {case}: generator leaves windows open (it clamps departures to the end)"
        );
        assert!(
            trace
                .events
                .iter()
                .all(|e| e.at <= SimTime::ZERO + cfg.duration),
            "case {case}: event beyond the configured duration"
        );
    }
}

#[test]
fn parse_rejects_mutations() {
    // Flipping any single line of a canonical trace into junk must fail
    // loudly, never silently drop events.
    let trace = ArrivalTrace::generate(&TraceGen::churn(SimSpan::from_secs(5), 1.0, 3));
    let text = trace.to_text();
    let lines: Vec<&str> = text.lines().collect();
    for i in 1..lines.len() {
        let mut mutated: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        mutated[i] = "@not-a-time arrive x train gpt2-large-train".to_string();
        let mutated = mutated.join("\n");
        assert!(
            ArrivalTrace::parse(&mutated).is_err(),
            "mutated line {i} accepted"
        );
    }
}

#[test]
fn every_entry_point_rejects_a_malformed_stream_alike() {
    use tally_core::cluster::Cluster;
    use tally_core::harness::{Colocation, JobSpec, SessionEvent};
    use tally_gpu::GpuSpec;

    let job = "train gpt2-large-train";
    let table = [
        ("@5 arrive a {job}\n@0 arrive b {job}", "timestamp order"),
        (
            "@0 arrive a {job}\n@1 arrive a {job}",
            "arrives while attached",
        ),
        ("@0 depart ghost", "unknown client"),
        (
            "@0 arrive a {job}\n@1 depart a\n@2 depart a",
            "departs while detached",
        ),
        ("@3 arrive a {job}\n@3 depart a", "departs at or before"),
    ];
    for (body, wording) in table {
        let text = format!("# tally-arrival-trace v1\n{}", body.replace("{job}", job));
        let parsed = ArrivalTrace::parse(&text).expect_err("parse accepted");
        assert!(parsed.message.contains(wording), "{text}: {parsed}");

        // The same stream built without parsing, and as a harness stream.
        let mut trace = ArrivalTrace::new();
        let mut events: Vec<(SimTime, SessionEvent)> = Vec::new();
        for line in body.lines() {
            let mut tok = line.split(' ');
            let at = SimTime::from_nanos(tok.next().unwrap()[1..].parse().unwrap());
            let (verb, key) = (tok.next().unwrap(), tok.next().unwrap());
            if verb == "arrive" {
                trace.arrive(at, key, TraceJob::Train(TrainModel::Gpt2Large));
                let job = JobSpec::training(key, vec![]);
                events.push((
                    at,
                    SessionEvent::Arrive {
                        key: key.into(),
                        job,
                    },
                ));
            } else {
                trace.depart(at, key);
                events.push((at, SessionEvent::Depart { key: key.into() }));
            }
        }
        let validated = trace.validate().expect_err("validate accepted");
        let Err(colocation) = Colocation::on(GpuSpec::tiny()).trace(events.clone()) else {
            panic!("Colocation::trace accepted {text}");
        };
        let Err(cluster) = Cluster::new().device(GpuSpec::tiny()).trace(events) else {
            panic!("Cluster::trace accepted {text}");
        };
        assert_eq!(validated, parsed, "{text}");
        assert_eq!(colocation, parsed, "{text}");
        assert_eq!(cluster, parsed, "{text}");
    }
}
