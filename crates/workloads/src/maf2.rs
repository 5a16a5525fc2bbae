//! MAF2-style inference traffic (paper §5.1).
//!
//! The paper drives its inference services with the invocation trace of the
//! most frequently called function in the Microsoft Azure Functions 2021
//! dataset, scaled to a target *load* — the fraction of time the service is
//! busy. The dataset itself is not redistributable, so this module
//! synthesizes traces with the statistics the paper relies on: minute-scale
//! intensity swings and occasional demand spikes of tens of times the mean
//! rate (the original study reports spikes up to 50×).

use tally_gpu::rng::SmallRng;
use tally_gpu::{SimSpan, SimTime};

/// Parameters of a synthetic MAF2-like trace.
#[derive(Clone, Debug)]
pub struct Maf2Config {
    /// Target load: fraction of time the service is busy, in `(0, 1)`.
    pub load: f64,
    /// Solo service time of one request (sets the mean arrival rate as
    /// `load / service_time`).
    pub service_time: SimSpan,
    /// Trace length.
    pub duration: SimSpan,
    /// RNG seed.
    pub seed: u64,
    /// Sigma of the lognormal per-window intensity modulation
    /// (0 = plain Poisson arrivals).
    pub burstiness: f64,
    /// Probability that a window is a demand spike.
    pub spike_prob: f64,
}

/// Spike magnitude range, as a multiple of the mean rate: this module's
/// MAF2 calibration, used by every experiment.
const SPIKE_MULT: (f64, f64) = (1.6, 2.4);

/// Width of an intensity window: the MAF2 calibration's 500 ms modulation
/// period (see [`arrivals`]).
const WINDOW: SimSpan = SimSpan::from_millis(500);

impl Maf2Config {
    /// A trace at the given load for a service with the given solo latency
    /// over `duration`, with the paper-matched burstiness defaults.
    pub fn new(load: f64, service_time: SimSpan, duration: SimSpan) -> Self {
        assert!(
            (0.0..1.0).contains(&load) && load > 0.0,
            "load must be in (0, 1)"
        );
        Maf2Config {
            load,
            service_time,
            duration,
            seed: 42,
            burstiness: 0.3,
            spike_prob: 0.002,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Generates the arrival instants of a synthetic MAF2-like trace.
///
/// The expected number of arrivals is `load × duration / service_time`;
/// per 500 ms window the rate is modulated by a mean-one lognormal factor
/// plus rare spikes, and arrivals within a window are Poisson.
///
/// ```
/// use tally_gpu::SimSpan;
/// use tally_workloads::maf2::{arrivals, Maf2Config};
///
/// let cfg = Maf2Config::new(0.5, SimSpan::from_micros(3930), SimSpan::from_secs(10));
/// let trace = arrivals(&cfg);
/// // ~0.5 * 10s / 3.93ms ≈ 1272 requests (bursty, so with wide variance).
/// assert!((700..2100).contains(&trace.len()));
/// ```
pub fn arrivals(cfg: &Maf2Config) -> Vec<SimTime> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mean_rate = cfg.load / cfg.service_time.as_secs_f64(); // req/s
    let window_s = WINDOW.as_secs_f64();
    let num_windows = (cfg.duration.as_secs_f64() / window_s).ceil() as usize;
    // Mean-one lognormal: exp(N(-sigma^2/2, sigma)).
    let sigma = cfg.burstiness;
    let mu = -sigma * sigma / 2.0;
    let mut out = Vec::new();
    for w in 0..num_windows {
        let start = w as f64 * window_s;
        let normal: f64 = {
            // Box-Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        };
        let mut factor = (mu + sigma * normal).exp();
        if rng.gen_bool(cfg.spike_prob) {
            factor = rng.gen_range(SPIKE_MULT.0..=SPIKE_MULT.1);
        }
        let rate = mean_rate * factor;
        if rate <= 0.0 {
            continue;
        }
        // Poisson process within the window.
        let mut t = start;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= start + window_s || t >= cfg.duration.as_secs_f64() {
                break;
            }
            out.push(SimTime::from_nanos((t * 1e9) as u64));
        }
    }
    out.sort_unstable();
    out
}

/// A condensed diurnal trace in the shape of the paper's Figure 6b: a slow
/// swell of traffic with sharp spikes, returned as arrivals plus the
/// per-window request counts (the figure's top panel).
///
/// `capacity` is the server's max sustainable request rate; the trace
/// sweeps between ~15% and ~95% of it with two spike bursts.
pub fn condensed_trace(
    capacity_rps: f64,
    duration: SimSpan,
    seed: u64,
) -> (Vec<SimTime>, Vec<(SimTime, u32)>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let window = SimSpan::from_millis(500);
    let window_s = window.as_secs_f64();
    let total_s = duration.as_secs_f64();
    let num_windows = (total_s / window_s).ceil() as usize;
    let mut arrivals_out = Vec::new();
    let mut counts = Vec::with_capacity(num_windows);
    for w in 0..num_windows {
        let start = w as f64 * window_s;
        let phase = start / total_s;
        // Slow swell: two humps over the trace.
        let swell = 0.15 + 0.8 * (std::f64::consts::PI * phase * 2.0).sin().abs();
        // Spikes at ~35% and ~75% of the trace.
        let spike = if (0.34..0.36).contains(&phase) || (0.74..0.76).contains(&phase) {
            1.8
        } else {
            1.0
        };
        let jitterf: f64 = rng.gen_range(0.85..1.15);
        let rate = (capacity_rps * swell * spike * jitterf).max(0.1);
        let mut t = start;
        let mut n = 0u32;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= start + window_s || t >= total_s {
                break;
            }
            arrivals_out.push(SimTime::from_nanos((t * 1e9) as u64));
            n += 1;
        }
        counts.push((SimTime::from_nanos((start * 1e9) as u64), n));
    }
    arrivals_out.sort_unstable();
    (arrivals_out, counts)
}

/// Plain Poisson arrivals at the given load (used by ablations that need
/// burst-free traffic).
pub fn poisson_arrivals(
    load: f64,
    service_time: SimSpan,
    duration: SimSpan,
    seed: u64,
) -> Vec<SimTime> {
    let cfg = Maf2Config {
        burstiness: 0.0,
        spike_prob: 0.0,
        ..Maf2Config::new(load, service_time, duration).with_seed(seed)
    };
    arrivals(&cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_load_is_respected() {
        for load in [0.1, 0.5, 0.9] {
            let cfg =
                Maf2Config::new(load, SimSpan::from_millis(4), SimSpan::from_secs(60)).with_seed(7);
            let trace = arrivals(&cfg);
            let expected = load * 60.0 / 0.004;
            let err = (trace.len() as f64 - expected).abs() / expected;
            assert!(
                err < 0.15,
                "load {load}: {} arrivals vs expected {expected:.0}",
                trace.len()
            );
        }
    }

    #[test]
    fn arrivals_sorted_and_bounded() {
        let cfg = Maf2Config::new(0.5, SimSpan::from_millis(2), SimSpan::from_secs(5));
        let trace = arrivals(&cfg);
        assert!(trace.windows(2).all(|w| w[0] <= w[1]));
        assert!(trace.last().is_some_and(|&t| t < SimTime::from_secs(5)));
    }

    #[test]
    fn burstiness_creates_spread() {
        // Compare per-window counts: bursty traces have a much higher
        // max/mean ratio than Poisson ones.
        let count_ratio = |burst: f64| {
            let cfg = Maf2Config {
                burstiness: burst,
                spike_prob: if burst > 0.0 { 0.01 } else { 0.0 },
                ..Maf2Config::new(0.5, SimSpan::from_millis(4), SimSpan::from_secs(120))
            };
            let trace = arrivals(&cfg);
            let mut counts = vec![0u32; 240];
            for t in trace {
                counts[(t.as_millis() / 500) as usize] += 1;
            }
            let mean = counts.iter().sum::<u32>() as f64 / counts.len() as f64;
            let max = *counts.iter().max().expect("windows") as f64;
            max / mean
        };
        assert!(count_ratio(0.8) > count_ratio(0.0) * 1.5);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = Maf2Config::new(0.3, SimSpan::from_millis(4), SimSpan::from_secs(10));
        assert_eq!(arrivals(&cfg), arrivals(&cfg));
        let other = arrivals(&Maf2Config {
            seed: 43,
            ..cfg.clone()
        });
        assert_ne!(arrivals(&cfg), other);
    }

    #[test]
    fn condensed_trace_has_counts_per_window() {
        let (arr, counts) = condensed_trace(100.0, SimSpan::from_secs(20), 1);
        assert_eq!(counts.len(), 40);
        let total: u32 = counts.iter().map(|&(_, n)| n).sum();
        assert_eq!(total as usize, arr.len());
        // The swell means some windows are much busier than others.
        let max = counts.iter().map(|&(_, n)| n).max().unwrap();
        let min = counts.iter().map(|&(_, n)| n).min().unwrap();
        assert!(
            max > min * 2,
            "expected traffic swell, got min {min} max {max}"
        );
    }
}
