//! Runs one workload in this process and reports its end-to-end metrics:
//! set-up, timed repeats for the asked number of seconds, further set-ups
//! (`setup_s` is their median), correctness checks, and the reference
//! probe that fills the metrics the workload does not define.

use std::time::{Duration, Instant};

use crate::affinity;
use crate::spec::{Better, Metric, Sizes, Workload, REFERENCE_SEED};
use crate::stats::{self, Quartiles};
use crate::workload::{self, Bench, Check, QuerySide, Repeat, ServeLive};

/// How often a workload is set up in one run; `setup_s` is the median.
pub const SETUPS: usize = 3;

/// Timed repeats a run makes at least, however short `--seconds` is.
pub const MIN_REPEATS: usize = 3;

/// Samples `query_p99_us` wants beyond the 99th percentile.
pub const P99_SAMPLES_BEYOND: usize = 2_000;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds of timed repeats.
    pub seconds: f64,
    /// Problem sizes.
    pub sizes: Sizes,
}

/// One end-to-end metric of one run.
#[derive(Debug, Clone)]
pub struct MetricRow {
    /// Which metric.
    pub metric: Metric,
    /// Measured by the workload itself (`true`) or by the reference
    /// probe because the workload does not define it (`false`).
    pub defined: bool,
    /// The run's value: the best repeat (highest throughput, lowest
    /// latency percentile), or the median of the set-ups for `setup_s`.
    pub value: f64,
    /// Median and quartiles of the per-repeat (per-set-up) values.
    pub spread: Quartiles,
    /// On a `query_p99_us` the workload defines: the run's tail.
    pub tail: Option<Tail>,
}

/// The highest percentile that all round trips of a run, pooled, support
/// with ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (50, 90, 99, 99.9, …).
    pub percentile: f64,
    /// Its value, microseconds.
    pub value_us: f64,
    /// Round trips pooled.
    pub samples: usize,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The options it ran with.
    pub options: RunOptions,
    /// `Bench::describe` of the workload.
    pub description: String,
    /// Timed repeats made.
    pub repeats: usize,
    /// One row per end-to-end metric, in `Metric::ALL` order.
    pub rows: Vec<MetricRow>,
    /// Operations attempted in the timed repeats (heartbeats drawn, or
    /// queries sent where the workload has no engine side).
    pub attempted: u64,
    /// Operations that failed, plus failed checks.
    pub failed: u64,
    /// The correctness checks.
    pub checks: Vec<Check>,
    /// Fingerprint of the repeats (the first one's).
    pub fingerprint: u64,
}

impl RunReport {
    /// All checks passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

/// `VmHWM` of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Timed repeats of `bench` until `seconds` have passed (at least
/// [`MIN_REPEATS`]).
fn timed_repeats(bench: &mut dyn Bench, seconds: f64) -> Vec<Repeat> {
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut repeats = Vec::new();
    while repeats.len() < MIN_REPEATS || started.elapsed() < budget {
        repeats.push(bench.repeat());
    }
    repeats
}

/// The per-repeat metric values a set of repeats supports.
struct Derived {
    heartbeats_per_s: Option<Vec<f64>>,
    queries_per_s: Option<Vec<f64>>,
    p25_us: Option<Vec<f64>>,
    p99_us: Option<Vec<f64>>,
    staleness_ms: Option<Vec<f64>>,
    /// Every round trip of every repeat, sorted: what the tail line is
    /// read off.
    pooled_rtt_ns: Vec<u32>,
}

impl Derived {
    fn of(repeats: &[Repeat]) -> Derived {
        let per_repeat = |f: &dyn Fn(&Repeat) -> Option<f64>| -> Option<Vec<f64>> {
            repeats.iter().map(f).collect()
        };
        // Each repeat's round trips and ages, sorted once.
        let sorted = |pick: &dyn Fn(&QuerySide) -> &Vec<u32>| -> Option<Vec<Vec<u32>>> {
            repeats
                .iter()
                .map(|r| {
                    let mut sample = pick(r.queries.as_ref()?).clone();
                    sample.sort_unstable();
                    (!sample.is_empty()).then_some(sample)
                })
                .collect()
        };
        let rtts = sorted(&|q| &q.rtt_ns);
        let ages = sorted(&|q| &q.age_us);
        let percentiles = |samples: &Option<Vec<Vec<u32>>>, p: f64| -> Option<Vec<f64>> {
            let samples = samples.as_ref()?;
            Some(
                samples
                    .iter()
                    .map(|s| f64::from(stats::percentile_sorted(s, p)) / 1e3)
                    .collect(),
            )
        };
        let mut pooled_rtt_ns: Vec<u32> = rtts.iter().flatten().flatten().copied().collect();
        pooled_rtt_ns.sort_unstable();
        Derived {
            heartbeats_per_s: per_repeat(&|r| r.engine.map(|e| e.drawn as f64 / e.wall_s)),
            queries_per_s: per_repeat(&|r| {
                r.queries.as_ref().map(|q| q.rtt_ns.len() as f64 / q.wall_s)
            }),
            p25_us: percentiles(&rtts, 25.0),
            p99_us: percentiles(&rtts, 99.0),
            staleness_ms: percentiles(&ages, 50.0),
            pooled_rtt_ns,
        }
    }

    /// The per-repeat values of `metric`, if these repeats measure it.
    fn samples(&self, metric: Metric) -> Option<&[f64]> {
        let samples = match metric {
            Metric::HeartbeatsPerS => &self.heartbeats_per_s,
            Metric::QueriesPerS => &self.queries_per_s,
            Metric::QueryP25Us => &self.p25_us,
            Metric::QueryP99Us => &self.p99_us,
            Metric::StalenessP50Ms => &self.staleness_ms,
            Metric::SetupS | Metric::PeakRssMib => &None,
        };
        samples.as_deref()
    }

    fn tail(&self) -> Option<Tail> {
        let samples = self.pooled_rtt_ns.len();
        let percentile = stats::highest_supported_percentile(samples, 10)?;
        Some(Tail {
            percentile,
            value_us: f64::from(stats::percentile_sorted(&self.pooled_rtt_ns, percentile)) / 1e3,
            samples,
        })
    }
}

/// A run's value of a per-repeat metric: its best repeat. On a shared host
/// disturbances only ever slow a repeat down, and they come in stretches
/// of seconds to minutes, so the median of a run follows the host; the
/// best repeat follows the code as long as one repeat of the run was
/// quiet. Nothing can make a repeat faster than the code allows: the
/// single-threaded work and the serve plane are pinned, so no lucky
/// regime exists to catch (README, "Known limits").
fn best(metric: Metric, samples: &[f64]) -> f64 {
    let pick = match metric.better() {
        Better::Higher => f64::max,
        Better::Lower => f64::min,
    };
    samples
        .iter()
        .copied()
        .reduce(pick)
        .expect("a run makes at least MIN_REPEATS repeats")
}

fn attempted_and_failed(repeats: &[Repeat]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for r in repeats {
        if let Some(e) = r.engine {
            attempted += e.expected;
            failed += e.expected.abs_diff(e.drawn);
        }
        if let Some(q) = &r.queries {
            if r.engine.is_none() {
                attempted += q.attempted;
            }
            failed += q.failed + q.server_errors;
        }
    }
    (attempted, failed)
}

/// Runs the workload and reports.
pub fn run(options: RunOptions) -> RunReport {
    let RunOptions {
        workload,
        seed,
        seconds,
        sizes,
    } = options;

    let set_up = || {
        let started = Instant::now();
        let mut built = workload::build(workload, sizes, seed);
        built.repeat();
        (built, started.elapsed().as_secs_f64())
    };
    let measure = || {
        let (mut bench, first_setup) = set_up();
        let repeats = timed_repeats(bench.as_mut(), seconds);
        // Read before anything else allocates: further set-ups and the
        // reference probe would raise the high-water mark by whatever the
        // allocator kept from this one.
        let rss = peak_rss_mib();
        // Set-up again, for the median; the first bench stays the one
        // whose repeats were measured.
        let mut setups = vec![first_setup];
        setups.extend((1..SETUPS).map(|_| set_up().1));
        (setups, bench, repeats, rss)
    };
    let (setups, mut bench, repeats, rss) = if workload.single_threaded() {
        affinity::on_cpu(0, measure)
    } else {
        measure()
    };

    let last = repeats.last().expect("at least MIN_REPEATS repeats");
    let fingerprint = repeats[0].fingerprint;
    let mut checks = vec![Check::new(
        "every repeat yields the same fingerprint",
        repeats.iter().all(|r| r.fingerprint == fingerprint),
    )];
    if seed == REFERENCE_SEED && sizes == Sizes::FULL {
        checks.push(Check::new(
            format!(
                "seed-{REFERENCE_SEED} fingerprint {fingerprint:#018x} equals the committed {:#018x}",
                crate::spec::reference_fingerprint(workload)
            ),
            fingerprint == crate::spec::reference_fingerprint(workload),
        ));
    }
    checks.extend(bench.verify(last));
    let description = bench.describe();
    drop(bench);

    let own = Derived::of(&repeats);
    // The driver wants every end-to-end metric from every workload. The
    // ones this workload does not define come from the reference probe:
    // `serve_live`, which defines all seven, run for half the time.
    let probe = (workload != Workload::ServeLive).then(|| {
        let mut probe = ServeLive::new(sizes, seed);
        probe.repeat();
        Derived::of(&timed_repeats(&mut probe, seconds / 2.0))
    });

    let rows = Metric::ALL
        .iter()
        .map(|&metric| {
            let defined = metric.defined_on(workload);
            let (value, spread) = match metric {
                Metric::SetupS => {
                    let q = Quartiles::of(&setups);
                    (q.median, q)
                }
                Metric::PeakRssMib => (rss, Quartiles::of(&[rss])),
                _ => {
                    let source = if defined {
                        &own
                    } else {
                        probe.as_ref().expect("serve_live defines every metric")
                    };
                    let samples = source
                        .samples(metric)
                        .expect("the workload or the probe measures every metric");
                    (best(metric, samples), Quartiles::of(samples))
                }
            };
            MetricRow {
                metric,
                defined,
                value,
                spread,
                tail: (defined && metric == Metric::QueryP99Us)
                    .then(|| own.tail())
                    .flatten(),
            }
        })
        .collect();

    let (attempted, op_failures) = attempted_and_failed(&repeats);
    let failed = op_failures + checks.iter().filter(|c| !c.ok).count() as u64;
    RunReport {
        options,
        description,
        repeats: repeats.len(),
        rows,
        attempted: attempted.max(1),
        failed,
        checks,
        fingerprint,
    }
}

/// `p99` needs [`P99_SAMPLES_BEYOND`] samples beyond it to be trusted;
/// says so when a run was too short.
pub fn p99_note(tail: &Tail) -> Option<String> {
    let beyond = tail.samples / 100;
    (beyond < P99_SAMPLES_BEYOND)
        .then(|| format!("only {beyond} samples beyond p99 (want {P99_SAMPLES_BEYOND})"))
}

/// The last line a run prints: the driver's JSON object.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Formats one metric row; [`parse_row`] reads it back.
pub fn format_row(workload: Workload, row: &MetricRow) -> String {
    format!(
        "  {:<17}{:<18}{:<5} value {:<14.4} median {:<14.4} q1 {:<14.4} q3 {:<14.4} n {:<4} {}",
        workload.name(),
        row.metric.name(),
        row.metric.unit(),
        row.value,
        row.spread.median,
        row.spread.q1,
        row.spread.q3,
        row.spread.n,
        if row.defined { "workload" } else { "probe" },
    )
}

/// A metric row as the parent process reads it from a child's output.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRow {
    /// Workload name.
    pub workload: Workload,
    /// The metric.
    pub metric: Metric,
    /// The run's value.
    pub value: f64,
    /// Whether the workload defines the metric.
    pub defined: bool,
}

/// Parses a line written by [`format_row`]; `None` for any other line.
pub fn parse_row(line: &str) -> Option<ParsedRow> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let [workload, metric, _unit, "value", value, "median", .., tag] = tokens[..] else {
        return None;
    };
    Some(ParsedRow {
        workload: Workload::from_name(workload)?,
        metric: Metric::ALL.into_iter().find(|m| m.name() == metric)?,
        value: value.parse().ok()?,
        defined: tag == "workload",
    })
}

/// Whether `value` is no worse than `base` by more than the bound, as a
/// signed share of `base` (positive = worse).
pub fn worsening(metric: Metric, base: f64, value: f64) -> f64 {
    match metric.better() {
        Better::Lower => value / base - 1.0,
        Better::Higher => 1.0 - value / base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{EngineSide, QuerySide};

    fn engine_repeat(drawn: u64, wall_s: f64) -> Repeat {
        Repeat {
            fingerprint: 1,
            engine: Some(EngineSide {
                drawn,
                expected: 1_000,
                wall_s,
            }),
            queries: None,
        }
    }

    #[test]
    fn throughput_value_is_the_best_repeat() {
        // 200, 250, 500, 1000 heartbeats/s; quartiles 212.5 / 375 / 875.
        let repeats = [
            engine_repeat(1_000, 2.0),
            engine_repeat(1_000, 1.0),
            engine_repeat(1_000, 4.0),
            engine_repeat(1_000, 5.0),
        ];
        let d = Derived::of(&repeats);
        let samples = d.samples(Metric::HeartbeatsPerS).expect("engine side");
        assert_eq!(best(Metric::HeartbeatsPerS, samples), 1_000.0);
        let spread = Quartiles::of(samples);
        assert_eq!((spread.q3, spread.median, spread.n), (875.0, 375.0, 4));
        assert!(d.samples(Metric::QueriesPerS).is_none());
        assert!(d.samples(Metric::QueryP99Us).is_none());
        assert!(d.tail().is_none());
    }

    #[test]
    fn latency_values_are_the_best_repeat_and_the_tail_pools_every_repeat() {
        let q = |rtts: Vec<u32>, age: u32| Repeat {
            fingerprint: 1,
            engine: None,
            queries: Some(QuerySide {
                attempted: rtts.len() as u64,
                wall_s: 1.0,
                age_us: vec![age; rtts.len()],
                rtt_ns: rtts,
                ..QuerySide::default()
            }),
        };
        // Per-repeat p25: 10, 30, 50 us; p99: 40, 60, 80 us.
        let repeats = [
            q((1..=40).map(|x| x * 1_000).collect(), 3_000),
            q((21..=60).map(|x| x * 1_000).collect(), 2_000),
            q((41..=80).map(|x| x * 1_000).collect(), 4_000),
        ];
        let d = Derived::of(&repeats);
        let value = |m: Metric| best(m, d.samples(m).expect("query side"));
        assert_eq!(
            d.samples(Metric::QueryP25Us).expect("query side"),
            [10.0, 30.0, 50.0]
        );
        assert_eq!(value(Metric::QueryP25Us), 10.0);
        assert_eq!(value(Metric::QueryP99Us), 40.0);
        assert_eq!(value(Metric::StalenessP50Ms), 2.0);
        assert_eq!(value(Metric::QueriesPerS), 40.0);
        assert_eq!(
            d.tail(),
            Some(Tail {
                percentile: 90.0,
                value_us: 68.0,
                samples: 120
            }),
            "p90 of all 120 round trips"
        );
    }

    #[test]
    fn unaccounted_heartbeats_and_failed_queries_count_as_failures() {
        let mut short = engine_repeat(990, 1.0);
        short.queries = Some(QuerySide {
            attempted: 10,
            failed: 2,
            server_errors: 1,
            wall_s: 1.0,
            ..QuerySide::default()
        });
        assert_eq!(attempted_and_failed(&[short]), (1_000, 13));
    }

    #[test]
    fn rows_survive_the_trip_through_a_child_process_pipe() {
        let row = MetricRow {
            metric: Metric::QueryP99Us,
            defined: false,
            value: 335.25,
            spread: Quartiles::of(&[335.25]),
            tail: None,
        };
        let line = format_row(Workload::ScaleWide, &row);
        assert_eq!(
            parse_row(&line),
            Some(ParsedRow {
                workload: Workload::ScaleWide,
                metric: Metric::QueryP99Us,
                value: 335.25,
                defined: false,
            })
        );
        assert_eq!(parse_row("check ok something"), None);
        assert_eq!(parse_row(""), None);
    }

    #[test]
    fn result_json_is_the_drivers_shape() {
        let json = result_json(
            true,
            10,
            0,
            &[("setup_s", 0.5, "s"), ("query_p25_us", 19.25, "us")],
        );
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"query_p25_us\": {\"value\": 19.25, \"unit\": \"us\"}}}"
        );
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(Metric::QueryP25Us, 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worsening(Metric::HeartbeatsPerS, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!(worsening(Metric::HeartbeatsPerS, 100.0, 120.0) < 0.0);
    }
}
