//! What the benchmark measures: the six workloads, the seven end-to-end
//! metrics with their regression bounds, and the 56 per-layer metrics with
//! the end-to-end metric each is predicted to move. `BENCHMARK.json` at
//! the repository root is generated from these tables
//! (`fdbench manifest`), and a unit test keeps the two in step.

/// How long one run measures by default, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

/// The driver-facing command of `BENCHMARK.json`.
pub const COMMAND: [&str; 2] = ["bash", "fdbench/run.sh"];

/// One of the six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// The paper's 13-run QoS experiment through `SimEngine`.
    PaperQos,
    /// Many cold sources on the timer wheel, two shards.
    ScaleWide,
    /// Few warm sources on the heap, one shard.
    ScaleSteady,
    /// Two supervised shards riding out two injected crashes.
    ScaleSupervised,
    /// Closed-loop queries against a view nobody writes.
    ServeRead,
    /// Closed-loop queries against a view the engine is publishing into.
    ServeLive,
}

impl Workload {
    /// All six, in the order they run.
    pub const ALL: [Workload; 6] = [
        Workload::PaperQos,
        Workload::ScaleWide,
        Workload::ScaleSteady,
        Workload::ScaleSupervised,
        Workload::ServeRead,
        Workload::ServeLive,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQos => "paper_qos",
            Workload::ScaleWide => "scale_wide",
            Workload::ScaleSteady => "scale_steady",
            Workload::ScaleSupervised => "scale_supervised",
            Workload::ServeRead => "serve_read",
            Workload::ServeLive => "serve_live",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload keeps to the thread that calls it, so the harness may
    /// pin that thread to one CPU while it measures (see
    /// [`crate::affinity`]).
    pub fn single_threaded(self) -> bool {
        matches!(self, Workload::PaperQos | Workload::ScaleSteady)
    }

    /// Why the workload exists, in one line (at most 200 characters).
    pub fn why(self) -> &'static str {
        match self {
            Workload::PaperQos => {
                "The paper's experiment as a reader runs it: SimEngine, link model, DetectorBank \
                 and, dominantly, ARIMA refits; bypasses SourceBank, the wheel and fd-serve."
            }
            Workload::ScaleWide => {
                "Many cold sources, never an ARIMA fit: timer wheel, per-source RNG, sink and \
                 digest fold and memory footprint do the work; predictor maths does little."
            }
            Workload::ScaleSteady => {
                "Same engine used the other way: heap queue, warm caches, full windows, still no \
                 fit, so SourceBank observe/check dominates; a gain for wide that costs steady shows."
            }
            Workload::ScaleSupervised => {
                "SourceBank as bulk state: checkpoints every 10 000 events and two warm restarts \
                 beside per-heartbeat updates; the supervision cost nobody has split."
            }
            Workload::ServeRead => {
                "Reads only, closed loop, two clients: isolates socket wake-up, wire codec and \
                 SuspectView point/range reads from any writer."
            }
            Workload::ServeLive => {
                "Writes beside reads: seqlock publication contends with closed-loop queries, so \
                 publish cost, reader retries and cadence show in throughput, tail and staleness."
            }
        }
    }
}

/// Problem sizes of the workloads. `divisor` 1 is the measured size,
/// 16 is `--smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Every source, cycle or query count below is divided by this.
    pub divisor: u64,
}

impl Sizes {
    /// The sizes `BENCHMARK.json` is frozen at.
    pub const FULL: Sizes = Sizes { divisor: 1 };
    /// 1/16 of them, for a quick check of the harness itself.
    pub const SMOKE: Sizes = Sizes { divisor: 16 };

    fn div(self, n: u64) -> u64 {
        (n / self.divisor).max(1)
    }

    /// `paper_qos`: independent runs pooled per repeat (the paper's 13).
    pub fn paper_runs(self) -> usize {
        self.div(13).max(2) as usize
    }

    /// `paper_qos`: heartbeat cycles per run. 4 000, not the paper's
    /// 10 000: `QosAccumulator` tracks instants as u32 µs (71.6 virtual
    /// minutes), and 4 000 still crosses the refits at 300, 1 000, 2 000
    /// and 3 000 observations.
    pub fn paper_cycles(self) -> u64 {
        self.div(4_000).max(1_000)
    }

    /// `(sources, cycles, shards)` of a `ShardedEngine` workload.
    pub fn engine(self, w: Workload) -> (usize, u64, usize) {
        let (sources, cycles, shards) = match w {
            Workload::ScaleWide => (65_536, 8, 2),
            Workload::ScaleSteady => (1_024, 280, 1),
            Workload::ScaleSupervised => (32_768, 12, 2),
            Workload::ServeRead => (65_536, 4, 2),
            Workload::ServeLive => (16_384, 5, 1),
            Workload::PaperQos => unreachable!("paper_qos runs SimEngine, not ShardedEngine"),
        };
        (self.div(sources) as usize, cycles, shards)
    }

    /// `scale_supervised`: events after which shard 0 crashes and shard 1
    /// checkpoints and crashes.
    pub fn supervised_faults(self) -> (u64, u64) {
        (self.div(150_000), self.div(300_000))
    }

    /// `serve_read`: queries each of the two clients sends per repeat.
    pub fn read_queries_per_client(self) -> usize {
        self.div(2_048).max(256) as usize
    }
}

/// Whether a smaller or a larger value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One of the seven end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Metric {
    /// Child start to first timed repeat.
    SetupS,
    /// Heartbeats drawn per wall second of a timed repeat.
    HeartbeatsPerS,
    /// `VmHWM` of the workload's process.
    PeakRssMib,
    /// Answered queries per wall second, all clients.
    QueriesPerS,
    /// Lower-quartile client-observed round trip: the fast path.
    QueryP25Us,
    /// 99th-percentile client-observed round trip.
    QueryP99Us,
    /// Median age of published answers while the engine publishes.
    StalenessP50Ms,
}

impl Metric {
    /// All seven, in report order.
    pub const ALL: [Metric; 7] = [
        Metric::SetupS,
        Metric::HeartbeatsPerS,
        Metric::PeakRssMib,
        Metric::QueriesPerS,
        Metric::QueryP25Us,
        Metric::QueryP99Us,
        Metric::StalenessP50Ms,
    ];

    /// Metric name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::SetupS => "setup_s",
            Metric::HeartbeatsPerS => "heartbeats_per_s",
            Metric::PeakRssMib => "peak_rss_mib",
            Metric::QueriesPerS => "queries_per_s",
            Metric::QueryP25Us => "query_p25_us",
            Metric::QueryP99Us => "query_p99_us",
            Metric::StalenessP50Ms => "staleness_p50_ms",
        }
    }

    /// Unit.
    pub fn unit(self) -> &'static str {
        match self {
            Metric::SetupS => "s",
            Metric::HeartbeatsPerS | Metric::QueriesPerS => "1/s",
            Metric::PeakRssMib => "MiB",
            Metric::QueryP25Us | Metric::QueryP99Us => "us",
            Metric::StalenessP50Ms => "ms",
        }
    }

    /// Direction.
    pub fn better(self) -> Better {
        match self {
            Metric::HeartbeatsPerS | Metric::QueriesPerS => Better::Higher,
            _ => Better::Lower,
        }
    }

    /// The share of a median by which the metric may worsen before the
    /// change is a regression.
    pub fn bound(self) -> f64 {
        match self {
            // Every timed metric sits at the driver's cap: in a noisy hour
            // the sizing host moved whole sets of runs by 20-35 %
            // (SPREADS.md), and a tighter bound would only report the host.
            Metric::PeakRssMib => 0.20,
            _ => 0.25,
        }
    }

    /// Whether the workload itself defines the metric. Where it does not,
    /// the driver still wants a number, and the child reports the one its
    /// reference probe measured; `fdbench all` leaves those rows out.
    pub fn defined_on(self, w: Workload) -> bool {
        match self {
            Metric::SetupS | Metric::PeakRssMib => true,
            Metric::HeartbeatsPerS => w != Workload::ServeRead,
            Metric::QueriesPerS | Metric::QueryP25Us | Metric::QueryP99Us => {
                matches!(w, Workload::ServeRead | Workload::ServeLive)
            }
            Metric::StalenessP50Ms => w == Workload::ServeLive,
        }
    }
}

/// A per-layer metric: name, unit, direction, and the prediction written
/// down before measuring — which end-to-end metric it should move, where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerMetric {
    /// `<crate>.<module>.<measure>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// "end-to-end metric → workloads" it is predicted to move.
    pub moves: &'static str,
}

const fn lm(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

const HB_WIDE: &str = "heartbeats_per_s -> scale_wide";
const HB_QUEUE: &str =
    "heartbeats_per_s -> scale_wide, serve_live, scale_supervised (wheel); none on scale_steady";
const HB_PAPER: &str = "heartbeats_per_s -> paper_qos";
const HB_PAPER_SMALL: &str = "heartbeats_per_s -> paper_qos (about 1 %: predicted invisible)";
const HB_ARIMA: &str =
    "heartbeats_per_s -> paper_qos (most of the run); fit_count is 0 on the ShardedEngine workloads";
const HB_BANK: &str = "heartbeats_per_s -> scale_steady (dominant), scale_wide (cold cache)";
const HB_SNAPSHOT: &str = "heartbeats_per_s -> scale_supervised only";
const HB_SKEW: &str = "heartbeats_per_s -> the two-shard workloads (slowest shard sets the wall)";
const HB_SUPERVISED: &str = "heartbeats_per_s -> scale_supervised";
const P25_READ: &str =
    "query_p25_us -> serve_read (tens of ns against ~20 us: predicted invisible)";
const TAIL: &str = "query_p99_us, queries_per_s -> serve_read, serve_live (the 200 us poll sleep)";
const LIVE: &str = "heartbeats_per_s, staleness_p50_ms -> serve_live; nothing on serve_read";

/// The 56 per-layer metrics, in report order.
pub const LAYER_METRICS: [LayerMetric; 56] = [
    lm("fd-sim.rng.draw_ns", "ns", Lower, HB_WIDE),
    lm("fd-sim.rng.draw_count", "count", Lower, HB_WIDE),
    lm("fd-sim.queue.push_pop_ns", "ns", Lower, HB_QUEUE),
    lm("fd-sim.queue.ops_count", "count", Lower, HB_QUEUE),
    lm("fd-sim.queue.peak_pending", "count", Lower, HB_QUEUE),
    lm("fd-net.link.transmit_ns", "ns", Lower, HB_PAPER_SMALL),
    lm("fd-net.link.transmit_count", "count", Lower, HB_PAPER_SMALL),
    lm("fd-arima.fit_300_ms", "ms", Lower, HB_ARIMA),
    lm("fd-arima.fit_1000_ms", "ms", Lower, HB_ARIMA),
    lm("fd-arima.fit_3000_ms", "ms", Lower, HB_ARIMA),
    lm("fd-arima.fit_count", "count", Lower, HB_ARIMA),
    lm("fd-arima.fit_busy_frac", "frac", Lower, HB_ARIMA),
    lm("fd-arima.observe_ns", "ns", Lower, HB_ARIMA),
    lm("fd-core.detector_bank.observe_ns", "ns", Lower, HB_PAPER),
    lm("fd-core.detector_bank.check_ns", "ns", Lower, HB_PAPER),
    lm("fd-core.source_bank.observe_ns", "ns", Lower, HB_BANK),
    lm("fd-core.source_bank.observe_count", "count", Lower, HB_BANK),
    lm("fd-core.source_bank.check_source_ns", "ns", Lower, HB_BANK),
    lm(
        "fd-core.source_bank.check_source_count",
        "count",
        Lower,
        HB_BANK,
    ),
    lm(
        "fd-core.source_bank.check_fired_frac",
        "frac",
        Higher,
        HB_BANK,
    ),
    lm("fd-core.source_bank.next_wakeup_ns", "ns", Lower, HB_BANK),
    lm(
        "fd-core.source_bank.new_ms",
        "ms",
        Lower,
        "setup_s, peak_rss_mib -> scale_wide",
    ),
    lm("fd-core.source_bank.snapshot_ms", "ms", Lower, HB_SNAPSHOT),
    lm(
        "fd-core.source_bank.snapshot_bytes_per_source",
        "bytes",
        Lower,
        HB_SNAPSHOT,
    ),
    lm("fd-core.source_bank.restore_ms", "ms", Lower, HB_SNAPSHOT),
    lm("fd-stat.sink.edge_ns", "ns", Lower, HB_WIDE),
    lm("fd-stat.sink.edge_count", "count", Lower, HB_WIDE),
    lm("fd-stat.sink.finish_ms", "ms", Lower, HB_WIDE),
    lm(
        "fd-stat.event_log.record_ns",
        "ns",
        Lower,
        "heartbeats_per_s -> paper_qos (under 1 %)",
    ),
    lm(
        "fd-stat.accumulate_metrics_ms",
        "ms",
        Lower,
        "heartbeats_per_s -> paper_qos (under 1 %)",
    ),
    lm("fd-runtime.digest.fold_ns", "ns", Lower, HB_WIDE),
    lm(
        "fd-runtime.sharded.run_ms",
        "ms",
        Lower,
        "is heartbeats_per_s on the ShardedEngine workloads",
    ),
    lm(
        "fd-runtime.sharded.replica_ratio",
        "x",
        Lower,
        "none: trust in the replica (0.75 to 1.25)",
    ),
    lm(
        "fd-runtime.sharded.unattributed_frac",
        "frac",
        Lower,
        "the loop and bookkeeping share a later in-program trace must explain",
    ),
    lm("fd-runtime.sharded.shard_skew", "x", Lower, HB_SKEW),
    lm(
        "fd-runtime.sharded.edges_per_heartbeat",
        "count",
        Lower,
        HB_WIDE,
    ),
    lm(
        "fd-runtime.sim_engine.run_ms",
        "ms",
        Lower,
        "is heartbeats_per_s on paper_qos",
    ),
    lm(
        "fd-runtime.sim_engine.unattributed_frac",
        "frac",
        Lower,
        "heartbeats_per_s -> paper_qos (layer stack, message dispatch)",
    ),
    lm(
        "fd-runtime.supervisor.overhead_x",
        "x",
        Lower,
        HB_SUPERVISED,
    ),
    lm(
        "fd-runtime.supervisor.replayed_events",
        "count",
        Lower,
        HB_SUPERVISED,
    ),
    lm(
        "fd-runtime.supervisor.warm_restores",
        "count",
        Lower,
        HB_SUPERVISED,
    ),
    lm("fd-serve.wire.request_codec_ns", "ns", Lower, P25_READ),
    lm("fd-serve.wire.response_codec_ns", "ns", Lower, P25_READ),
    lm("fd-serve.view.point_ns", "ns", Lower, P25_READ),
    lm("fd-serve.view.range_ns", "ns", Lower, P25_READ),
    lm("fd-serve.view.delta_since_ns", "ns", Lower, P25_READ),
    lm("fd-serve.server.respond_ns", "ns", Lower, P25_READ),
    lm("fd-serve.server.wait_frac", "frac", Lower, TAIL),
    lm("fd-serve.server.slow_path_frac", "frac", Lower, TAIL),
    lm("fd-serve.view.publish_dirty_us", "us", Lower, LIVE),
    lm("fd-serve.view.publish_full_us", "us", Lower, LIVE),
    lm("fd-serve.view.publish_count", "count", Lower, LIVE),
    lm("fd-serve.view.torn_retry_frac", "frac", Lower, LIVE),
    lm("fd-serve.view.age_p99_us", "us", Lower, LIVE),
    lm(
        "fd-serve.stats.error_count",
        "count",
        Lower,
        "none: must stay 0",
    ),
    lm(
        "fdbench.trace_overhead_frac",
        "frac",
        Lower,
        "none: the cost of tracing itself, reported not hidden",
    ),
];

/// The seed the committed fingerprints belong to.
pub const REFERENCE_SEED: u64 = 42;

/// Digest (pooled-QoS fingerprint for `paper_qos`) every repeat of a
/// full-size workload must produce at [`REFERENCE_SEED`].
pub fn reference_fingerprint(w: Workload) -> u64 {
    match w {
        Workload::PaperQos => 0x7a8f_55c7_2f11_cf94,
        Workload::ScaleWide => 0xbd01_e5db_f0bf_5e75,
        Workload::ScaleSteady => 0xfe1c_633e_67b7_abe8,
        Workload::ScaleSupervised => 0x53ac_8f5a_2866_2983,
        Workload::ServeRead => 0x8fe3_b718_689a_b4d1,
        Workload::ServeLive => 0x5181_7a1f_2cc9_c7fc,
    }
}

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let mut s = String::from("{\n");
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    s += &format!("  \"command\": [{}],\n", list(&COMMAND));
    s += "  \"paths\": [\"fdbench\"],\n";
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    s += "  \"workloads\": [\n";
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = Metric::ALL
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name(),
                m.unit(),
                m.better().word(),
                m.bound()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = LAYER_METRICS
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_driver_contract() {
        let mut seen = BTreeSet::new();
        for w in Workload::ALL {
            assert!(name_ok(w.name()) && seen.insert(w.name()));
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        for m in Metric::ALL {
            assert!(name_ok(m.name()) && seen.insert(m.name()));
            assert!(unit_ok(m.unit()));
            assert!(m.bound() > 0.0 && m.bound() <= 0.25);
        }
        assert!(
            Metric::ALL
                .iter()
                .all(|m| m.bound() <= Metric::SetupS.bound()),
            "setup_s carries the largest bound"
        );
        for m in LAYER_METRICS {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit));
        }
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn every_metric_is_defined_on_the_workloads_the_issue_lists() {
        let count = |m: Metric| Workload::ALL.iter().filter(|&&w| m.defined_on(w)).count();
        assert_eq!(count(Metric::SetupS), 6);
        assert_eq!(count(Metric::PeakRssMib), 6);
        assert_eq!(count(Metric::HeartbeatsPerS), 5);
        assert_eq!(count(Metric::QueriesPerS), 2);
        assert_eq!(count(Metric::StalenessP50Ms), 1);
        assert!(Metric::ALL
            .iter()
            .all(|m| m.defined_on(Workload::ServeLive)));
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `fdbench manifest`");
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn smoke_sizes_are_a_sixteenth() {
        assert_eq!(Sizes::SMOKE.engine(Workload::ScaleWide).0, 65_536 / 16);
        assert_eq!(Sizes::FULL.engine(Workload::ScaleWide).2, 2);
        assert!(
            Sizes::SMOKE.paper_cycles() >= 400,
            "smoke still crosses the first fit"
        );
    }
}
