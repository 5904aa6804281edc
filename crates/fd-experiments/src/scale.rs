//! The monitor-scaling experiment: throughput of the many-source fast
//! path across source counts, plus the 1000-source full-grid cycle
//! benchmark tracked against the PR 1 `DetectorBank` baseline.
//!
//! Two measurements, both written into `BENCH_scale.json` at the repo
//! root by the `scale` binary so later changes have a perf trajectory to
//! compare against:
//!
//! 1. **Sharded engine throughput** ([`run_scale`]): the
//!    [`ShardedEngine`] drives N sources × the 30-combination grid
//!    through a full loss/spike workload on the timer-wheel event loop,
//!    reporting wall time, cycles/sec, µs per source-cycle and peak RSS
//!    per source count.
//! 2. **Cycle benchmark** ([`cycle_benchmark`]): one heartbeat cycle
//!    over 1000 sources measured two ways with identical warmup and
//!    arrivals — a loop over 1000 private `DetectorBank`s (exactly the
//!    `bank_1000_sources_cycle` methodology that recorded 15.0 ms in
//!    PR 1) versus one [`SourceBank::observe_all`] batch sweep.

use std::time::Instant;

use fd_core::{DetectorBank, HeartbeatObs, SourceBank};
use fd_runtime::sharded::{ShardedConfig, ShardedEngine};
use fd_sim::{SimDuration, SimTime};

/// PR 1's recorded 1000-source full-grid cycle time, milliseconds — the
/// baseline the acceptance criterion compares against.
pub const PR1_CYCLE_BASELINE_MS: f64 = 15.0;

/// One row of the scaling table: a full sharded run at one source count.
///
/// The run uses the streaming path (no event retention): edges fold into
/// the shard-invariant digest and per-combo QoS roll-ups as they are
/// emitted, so peak memory is the engine state, not the log.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Monitored sources.
    pub sources: usize,
    /// Heartbeat cycles simulated per source.
    pub cycles: u64,
    /// Worker shards used (clamped to the source count).
    pub shards: usize,
    /// OS threads the run executed on — one per shard (a single shard
    /// runs inline on the calling thread, still one thread).
    pub threads: usize,
    /// Heartbeats delivered.
    pub heartbeats: u64,
    /// Heartbeats dropped by the loss model.
    pub lost: u64,
    /// Suspect/trust edges emitted (streamed, not retained).
    pub events: u64,
    /// Suspicion episodes folded into the QoS roll-ups (closed + open),
    /// summed over the grid.
    pub mistakes: u64,
    /// Order-independent streaming digest of the emitted edge tuples
    /// (shard-count invariant).
    pub digest: u64,
    /// Wall-clock time of the run, milliseconds.
    pub wall_ms: f64,
    /// Full monitoring cycles (all sources) per wall-clock second.
    pub cycles_per_sec: f64,
    /// Wall-clock microseconds per source per cycle.
    pub us_per_source_cycle: f64,
    /// Peak resident set size after the run, KiB (`VmHWM`), if the
    /// platform exposes it. Honest only when the row ran in its own
    /// process (`VmHWM` is a process-lifetime high-water mark); the
    /// `scale` binary isolates rows in child processes for this reason.
    pub peak_rss_kb: Option<u64>,
    /// `peak_rss_kb` scaled to bytes per monitored source.
    pub rss_per_source_bytes: Option<f64>,
}

/// The two-way 1000-source cycle measurement.
#[derive(Debug, Clone)]
pub struct CycleBench {
    /// Sources per cycle.
    pub sources: usize,
    /// Warmup cycles before measuring (past the cold-start transient,
    /// before the ARIMA first fit — the PR 1 methodology).
    pub warmup_cycles: u64,
    /// Measured cycles averaged over.
    pub measured_cycles: u64,
    /// Mean cycle time of the looped-`DetectorBank` path, milliseconds.
    pub detector_bank_ms: f64,
    /// Mean cycle time of the `SourceBank` batch path, milliseconds.
    pub source_bank_ms: f64,
    /// `detector_bank_ms / source_bank_ms`.
    pub speedup: f64,
}

/// The deadline-sweep measurement: the lane-swept (bitmask,
/// autovectorizable) full freshness scan. The committed
/// `BENCH_scale.json` keeps the 1.31× it recorded over the scalar loop
/// that scan retired.
#[derive(Debug, Clone)]
pub struct SweepBench {
    /// Sources in the bank (× the 30-combination grid).
    pub sources: usize,
    /// Sweeps averaged over.
    pub sweeps: u64,
    /// Mean scan time, milliseconds ([`SourceBank::check_all_at`]).
    pub lane_ms: f64,
}

/// Measures the steady-state full freshness sweep — the no-fire scan
/// over every (source, combo) deadline that dominates idle monitor
/// cycles. The bank is primed with one delivered heartbeat per source so
/// every deadline is armed, and swept at an instant before any fires.
pub fn sweep_benchmark(sources: usize, sweeps: u64) -> SweepBench {
    let eta = SimDuration::from_secs(1);
    let at = SimTime::ZERO + SimDuration::from_millis(200);
    let mut bank = SourceBank::paper_grid(eta, sources);
    let mut batch = Vec::with_capacity(sources);
    fill_batch(&mut batch, sources, 0, at);
    bank.observe_all(&batch);
    // 300 ms: strictly before every armed deadline (η + margin past the
    // 200 ms arrivals), so the sweep does pure scanning work.
    let scan_at = SimTime::ZERO + SimDuration::from_millis(300);
    assert!(bank.check_all_at(scan_at).is_empty(), "sweep fired early");

    let started = Instant::now();
    for _ in 0..sweeps {
        std::hint::black_box(bank.check_all_at(scan_at).len());
    }
    let lane_ms = started.elapsed().as_secs_f64() * 1e3 / sweeps as f64;

    SweepBench {
        sources,
        sweeps,
        lane_ms,
    }
}

/// Peak resident set size of this process in KiB, from `/proc` (`None`
/// off Linux or when unreadable).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Runs the sharded engine at one source count and reports throughput.
pub fn run_scale_row(sources: usize, cycles: u64, shards: usize, seed: u64) -> ScaleRow {
    let mut config = ShardedConfig::paper_grid(sources, cycles, seed);
    config.shards = shards.max(1);
    // Lively enough that the log is non-trivial at every scale.
    config.loss = 0.02;
    config.spike_prob = 0.02;
    let report = ShardedEngine::new(config).run();
    let wall_ms = report.wall.as_secs_f64() * 1e3;
    let source_cycles = sources as f64 * cycles as f64;
    let peak = peak_rss_kb();
    ScaleRow {
        sources,
        cycles,
        shards: report.shards,
        threads: report.shards,
        heartbeats: report.heartbeats,
        lost: report.lost,
        events: report.start_suspects + report.end_suspects,
        mistakes: report
            .qos
            .iter()
            .map(|s| s.mistakes + s.open_mistakes)
            .sum(),
        digest: report.digest,
        wall_ms,
        cycles_per_sec: cycles as f64 / (wall_ms / 1e3),
        us_per_source_cycle: wall_ms * 1e3 / source_cycles,
        peak_rss_kb: peak,
        rss_per_source_bytes: peak.map(|kb| kb as f64 * 1024.0 / sources as f64),
    }
}

/// Runs the scaling table over several source counts.
pub fn run_scale(counts: &[usize], cycles: u64, shards: usize, seed: u64) -> Vec<ScaleRow> {
    counts
        .iter()
        .map(|&n| run_scale_row(n, cycles, shards, seed))
        .collect()
}

/// Measures one full-grid heartbeat cycle over `sources` sources, both
/// ways, with the PR 1 warmup and arrival pattern (constant 200 ms
/// delay, η = 1 s).
pub fn cycle_benchmark(sources: usize, warmup_cycles: u64, measured_cycles: u64) -> CycleBench {
    let eta = SimDuration::from_secs(1);
    let arrival = |seq: u64| SimTime::ZERO + eta * seq + SimDuration::from_millis(200);

    // Path A: one private DetectorBank per source, looped — exactly the
    // `bank_1000_sources_cycle` methodology.
    let mut banks: Vec<DetectorBank> = (0..sources)
        .map(|_| DetectorBank::paper_grid(eta))
        .collect();
    let mut seq = 0u64;
    while seq < warmup_cycles {
        for bank in &mut banks {
            bank.observe_heartbeat(seq, arrival(seq));
        }
        seq += 1;
    }
    let started = Instant::now();
    for _ in 0..measured_cycles {
        for bank in &mut banks {
            std::hint::black_box(bank.observe_heartbeat(seq, arrival(seq)));
        }
        seq += 1;
    }
    let detector_bank_ms = started.elapsed().as_secs_f64() * 1e3 / measured_cycles as f64;

    // Path B: one SourceBank, one observe_all sweep per cycle.
    let mut source_bank = SourceBank::paper_grid(eta, sources);
    let mut batch: Vec<HeartbeatObs> = Vec::with_capacity(sources);
    let mut seq = 0u64;
    while seq < warmup_cycles {
        fill_batch(&mut batch, sources, seq, arrival(seq));
        source_bank.observe_all(&batch);
        seq += 1;
    }
    let started = Instant::now();
    for _ in 0..measured_cycles {
        fill_batch(&mut batch, sources, seq, arrival(seq));
        std::hint::black_box(source_bank.observe_all(&batch));
        seq += 1;
    }
    let source_bank_ms = started.elapsed().as_secs_f64() * 1e3 / measured_cycles as f64;

    CycleBench {
        sources,
        warmup_cycles,
        measured_cycles,
        detector_bank_ms,
        source_bank_ms,
        speedup: detector_bank_ms / source_bank_ms,
    }
}

fn fill_batch(batch: &mut Vec<HeartbeatObs>, sources: usize, seq: u64, at: SimTime) {
    batch.clear();
    batch.extend((0..sources as u32).map(|source| HeartbeatObs {
        source,
        seq,
        arrival: at,
    }));
}

/// Renders one scaling row as a single-line JSON object (no trailing
/// comma/newline). The `scale` binary's child processes emit exactly
/// this line, so the parent can splice rows without re-parsing them.
pub fn render_row_json(r: &ScaleRow) -> String {
    format!(
        "{{\"sources\": {}, \"cycles\": {}, \"shards\": {}, \"threads\": {}, \
         \"heartbeats\": {}, \"lost\": {}, \"events\": {}, \"mistakes\": {}, \
         \"digest\": \"{:016x}\", \"wall_ms\": {:.3}, \"cycles_per_sec\": {:.3}, \
         \"us_per_source_cycle\": {:.3}, \"peak_rss_kb\": {}, \"rss_per_source_bytes\": {}}}",
        r.sources,
        r.cycles,
        r.shards,
        r.threads,
        r.heartbeats,
        r.lost,
        r.events,
        r.mistakes,
        r.digest,
        r.wall_ms,
        r.cycles_per_sec,
        r.us_per_source_cycle,
        r.peak_rss_kb
            .map_or_else(|| "null".to_owned(), |v| v.to_string()),
        r.rss_per_source_bytes
            .map_or_else(|| "null".to_owned(), |v| format!("{v:.1}")),
    )
}

/// Renders the benchmark as the `BENCH_scale.json` document (hand-rolled
/// JSON: the workspace deliberately carries no JSON dependency), from
/// pre-rendered row lines ([`render_row_json`]).
pub fn render_json_from_rows(
    row_jsons: &[String],
    bench: &CycleBench,
    sweep: &SweepBench,
    shards_requested: usize,
    seed: u64,
) -> String {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"scale\",\n");
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(&format!("  \"shards_requested\": {shards_requested},\n"));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"grid_combos\": 30,\n");
    out.push_str("  \"rows\": [\n");
    for (i, row) in row_jsons.iter().enumerate() {
        out.push_str("    ");
        out.push_str(row);
        out.push_str(if i + 1 == row_jsons.len() {
            "\n"
        } else {
            ",\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"cycle_benchmark\": {\n");
    out.push_str(&format!("    \"sources\": {},\n", bench.sources));
    out.push_str(&format!(
        "    \"warmup_cycles\": {},\n",
        bench.warmup_cycles
    ));
    out.push_str(&format!(
        "    \"measured_cycles\": {},\n",
        bench.measured_cycles
    ));
    out.push_str(&format!(
        "    \"detector_bank_loop_ms\": {:.3},\n",
        bench.detector_bank_ms
    ));
    out.push_str(&format!(
        "    \"source_bank_batch_ms\": {:.3},\n",
        bench.source_bank_ms
    ));
    out.push_str(&format!("    \"speedup\": {:.3},\n", bench.speedup));
    out.push_str(&format!(
        "    \"pr1_baseline_ms\": {PR1_CYCLE_BASELINE_MS:.1}\n"
    ));
    out.push_str("  },\n");
    out.push_str("  \"deadline_sweep\": {\n");
    out.push_str(&format!("    \"sources\": {},\n", sweep.sources));
    out.push_str(&format!("    \"sweeps\": {},\n", sweep.sweeps));
    out.push_str(&format!("    \"lane_ms\": {:.4}\n", sweep.lane_ms));
    out.push_str("  }\n}\n");
    out
}

/// [`render_json_from_rows`] over in-process rows.
pub fn render_json(
    rows: &[ScaleRow],
    bench: &CycleBench,
    sweep: &SweepBench,
    shards_requested: usize,
    seed: u64,
) -> String {
    let row_jsons: Vec<String> = rows.iter().map(render_row_json).collect();
    render_json_from_rows(&row_jsons, bench, sweep, shards_requested, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_row_accounts_for_every_heartbeat() {
        let row = run_scale_row(64, 4, 2, 9);
        assert_eq!(row.heartbeats + row.lost, 64 * 4);
        assert_eq!(row.threads, row.shards);
        assert!(row.wall_ms > 0.0);
        assert!(row.us_per_source_cycle > 0.0);
        assert!(row.cycles_per_sec > 0.0);
    }

    #[test]
    fn scale_rows_are_shard_invariant() {
        let one = run_scale_row(96, 4, 1, 7);
        let three = run_scale_row(96, 4, 3, 7);
        assert_eq!(one.digest, three.digest, "digest diverged across shards");
        assert_eq!(one.events, three.events);
        assert_eq!(one.mistakes, three.mistakes);
        assert!(one.events > 0, "workload emitted no edges");
    }

    #[test]
    fn cycle_benchmark_paths_agree_on_state() {
        // Tiny benchmark: the point here is that both paths run and the
        // ratio is finite, not the absolute numbers.
        let bench = cycle_benchmark(32, 4, 2);
        assert!(bench.detector_bank_ms > 0.0);
        assert!(bench.source_bank_ms > 0.0);
        assert!(bench.speedup.is_finite());
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let rows = vec![run_scale_row(16, 2, 1, 1)];
        let bench = cycle_benchmark(8, 2, 1);
        let sweep = sweep_benchmark(64, 2);
        let doc = render_json(&rows, &bench, &sweep, 1, 1);
        assert!(doc.starts_with('{') && doc.trim_end().ends_with('}'));
        assert_eq!(doc.matches("\"sources\"").count(), 3);
        assert!(doc.contains("\"pr1_baseline_ms\": 15.0"));
        assert!(doc.contains("\"threads\""));
        assert!(doc.contains("\"rss_per_source_bytes\""));
        assert!(doc.contains("\"deadline_sweep\""));
        assert!(doc.contains("\"lane_ms\""));
        assert!(!doc.contains("scalar_ms"), "the scalar twin is retired");
        // Balanced braces (no serde_json to parse it for us).
        let open = doc.matches('{').count();
        let close = doc.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn sweep_benchmark_measures_the_sweep() {
        let sweep = sweep_benchmark(256, 4);
        assert_eq!((sweep.sources, sweep.sweeps), (256, 4));
        assert!(sweep.lane_ms > 0.0);
    }
}
