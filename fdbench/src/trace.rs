//! The traced run: the 56 per-layer metrics of one workload, measured
//! **from outside** the program by timing calls into its public functions.
//!
//! * The three `ShardedEngine` workloads and `serve_live` run the
//!   [`replica`](crate::replica) of the shard loop with spans on, after
//!   checking that it produces the engine's digest and counts.
//! * `paper_qos` and the serve path keep their loops inside the program,
//!   so the inputs crossing each layer boundary are recorded in an untimed
//!   pass and replayed into that layer's public function.
//!
//! A layer the workload never enters reports 0 for its metrics. Spans are
//! kept in memory and written to `trace-<workload>.json` when the run
//! ends.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::UdpSocket;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use fd_arima::{ArimaModel, ArimaSpec, OnlineArima};
use fd_core::{all_combinations, DetectorBank, SourceBank};
use fd_experiments::qos::run_qos_single;
use fd_net::{DelayTrace, WanProfile};
use fd_runtime::sharded::{ShardedConfig, ShardedEngine};
use fd_serve::{respond, Request, Response, ServeStats, SuspectView};
use fd_sim::{SeedTree, SimTime};
use fd_stat::{accumulate_metrics, EventKind, EventLog};

use crate::affinity;
use crate::replica::{self, names, PublishProbe, ReplicaRun};
use crate::span::{LayerTime, Recorder};
use crate::spec::{Sizes, Workload, LAYER_METRICS};
use crate::stats::{self, Quartiles};
use crate::workload::{
    self, Bench, Check, Query, QuerySide, ServeLive, ServeRead, CLIENTS, QUERY_TIMEOUT, RANGE_WORDS,
};

/// Alternations of engine and replica behind `replica_ratio`, and repeats
/// behind every median of this module.
const ROUNDS: usize = 5;

/// A round trip slower than this took the server's sleeping path.
const SLOW_PATH_NS: u32 = 100_000;

/// What a traced run measured.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// One line on what ran.
    pub description: String,
    /// One value per entry of [`LAYER_METRICS`], in its order.
    pub values: Vec<f64>,
    /// The trust checks of the traced run.
    pub checks: Vec<Check>,
    /// Where the spans were written.
    pub span_file: PathBuf,
    /// Operations the traced pass attempted.
    pub attempted: u64,
}

/// The per-layer values of one traced run, by metric name.
#[derive(Debug, Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            LAYER_METRICS.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    /// One value per [`LAYER_METRICS`] entry; 0 for a layer never entered.
    fn in_report_order(&self) -> Vec<f64> {
        LAYER_METRICS
            .iter()
            .map(|m| self.0.get(m.name).copied().unwrap_or(0.0))
            .collect()
    }
}

fn median(samples: &[f64]) -> f64 {
    Quartiles::of(samples).median
}

/// Median wall time of `ROUNDS` calls of `f`, milliseconds.
fn median_ms<R>(mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// `target/fdbench/trace-<workload>.json` beside the running executable's
/// profile directory (`<target>/release/fdbench` → `<target>/fdbench/`).
fn span_path(workload: Workload) -> PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("target"));
    target
        .join("fdbench")
        .join(format!("trace-{}.json", workload.name()))
}

/// Runs the traced pass of `workload`.
pub fn run(workload: Workload, seed: u64, sizes: Sizes) -> Result<TraceReport, String> {
    let mut values = Values::default();
    let mut checks = Vec::new();
    let mut recorder = Recorder::new();
    let mut traced = || match workload {
        Workload::PaperQos => paper_qos(seed, sizes, &mut values, &mut checks, &mut recorder),
        Workload::ServeRead => serve_read(seed, sizes, &mut values, &mut checks, &mut recorder),
        _ => sharded(
            workload,
            seed,
            sizes,
            &mut values,
            &mut checks,
            &mut recorder,
        ),
    };
    // Pinned like the untraced run of the same workload.
    let (description, attempted) = if workload.single_threaded() {
        affinity::on_cpu(0, traced)
    } else {
        traced()
    };
    let span_file = span_path(workload);
    recorder
        .write_file(&span_file)
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;
    Ok(TraceReport {
        description,
        values: values.in_report_order(),
        checks,
        span_file,
        attempted,
    })
}

// ---------------------------------------------------------------- paper_qos

fn paper_qos(
    seed: u64,
    sizes: Sizes,
    values: &mut Values,
    checks: &mut Vec<Check>,
    rec: &mut Recorder,
) -> (String, u64) {
    let profile = WanProfile::italy_japan();
    let params = workload::paper_params(sizes, seed);
    let cycles = params.num_cycles;
    let root = rec.open("fdbench.trace.paper_qos", None);

    // The real run, spanned from outside, against the same run unspanned.
    let plain_ms = median_ms(|| run_qos_single(&profile, &params, 0));
    let mut traced_ms = Vec::with_capacity(ROUNDS);
    let mut last = None;
    for _ in 0..ROUNDS {
        let span = rec.open("fd-runtime.sim_engine.run", Some(root));
        let out = run_qos_single(&profile, &params, 0);
        rec.close(span);
        let s = &rec.spans()[span as usize];
        traced_ms.push((s.end_ns - s.start_ns) as f64 / 1e6);
        last = Some(out);
    }
    let run_ms = median(&traced_ms);
    let (log, run_end, labels) = last.expect("ROUNDS is at least 1");
    values.set("fd-runtime.sim_engine.run_ms", run_ms);
    values.set("fdbench.trace_overhead_frac", run_ms / plain_ms - 1.0);

    // fd-net: the run's own link (same seed path), one transmit per cycle.
    let mut link = profile.link(SeedTree::new(params.seed).subtree("run-0").rng("link"));
    let t0 = rec.now_ns();
    for k in 0..cycles {
        black_box(link.transmit(SimTime::ZERO + params.eta * k));
    }
    let t1 = rec.now_ns();
    rec.push("fd-net.link.transmit", t0, t1, Some(root), cycles);
    let link_ns = (t1 - t0) as f64;
    values.set("fd-net.link.transmit_ns", link_ns / cycles as f64);
    values.set("fd-net.link.transmit_count", cycles as f64);

    // fd-arima: fits on windows of a recorded delay series, and the online
    // forecaster replayed over it.
    let series = DelayTrace::record(&profile, cycles as usize, params.eta, seed).delays_ms();
    let spec = ArimaSpec::new(2, 1, 1);
    for (name, window) in [
        ("fd-arima.fit_300_ms", 300),
        ("fd-arima.fit_1000_ms", 1_000),
        ("fd-arima.fit_3000_ms", 3_000),
    ] {
        if series.len() >= window {
            values.set(name, median_ms(|| ArimaModel::fit(&series[..window], spec)));
        }
    }
    let mut online = OnlineArima::new(spec, 1_000);
    let (mut observe_ns, mut observes) = (0u64, 0u64);
    let arima_start = rec.now_ns();
    for &x in &series {
        let fits = online.refits() + online.failed_fits();
        let t0 = rec.now_ns();
        online.observe(x);
        let t1 = rec.now_ns();
        if online.refits() + online.failed_fits() == fits {
            observe_ns += t1 - t0;
            observes += 1;
        }
    }
    rec.push(
        "fd-arima.online.observe",
        arima_start,
        arima_start + observe_ns,
        Some(root),
        observes,
    );
    values.set(
        "fd-arima.observe_ns",
        observe_ns as f64 / observes.max(1) as f64,
    );

    // fd-core: the bank the monitor runs, replayed over the recorded
    // arrivals; an observe during which the ARIMA predictor refitted is
    // counted as fit time, not bank time.
    let arrivals: Vec<(u64, SimTime)> = log
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::Received { seq } => Some((seq, e.at)),
            _ => None,
        })
        .collect();
    let mut bank = DetectorBank::new(&all_combinations(), params.eta);
    let bank_fits = |bank: &DetectorBank| -> usize {
        bank.predictor_states()
            .iter()
            .filter_map(|p| p.as_arima())
            .map(|a| a.inner().refits() + a.inner().failed_fits())
            .sum()
    };
    let (mut check_ns, mut obs_ns, mut fit_ns, mut fits) = (0u64, 0u64, 0u64, 0u64);
    let bank_start = rec.now_ns();
    for &(seq, at) in &arrivals {
        let before = bank_fits(&bank);
        let t0 = rec.now_ns();
        black_box(bank.check_at(at).len());
        let t1 = rec.now_ns();
        bank.observe_heartbeat(seq, at);
        let t2 = rec.now_ns();
        check_ns += t1 - t0;
        if bank_fits(&bank) == before {
            obs_ns += t2 - t1;
        } else {
            fit_ns += t2 - t1;
            fits += 1;
        }
    }
    let n = arrivals.len() as u64;
    let replay = rec.push(
        "fdbench.replay.detector_bank",
        bank_start,
        rec.now_ns(),
        Some(root),
        1,
    );
    rec.push_aggregates(
        replay,
        bank_start,
        &[
            ("fd-core.detector_bank.check_at", check_ns, n),
            ("fd-core.detector_bank.observe", obs_ns, n - fits),
            ("fd-arima.model.fit", fit_ns, fits),
        ],
    );
    values.set(
        "fd-core.detector_bank.observe_ns",
        obs_ns as f64 / (n - fits).max(1) as f64,
    );
    values.set(
        "fd-core.detector_bank.check_ns",
        check_ns as f64 / n.max(1) as f64,
    );
    values.set("fd-arima.fit_count", fits as f64);
    values.set("fd-arima.fit_busy_frac", fit_ns as f64 / (run_ms * 1e6));
    checks.push(Check::new(
        "the replayed bank saw every recorded arrival",
        bank.heartbeats() + bank.stale_heartbeats() == n,
    ));

    // fd-stat: the run's event log re-recorded, and its metrics extracted.
    let mut copy = EventLog::with_capacity(log.len());
    let t0 = rec.now_ns();
    for e in &log {
        copy.record(e.at, e.process, e.kind);
    }
    let t1 = rec.now_ns();
    rec.push(
        "fd-stat.event_log.record",
        t0,
        t1,
        Some(root),
        log.len() as u64,
    );
    let record_ns = (t1 - t0) as f64;
    values.set(
        "fd-stat.event_log.record_ns",
        record_ns / log.len().max(1) as f64,
    );
    values.set(
        "fd-stat.accumulate_metrics_ms",
        median_ms(|| accumulate_metrics(&copy, labels.len(), run_end)),
    );

    let replayed = link_ns + (check_ns + obs_ns + fit_ns) as f64 + record_ns;
    values.set(
        "fd-runtime.sim_engine.unattributed_frac",
        1.0 - replayed / (run_ms * 1e6),
    );
    rec.close(root);
    (
        format!(
            "paper_qos traced: run 0 of {} cycles spanned from outside; link, ARIMA, DetectorBank and EventLog replayed from its recorded inputs",
            cycles
        ),
        cycles,
    )
}

// ------------------------------------------- the four replica-traced workloads

/// Busy time, self time and calls of the spans named `name`; zero if the
/// run has none.
fn layer(by: &BTreeMap<&'static str, LayerTime>, name: &str) -> LayerTime {
    by.get(name).copied().unwrap_or_default()
}

fn sharded(
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    values: &mut Values,
    checks: &mut Vec<Check>,
    rec: &mut Recorder,
) -> (String, u64) {
    let cfg = workload::engine_config(workload, sizes, seed);
    let engine = ShardedEngine::new(cfg.clone());

    // Trust first: engine and untraced replica, alternately; the fastest
    // run of each is compared, because a disturbed run says nothing about
    // either.
    let (mut engine_ms, mut replica_ms) = (f64::MAX, f64::MAX);
    let mut report = engine.run();
    let mut plain = replica::run::<false>(&cfg, None);
    for _ in 0..ROUNDS {
        let started = Instant::now();
        report = engine.run();
        engine_ms = engine_ms.min(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        plain = replica::run::<false>(&cfg, None);
        replica_ms = replica_ms.min(started.elapsed().as_secs_f64() * 1e3);
    }
    let ratio = replica_ms / engine_ms;
    checks.push(Check::new(
        "untraced replica: digest, heartbeat and edge counts equal ShardedEngine::run's",
        plain.matches(&report),
    ));
    checks.push(Check::new(
        format!("replica_ratio {ratio:.3} within 0.75 .. 1.25"),
        (0.75..=1.25).contains(&ratio),
    ));
    values.set("fd-runtime.sharded.run_ms", engine_ms);
    values.set("fd-runtime.sharded.replica_ratio", ratio);
    values.set("fd-runtime.sharded.shard_skew", plain.shard_skew());
    values.set(
        "fd-runtime.sharded.edges_per_heartbeat",
        (report.start_suspects + report.end_suspects) as f64 / report.heartbeats as f64,
    );

    // serve_live: the real thing once, for the serve-side numbers and the
    // epoch count the replica's publish probe is paced by.
    let live = (workload == Workload::ServeLive).then(|| {
        let mut bench = ServeLive::new(sizes, seed);
        bench.repeat();
        let repeat = bench.repeat();
        let side = repeat.queries.clone().expect("serve_live has a query side");
        serve_side(values, &side);
        if let Some(view) = bench.last_view() {
            view_replays(values, view, bench.lists(), &side, rec);
        }
        side
    });
    let events: u64 = plain.shards.iter().map(|s| s.events).sum();
    let probe = live.as_ref().map(|side| PublishProbe {
        view: SuspectView::for_engine(cfg.combos.len(), cfg.sources, cfg.shards),
        every_events: (events / side.epochs.max(1)).max(1),
    });

    let traced = replica::run::<true>(&cfg, probe.as_ref());
    checks.push(Check::new(
        "traced replica: digest, heartbeat and edge counts equal ShardedEngine::run's",
        traced.matches(&report),
    ));
    replica_layers(values, checks, &traced, &cfg);
    values.set(
        "fdbench.trace_overhead_frac",
        traced.wall_ns as f64 / (replica_ms * 1e6) - 1.0,
    );
    // A ShardedEngine source refits its ARIMA like any OnlineArima: count
    // the fits one makes over `cycles` observations.
    let mut online = OnlineArima::new(ArimaSpec::new(2, 1, 1), 1_000);
    for i in 0..cfg.cycles {
        online.observe(100.0 + (i % 7) as f64);
    }
    values.set(
        "fd-arima.fit_count",
        ((online.refits() + online.failed_fits()) * cfg.sources) as f64,
    );

    bank_probes(values, &traced, &cfg);
    if probe.is_some() {
        publish_probes(values, &traced, &cfg);
    }
    if workload == Workload::ScaleSupervised {
        supervised(values, checks, &engine, engine_ms, sizes);
    }

    let description = format!(
        "{} traced: replica of the shard loop, {} sources x {} cycles, {} shards, {} spans",
        workload.name(),
        cfg.sources,
        cfg.cycles,
        cfg.shards,
        traced.recorder.spans().len()
    );
    rec.absorb(traced.recorder, None);
    (description, cfg.sources as u64 * cfg.cycles)
}

fn replica_layers(
    values: &mut Values,
    checks: &mut Vec<Check>,
    traced: &ReplicaRun,
    cfg: &ShardedConfig,
) {
    let by = traced.recorder.by_name();
    let per_call = |name: &str| layer(&by, name).self_ns_per_call();
    let count = |name: &str| layer(&by, name).count as f64;

    let draw = layer(&by, names::RNG_DRAW);
    values.set("fd-sim.rng.draw_count", 3.0 * draw.count as f64);
    values.set(
        "fd-sim.rng.draw_ns",
        draw.busy_ns as f64 / (3.0 * draw.count as f64),
    );
    let (pop, push) = (layer(&by, names::QUEUE_POP), layer(&by, names::QUEUE_PUSH));
    values.set("fd-sim.queue.ops_count", (pop.count + push.count) as f64);
    values.set(
        "fd-sim.queue.push_pop_ns",
        (pop.busy_ns + push.busy_ns) as f64 / (pop.count + push.count) as f64,
    );
    values.set(
        "fd-sim.queue.peak_pending",
        traced
            .shards
            .iter()
            .map(|s| s.peak_pending)
            .max()
            .unwrap_or(0) as f64,
    );

    values.set("fd-core.source_bank.observe_ns", per_call(names::OBSERVE));
    values.set("fd-core.source_bank.observe_count", count(names::OBSERVE));
    values.set(
        "fd-core.source_bank.check_source_ns",
        per_call(names::CHECK),
    );
    values.set(
        "fd-core.source_bank.check_source_count",
        count(names::CHECK),
    );
    let fired: u64 = traced.shards.iter().map(|s| s.checks_fired).sum();
    values.set(
        "fd-core.source_bank.check_fired_frac",
        fired as f64 / count(names::CHECK),
    );
    values.set(
        "fd-core.source_bank.next_wakeup_ns",
        per_call(names::WAKEUP),
    );
    values.set(
        "fd-core.source_bank.new_ms",
        layer(&by, names::BANK_NEW).busy_ns as f64 / 1e6,
    );
    values.set("fd-stat.sink.edge_ns", per_call(names::SINK_EDGE));
    values.set("fd-stat.sink.edge_count", count(names::SINK_EDGE));
    values.set(
        "fd-stat.sink.finish_ms",
        layer(&by, names::SINK_FINISH).busy_ns as f64 / 1e6,
    );
    values.set("fd-runtime.digest.fold_ns", per_call(names::DIGEST_FOLD));

    // What the shards did outside every layer span: loop and bookkeeping.
    let shard = layer(&by, names::SHARD);
    let unattributed =
        (shard.self_ns + layer(&by, names::SLICE).self_ns) as f64 / shard.busy_ns as f64;
    values.set("fd-runtime.sharded.unattributed_frac", unattributed);
    checks.push(Check::new(
        format!(
            "attributed busy time {:.1} % of replica wall is at least 80 %",
            100.0 * (1.0 - unattributed)
        ),
        unattributed <= 0.20,
    ));
    checks.push(Check::new(
        "replica drew three random numbers per heartbeat drawn",
        draw.count == cfg.sources as u64 * cfg.cycles,
    ));
}

/// `snapshot_bytes` / `restore_bytes` on the banks the replica warmed, at
/// the workload's shard size: the checkpoint cost of `scale_supervised`.
fn bank_probes(values: &mut Values, traced: &ReplicaRun, cfg: &ShardedConfig) {
    let shards = traced.shards.len() as f64;
    let (mut snapshot_ms, mut restore_ms, mut bytes) = (0.0, 0.0, 0usize);
    for shard in &traced.shards {
        snapshot_ms += median_ms(|| shard.bank.snapshot_bytes());
        let image = shard.bank.snapshot_bytes();
        bytes += image.len();
        restore_ms += median_ms(|| {
            let mut fresh = SourceBank::new(&cfg.combos, cfg.eta, shard.bank.sources());
            fresh.restore_bytes(&image).expect("a fresh image restores");
            fresh
        });
    }
    values.set("fd-core.source_bank.snapshot_ms", snapshot_ms / shards);
    values.set("fd-core.source_bank.restore_ms", restore_ms / shards);
    values.set(
        "fd-core.source_bank.snapshot_bytes_per_source",
        bytes as f64 / cfg.sources as f64,
    );
}

/// `publish_dirty` as the replica paced it, and a full `publish` of the
/// final banks into a second private view.
fn publish_probes(values: &mut Values, traced: &ReplicaRun, cfg: &ShardedConfig) {
    let by = traced.recorder.by_name();
    let dirty = layer(&by, names::PUBLISH_DIRTY);
    values.set(
        "fd-serve.view.publish_dirty_us",
        dirty.busy_ns as f64 / dirty.count.max(1) as f64 / 1e3,
    );
    let view = SuspectView::for_engine(cfg.combos.len(), cfg.sources, cfg.shards);
    let mut full_us = 0.0;
    for (s, shard) in traced.shards.iter().enumerate() {
        let mut writer = view.writer(s);
        full_us += 1e3 * median_ms(|| writer.publish(&shard.bank, SimTime::ZERO));
    }
    values.set(
        "fd-serve.view.publish_full_us",
        full_us / traced.shards.len() as f64,
    );
}

fn supervised(
    values: &mut Values,
    checks: &mut Vec<Check>,
    engine: &ShardedEngine,
    unsupervised_ms: f64,
    sizes: Sizes,
) {
    let sup = workload::supervision(sizes);
    let mut report = None;
    let supervised_ms = median_ms(|| {
        report = Some(workload::quiet_injected_faults(|| {
            engine.run_supervised(&sup)
        }));
    });
    let report = report.expect("ROUNDS is at least 1");
    let sum = |f: &dyn Fn(&fd_runtime::sharded::ShardStatus) -> u64| -> f64 {
        report.shard_status.iter().map(f).sum::<u64>() as f64
    };
    values.set(
        "fd-runtime.supervisor.overhead_x",
        supervised_ms / unsupervised_ms,
    );
    values.set(
        "fd-runtime.supervisor.replayed_events",
        sum(&|s| s.replayed_events),
    );
    values.set(
        "fd-runtime.supervisor.warm_restores",
        sum(&|s| u64::from(s.warm_restores)),
    );
    checks.push(Check::new(
        "supervised run restored warm twice and lost no shard",
        sum(&|s| u64::from(s.warm_restores)) == 2.0 && report.shard_status.iter().all(|s| !s.dead),
    ));
}

// ----------------------------------------------------------------- serve path

/// The serve-side numbers read off a real repeat.
fn serve_side(values: &mut Values, side: &QuerySide) {
    let answered = side.rtt_ns.len().max(1) as f64;
    let slow = side.rtt_ns.iter().filter(|&&ns| ns > SLOW_PATH_NS).count();
    values.set("fd-serve.server.slow_path_frac", slow as f64 / answered);
    values.set("fd-serve.view.publish_count", side.epochs as f64);
    values.set(
        "fd-serve.view.torn_retry_frac",
        side.torn_retries as f64 / answered,
    );
    let mut ages = side.age_us.clone();
    ages.sort_unstable();
    if !ages.is_empty() {
        values.set(
            "fd-serve.view.age_p99_us",
            f64::from(stats::percentile_sorted(&ages, 99.0)),
        );
    }
    values.set(
        "fd-serve.stats.error_count",
        (side.server_errors + side.failed) as f64,
    );
}

/// The request `ServeClient` would send for `q`.
fn request(token: u32, q: Query) -> Request {
    if q.range {
        Request::Range {
            token,
            combo: q.combo,
            first_source: q.source,
            max_words: RANGE_WORDS,
        }
    } else {
        Request::Point {
            token,
            source: q.source,
            combo: q.combo,
        }
    }
}

/// Replays the recorded request frames through the codec, the view and
/// `respond`, each as one aggregate span, and derives `wait_frac` from the
/// mean round trip of the real repeat.
fn view_replays(
    values: &mut Values,
    view: &Arc<SuspectView>,
    lists: &[Vec<Query>],
    side: &QuerySide,
    rec: &mut Recorder,
) {
    let root = rec.open("fdbench.replay.serve", None);
    let queries: Vec<Query> = lists.iter().flatten().copied().take(1 << 16).collect();
    let n = queries.len() as u64;
    let requests: Vec<Request> = queries
        .iter()
        .enumerate()
        .map(|(i, &q)| request(i as u32 + 1, q))
        .collect();

    let mut span = |name: &'static str, count: u64, f: &mut dyn FnMut()| -> f64 {
        let t0 = rec.now_ns();
        f();
        let t1 = rec.now_ns();
        rec.push(name, t0, t1, Some(root), count);
        (t1 - t0) as f64 / count.max(1) as f64
    };

    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(requests.len());
    let encode_ns = span("fd-serve.wire.request_encode", n, &mut || {
        frames.extend(requests.iter().map(|r| r.encode()));
    });
    let decode_ns = span("fd-serve.wire.request_decode", n, &mut || {
        for f in &frames {
            black_box(Request::decode(f).is_ok());
        }
    });
    values.set("fd-serve.wire.request_codec_ns", encode_ns + decode_ns);

    let stats = ServeStats::default();
    let mut answers: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let respond_ns = span("fd-serve.server.respond", n, &mut || {
        answers.extend(frames.iter().filter_map(|f| respond(view, &stats, f)));
    });
    values.set("fd-serve.server.respond_ns", respond_ns);

    let mut decoded: Vec<Response> = Vec::with_capacity(answers.len());
    let resp_decode_ns = span("fd-serve.wire.response_decode", n, &mut || {
        decoded.extend(answers.iter().filter_map(|a| Response::decode(a).ok()));
    });
    let resp_encode_ns = span("fd-serve.wire.response_encode", n, &mut || {
        for r in &decoded {
            black_box(r.encode().len());
        }
    });
    values.set(
        "fd-serve.wire.response_codec_ns",
        resp_decode_ns + resp_encode_ns,
    );

    values.set(
        "fd-serve.view.point_ns",
        span("fd-serve.view.point", n, &mut || {
            for q in &queries {
                black_box(view.point(q.source, u32::from(q.combo)).is_some());
            }
        }),
    );
    values.set(
        "fd-serve.view.range_ns",
        span("fd-serve.view.range", n, &mut || {
            for q in &queries {
                black_box(
                    view.range(u32::from(q.combo), q.source, usize::from(RANGE_WORDS))
                        .is_some(),
                );
            }
        }),
    );
    values.set(
        "fd-serve.view.delta_since_ns",
        span("fd-serve.view.delta_since", n, &mut || {
            for (i, _) in queries.iter().enumerate() {
                let seg = i % view.segments();
                black_box(
                    view.delta_since(seg, view.epoch(seg).saturating_sub(1))
                        .is_some(),
                );
            }
        }),
    );
    rec.close(root);

    let mean_rtt =
        side.rtt_ns.iter().map(|&ns| f64::from(ns)).sum::<f64>() / side.rtt_ns.len().max(1) as f64;
    values.set(
        "fd-serve.server.wait_frac",
        1.0 - (respond_ns + encode_ns + decode_ns + resp_decode_ns + resp_encode_ns) / mean_rtt,
    );
}

/// One traced closed-loop client: the request path of `ServeClient`
/// written out against the public codec, with the round trip split into
/// encode, send + receive, and decode. Returns the queries answered and
/// the sum of their round trips, nanoseconds.
fn traced_client(
    server: std::net::SocketAddr,
    list: &[Query],
    rec: &mut Recorder,
    parent: u32,
) -> (u64, f64) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind a loopback client socket");
    socket
        .set_read_timeout(Some(QUERY_TIMEOUT))
        .expect("set a read timeout");
    let mut buf = vec![0u8; 65_536];
    let (mut answered, mut rtt_sum) = (0u64, 0u64);
    for chunk in list.chunks(replica::SLICE_EVENTS as usize) {
        let slice_start = rec.now_ns();
        let (mut encode, mut wire, mut decode, mut n) = (0u64, 0u64, 0u64, 0u64);
        for (i, q) in chunk.iter().enumerate() {
            let token = (answered + i as u64 + 1) as u32;
            let req = request(token, *q);
            let t0 = rec.now_ns();
            let frame = req.encode();
            let t1 = rec.now_ns();
            let len = match socket
                .send_to(&frame, server)
                .and_then(|_| socket.recv_from(&mut buf))
            {
                Ok((len, _)) => len,
                Err(_) => continue,
            };
            let t2 = rec.now_ns();
            let ok = Response::decode(&buf[..len]).is_ok_and(|r| r.token() == token);
            let t3 = rec.now_ns();
            if ok {
                encode += t1 - t0;
                wire += t2 - t1;
                decode += t3 - t2;
                n += 1;
            }
        }
        let busy = encode + wire + decode;
        let rtt = rec.push(
            "fdbench.query.rtt",
            slice_start,
            slice_start + busy,
            Some(parent),
            n,
        );
        rec.push_aggregates(
            rtt,
            slice_start,
            &[
                ("fd-serve.wire.request_encode", encode, n),
                ("fdbench.query.send_recv", wire, n),
                ("fd-serve.wire.response_decode", decode, n),
            ],
        );
        answered += n;
        rtt_sum += busy;
    }
    (answered, rtt_sum as f64)
}

fn serve_read(
    seed: u64,
    sizes: Sizes,
    values: &mut Values,
    checks: &mut Vec<Check>,
    rec: &mut Recorder,
) -> (String, u64) {
    let mut bench = ServeRead::new(sizes, seed);
    bench.repeat();
    let repeat = bench.repeat();
    let side = repeat.queries.expect("serve_read has a query side");
    serve_side(values, &side);
    view_replays(values, &bench.view, &bench.lists, &side, rec);

    // The closed loop again with spans on, two clients like the real one.
    let root = rec.open("fdbench.trace.serve_read", None);
    let origin = rec.origin();
    let outs: Vec<(u64, f64, Recorder)> = workload::on_serving_core(|| {
        let server = workload::start_server(&bench.view);
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            let handles: Vec<_> = bench
                .lists
                .iter()
                .map(|list| {
                    scope.spawn(move || {
                        let mut mine = Recorder::with_origin(origin);
                        let client = mine.open("fdbench.query.client", None);
                        let (answered, rtt_sum) = traced_client(addr, list, &mut mine, client);
                        mine.close(client);
                        (answered, rtt_sum, mine)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("traced client panicked"))
                .collect()
        })
    });
    rec.close(root);
    let (mut answered, mut rtt_sum) = (0u64, 0.0);
    for (n, sum, spans) in outs {
        answered += n;
        rtt_sum += sum;
        rec.absorb(spans, Some(root));
    }
    let sent = (CLIENTS * bench.lists[0].len()) as u64;
    checks.push(Check::new(
        "every traced query was answered with its own token",
        answered == sent,
    ));
    let untraced_mean =
        side.rtt_ns.iter().map(|&ns| f64::from(ns)).sum::<f64>() / side.rtt_ns.len().max(1) as f64;
    values.set(
        "fdbench.trace_overhead_frac",
        rtt_sum / answered.max(1) as f64 / untraced_mean - 1.0,
    );
    (
        format!(
            "serve_read traced: {} recorded request frames replayed through codec, view and respond; {CLIENTS} traced closed-loop clients x {} queries",
            1usize << 16,
            bench.lists[0].len()
        ),
        sent,
    )
}
