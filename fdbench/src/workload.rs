//! The six workloads. Each is built from `(sizes, seed)` alone — the
//! program under test receives only the generated inputs — and exposes one
//! operation: run a repeat and say what it did.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use fd_experiments::config::ExperimentParams;
use fd_experiments::qos::run_qos_single;
use fd_net::WanProfile;
use fd_runtime::sharded::{
    PublishCadence, ShardFault, ShardFaultKind, ShardedConfig, ShardedEngine, ShardedReport,
    SupervisionConfig,
};
use fd_runtime::RestartMode;
use fd_serve::wire::{FLAG_PUBLISHED, FLAG_SUSPECTING};
use fd_serve::{EnginePublisher, Response, ServeClient, ServeConfig, ServeServer, SuspectView};
use fd_sim::SimDuration;
use fd_stat::{accumulate_metrics, EventKind, QosMetrics};

use crate::affinity;
use crate::spec::{Sizes, Workload};

/// What one timed repeat did.
#[derive(Debug, Clone, Default)]
pub struct Repeat {
    /// Digest of the run (pooled-QoS fingerprint for `paper_qos`); equal
    /// on every repeat of one `(workload, seed)`.
    pub fingerprint: u64,
    /// The engine side, where the workload has one.
    pub engine: Option<EngineSide>,
    /// The query side, where the workload has one.
    pub queries: Option<QuerySide>,
}

/// Heartbeats of a repeat.
#[derive(Debug, Clone, Copy)]
pub struct EngineSide {
    /// Heartbeats drawn: delivered plus lost, a deterministic count.
    pub drawn: u64,
    /// Heartbeats the configuration says must have been drawn.
    pub expected: u64,
    /// Wall time of the engine run, seconds.
    pub wall_s: f64,
}

/// Queries of a repeat, all clients pooled.
#[derive(Debug, Clone, Default)]
pub struct QuerySide {
    /// Queries sent.
    pub attempted: u64,
    /// Timeouts, `Err` replies, and sampled bits that disagree with a
    /// direct `view.point()`.
    pub failed: u64,
    /// Wall time of the closed loop (slowest client), seconds.
    pub wall_s: f64,
    /// Client-observed round trip of every answered query, nanoseconds.
    pub rtt_ns: Vec<u32>,
    /// `age_us` of every `PointResp` carrying `FLAG_PUBLISHED`.
    pub age_us: Vec<u32>,
    /// `ServeStats` errors + malformed + socket errors after the repeat.
    pub server_errors: u64,
    /// Publication epochs of the view, all segments.
    pub epochs: u64,
    /// Seqlock read retries of the view.
    pub torn_retries: u64,
}

/// One correctness check of a workload.
#[derive(Debug, Clone)]
pub struct Check {
    /// What must hold.
    pub what: String,
    /// Whether it did.
    pub ok: bool,
}

impl Check {
    /// A named check.
    pub fn new(what: impl Into<String>, ok: bool) -> Check {
        Check {
            what: what.into(),
            ok,
        }
    }
}

/// A built workload.
pub trait Bench {
    /// Runs one repeat; the timing is inside the returned sides.
    fn repeat(&mut self) -> Repeat;

    /// The workload's own correctness checks, run untimed after the
    /// repeats (`last` is the final one).
    fn verify(&mut self, last: &Repeat) -> Vec<Check>;

    /// One line describing the sizes, for the output header.
    fn describe(&self) -> String;
}

/// Builds `workload` at `sizes` from `seed`.
pub fn build(workload: Workload, sizes: Sizes, seed: u64) -> Box<dyn Bench> {
    match workload {
        Workload::PaperQos => Box::new(PaperQos::new(sizes, seed)),
        Workload::ScaleWide | Workload::ScaleSteady | Workload::ScaleSupervised => {
            Box::new(Scale::new(workload, sizes, seed))
        }
        Workload::ServeRead => Box::new(ServeRead::new(sizes, seed)),
        Workload::ServeLive => Box::new(ServeLive::new(sizes, seed)),
    }
}

/// The `ShardedConfig` of a `ShardedEngine` workload: the paper grid with
/// 2 % loss and 2 % spikes (the `BENCH_scale` convention).
pub fn engine_config(workload: Workload, sizes: Sizes, seed: u64) -> ShardedConfig {
    let (sources, cycles, shards) = sizes.engine(workload);
    let mut cfg = ShardedConfig::paper_grid(sources, cycles, seed);
    cfg.shards = shards;
    cfg.loss = 0.02;
    cfg.spike_prob = 0.02;
    cfg
}

/// FNV-1a over a stream of words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash so far.
    pub fn value(self) -> u64 {
        self.0
    }
}

// ---------------------------------------------------------------- paper_qos

/// The parameters of the paper's experiment at `sizes`.
pub fn paper_params(sizes: Sizes, seed: u64) -> ExperimentParams {
    let secs = |full: u64, smoke: u64| {
        SimDuration::from_secs(if sizes == Sizes::FULL { full } else { smoke })
    };
    ExperimentParams {
        eta: SimDuration::from_secs(1),
        num_cycles: sizes.paper_cycles(),
        // Smoke keeps the crash rate per cycle of `ExperimentParams::quick`
        // so that its short runs still collect detection times.
        mttc: secs(300, 60),
        ttr: secs(30, 10),
        runs: sizes.paper_runs(),
        seed,
        include_nfd_baseline: false,
    }
}

struct PaperQos {
    profile: WanProfile,
    params: ExperimentParams,
    labels: Vec<String>,
    pooled: Vec<QosMetrics>,
}

impl PaperQos {
    fn new(sizes: Sizes, seed: u64) -> PaperQos {
        PaperQos {
            profile: WanProfile::italy_japan(),
            params: paper_params(sizes, seed),
            labels: Vec::new(),
            pooled: Vec::new(),
        }
    }
}

/// Fingerprint of pooled QoS samples: every sample's bits, in order.
pub fn qos_fingerprint(pooled: &[QosMetrics]) -> u64 {
    let mut h = Fnv::default();
    for m in pooled {
        for samples in [
            &m.detection_times_ms,
            &m.mistake_durations_ms,
            &m.mistake_recurrences_ms,
        ] {
            h.word(samples.len() as u64);
            for x in samples {
                h.word(x.to_bits());
            }
        }
        h.word(m.undetected_crashes as u64);
        h.word(m.total_crashes as u64);
    }
    h.value()
}

impl Bench for PaperQos {
    fn repeat(&mut self) -> Repeat {
        let started = Instant::now();
        let mut pooled: Vec<QosMetrics> = Vec::new();
        let mut sent = 0u64;
        for run in 0..self.params.runs {
            let (log, run_end, labels) = run_qos_single(&self.profile, &self.params, run);
            sent += log
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Sent { .. }))
                .count() as u64;
            let metrics = accumulate_metrics(&log, labels.len(), run_end);
            if pooled.is_empty() {
                pooled = metrics;
                self.labels = labels;
            } else {
                for (pool, m) in pooled.iter_mut().zip(&metrics) {
                    pool.merge(m);
                }
            }
        }
        let wall_s = started.elapsed().as_secs_f64();
        let fingerprint = qos_fingerprint(&pooled);
        self.pooled = pooled;
        Repeat {
            fingerprint,
            engine: Some(EngineSide {
                drawn: sent,
                expected: self.params.num_cycles * self.params.runs as u64,
                wall_s,
            }),
            queries: None,
        }
    }

    fn verify(&mut self, _last: &Repeat) -> Vec<Check> {
        vec![
            Check::new("30 detector labels", self.labels.len() == 30),
            Check::new(
                "every label has a T_D sample and P_A in [0, 1]",
                self.pooled.len() == self.labels.len()
                    && self.pooled.iter().all(|m| {
                        !m.detection_times_ms.is_empty()
                            && m.query_accuracy()
                                .is_some_and(|pa| (0.0..=1.0).contains(&pa))
                    }),
            ),
        ]
    }

    fn describe(&self) -> String {
        format!(
            "run_qos_single(italy_japan) x {} runs x {} cycles, eta 1 s, MTTC {} s, TTR {} s, one thread",
            self.params.runs,
            self.params.num_cycles,
            self.params.mttc.as_secs_f64(),
            self.params.ttr.as_secs_f64()
        )
    }
}

// ------------------------------------------------- scale_{wide,steady,supervised}

/// The supervision policy of `scale_supervised`: warm restarts, default
/// 10 000-event checkpoints, one `Crash` on shard 0 and one
/// `CheckpointThenCrash` on shard 1.
pub fn supervision(sizes: Sizes) -> SupervisionConfig {
    let (crash_after, ckpt_crash_after) = sizes.supervised_faults();
    let mut sup = SupervisionConfig::with_restart(RestartMode::Warm);
    sup.faults = vec![
        ShardFault {
            shard: 0,
            after_events: crash_after,
            kind: ShardFaultKind::Crash,
        },
        ShardFault {
            shard: 1,
            after_events: ckpt_crash_after,
            kind: ShardFaultKind::CheckpointThenCrash,
        },
    ];
    sup
}

/// Runs `f` with the panic messages of injected shard faults suppressed
/// (two backtraces per repeat otherwise); any other panic still reports
/// through the previous hook.
pub fn quiet_injected_faults<R>(f: impl FnOnce() -> R) -> R {
    let previous = Arc::new(std::panic::take_hook());
    let fallback = Arc::clone(&previous);
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.starts_with("injected shard fault"));
        if !injected {
            fallback(info);
        }
    }));
    let out = f();
    drop(std::panic::take_hook());
    if let Ok(hook) = Arc::try_unwrap(previous) {
        std::panic::set_hook(hook);
    }
    out
}

struct Scale {
    engine: ShardedEngine,
    supervision: Option<SupervisionConfig>,
    last_report: Option<ShardedReport>,
}

impl Scale {
    fn new(workload: Workload, sizes: Sizes, seed: u64) -> Scale {
        Scale {
            engine: ShardedEngine::new(engine_config(workload, sizes, seed)),
            supervision: (workload == Workload::ScaleSupervised).then(|| supervision(sizes)),
            last_report: None,
        }
    }
}

fn engine_side(cfg: &ShardedConfig, report: &ShardedReport, wall_s: f64) -> EngineSide {
    EngineSide {
        drawn: report.heartbeats + report.lost,
        expected: cfg.sources as u64 * cfg.cycles,
        wall_s,
    }
}

impl Bench for Scale {
    fn repeat(&mut self) -> Repeat {
        let started = Instant::now();
        let report = match &self.supervision {
            None => self.engine.run(),
            Some(sup) => quiet_injected_faults(|| self.engine.run_supervised(sup)),
        };
        let wall_s = started.elapsed().as_secs_f64();
        let repeat = Repeat {
            fingerprint: report.digest,
            engine: Some(engine_side(self.engine.config(), &report, wall_s)),
            queries: None,
        };
        self.last_report = Some(report);
        repeat
    }

    fn verify(&mut self, last: &Repeat) -> Vec<Check> {
        let Some(report) = &self.last_report else {
            return vec![Check::new("a repeat ran", false)];
        };
        if self.supervision.is_none() {
            return Vec::new();
        }
        let restores: u32 = report.shard_status.iter().map(|s| s.warm_restores).sum();
        vec![
            Check::new(
                "supervised digest equals the unsupervised run's",
                self.engine.run().digest == last.fingerprint,
            ),
            Check::new("two warm restores", restores == 2),
            Check::new("no dead shard", report.shard_status.iter().all(|s| !s.dead)),
        ]
    }

    fn describe(&self) -> String {
        let cfg = self.engine.config();
        let how = match &self.supervision {
            None => "ShardedEngine::run".to_string(),
            Some(sup) => format!(
                "run_supervised(warm, checkpoint every {} events, crash@{} on shard 0, checkpoint+crash@{} on shard 1)",
                sup.checkpoint_every_events, sup.faults[0].after_events, sup.faults[1].after_events
            ),
        };
        format!(
            "{how}, {} sources x {} cycles, {} shards, loss 0.02, spikes 0.02",
            cfg.sources, cfg.cycles, cfg.shards
        )
    }
}

// ------------------------------------------------------------ serve_{read,live}

/// Closed-loop clients of the serve workloads — at most `nproc` of them
/// on the 2-core host the sizes were frozen on. Two, not one: a lone
/// client's next request always finds a worker that has just polled an
/// empty socket and gone to sleep.
pub const CLIENTS: usize = 2;

/// One generated query: a point read, or every 64th a 16-word range read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Source asked about (first source of a range).
    pub source: u32,
    /// Combination asked about.
    pub combo: u16,
    /// Range read of [`RANGE_WORDS`] words instead of a point read.
    pub range: bool,
}

/// Words a range query asks for.
pub const RANGE_WORDS: u16 = 16;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The query list of client `client`: 63 point reads to 1 range read,
/// sources and combinations uniform, all from `seed`.
pub fn queries(seed: u64, client: usize, n: usize, sources: usize, combos: usize) -> Vec<Query> {
    let mut state = seed ^ (client as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93);
    (1..=n)
        .map(|i| {
            let r = splitmix(&mut state);
            Query {
                source: ((r >> 32) % sources as u64) as u32,
                combo: ((r & 0xffff_ffff) % combos as u64) as u16,
                range: i % 64 == 0,
            }
        })
        .collect()
}

/// A client's receive timeout: a query not answered by then has failed.
pub const QUERY_TIMEOUT: Duration = Duration::from_millis(250);

/// What one client saw.
#[derive(Debug, Default)]
struct ClientOut {
    attempted: u64,
    failed: u64,
    wall_s: f64,
    rtt_ns: Vec<u32>,
    age_us: Vec<u32>,
}

/// Sends one query and classifies the answer. `check` is handed the
/// suspicion bit of a point answer when the caller wants it compared.
fn ask(client: &mut ServeClient, q: Query, out: &mut ClientOut, check: Option<&SuspectView>) {
    out.attempted += 1;
    let sent = Instant::now();
    let resp = if q.range {
        client.range(q.combo, q.source, RANGE_WORDS)
    } else {
        client.point(q.source, q.combo)
    };
    let rtt = sent.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
    match resp {
        Ok(Response::PointResp { flags, age_us, .. }) if !q.range => {
            out.rtt_ns.push(rtt);
            if flags & FLAG_PUBLISHED != 0 {
                out.age_us.push(age_us.min(u64::from(u32::MAX)) as u32);
            }
            if let Some(view) = check {
                let direct = view.point(q.source, u32::from(q.combo));
                let served = flags & FLAG_SUSPECTING != 0;
                if direct.is_none_or(|d| d.suspecting != served) {
                    out.failed += 1;
                }
            }
        }
        Ok(Response::RangeResp { .. }) if q.range => out.rtt_ns.push(rtt),
        // A timeout, an `Err` reply, or an answer of the wrong kind.
        _ => out.failed += 1,
    }
}

/// Runs a repeat of a serve workload with every thread it starts — the
/// server's, the clients' and, in `serve_live`, the engine — on one CPU
/// (the second the process is allowed on, leaving the first to the rest
/// of the system).
///
/// Left to the scheduler on the two-vCPU sizing host, the serve plane
/// settles for seconds at a time into one of several regimes — clients in
/// step with the worker's 200 us sleep: 7 k queries/s; worker kept busy:
/// 20 k; everything on one busy CPU: 60 k — and an engine core beside a
/// serving core puts the slow path's share at 47–53 %, where no quantile
/// near the middle is steady and every fast-path round trip waits for a
/// halted vCPU to be woken by the host. On one CPU the kernel's own
/// scheduler decides everything and a run repeats within a few percent.
pub fn on_serving_core<R>(f: impl FnOnce() -> R) -> R {
    affinity::on_cpu(1, f)
}

fn connect(addr: SocketAddr) -> ServeClient {
    ServeClient::connect(addr, QUERY_TIMEOUT).expect("bind a loopback client socket")
}

fn server_errors(server: &ServeServer) -> u64 {
    let s = server.stats();
    s.errors.load(Ordering::Relaxed)
        + s.malformed.load(Ordering::Relaxed)
        + s.socket_errors.load(Ordering::Relaxed)
}

fn pool(outs: Vec<ClientOut>, server: &ServeServer, view: &SuspectView) -> QuerySide {
    let mut side = QuerySide {
        server_errors: server_errors(server),
        epochs: (0..view.segments()).map(|s| view.epoch(s)).sum(),
        torn_retries: view.torn_retries(),
        ..QuerySide::default()
    };
    for out in outs {
        side.attempted += out.attempted;
        side.failed += out.failed;
        side.wall_s = side.wall_s.max(out.wall_s);
        side.rtt_ns.extend(out.rtt_ns);
        side.age_us.extend(out.age_us);
    }
    side
}

/// The server of the serve workloads: one worker on a loopback port.
pub fn start_server(view: &Arc<SuspectView>) -> ServeServer {
    ServeServer::start(
        Arc::clone(view),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind the loopback serve socket")
}

/// `serve_read`: a view published once in set-up, one server worker, two
/// closed-loop clients.
pub struct ServeRead {
    cfg: ShardedConfig,
    /// The populated view.
    pub view: Arc<SuspectView>,
    /// Each client's query list.
    pub lists: Vec<Vec<Query>>,
    populate_digest: u64,
}

impl ServeRead {
    /// Populates the view with a short `run_published`.
    pub fn new(sizes: Sizes, seed: u64) -> ServeRead {
        let cfg = engine_config(Workload::ServeRead, sizes, seed);
        let view = SuspectView::for_engine(cfg.combos.len(), cfg.sources, cfg.shards);
        let publisher = EnginePublisher::new(&view);
        let report = ShardedEngine::new(cfg.clone()).run_published(cfg.eta, &publisher);
        let n = sizes.read_queries_per_client();
        let lists = (0..CLIENTS)
            .map(|c| queries(seed, c, n, cfg.sources, cfg.combos.len()))
            .collect();
        ServeRead {
            cfg,
            view,
            lists,
            populate_digest: report.digest,
        }
    }
}

impl Bench for ServeRead {
    fn repeat(&mut self) -> Repeat {
        // A fresh server and fresh clients per repeat, like `serve_live`;
        // starting them is not timed.
        let view = &self.view;
        let (outs, server) = on_serving_core(|| {
            let server = start_server(view);
            let addr = server.local_addr();
            let barrier = Barrier::new(CLIENTS);
            let outs: Vec<ClientOut> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .lists
                    .iter()
                    .map(|list| {
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let mut client = connect(addr);
                            let mut out = ClientOut {
                                rtt_ns: Vec::with_capacity(list.len()),
                                age_us: Vec::with_capacity(list.len()),
                                ..ClientOut::default()
                            };
                            barrier.wait();
                            let started = Instant::now();
                            for (i, &q) in list.iter().enumerate() {
                                // Nobody writes the view, so every 16th
                                // point answer is compared with a direct
                                // read.
                                ask(&mut client, q, &mut out, (i % 16 == 0).then_some(view));
                            }
                            out.wall_s = started.elapsed().as_secs_f64();
                            out
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("query client panicked"))
                    .collect()
            });
            (outs, server)
        });
        Repeat {
            fingerprint: self.populate_digest,
            engine: None,
            queries: Some(pool(outs, &server, &self.view)),
        }
    }

    fn verify(&mut self, _last: &Repeat) -> Vec<Check> {
        vec![Check::new(
            "every segment of the view was published",
            (0..self.view.segments()).all(|s| self.view.epoch(s) >= 1),
        )]
    }

    fn describe(&self) -> String {
        format!(
            "{} sources x {} combos published by run_published({} cycles, {} shards) in set-up; ServeServer 1 worker on loopback; {CLIENTS} closed-loop ServeClients x {} queries per repeat (63 point : 1 {RANGE_WORDS}-word range)",
            self.cfg.sources,
            self.cfg.combos.len(),
            self.cfg.cycles,
            self.cfg.shards,
            self.lists[0].len()
        )
    }
}

/// The publish cadence of `serve_live`: churn-adaptive, 1 ms floor,
/// 500 ms ceiling, 16 edges.
pub fn live_cadence() -> PublishCadence {
    PublishCadence::adaptive(
        SimDuration::from_millis(1),
        SimDuration::from_millis(500),
        16,
    )
}

/// `serve_live`: the engine publishes into the view while two closed-loop
/// clients query it, until the engine finishes.
pub struct ServeLive {
    engine: ShardedEngine,
    lists: Vec<Vec<Query>>,
    last: Option<(Arc<SuspectView>, ServeServer)>,
}

impl ServeLive {
    /// Generates the configuration and the query lists.
    pub fn new(sizes: Sizes, seed: u64) -> ServeLive {
        let cfg = engine_config(Workload::ServeLive, sizes, seed);
        let lists = (0..CLIENTS)
            .map(|c| queries(seed, c, 1 << 16, cfg.sources, cfg.combos.len()))
            .collect();
        ServeLive {
            engine: ShardedEngine::new(cfg),
            lists,
            last: None,
        }
    }
}

impl ServeLive {
    /// The view the last repeat served from.
    pub fn last_view(&self) -> Option<&Arc<SuspectView>> {
        self.last.as_ref().map(|(view, _)| view)
    }

    /// Each client's query list.
    pub fn lists(&self) -> &[Vec<Query>] {
        &self.lists
    }
}

impl Bench for ServeLive {
    fn repeat(&mut self) -> Repeat {
        let cfg = self.engine.config();
        // A view's writers can be claimed once, so every repeat gets a
        // fresh view, server and clients; none of that is timed.
        let view = SuspectView::for_engine(cfg.combos.len(), cfg.sources, cfg.shards);
        let publisher = EnginePublisher::new(&view);
        let done = AtomicBool::new(false);
        let barrier = Barrier::new(CLIENTS + 1);

        let (report, engine_wall_s, outs, server) = on_serving_core(|| {
            let server = start_server(&view);
            let addr = server.local_addr();
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .lists
                    .iter()
                    .map(|list| {
                        let (done, barrier, view) = (&done, &barrier, &view);
                        scope.spawn(move || {
                            let mut client = connect(addr);
                            let mut out = ClientOut::default();
                            barrier.wait();
                            // A range read of a segment that has not
                            // published yet is answered with `Err`: start
                            // asking once the engine has published.
                            while view.epoch(0) == 0 && !done.load(Ordering::Acquire) {
                                std::thread::sleep(Duration::from_micros(50));
                            }
                            let started = Instant::now();
                            for &q in list.iter().cycle() {
                                if done.load(Ordering::Acquire) {
                                    break;
                                }
                                ask(&mut client, q, &mut out, None);
                            }
                            out.wall_s = started.elapsed().as_secs_f64();
                            out
                        })
                    })
                    .collect();
                barrier.wait();
                let started = Instant::now();
                // One shard: the engine runs on this thread.
                let report = self.engine.run_published_with(live_cadence(), &publisher);
                let engine_wall_s = started.elapsed().as_secs_f64();
                done.store(true, Ordering::Release);
                let outs: Vec<ClientOut> = handles
                    .into_iter()
                    .map(|h| h.join().expect("query client panicked"))
                    .collect();
                (report, engine_wall_s, outs, server)
            })
        });

        let repeat = Repeat {
            fingerprint: report.digest,
            engine: Some(engine_side(cfg, &report, engine_wall_s)),
            queries: Some(pool(outs, &server, &view)),
        };
        self.last = Some((view, server));
        repeat
    }

    fn verify(&mut self, last: &Repeat) -> Vec<Check> {
        let Some((view, server)) = &self.last else {
            return vec![Check::new("a repeat ran", false)];
        };
        // The engine has finished, so the view is still: served bits must
        // equal direct reads.
        let mut client = connect(server.local_addr());
        let mut out = ClientOut::default();
        for &q in self.lists[0].iter().filter(|q| !q.range).take(256) {
            ask(&mut client, q, &mut out, Some(view));
        }
        vec![
            Check::new(
                "digest equals plain run() (publication is pure observation)",
                self.engine.run().digest == last.fingerprint,
            ),
            Check::new(
                "256 served bits equal direct view.point() reads",
                out.attempted == 256 && out.failed == 0,
            ),
        ]
    }

    fn describe(&self) -> String {
        let cfg = self.engine.config();
        format!(
            "run_published_with(adaptive 1 ms / 500 ms / 16 edges), {} sources x {} cycles, {} shard; EnginePublisher -> view -> ServeServer 1 worker; {CLIENTS} closed-loop ServeClients until the engine finishes",
            cfg.sources, cfg.cycles, cfg.shards
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_lists_repeat_for_a_seed_and_differ_between_clients() {
        let a = queries(42, 0, 256, 1_000, 30);
        assert_eq!(a, queries(42, 0, 256, 1_000, 30));
        assert_ne!(a, queries(42, 1, 256, 1_000, 30));
        assert_ne!(a, queries(43, 0, 256, 1_000, 30));
        assert_eq!(a.iter().filter(|q| q.range).count(), 4);
        assert!(a.iter().all(|q| q.source < 1_000 && q.combo < 30));
    }

    #[test]
    fn injected_fault_panics_are_silenced_and_the_hook_restored() {
        let caught = quiet_injected_faults(|| {
            std::panic::catch_unwind(|| panic!("injected shard fault: crash")).is_err()
        });
        assert!(caught);
    }

    #[test]
    fn qos_fingerprint_sees_every_sample() {
        let mut m = QosMetrics {
            detection_times_ms: vec![1.0, 2.0],
            ..QosMetrics::default()
        };
        let base = qos_fingerprint(std::slice::from_ref(&m));
        m.detection_times_ms[1] = 2.5;
        assert_ne!(base, qos_fingerprint(std::slice::from_ref(&m)));
    }
}
