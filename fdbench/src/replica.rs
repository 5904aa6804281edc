//! A replica of one `ShardedEngine` shard loop, assembled only from the
//! program's public pieces, with a span at each call into a layer.
//!
//! The engine's loop is private, so its layers cannot be timed from
//! outside while it runs. The replica is the same loop — same event
//! order, same per-source RNG streams, same check-then-observe protocol,
//! same digest tuple — written against `Simulator`, `DetRng`,
//! `SourceBank::{check_source_into, observe_heartbeat_into, next_wakeup}`,
//! `QosAccumulator`, `StreamDigest` and `SegmentWriter`. It is trusted
//! only while its digest, heartbeat and edge counts equal
//! `ShardedEngine::run`'s for the same configuration
//! ([`ReplicaRun::matches`]); it covers the plain unsupervised loop
//! without source-crash injection, which is all the workloads use.
//!
//! With `TRACE` off every clock read compiles away and the replica costs
//! what the engine costs (`fd-runtime.sharded.replica_ratio`); with it on,
//! consecutive spans share one clock read, so the whole body of the loop
//! is attributed and only the loop's own bookkeeping is left as the
//! slice's self time.

use std::sync::Arc;
use std::time::Instant;

use fd_core::SourceBank;
use fd_runtime::sharded::{partition, ShardedConfig, ShardedReport};
use fd_runtime::StreamDigest;
use fd_serve::{SegmentWriter, SuspectView};
use fd_sim::{DetRng, QueueBackend, SimDuration, SimTime, Simulator};
use fd_stat::{EventSink, QosAccumulator, QosSummary};

use crate::span::Recorder;

/// Span names of the replica, one per layer boundary.
pub mod names {
    /// The whole replica run (spawn to merge).
    pub const RUN: &str = "fdbench.replica.run";
    /// One shard, construction to finish.
    pub const SHARD: &str = "fdbench.replica.shard";
    /// One slice of [`SLICE_EVENTS`](super::SLICE_EVENTS) loop iterations.
    pub const SLICE: &str = "fdbench.replica.slice";
    /// `SourceBank::new`.
    pub const BANK_NEW: &str = "fd-core.source_bank.new";
    /// `Simulator::next_event`.
    pub const QUEUE_POP: &str = "fd-sim.queue.pop";
    /// `Simulator::schedule_at`.
    pub const QUEUE_PUSH: &str = "fd-sim.queue.push";
    /// The three `DetRng` draws of one heartbeat.
    pub const RNG_DRAW: &str = "fd-sim.rng.draw";
    /// `SourceBank::check_source_into`.
    pub const CHECK: &str = "fd-core.source_bank.check_source";
    /// `SourceBank::observe_heartbeat_into`.
    pub const OBSERVE: &str = "fd-core.source_bank.observe";
    /// `SourceBank::next_wakeup`.
    pub const WAKEUP: &str = "fd-core.source_bank.next_wakeup";
    /// `QosAccumulator::start_suspect` / `end_suspect`.
    pub const SINK_EDGE: &str = "fd-stat.sink.edge";
    /// `StreamDigest::fold_bytes`.
    pub const DIGEST_FOLD: &str = "fd-runtime.digest.fold";
    /// `QosAccumulator::finish_summaries`.
    pub const SINK_FINISH: &str = "fd-stat.sink.finish";
    /// `SegmentWriter::publish_dirty`.
    pub const PUBLISH_DIRTY: &str = "fd-serve.view.publish_dirty";
}

/// Loop iterations aggregated into one slice span.
pub const SLICE_EVENTS: u64 = 4_096;

/// The engine's private heap/wheel crossover (`WHEEL_MIN_SOURCES`).
const WHEEL_MIN_SOURCES: usize = 16_384;

/// The engine's private per-source stream seed (splitmix64 finaliser over
/// the root seed and the global source id).
fn source_seed(seed: u64, global: u32) -> u64 {
    let mut z = seed ^ u64::from(global).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Arrival { local: u32, seq: u32 },
    Deadline { local: u32 },
}

/// Busy nanoseconds and calls of one layer.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    ns: u64,
    count: u64,
}

impl Acc {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.count += 1;
    }

    fn merge(&mut self, other: Acc) {
        self.ns += other.ns;
        self.count += other.count;
    }

    fn since(self, base: Acc) -> Acc {
        Acc {
            ns: self.ns - base.ns,
            count: self.count - base.count,
        }
    }
}

/// The accumulators of one shard loop. The sink's two layers are tracked
/// per enclosing bank call, so their spans nest under the right parent.
#[derive(Debug, Clone, Copy, Default)]
struct Layers {
    pop: Acc,
    push: Acc,
    draw: Acc,
    check: Acc,
    observe: Acc,
    wakeup: Acc,
    publish: Acc,
    check_edge: Acc,
    check_fold: Acc,
    observe_edge: Acc,
    observe_fold: Acc,
}

/// The per-shard event receiver: the engine's `ShardRec`, with a clock
/// read between the digest fold and the accumulator call.
struct Rec<const TRACE: bool> {
    origin: Instant,
    start: u32,
    emitted: Vec<u32>,
    digest: StreamDigest,
    acc: QosAccumulator,
    start_suspects: u64,
    end_suspects: u64,
    fold: Acc,
    edge: Acc,
}

fn tick<const TRACE: bool>(origin: &Instant) -> u64 {
    if TRACE {
        origin.elapsed().as_nanos() as u64
    } else {
        0
    }
}

impl<const TRACE: bool> Rec<TRACE> {
    fn edge(&mut self, at: SimTime, local: u32, combo: u32, is_start: bool) {
        let t0 = tick::<TRACE>(&self.origin);
        let l = local as usize;
        let seq = self.emitted[l];
        self.emitted[l] = seq + 1;
        let source = self.start + local;
        let mut tuple = [0u8; 21];
        tuple[..8].copy_from_slice(&at.as_micros().to_le_bytes());
        tuple[8..12].copy_from_slice(&source.to_le_bytes());
        tuple[12..16].copy_from_slice(&seq.to_le_bytes());
        tuple[16..20].copy_from_slice(&combo.to_le_bytes());
        tuple[20] = u8::from(is_start);
        self.digest.fold_bytes(&tuple);
        let t1 = tick::<TRACE>(&self.origin);
        if is_start {
            self.start_suspects += 1;
            self.acc.start_suspect(at, local, combo);
        } else {
            self.end_suspects += 1;
            self.acc.end_suspect(at, local, combo);
        }
        let t2 = tick::<TRACE>(&self.origin);
        self.fold.add(t1 - t0);
        self.edge.add(t2 - t1);
    }
}

impl<const TRACE: bool> EventSink for Rec<TRACE> {
    fn start_suspect(&mut self, at: SimTime, local: u32, combo: u32) {
        self.edge(at, local, combo, true);
    }

    fn end_suspect(&mut self, at: SimTime, local: u32, combo: u32) {
        self.edge(at, local, combo, false);
    }

    fn crash(&mut self, at: SimTime, local: u32) {
        self.acc.crash(at, local);
    }

    fn restore(&mut self, at: SimTime, local: u32) {
        self.acc.restore(at, local);
    }
}

/// Where a traced replica publishes: a writer of a private view, called
/// every `every_events` loop iterations so that the dirty sets it sees are
/// the ones the engine's publisher would see at the same epoch count.
pub struct PublishProbe {
    /// The private view's segment writers, one per shard.
    pub view: Arc<SuspectView>,
    /// Loop iterations between publications.
    pub every_events: u64,
}

/// What one replica shard hands back.
pub struct ShardRun {
    /// The shard's digest.
    pub digest: StreamDigest,
    /// Its QoS roll-up.
    pub qos: Vec<QosSummary>,
    /// Heartbeats delivered.
    pub heartbeats: u64,
    /// Heartbeats lost.
    pub lost: u64,
    /// `StartSuspect` edges.
    pub start_suspects: u64,
    /// `EndSuspect` edges.
    pub end_suspects: u64,
    /// Bank checks that emitted at least one edge.
    pub checks_fired: u64,
    /// Largest pending-event population seen (traced runs only).
    pub peak_pending: usize,
    /// Loop iterations (events popped).
    pub events: u64,
    /// Publications made (runs with a [`PublishProbe`]).
    pub publications: u64,
    /// The shard's wall time, nanoseconds.
    pub wall_ns: u64,
    /// The bank at quiescence, for the snapshot and publish probes.
    pub bank: SourceBank,
    /// The shard's spans (empty when `TRACE` is off).
    pub recorder: Recorder,
}

struct Shard<'a, const TRACE: bool> {
    cfg: &'a ShardedConfig,
    origin: Instant,
    sim: Simulator<Ev>,
    bank: SourceBank,
    models: Vec<DetRng>,
    armed: Vec<u32>,
    rec: Rec<TRACE>,
    layers: Layers,
    heartbeats: u64,
    lost: u64,
    checks_fired: u64,
    peak_pending: usize,
}

impl<const TRACE: bool> Shard<'_, TRACE> {
    fn tick(&self) -> u64 {
        tick::<TRACE>(&self.origin)
    }

    // Every helper below takes the clock reading that ended the previous
    // span and returns the one that ends its own, so consecutive spans
    // share a reading and the loop body is attributed without gaps.

    /// The engine's `SourceModel::draw`: loss, spike, jitter, in that
    /// order, one span around the three draws.
    fn draw(&mut self, local: usize, t: u64) -> (Option<SimDuration>, u64) {
        let cfg = self.cfg;
        let rng = &mut self.models[local];
        let lost = rng.chance(cfg.loss);
        let spike = rng.chance(cfg.spike_prob);
        let jitter = rng.uniform(0.0, cfg.jitter_ms.max(0.0));
        let t1 = self.tick();
        self.layers.draw.add(t1 - t);
        if lost {
            return (None, t1);
        }
        let mut delay_ms = cfg.base_delay_ms.max(0.0) + jitter;
        if spike {
            delay_ms *= cfg.spike_factor.max(1.0);
        }
        (Some(SimDuration::from_millis_f64(delay_ms)), t1)
    }

    /// The engine's `next_arrival` without crash windows, scheduling the
    /// arrival it finds.
    fn schedule_next_arrival(
        &mut self,
        local: u32,
        from_seq: u64,
        now: SimTime,
        mut t: u64,
    ) -> u64 {
        let mut seq = from_seq;
        while seq < self.cfg.cycles {
            let (delay, t1) = self.draw(local as usize, t);
            t = t1;
            match delay {
                Some(delay) => {
                    let nominal = SimTime::ZERO + self.cfg.eta * seq + delay;
                    let seq = u32::try_from(seq).expect("heartbeat seq fits u32");
                    return self.push(nominal.max(now), Ev::Arrival { local, seq }, t);
                }
                None => {
                    self.lost += 1;
                    seq += 1;
                }
            }
        }
        t
    }

    fn push(&mut self, at: SimTime, ev: Ev, t: u64) -> u64 {
        self.sim.schedule_at(at, ev);
        let t1 = self.tick();
        self.layers.push.add(t1 - t);
        t1
    }

    /// The engine's `arm`.
    fn arm(&mut self, local: u32, now: SimTime, t: u64) -> u64 {
        let wakeup = self.bank.next_wakeup(local);
        let t1 = self.tick();
        self.layers.wakeup.add(t1 - t);
        if let Some(wakeup) = wakeup {
            let fire_at = wakeup.max(now);
            let fire_us = fire_at.as_micros();
            let l = local as usize;
            if fire_us < u64::from(self.armed[l]) {
                self.armed[l] = fire_us as u32;
                return self.push(fire_at, Ev::Deadline { local }, t1);
            }
        }
        t1
    }

    fn check(&mut self, local: u32, at: SimTime, t: u64) -> u64 {
        let (fold0, edge0) = (self.rec.fold, self.rec.edge);
        let fired = self.bank.check_source_into(local, at, &mut self.rec);
        let t1 = self.tick();
        self.layers.check.add(t1 - t);
        self.checks_fired += u64::from(fired > 0);
        if TRACE {
            self.layers.check_fold.merge(self.rec.fold.since(fold0));
            self.layers.check_edge.merge(self.rec.edge.since(edge0));
        }
        t1
    }

    fn observe(&mut self, local: u32, seq: u32, at: SimTime, t: u64) -> u64 {
        let (fold0, edge0) = (self.rec.fold, self.rec.edge);
        self.bank
            .observe_heartbeat_into(local, u64::from(seq), at, &mut self.rec);
        let t1 = self.tick();
        self.layers.observe.add(t1 - t);
        if TRACE {
            self.layers.observe_fold.merge(self.rec.fold.since(fold0));
            self.layers.observe_edge.merge(self.rec.edge.since(edge0));
        }
        t1
    }

    /// The engine's `ShardWorker::step`; `None` at quiescence.
    fn step(&mut self) -> Option<SimTime> {
        let t0 = self.tick();
        let next = self.sim.next_event();
        let t = self.tick();
        let (at, ev) = next?;
        self.layers.pop.add(t - t0);
        match ev {
            Ev::Arrival { local, seq } => {
                self.heartbeats += 1;
                let t = self.check(local, at, t);
                let t = self.observe(local, seq, at, t);
                let t = self.arm(local, at, t);
                self.schedule_next_arrival(local, u64::from(seq) + 1, at, t);
            }
            Ev::Deadline { local } => {
                let l = local as usize;
                if u64::from(self.armed[l]) == at.as_micros() {
                    self.armed[l] = u32::MAX;
                }
                let t = self.check(local, at, t);
                self.arm(local, at, t);
            }
        }
        if TRACE {
            self.peak_pending = self.peak_pending.max(self.sim.pending());
        }
        Some(at)
    }

    /// Emits the slice span and its layer aggregates since `base`.
    fn flush_slice(&self, rec: &mut Recorder, shard: u32, start_ns: u64, base: &Layers) {
        let now = self.tick();
        let d = &self.layers;
        let slice = rec.push(names::SLICE, start_ns, now, Some(shard), 1);
        let at = |a: Acc, b: Acc| {
            let s = a.since(b);
            (s.ns, s.count)
        };
        let (check_ns, check_n) = at(d.check, base.check);
        let (observe_ns, observe_n) = at(d.observe, base.observe);
        let (pop_ns, pop_n) = at(d.pop, base.pop);
        let mut cursor = rec.push_aggregates(slice, start_ns, &[(names::QUEUE_POP, pop_ns, pop_n)]);
        for (name, ns, n, edge, fold) in [
            (
                names::CHECK,
                check_ns,
                check_n,
                at(d.check_edge, base.check_edge),
                at(d.check_fold, base.check_fold),
            ),
            (
                names::OBSERVE,
                observe_ns,
                observe_n,
                at(d.observe_edge, base.observe_edge),
                at(d.observe_fold, base.observe_fold),
            ),
        ] {
            if n == 0 {
                continue;
            }
            let parent = rec.push(name, cursor, cursor + ns, Some(slice), n);
            rec.push_aggregates(
                parent,
                cursor,
                &[
                    (names::SINK_EDGE, edge.0, edge.1),
                    (names::DIGEST_FOLD, fold.0, fold.1),
                ],
            );
            cursor += ns;
        }
        let (wakeup_ns, wakeup_n) = at(d.wakeup, base.wakeup);
        let (draw_ns, draw_n) = at(d.draw, base.draw);
        let (push_ns, push_n) = at(d.push, base.push);
        let (publish_ns, publish_n) = at(d.publish, base.publish);
        rec.push_aggregates(
            slice,
            cursor,
            &[
                (names::WAKEUP, wakeup_ns, wakeup_n),
                (names::RNG_DRAW, draw_ns, draw_n),
                (names::QUEUE_PUSH, push_ns, push_n),
                (names::PUBLISH_DIRTY, publish_ns, publish_n),
            ],
        );
    }
}

/// Runs one shard of the replica to quiescence.
fn run_shard<const TRACE: bool>(
    cfg: &ShardedConfig,
    start: usize,
    len: usize,
    origin: Instant,
    mut publish: Option<(SegmentWriter, u64)>,
) -> ShardRun {
    let mut rec = Recorder::with_origin(origin);
    let began = tick::<true>(&origin);
    let shard_span = rec.push(names::SHARD, began, began, None, 1);

    let backend = if len >= WHEEL_MIN_SOURCES {
        QueueBackend::Wheel
    } else {
        QueueBackend::Heap
    };
    let bank = if TRACE {
        rec.time(names::BANK_NEW, Some(shard_span), || {
            SourceBank::new(&cfg.combos, cfg.eta, len)
        })
    } else {
        SourceBank::new(&cfg.combos, cfg.eta, len)
    };
    let mut shard: Shard<'_, TRACE> = Shard {
        cfg,
        origin,
        sim: Simulator::with_backend_and_capacity(backend, len * 2),
        bank,
        models: (start..start + len)
            .map(|g| DetRng::seed_from(source_seed(cfg.seed, g as u32)))
            .collect(),
        armed: vec![u32::MAX; len],
        rec: Rec {
            origin,
            start: start as u32,
            emitted: vec![0; len],
            digest: StreamDigest::new(),
            acc: QosAccumulator::summary(len, cfg.combos.len()),
            start_suspects: 0,
            end_suspects: 0,
            fold: Acc::default(),
            edge: Acc::default(),
        },
        layers: Layers::default(),
        heartbeats: 0,
        lost: 0,
        checks_fired: 0,
        peak_pending: 0,
    };

    // The first kept heartbeat of every source belongs to the first slice.
    let mut slice_start = shard.tick();
    let mut slice_base = shard.layers;
    let mut t = slice_start;
    for local in 0..len as u32 {
        t = shard.schedule_next_arrival(local, 0, SimTime::ZERO, t);
    }

    let mut events = 0u64;
    let mut publications = 0u64;
    let mut last_at = SimTime::ZERO;
    while let Some(at) = shard.step() {
        last_at = at;
        events += 1;
        if let Some((writer, every)) = &mut publish {
            if events.is_multiple_of(*every) {
                let t0 = shard.tick();
                writer.publish_dirty(&shard.bank, at);
                shard.bank.clear_dirty();
                let t1 = shard.tick();
                shard.layers.publish.add(t1 - t0);
                publications += 1;
            }
        }
        if TRACE && events.is_multiple_of(SLICE_EVENTS) {
            shard.flush_slice(&mut rec, shard_span, slice_start, &slice_base);
            slice_start = shard.tick();
            slice_base = shard.layers;
        }
    }
    if TRACE {
        shard.flush_slice(&mut rec, shard_span, slice_start, &slice_base);
    }

    let Shard {
        bank,
        rec: sink,
        heartbeats,
        lost,
        checks_fired,
        peak_pending,
        ..
    } = shard;
    let qos = if TRACE {
        rec.time(names::SINK_FINISH, Some(shard_span), || {
            sink.acc.finish_summaries(last_at)
        })
    } else {
        sink.acc.finish_summaries(last_at)
    };
    let ended = tick::<true>(&origin);
    if TRACE {
        rec.close(shard_span);
    } else {
        rec = Recorder::with_origin(origin);
    }
    ShardRun {
        digest: sink.digest,
        qos,
        heartbeats,
        lost,
        start_suspects: sink.start_suspects,
        end_suspects: sink.end_suspects,
        checks_fired,
        peak_pending,
        events,
        publications,
        wall_ns: ended - began,
        bank,
        recorder: rec,
    }
}

/// A finished replica run: the merged result and every shard's own.
pub struct ReplicaRun {
    /// Merged digest value.
    pub digest: u64,
    /// Merged QoS roll-ups.
    pub qos: Vec<QosSummary>,
    /// Heartbeats delivered, all shards.
    pub heartbeats: u64,
    /// Heartbeats lost, all shards.
    pub lost: u64,
    /// `StartSuspect` edges, all shards.
    pub start_suspects: u64,
    /// `EndSuspect` edges, all shards.
    pub end_suspects: u64,
    /// Wall time from spawn to merge, nanoseconds.
    pub wall_ns: u64,
    /// Per-shard results, in shard order.
    pub shards: Vec<ShardRun>,
    /// Every span of the run under one root (empty when untraced).
    pub recorder: Recorder,
}

impl ReplicaRun {
    /// The trust condition: digest, heartbeat, loss and edge counts and
    /// the QoS roll-ups equal the engine's.
    pub fn matches(&self, report: &ShardedReport) -> bool {
        self.digest == report.digest
            && self.heartbeats == report.heartbeats
            && self.lost == report.lost
            && self.start_suspects == report.start_suspects
            && self.end_suspects == report.end_suspects
            && self.qos == report.qos
    }

    /// Slowest shard's wall time over the mean shard wall time.
    pub fn shard_skew(&self) -> f64 {
        let walls: Vec<f64> = self.shards.iter().map(|s| s.wall_ns as f64).collect();
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        walls.iter().cloned().fold(0.0, f64::max) / mean
    }
}

/// Runs the replica of `cfg` — one thread per shard, like the engine —
/// with spans on (`TRACE`) or compiled out.
///
/// # Panics
///
/// Panics if `cfg` injects source crashes (the replica does not model
/// them) or retains events.
pub fn run<const TRACE: bool>(cfg: &ShardedConfig, publish: Option<&PublishProbe>) -> ReplicaRun {
    assert!(
        cfg.source_crashes.is_none() && !cfg.retain_events,
        "the replica covers the plain loop only"
    );
    let blocks = partition(cfg.sources, cfg.shards);
    let mut recorder = Recorder::new();
    let origin = recorder.origin();
    let root = recorder.open(names::RUN, None);
    let writer = |shard: usize| publish.map(|p| (p.view.writer(shard), p.every_events));

    let shards: Vec<ShardRun> = if blocks.len() == 1 {
        vec![run_shard::<TRACE>(cfg, 0, cfg.sources, origin, writer(0))]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .iter()
                .enumerate()
                .map(|(s, &(start, len))| {
                    let writer = writer(s);
                    scope.spawn(move || run_shard::<TRACE>(cfg, start, len, origin, writer))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replica shard panicked"))
                .collect()
        })
    };

    let mut digest = StreamDigest::new();
    let mut qos = vec![QosSummary::new(); cfg.combos.len()];
    for s in &shards {
        digest.merge(&s.digest);
        for (acc, shard) in qos.iter_mut().zip(&s.qos) {
            acc.merge(shard);
        }
    }
    recorder.close(root);
    let root_span = &recorder.spans()[root as usize];
    let wall_ns = root_span.end_ns - root_span.start_ns;
    let mut run = ReplicaRun {
        digest: digest.value(),
        qos,
        heartbeats: shards.iter().map(|s| s.heartbeats).sum(),
        lost: shards.iter().map(|s| s.lost).sum(),
        start_suspects: shards.iter().map(|s| s.start_suspects).sum(),
        end_suspects: shards.iter().map(|s| s.end_suspects).sum(),
        wall_ns,
        shards,
        recorder,
    };
    if TRACE {
        for s in &mut run.shards {
            let spans = std::mem::replace(&mut s.recorder, Recorder::with_origin(origin));
            run.recorder.absorb(spans, Some(root));
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_runtime::sharded::ShardedEngine;

    fn config(shards: usize) -> ShardedConfig {
        let mut cfg = ShardedConfig::paper_grid(64, 40, 7);
        cfg.shards = shards;
        cfg.loss = 0.02;
        cfg.spike_prob = 0.02;
        cfg
    }

    #[test]
    fn replica_equals_engine_on_64_sources() {
        for shards in [1, 2] {
            let cfg = config(shards);
            let report = ShardedEngine::new(cfg.clone()).run();
            assert!(report.start_suspects > 0, "config produces no edges");
            let plain = run::<false>(&cfg, None);
            assert!(plain.matches(&report), "untraced replica diverged");
            assert!(
                plain.recorder.spans().len() == 1,
                "untraced run keeps only its root"
            );
            let traced = run::<true>(&cfg, None);
            assert!(traced.matches(&report), "traced replica diverged");
            assert_eq!(traced.heartbeats + traced.lost, 64 * 40);
        }
    }

    #[test]
    fn publishing_is_pure_observation_and_counts_epochs() {
        let cfg = config(2);
        let report = ShardedEngine::new(cfg.clone()).run();
        let view = SuspectView::for_engine(cfg.combos.len(), cfg.sources, cfg.shards);
        let probe = PublishProbe {
            view: Arc::clone(&view),
            every_events: 100,
        };
        let traced = run::<true>(&cfg, Some(&probe));
        assert!(traced.matches(&report));
        let published: u64 = traced.shards.iter().map(|s| s.publications).sum();
        assert!(published > 0);
        assert_eq!(view.epoch(0) + view.epoch(1), published);
    }

    #[test]
    fn traced_spans_attribute_the_loop_and_nest_the_sink_under_the_bank() {
        let cfg = config(1);
        let traced = run::<true>(&cfg, None);
        let by = traced.recorder.by_name();
        assert_eq!(by[names::OBSERVE].count, traced.heartbeats);
        assert_eq!(by[names::RNG_DRAW].count, 64 * 40);
        assert_eq!(
            by[names::SINK_EDGE].count,
            traced.start_suspects + traced.end_suspects
        );
        assert_eq!(by[names::DIGEST_FOLD].count, by[names::SINK_EDGE].count);
        assert_eq!(by[names::QUEUE_PUSH].count, by[names::QUEUE_POP].count);
        // The sink runs inside the bank calls: it is their child coverage.
        let bank_busy = by[names::CHECK].busy_ns + by[names::OBSERVE].busy_ns;
        let bank_self = by[names::CHECK].self_ns + by[names::OBSERVE].self_ns;
        let sink_busy = by[names::SINK_EDGE].busy_ns + by[names::DIGEST_FOLD].busy_ns;
        assert_eq!(bank_busy - bank_self, sink_busy);
        // Everything the shard did is under its span.
        let shard = by[names::SHARD];
        assert!(shard.busy_ns <= by[names::RUN].busy_ns);
        assert!(by[names::SLICE].busy_ns <= shard.busy_ns);
    }
}
