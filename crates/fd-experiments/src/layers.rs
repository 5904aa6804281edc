//! The experiment layers of the paper's architecture (its Figure 3).

use fd_core::bank::DetectorBank;
use fd_core::{Combination, FailureDetector};
use fd_runtime::{BatchedLayer, Context, Layer, Message, ProcessId, Recoverable, TimerId};
use fd_sim::{DetRng, SimDuration, SimTime};
use fd_stat::EventKind;

/// Sends heartbeat `m_i` to the monitor every η, with `σ_i = i·η`.
///
/// Sits on top of [`SimCrashLayer`] on the monitored process: its heartbeats
/// are silently dropped while the simulated crash is in force.
#[derive(Debug)]
pub struct HeartbeaterLayer {
    to: ProcessId,
    eta: SimDuration,
    seq: u64,
    max_cycles: Option<u64>,
}

impl HeartbeaterLayer {
    /// Creates a heartbeater towards `to` with period `eta`.
    ///
    /// # Panics
    ///
    /// Panics if `eta` is zero.
    pub fn new(to: ProcessId, eta: SimDuration) -> Self {
        assert!(!eta.is_zero(), "heartbeat period must be positive");
        Self {
            to,
            eta,
            seq: 0,
            max_cycles: None,
        }
    }

    /// Stops after `cycles` heartbeats (the experiment's `NumCycles`).
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = Some(cycles);
        self
    }

    /// Heartbeats sent so far.
    pub fn sent(&self) -> u64 {
        self.seq
    }
}

impl Layer for HeartbeaterLayer {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context, _id: TimerId) {
        if let Some(max) = self.max_cycles {
            if self.seq >= max {
                return;
            }
        }
        ctx.emit(EventKind::Sent { seq: self.seq });
        ctx.send(Message::heartbeat(
            ctx.process(),
            self.to,
            self.seq,
            ctx.now(),
        ));
        self.seq += 1;
        ctx.set_timer(self.eta, 0);
    }

    fn name(&self) -> &str {
        "heartbeater"
    }
}

const TIMER_CRASH: TimerId = 1;
const TIMER_RESTORE: TimerId = 2;

/// Injects crashes of the layers above it.
///
/// "During crash periods it simply drops all the messages from and to the
/// network (the upper layers are thus isolated from the distributed system
/// and appear as crashed), whereas in good periods it simply does nothing."
///
/// Parameters as in the paper: the time to crash is uniform in
/// `[MTTC/2, 3·MTTC/2]`; the repair time `TTR` is constant.
#[derive(Debug)]
pub struct SimCrashLayer {
    schedule: CrashSchedule,
    crashed: bool,
    crashes: u64,
    dropped: u64,
}

/// When crashes happen.
#[derive(Debug)]
enum CrashSchedule {
    /// The paper's model: time-to-crash uniform in `[MTTC/2, 3·MTTC/2]`,
    /// constant repair time, repeating forever.
    Recurring {
        mttc: SimDuration,
        ttr: SimDuration,
        rng: DetRng,
    },
    /// One scripted crash; `repair_after == None` means fail-stop forever.
    Once {
        crash_after: SimDuration,
        repair_after: Option<SimDuration>,
    },
}

impl SimCrashLayer {
    /// Creates the crash injector with its own random stream.
    ///
    /// # Panics
    ///
    /// Panics if `mttc` or `ttr` is zero.
    pub fn new(mttc: SimDuration, ttr: SimDuration, rng: DetRng) -> Self {
        assert!(
            !mttc.is_zero() && !ttr.is_zero(),
            "MTTC and TTR must be positive"
        );
        Self {
            schedule: CrashSchedule::Recurring { mttc, ttr, rng },
            crashed: false,
            crashes: 0,
            dropped: 0,
        }
    }

    /// Creates a scripted one-shot crash: the process fails `crash_after`
    /// into the run and, if `repair_after` is given, restores once that much
    /// later (otherwise it is fail-stop). Used by controlled experiments
    /// (e.g. crashing a consensus coordinator at a known instant).
    pub fn once_at(crash_after: SimDuration, repair_after: Option<SimDuration>) -> Self {
        Self {
            schedule: CrashSchedule::Once {
                crash_after,
                repair_after,
            },
            crashed: false,
            crashes: 0,
            dropped: 0,
        }
    }

    /// `true` while the upper layers are isolated.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// Crashes injected so far.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// Messages dropped while crashed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn schedule_next_crash(&mut self, ctx: &mut Context) {
        match &mut self.schedule {
            CrashSchedule::Recurring { mttc, rng, .. } => {
                let mttc_s = mttc.as_secs_f64();
                let delay = rng.uniform(mttc_s / 2.0, 3.0 * mttc_s / 2.0);
                ctx.set_timer(SimDuration::from_secs_f64(delay), TIMER_CRASH);
            }
            CrashSchedule::Once { crash_after, .. } => {
                // Only the first schedule fires; after a repair the process
                // stays up.
                if self.crashes == 0 {
                    ctx.set_timer(*crash_after, TIMER_CRASH);
                }
            }
        }
    }

    fn schedule_repair(&mut self, ctx: &mut Context) {
        match &self.schedule {
            CrashSchedule::Recurring { ttr, .. } => ctx.set_timer(*ttr, TIMER_RESTORE),
            CrashSchedule::Once { repair_after, .. } => {
                if let Some(r) = repair_after {
                    ctx.set_timer(*r, TIMER_RESTORE);
                }
            }
        }
    }
}

impl Layer for SimCrashLayer {
    fn on_start(&mut self, ctx: &mut Context) {
        self.schedule_next_crash(ctx);
    }

    fn on_send(&mut self, ctx: &mut Context, msg: Message) {
        if self.crashed {
            self.dropped += 1;
        } else {
            ctx.send(msg);
        }
    }

    fn on_deliver(&mut self, ctx: &mut Context, msg: Message) {
        if self.crashed {
            self.dropped += 1;
        } else {
            ctx.deliver(msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, id: TimerId) {
        match id {
            TIMER_CRASH => {
                self.crashed = true;
                self.crashes += 1;
                ctx.emit(EventKind::Crash);
                self.schedule_repair(ctx);
            }
            TIMER_RESTORE => {
                self.crashed = false;
                ctx.emit(EventKind::Restore);
                self.schedule_next_crash(ctx);
            }
            _ => {}
        }
    }

    fn name(&self) -> &str {
        "simcrash"
    }
}

/// The monitor: every failure detector fed from the same delivery stream.
///
/// Owning all detectors in one layer realises the paper's MultiPlexer
/// guarantee by construction — each delivered heartbeat updates every
/// detector at the same instant, so all 30 perceive identical network
/// conditions. Suspicion edges are emitted as `StartSuspect`/`EndSuspect`
/// events tagged with the detector index.
///
/// Two detector populations coexist behind one index space:
///
/// * a [`DetectorBank`] holding the predictor × margin grid (built with
///   [`MonitorLayer::banked`]): each heartbeat updates every **distinct**
///   predictor once and shares the margin cores — the fast path used by the
///   QoS experiments;
/// * boxed [`FailureDetector`]s (built with [`MonitorLayer::new`] or
///   appended with [`MonitorLayer::with_extra_detector`]): the compatibility
///   path for detectors outside the grid, e.g. the NFD-E baseline.
///
/// Bank combinations occupy indices `0..bank.len()`, extras follow. The
/// emitted events and armed timers are identical between the two paths —
/// the differential tests below assert byte-identical event logs.
pub struct MonitorLayer {
    bank: DetectorBank,
    extras: Vec<FailureDetector>,
    source: Option<ProcessId>,
    detector_base: u32,
    received: u64,
    /// Scratch: bank deadlines before an observation (re-arm decisions).
    deadline_scratch: Vec<Option<SimTime>>,
}

impl std::fmt::Debug for MonitorLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorLayer")
            .field("bank", &self.bank.len())
            .field("extras", &self.extras.len())
            .field("received", &self.received)
            .finish()
    }
}

impl MonitorLayer {
    /// Creates the monitor over boxed detectors (the compatibility path:
    /// every detector keeps its own predictor + margin).
    ///
    /// # Panics
    ///
    /// Panics if no detector is supplied.
    pub fn new(detectors: Vec<FailureDetector>) -> Self {
        assert!(!detectors.is_empty(), "monitor needs at least one detector");
        let eta = detectors[0].eta();
        Self {
            bank: DetectorBank::new(&[], eta),
            extras: detectors,
            source: None,
            detector_base: 0,
            received: 0,
            deadline_scratch: Vec::new(),
        }
    }

    /// Creates the monitor over a [`DetectorBank`] of combinations (the
    /// shared-computation path: distinct predictors updated once per
    /// heartbeat, margin cores shared).
    ///
    /// # Panics
    ///
    /// Panics if `combos` is empty or `eta` is zero.
    pub fn banked(combos: &[Combination], eta: SimDuration) -> Self {
        assert!(!combos.is_empty(), "monitor needs at least one detector");
        Self {
            bank: DetectorBank::new(combos, eta),
            extras: Vec::new(),
            source: None,
            detector_base: 0,
            received: 0,
            deadline_scratch: Vec::new(),
        }
    }

    /// Appends a boxed detector after the bank combinations (e.g. the NFD-E
    /// baseline, which is not a predictor × margin combination).
    pub fn with_extra_detector(mut self, fd: FailureDetector) -> Self {
        self.extras.push(fd);
        self
    }

    /// Offsets the detector ids used in emitted events, so several
    /// `MonitorLayer`s on one process keep disjoint id ranges.
    pub fn with_detector_base(mut self, base: u32) -> Self {
        self.detector_base = base;
        self
    }

    /// Restricts the monitor to heartbeats from one sender. Without this,
    /// heartbeats from every process feed the detectors — fine for the
    /// two-process experiments, wrong when several senders share a monitor
    /// (their sequence numbers interleave).
    pub fn for_source(mut self, source: ProcessId) -> Self {
        self.source = Some(source);
        self
    }

    /// The detectors' labels, in index order (index = detector id in the
    /// emitted events): bank combinations first, then extras.
    pub fn labels(&self) -> Vec<String> {
        let mut labels = self.bank.labels();
        labels.extend(self.extras.iter().map(|d| d.name().to_owned()));
        labels
    }

    /// Heartbeats received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Total number of detectors (bank combinations + extras).
    pub fn detector_count(&self) -> usize {
        self.bank.len() + self.extras.len()
    }

    /// The underlying bank (diagnostics, tests).
    pub fn bank(&self) -> &DetectorBank {
        &self.bank
    }

    /// Access to a boxed detector (diagnostics, tests). `idx` is the global
    /// detector index; bank combinations have no boxed representation.
    ///
    /// # Panics
    ///
    /// Panics if `idx` addresses a bank combination — use
    /// [`bank`](Self::bank) for those.
    pub fn detector(&self, idx: usize) -> &FailureDetector {
        assert!(
            idx >= self.bank.len(),
            "detector {idx} lives in the bank; use MonitorLayer::bank()"
        );
        &self.extras[idx - self.bank.len()]
    }

    /// `true` if detector `idx` (bank or extra) currently suspects.
    pub fn is_suspecting(&self, idx: usize) -> bool {
        if idx < self.bank.len() {
            self.bank.is_suspecting(idx)
        } else {
            self.extras[idx - self.bank.len()].is_suspecting()
        }
    }

    /// The heartbeat arrival path shared by the owned and by-reference
    /// delivery entry points. Event and timer order is identical to the
    /// historical per-detector loop: per index ascending, the `EndSuspect`
    /// emit (if any) then the re-armed timer (if the deadline moved).
    fn handle_heartbeat(&mut self, ctx: &mut Context, seq: u64) {
        self.received += 1;
        ctx.emit(EventKind::Received { seq });
        let now = ctx.now();

        let n_bank = self.bank.len();
        if n_bank > 0 {
            self.deadline_scratch.clear();
            for idx in 0..n_bank {
                self.deadline_scratch.push(self.bank.next_deadline(idx));
            }
            self.bank.observe_heartbeat(seq, now);
            let mut ends = self.bank.transitions().iter().peekable();
            for idx in 0..n_bank {
                if ends.next_if(|t| t.combo == idx).is_some() {
                    ctx.emit(EventKind::EndSuspect {
                        detector: self.detector_base + idx as u32,
                    });
                }
                // Re-arm only when the freshness point moved (fresh
                // heartbeat).
                if self.bank.next_deadline(idx) != self.deadline_scratch[idx] {
                    if let Some(deadline) = self.bank.next_deadline(idx) {
                        let delay = deadline
                            .checked_duration_since(now)
                            .unwrap_or(SimDuration::ZERO);
                        ctx.set_timer(delay, idx as TimerId);
                    }
                }
            }
        }

        for (i, fd) in self.extras.iter_mut().enumerate() {
            let idx = n_bank + i;
            let was_deadline = fd.next_deadline();
            if let Some(fd_core::FdTransition::EndSuspect) = fd.on_heartbeat(seq, now) {
                ctx.emit(EventKind::EndSuspect {
                    detector: self.detector_base + idx as u32,
                });
            }
            if fd.next_deadline() != was_deadline {
                if let Some(deadline) = fd.next_deadline() {
                    let delay = deadline
                        .checked_duration_since(now)
                        .unwrap_or(SimDuration::ZERO);
                    ctx.set_timer(delay, idx as TimerId);
                }
            }
        }
    }

    /// The freshness-point timer path shared by both layer flavours.
    fn handle_timer(&mut self, ctx: &mut Context, id: TimerId) {
        let idx = id as usize;
        let n_bank = self.bank.len();
        let fired = if idx < n_bank {
            self.bank.check_one(idx, ctx.now())
        } else if let Some(fd) = self.extras.get_mut(idx - n_bank) {
            fd.check(ctx.now())
        } else {
            None
        };
        if let Some(fd_core::FdTransition::StartSuspect) = fired {
            ctx.emit(EventKind::StartSuspect {
                detector: self.detector_base + idx as u32,
            });
        }
    }

    /// `true` if this heartbeat is for us (heartbeat kind + source filter).
    fn accepts(&self, msg: &Message) -> bool {
        msg.is_heartbeat() && self.source.is_none_or(|s| msg.from == s)
    }
}

impl Layer for MonitorLayer {
    fn on_deliver(&mut self, ctx: &mut Context, msg: Message) {
        if !self.accepts(&msg) {
            // Non-heartbeat traffic (or another sender's heartbeats) is none
            // of the monitor's business.
            ctx.deliver(msg);
            return;
        }
        self.handle_heartbeat(ctx, msg.seq);
        // The monitor is a tap, not a sink: upper layers still see the
        // heartbeat (e.g. a second monitor watching a different sender).
        ctx.deliver(msg);
    }

    fn on_timer(&mut self, ctx: &mut Context, id: TimerId) {
        self.handle_timer(ctx, id);
    }

    fn name(&self) -> &str {
        "monitor"
    }
}

/// As a multiplexer child, the monitor consumes deliveries by reference:
/// it is a top component there (nothing above it to re-deliver to), so the
/// per-child `Message` clone of the fan-out path would be pure overhead.
impl BatchedLayer for MonitorLayer {
    fn on_deliver_ref(&mut self, ctx: &mut Context, msg: &Message) {
        if !self.accepts(msg) {
            return;
        }
        self.handle_heartbeat(ctx, msg.seq);
    }

    fn on_timer_batched(&mut self, ctx: &mut Context, id: TimerId) {
        self.handle_timer(ctx, id);
    }

    fn batched_name(&self) -> &str {
        "monitor"
    }
}

/// Crash-recovery support: a banked monitor checkpoints its
/// [`DetectorBank`] into the compact `fd-core` snapshot format, so a
/// [`fd_runtime::SupervisorLayer`] can warm-restart it bit-identically.
///
/// Only pure-bank monitors are checkpointable: boxed extras have no
/// serialised form, so a monitor carrying extras returns `None` from
/// [`checkpoint`](Recoverable::checkpoint) and the supervisor falls back to
/// a cold restart. A cold [`reset`](Recoverable::reset) rebuilds the bank
/// from its own combination registry; extras (if any) are left as they are.
impl Recoverable for MonitorLayer {
    fn checkpoint(&self) -> Option<Vec<u8>> {
        if self.bank.is_empty() || !self.extras.is_empty() {
            return None;
        }
        Some(self.bank.snapshot_bytes())
    }

    fn restore(&mut self, snapshot: &[u8]) -> Result<(), String> {
        self.bank.restore_bytes(snapshot).map_err(|e| e.to_string())
    }

    fn reset(&mut self) {
        let combos = self.bank.combos().to_vec();
        let eta = self.bank.eta();
        self.bank = DetectorBank::new(&combos, eta);
    }

    fn rearm(&mut self, ctx: &mut Context) {
        let now = ctx.now();
        for idx in 0..self.bank.len() {
            if let Some(deadline) = self.bank.next_deadline(idx) {
                let delay = deadline
                    .checked_duration_since(now)
                    .unwrap_or(SimDuration::ZERO);
                ctx.set_timer(delay, idx as TimerId);
            }
        }
        for (i, fd) in self.extras.iter().enumerate() {
            if let Some(deadline) = fd.next_deadline() {
                let delay = deadline
                    .checked_duration_since(now)
                    .unwrap_or(SimDuration::ZERO);
                ctx.set_timer(delay, (self.bank.len() + i) as TimerId);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fd_core::{ConstantMargin, Last};
    use fd_net::{ConstantDelay, LinkModel, NoLoss};
    use fd_runtime::{Process, SimEngine};

    fn fixed_fd(name: &str) -> FailureDetector {
        FailureDetector::new(
            name,
            Last::new(),
            ConstantMargin::new(100.0),
            SimDuration::from_secs(1),
        )
    }

    fn build_engine(mttc_s: u64, ttr_s: u64, seed: u64) -> SimEngine {
        let mut engine = SimEngine::new();
        engine.add_process(
            Process::new(ProcessId(0)).with_layer(MonitorLayer::new(vec![fixed_fd("fd0")])),
        );
        engine.add_process(
            Process::new(ProcessId(1))
                .with_layer(SimCrashLayer::new(
                    SimDuration::from_secs(mttc_s),
                    SimDuration::from_secs(ttr_s),
                    DetRng::seed_from(seed),
                ))
                .with_layer(HeartbeaterLayer::new(
                    ProcessId(0),
                    SimDuration::from_secs(1),
                )),
        );
        engine.set_link(
            ProcessId(1),
            ProcessId(0),
            LinkModel::new(
                ConstantDelay::new(SimDuration::from_millis(200)),
                NoLoss,
                DetRng::seed_from(seed + 1),
            ),
        );
        engine
    }

    #[test]
    fn heartbeater_counts_and_stops_at_max() {
        let mut hb =
            HeartbeaterLayer::new(ProcessId(0), SimDuration::from_secs(1)).with_max_cycles(3);
        let mut ctx = Context::new(SimTime::ZERO, ProcessId(1));
        hb.on_start(&mut ctx);
        for _ in 0..5 {
            hb.on_timer(&mut ctx, 0);
        }
        assert_eq!(hb.sent(), 3);
    }

    #[test]
    fn simcrash_alternates_and_isolates() {
        let mut sc = SimCrashLayer::new(
            SimDuration::from_secs(10),
            SimDuration::from_secs(2),
            DetRng::seed_from(9),
        );
        let mut ctx = Context::new(SimTime::ZERO, ProcessId(1));
        assert!(!sc.is_crashed());
        sc.on_timer(&mut ctx, TIMER_CRASH);
        assert!(sc.is_crashed());
        // Messages in both directions are swallowed while crashed.
        sc.on_send(
            &mut ctx,
            Message::heartbeat(ProcessId(1), ProcessId(0), 0, SimTime::ZERO),
        );
        sc.on_deliver(
            &mut ctx,
            Message::heartbeat(ProcessId(0), ProcessId(1), 0, SimTime::ZERO),
        );
        assert_eq!(sc.dropped(), 2);
        sc.on_timer(&mut ctx, TIMER_RESTORE);
        assert!(!sc.is_crashed());
        assert_eq!(sc.crashes(), 1);
    }

    #[test]
    fn end_to_end_crash_detection_cycle() {
        let mut engine = build_engine(60, 10, 42);
        engine.run_until(SimTime::from_secs(600));
        let log = engine.event_log();
        let crashes = log
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Crash))
            .count();
        let starts = log
            .iter()
            .filter(|e| matches!(e.kind, EventKind::StartSuspect { .. }))
            .count();
        let ends = log
            .iter()
            .filter(|e| matches!(e.kind, EventKind::EndSuspect { .. }))
            .count();
        assert!(crashes >= 5, "crashes={crashes}");
        // Every crash must eventually be suspected, and every restore
        // corrected (perfect link: no false positives expected).
        assert_eq!(starts, crashes);
        assert_eq!(ends, crashes);
    }

    #[test]
    fn detection_time_matches_constant_link_analysis() {
        // With constant 200 ms delay and CONST(100ms) margin, after the
        // heartbeat at t the deadline is t+η+300ms. A crash right after a
        // send is detected ≤ η+300ms later.
        let mut engine = build_engine(60, 10, 43);
        engine.run_until(SimTime::from_secs(600));
        let log = engine.event_log().clone();
        let metrics = fd_stat::extract_metrics(&log, 0, SimTime::from_secs(600));
        assert!(!metrics.detection_times_ms.is_empty());
        for &td in &metrics.detection_times_ms {
            assert!(td <= 1_300.0 + 1.0, "T_D = {td}ms");
            assert!(td >= 0.0);
        }
        assert_eq!(metrics.undetected_crashes, 0);
        // No mistakes on a perfect link.
        assert!(metrics.mistake_durations_ms.is_empty());
        assert_eq!(metrics.query_accuracy(), Some(1.0));
    }

    #[test]
    fn monitor_feeds_all_detectors_identically() {
        let mut engine = SimEngine::new();
        engine.add_process(
            Process::new(ProcessId(0)).with_layer(MonitorLayer::new(vec![
                fixed_fd("a"),
                fixed_fd("b"),
                fixed_fd("c"),
            ])),
        );
        engine.add_process(Process::new(ProcessId(1)).with_layer(HeartbeaterLayer::new(
            ProcessId(0),
            SimDuration::from_secs(1),
        )));
        engine.set_link(
            ProcessId(1),
            ProcessId(0),
            LinkModel::new(
                ConstantDelay::new(SimDuration::from_millis(150)),
                NoLoss,
                DetRng::seed_from(5),
            ),
        );
        engine.run_until(SimTime::from_secs(20));
        // All three identical detectors see identical conditions: equal
        // heartbeat counts and equal deadlines.
        let monitor = engine.process_mut(ProcessId(0));
        // (Access via debug formatting of the layer is not enough: reach in
        // through the typed layer API in a white-box way.)
        let layer = monitor.layer_mut(0);
        assert_eq!(layer.name(), "monitor");
    }

    #[test]
    fn monitor_emits_received_events() {
        let mut engine = build_engine(1_000, 10, 44); // crash far away
        engine.run_until(SimTime::from_secs(10));
        let received = engine
            .event_log()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Received { .. }))
            .count();
        assert!(received >= 9, "received={received}");
    }

    #[test]
    #[should_panic(expected = "at least one detector")]
    fn empty_monitor_rejected() {
        let _ = MonitorLayer::new(Vec::new());
    }

    #[test]
    #[should_panic(expected = "at least one detector")]
    fn empty_banked_monitor_rejected() {
        let _ = MonitorLayer::banked(&[], SimDuration::from_secs(1));
    }

    /// Builds the two-process experiment around a given monitor and returns
    /// the full event log: the comparison target for the banked/boxed and
    /// fan-out/batched differential tests.
    fn run_to_log(monitor_process: Process, secs: u64) -> Vec<fd_stat::Event> {
        let mut engine = SimEngine::new();
        engine.add_process(monitor_process);
        engine.add_process(
            Process::new(ProcessId(1))
                .with_layer(SimCrashLayer::new(
                    SimDuration::from_secs(45),
                    SimDuration::from_secs(8),
                    DetRng::seed_from(7),
                ))
                .with_layer(HeartbeaterLayer::new(
                    ProcessId(0),
                    SimDuration::from_secs(1),
                )),
        );
        engine.set_link(
            ProcessId(1),
            ProcessId(0),
            fd_net::WanProfile::italy_japan().link(DetRng::seed_from(11)),
        );
        engine.run_until(SimTime::from_secs(secs));
        engine.into_event_log().iter().cloned().collect()
    }

    /// The tentpole switch-over guarantee at the layer level: the banked
    /// monitor and the historical boxed-loop monitor produce **identical**
    /// event logs (same events, same timestamps, same order) over the full
    /// 30-combination grid plus a boxed extra, on a lossy WAN link with
    /// crash injection.
    #[test]
    fn banked_and_boxed_monitors_produce_identical_event_logs() {
        let eta = SimDuration::from_secs(1);
        let combos = fd_core::all_combinations();
        let boxed = MonitorLayer::new(combos.iter().map(|c| c.build(eta)).collect())
            .with_extra_detector(fixed_fd("extra"));
        let banked = MonitorLayer::banked(&combos, eta).with_extra_detector(fixed_fd("extra"));
        assert_eq!(boxed.labels().len(), 31);
        assert_eq!(banked.labels(), {
            let mut l: Vec<String> = combos.iter().map(|c| c.label()).collect();
            l.push("extra".to_owned());
            l
        });

        let log_boxed = run_to_log(Process::new(ProcessId(0)).with_layer(boxed), 300);
        let log_banked = run_to_log(Process::new(ProcessId(0)).with_layer(banked), 300);
        assert_eq!(log_boxed.len(), log_banked.len());
        for (a, b) in log_boxed.iter().zip(&log_banked) {
            assert_eq!(a, b);
        }
        // The run exercised suspicions, not just heartbeats.
        let starts = log_banked
            .iter()
            .filter(|e| matches!(e.kind, EventKind::StartSuspect { .. }))
            .count();
        assert!(starts > 0, "no suspicions in the differential window");
    }

    /// The fd-runtime batched-child path: a banked monitor behind
    /// `with_batched_child` (deliveries by reference, no clone) behaves
    /// identically to the same monitor as an owned fan-out child.
    #[test]
    fn batched_multiplexer_child_matches_fanout_child() {
        use fd_runtime::MultiplexerLayer;
        let eta = SimDuration::from_secs(1);
        let combos = fd_core::all_combinations();
        let fanout = MultiplexerLayer::new().with_child(MonitorLayer::banked(&combos, eta));
        let batched =
            MultiplexerLayer::new().with_batched_child(MonitorLayer::banked(&combos, eta));

        let log_fanout = run_to_log(Process::new(ProcessId(0)).with_layer(fanout), 200);
        let log_batched = run_to_log(Process::new(ProcessId(0)).with_layer(batched), 200);
        assert_eq!(log_fanout.len(), log_batched.len());
        for (a, b) in log_fanout.iter().zip(&log_batched) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn banked_monitor_exposes_bank_state() {
        let combos = fd_core::all_combinations();
        let mut layer = MonitorLayer::banked(&combos, SimDuration::from_secs(1))
            .with_extra_detector(fixed_fd("x"));
        assert_eq!(layer.detector_count(), 31);
        assert_eq!(layer.bank().distinct_predictor_count(), 5);
        let mut ctx = Context::new(SimTime::from_millis(200), ProcessId(0));
        layer.on_deliver(
            &mut ctx,
            Message::heartbeat(ProcessId(1), ProcessId(0), 0, SimTime::ZERO),
        );
        assert_eq!(layer.received(), 1);
        assert_eq!(layer.bank().heartbeats(), 1);
        assert_eq!(layer.detector(30).heartbeats(), 1);
        assert!(!layer.is_suspecting(0) && !layer.is_suspecting(30));
    }

    #[test]
    #[should_panic(expected = "lives in the bank")]
    fn detector_accessor_rejects_bank_indices() {
        let layer = MonitorLayer::banked(&fd_core::all_combinations(), SimDuration::from_secs(1));
        let _ = layer.detector(0);
    }

    /// A supervised banked monitor with a quiet crash plan behaves exactly
    /// like the bare monitor: the supervisor is a transparent wrapper.
    #[test]
    fn quiet_supervisor_is_transparent() {
        use fd_runtime::{FaultPlan, RestartMode, SupervisorLayer};
        let eta = SimDuration::from_secs(1);
        let combos = fd_core::all_combinations();
        let bare = MonitorLayer::banked(&combos, eta);
        let supervised = SupervisorLayer::new(
            MonitorLayer::banked(&combos, eta),
            &FaultPlan::new(),
            RestartMode::Warm,
            DetRng::seed_from(21),
        );
        let log_bare = run_to_log(Process::new(ProcessId(0)).with_layer(bare), 200);
        let log_sup = run_to_log(Process::new(ProcessId(0)).with_layer(supervised), 200);
        assert_eq!(log_bare, log_sup);
    }

    /// End-to-end monitor crash-recovery: the monitor process crashes
    /// mid-run, misses heartbeats while down, warm-restarts from its
    /// checkpoint and keeps detecting afterwards.
    #[test]
    fn supervised_monitor_recovers_warm_and_keeps_detecting() {
        use fd_runtime::supervisor::{SUPERVISOR_EVENT_CRASH, SUPERVISOR_EVENT_RECOVERED_WARM};
        use fd_runtime::{FaultKind, FaultPlan, RestartMode, SupervisorLayer};
        let eta = SimDuration::from_secs(1);
        let combos = fd_core::all_combinations();
        let plan = FaultPlan::new().with(
            SimDuration::from_secs(60),
            FaultKind::Crash {
                down_for: SimDuration::from_secs(10),
            },
        );
        let supervised = SupervisorLayer::new(
            MonitorLayer::banked(&combos, eta),
            &plan,
            RestartMode::Warm,
            DetRng::seed_from(22),
        );
        let log = run_to_log(Process::new(ProcessId(0)).with_layer(supervised), 300);

        let crashes: Vec<u64> = log
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::App { code, value } if code == SUPERVISOR_EVENT_CRASH => Some(value),
                _ => None,
            })
            .collect();
        assert_eq!(crashes, vec![1]);
        let recoveries: Vec<u64> = log
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::App { code, value } if code == SUPERVISOR_EVENT_RECOVERED_WARM => {
                    Some(value)
                }
                _ => None,
            })
            .collect();
        assert_eq!(recoveries.len(), 1, "exactly one warm recovery");
        assert_eq!(recoveries[0], 10_000_000, "recovery after the 10 s outage");

        // The monitor kept receiving and detecting after the restart.
        let received_after = log
            .iter()
            .filter(|e| {
                e.at > SimTime::from_secs(75) && matches!(e.kind, EventKind::Received { .. })
            })
            .count();
        assert!(received_after > 0, "no heartbeats processed after recovery");
    }

    #[test]
    fn source_filter_ignores_other_senders() {
        let mut layer = MonitorLayer::new(vec![fixed_fd("f")]).for_source(ProcessId(1));
        let mut ctx = Context::new(SimTime::from_millis(200), ProcessId(0));
        layer.on_deliver(
            &mut ctx,
            Message::heartbeat(ProcessId(2), ProcessId(0), 0, SimTime::ZERO),
        );
        assert_eq!(layer.received(), 0);
        layer.on_deliver(
            &mut ctx,
            Message::heartbeat(ProcessId(1), ProcessId(0), 0, SimTime::ZERO),
        );
        assert_eq!(layer.received(), 1);
        // Only the matching sender advanced the detector.
        assert_eq!(layer.detector(0).heartbeats(), 1);
    }
}
