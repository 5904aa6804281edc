//! Streaming QoS accumulation: fold suspicion/crash transitions into metric
//! state online instead of retaining the whole event log.
//!
//! The retained-log pipeline ([`extract_metrics`](crate::extract_metrics))
//! classifies each suspicion episode *after the fact* with interval
//! arithmetic over the full run. [`QosAccumulator`] reproduces that
//! classification one event at a time by exploiting two facts:
//!
//! 1. Within one instant, the retained pipeline's interval tests are
//!    equivalent to processing `Crash` first, then `StartSuspect` /
//!    `EndSuspect` in arrival order, then `Restore`. The accumulator buffers
//!    the current instant and flushes it in those three phases, so callers
//!    may feed same-instant events in any arrival order.
//! 2. Every classification becomes final at a known event: a crash's
//!    detection status resolves at its `Restore` (or run end), and a
//!    suspicion episode's mistake status resolves at its `EndSuspect` (or
//!    run end). `T_M` and `T_MR` samples are therefore emitted at episode
//!    end, `T_D` samples at restore.
//!
//! The result is bit-identical to the retained path (see the exhaustive
//! differential tests below and in `tests/stream_differential.rs`), with one
//! documented exception: a source that crashes *and* restores in the same
//! microsecond (zero-length crash interval). The retained pipeline's own
//! handling of that case depends on event order inside the instant; the
//! simulators never produce it because time-to-repair is positive.
//!
//! Two sinks implement [`EventSink`]:
//!
//! * [`AccumulateSink`] (= [`QosAccumulator`]) — the default: O(sources ×
//!   combos) state, no event retention.
//! * [`RetainSink`] — keeps every transition and replays it through
//!   [`FdStatHandler`]; opt-in for debugging and for differential tests.

use std::collections::HashMap;

use fd_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::event::{Event, EventKind, EventLog, ProcessId};
use crate::metrics::{FdStatHandler, QosMetrics};
use crate::summary::LogHistogram;

/// Receiver for monitor-state transitions, called by the simulation layer as
/// they happen. `source` is a caller-chosen index (global across shards in
/// the sharded engine); `combo` is the detector combination index.
///
/// Implementations may assume `at` is non-decreasing across calls, but must
/// accept any order *within* one instant.
pub trait EventSink {
    /// Detector `combo` started suspecting `source` at `at`.
    fn start_suspect(&mut self, at: SimTime, source: u32, combo: u32);
    /// Detector `combo` stopped suspecting `source` at `at`.
    fn end_suspect(&mut self, at: SimTime, source: u32, combo: u32);
    /// `source` crashed at `at`. Ignored if already down.
    fn crash(&mut self, at: SimTime, source: u32);
    /// `source` came back up at `at`. Ignored if not down.
    fn restore(&mut self, at: SimTime, source: u32);
}

/// Sentinel for "no value" in the µs-resolution per-pair state arrays.
const NONE32: u32 = u32::MAX;

fn t32(at: SimTime) -> u32 {
    let us = at.as_micros();
    assert!(
        us < NONE32 as u64,
        "QosAccumulator tracks instants as 32-bit microseconds; \
         {us} µs exceeds the ~71.6 virtual-minute horizon"
    );
    us as u32
}

/// Exact streaming roll-up of one detector combination's QoS, mergeable
/// across shards.
///
/// Everything is integer arithmetic on whole microseconds (counts, sums,
/// min/max, geometric histogram bins), so [`QosSummary::merge`] is exactly
/// commutative and associative: accumulating a run on 1, 2, or 8 shards
/// yields bit-identical summaries.
///
/// The derived accessors mirror [`QosMetrics`]' semantics: means are `None`
/// without samples, and [`query_accuracy`](Self::query_accuracy) is 1 for a
/// detector that completed no mistakes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosSummary {
    /// Crashes injected (one per crash, regardless of detection).
    pub crashes: u64,
    /// Crashes with a suspicion in force at restore time.
    pub detections: u64,
    /// Crashes with no suspicion in force at restore time.
    pub undetected: u64,
    /// Completed mistakes (wrongful suspicion episodes with an end).
    pub mistakes: u64,
    /// Mistakes left open at run end: they contribute no duration sample
    /// but do close a recurrence window, exactly like the retained path.
    pub open_mistakes: u64,
    /// T_MR samples (eligible pairs of successive mistakes).
    pub recurrences: u64,
    /// Sum of detection times, whole µs.
    pub td_sum_us: u64,
    /// Smallest detection time, µs (`u64::MAX` when `detections == 0`).
    pub td_min_us: u64,
    /// Largest detection time, µs.
    pub td_max_us: u64,
    /// Sum of mistake durations, whole µs.
    pub tm_sum_us: u64,
    /// Smallest mistake duration, µs (`u64::MAX` when `mistakes == 0`).
    pub tm_min_us: u64,
    /// Largest mistake duration, µs.
    pub tm_max_us: u64,
    /// Sum of mistake recurrence times, whole µs.
    pub tmr_sum_us: u64,
    /// Smallest recurrence time, µs (`u64::MAX` when `recurrences == 0`).
    pub tmr_min_us: u64,
    /// Largest recurrence time, µs.
    pub tmr_max_us: u64,
    /// T_D distribution over [1 µs, 10 s), geometric bins.
    pub td_hist: LogHistogram,
    /// T_M distribution over [1 µs, 10 s), geometric bins.
    pub tm_hist: LogHistogram,
    /// T_MR distribution over [1 µs, 10 s), geometric bins.
    pub tmr_hist: LogHistogram,
}

impl Default for QosSummary {
    fn default() -> Self {
        Self::new()
    }
}

impl QosSummary {
    /// An empty summary (fixed [`LogHistogram::latency_micros`] layout so
    /// independently created summaries always merge).
    pub fn new() -> Self {
        QosSummary {
            crashes: 0,
            detections: 0,
            undetected: 0,
            mistakes: 0,
            open_mistakes: 0,
            recurrences: 0,
            td_sum_us: 0,
            td_min_us: u64::MAX,
            td_max_us: 0,
            tm_sum_us: 0,
            tm_min_us: u64::MAX,
            tm_max_us: 0,
            tmr_sum_us: 0,
            tmr_min_us: u64::MAX,
            tmr_max_us: 0,
            td_hist: LogHistogram::latency_micros(),
            tm_hist: LogHistogram::latency_micros(),
            tmr_hist: LogHistogram::latency_micros(),
        }
    }

    fn record_td(&mut self, us: u64) {
        self.detections += 1;
        self.td_sum_us += us;
        self.td_min_us = self.td_min_us.min(us);
        self.td_max_us = self.td_max_us.max(us);
        self.td_hist.push(us as f64);
    }

    fn record_tm(&mut self, us: u64) {
        self.mistakes += 1;
        self.tm_sum_us += us;
        self.tm_min_us = self.tm_min_us.min(us);
        self.tm_max_us = self.tm_max_us.max(us);
        self.tm_hist.push(us as f64);
    }

    fn record_tmr(&mut self, us: u64) {
        self.recurrences += 1;
        self.tmr_sum_us += us;
        self.tmr_min_us = self.tmr_min_us.min(us);
        self.tmr_max_us = self.tmr_max_us.max(us);
        self.tmr_hist.push(us as f64);
    }

    /// Mean detection time in ms, if any crash was detected.
    pub fn mean_td_ms(&self) -> Option<f64> {
        (self.detections > 0).then(|| self.td_sum_us as f64 / 1_000.0 / self.detections as f64)
    }

    /// Largest detection time in ms, if any crash was detected.
    pub fn td_upper_ms(&self) -> Option<f64> {
        (self.detections > 0).then(|| self.td_max_us as f64 / 1_000.0)
    }

    /// Mean mistake duration in ms, if any mistake completed.
    pub fn mean_tm_ms(&self) -> Option<f64> {
        (self.mistakes > 0).then(|| self.tm_sum_us as f64 / 1_000.0 / self.mistakes as f64)
    }

    /// Mean mistake recurrence in ms, if any recurrence was sampled.
    pub fn mean_tmr_ms(&self) -> Option<f64> {
        (self.recurrences > 0).then(|| self.tmr_sum_us as f64 / 1_000.0 / self.recurrences as f64)
    }

    /// Query accuracy `P_A = (T̄_MR − T̄_M)/T̄_MR`, with the same edge rules
    /// as [`QosMetrics::query_accuracy`]: 1 without completed mistakes,
    /// undefined (`None`) when mistakes exist but no recurrence was sampled.
    pub fn query_accuracy(&self) -> Option<f64> {
        if self.mistakes == 0 {
            return Some(1.0);
        }
        let tm = self.mean_tm_ms()?;
        let tmr = self.mean_tmr_ms()?;
        Some(((tmr - tm) / tmr).clamp(0.0, 1.0))
    }

    /// Folds another summary into this one. Pure integer arithmetic:
    /// exactly commutative and associative.
    pub fn merge(&mut self, other: &QosSummary) {
        self.crashes += other.crashes;
        self.detections += other.detections;
        self.undetected += other.undetected;
        self.mistakes += other.mistakes;
        self.open_mistakes += other.open_mistakes;
        self.recurrences += other.recurrences;
        self.td_sum_us += other.td_sum_us;
        self.td_min_us = self.td_min_us.min(other.td_min_us);
        self.td_max_us = self.td_max_us.max(other.td_max_us);
        self.tm_sum_us += other.tm_sum_us;
        self.tm_min_us = self.tm_min_us.min(other.tm_min_us);
        self.tm_max_us = self.tm_max_us.max(other.tm_max_us);
        self.tmr_sum_us += other.tmr_sum_us;
        self.tmr_min_us = self.tmr_min_us.min(other.tmr_min_us);
        self.tmr_max_us = self.tmr_max_us.max(other.tmr_max_us);
        self.td_hist.merge(&other.td_hist);
        self.tm_hist.merge(&other.tm_hist);
        self.tmr_hist.merge(&other.tmr_hist);
    }
}

/// What the accumulator keeps per combination.
#[derive(Debug, Clone)]
enum Mode {
    /// Full per-sample vectors, bit-compatible with [`extract_metrics`].
    Full(Vec<QosMetrics>),
    /// Constant-size integer summaries (the scale path).
    Summary(Vec<QosSummary>),
}

/// Per-source crash bookkeeping, allocated lazily on the first crash so the
/// crash-free scale path touches no hash map at all.
#[derive(Debug, Clone, Default)]
struct CrashState {
    down: bool,
    /// Time of the most recent crash, µs.
    last_crash: u32,
    /// All effective crash times, ascending, for the recurrence-window
    /// barrier (`no crash in [a, b)`).
    crash_times: Vec<u32>,
    /// Zero-length episodes closed while down: if a restore lands in the
    /// same instant the retained path classifies them as mistakes, not
    /// down-started suspicions. Drained at every restore.
    pending_zero: Vec<(u32, u32)>,
}

/// One buffered same-instant transition.
#[derive(Debug, Clone, Copy)]
enum Buffered {
    Crash { source: u32 },
    Restore { source: u32 },
    Start { source: u32, combo: u32 },
    End { source: u32, combo: u32 },
}

/// Streaming QoS accumulator over `n_sources × n_combos` monitored pairs.
///
/// Feed it transitions through the [`EventSink`] methods (times
/// non-decreasing), then call [`finish_full`](Self::finish_full) or
/// [`finish_summaries`](Self::finish_summaries) with the run-end instant.
///
/// State is O(sources × combos): two `u32` words per pair, plus two pair
/// bitmaps and per-source crash bookkeeping that are allocated only once a
/// crash is actually injected — a crash-free run carries exactly 8 bytes of
/// accumulator state per pair.
#[derive(Debug, Clone)]
pub struct QosAccumulator {
    n_sources: usize,
    n_combos: usize,
    /// Start of the open suspicion episode per pair (`NONE32` = none),
    /// combo-major: `pair = combo * n_sources + source`.
    open_start: Vec<u32>,
    /// Start of the previous *confirmed* mistake per pair (`NONE32` = none).
    prev_mistake: Vec<u32>,
    /// Pair bitmap: the open episode is the permanent detection of a crash.
    /// Empty (all bits implicitly clear) until the first set — bits are only
    /// ever set on crash paths, so crash-free runs allocate neither bitmap.
    detection: Vec<u64>,
    /// Pair bitmap: the open episode started while the source was down.
    /// Lazily allocated like `detection`.
    started_down: Vec<u64>,
    /// `false` until the first crash: lets the hot suspicion path skip all
    /// crash bookkeeping (the sharded scale runs inject no crashes).
    any_crashes: bool,
    crash: HashMap<u32, CrashState>,
    /// Instant currently being buffered, µs.
    cur_at: u32,
    buf: Vec<Buffered>,
    mode: Mode,
}

impl QosAccumulator {
    /// Accumulator producing full per-sample [`QosMetrics`] vectors.
    pub fn full(n_sources: usize, n_combos: usize) -> Self {
        Self::with_mode(
            n_sources,
            n_combos,
            Mode::Full(vec![QosMetrics::default(); n_combos]),
        )
    }

    /// Accumulator producing constant-size [`QosSummary`] roll-ups.
    pub fn summary(n_sources: usize, n_combos: usize) -> Self {
        Self::with_mode(
            n_sources,
            n_combos,
            Mode::Summary(vec![QosSummary::new(); n_combos]),
        )
    }

    fn with_mode(n_sources: usize, n_combos: usize, mode: Mode) -> Self {
        let pairs = n_sources
            .checked_mul(n_combos)
            .expect("sources × combos overflows usize");
        QosAccumulator {
            n_sources,
            n_combos,
            open_start: vec![NONE32; pairs],
            prev_mistake: vec![NONE32; pairs],
            detection: Vec::new(),
            started_down: Vec::new(),
            any_crashes: false,
            crash: HashMap::new(),
            cur_at: 0,
            buf: Vec::new(),
            mode,
        }
    }

    /// Number of monitored sources.
    pub fn n_sources(&self) -> usize {
        self.n_sources
    }

    /// Number of detector combinations.
    pub fn n_combos(&self) -> usize {
        self.n_combos
    }

    #[inline]
    fn pair(&self, source: u32, combo: u32) -> usize {
        debug_assert!(
            (source as usize) < self.n_sources,
            "source {source} out of range"
        );
        assert!(
            (combo as usize) < self.n_combos,
            "combo {combo} out of range (n_combos = {})",
            self.n_combos
        );
        combo as usize * self.n_sources + source as usize
    }

    #[inline]
    fn bit(words: &[u64], p: usize) -> bool {
        words
            .get(p >> 6)
            .is_some_and(|w| w & (1u64 << (p & 63)) != 0)
    }

    #[inline]
    fn set_bit(words: &mut Vec<u64>, pairs: usize, p: usize) {
        if words.is_empty() {
            words.resize(pairs.div_ceil(64), 0);
        }
        words[p >> 6] |= 1u64 << (p & 63);
    }

    #[inline]
    fn clear_bit(words: &mut [u64], p: usize) {
        if let Some(w) = words.get_mut(p >> 6) {
            *w &= !(1u64 << (p & 63));
        }
    }

    fn emit_td(&mut self, combo: usize, us: u32) {
        match &mut self.mode {
            Mode::Full(v) => v[combo].detection_times_ms.push(us as f64 / 1_000.0),
            Mode::Summary(v) => v[combo].record_td(us as u64),
        }
    }

    fn emit_undetected(&mut self, combo: usize) {
        match &mut self.mode {
            Mode::Full(v) => v[combo].undetected_crashes += 1,
            Mode::Summary(v) => v[combo].undetected += 1,
        }
    }

    fn emit_crash_all(&mut self) {
        match &mut self.mode {
            Mode::Full(v) => v.iter_mut().for_each(|m| m.total_crashes += 1),
            Mode::Summary(v) => v.iter_mut().for_each(|s| s.crashes += 1),
        }
    }

    /// Confirms a mistake episode starting at `start`. `end == None` means
    /// the episode was still open at run end: it yields no duration sample
    /// and does not become the previous mistake (nothing can follow it).
    fn confirm_mistake(&mut self, source: u32, combo: u32, start: u32, end: Option<u32>) {
        let p = self.pair(source, combo);
        match (&mut self.mode, end) {
            (Mode::Full(v), Some(e)) => v[combo as usize]
                .mistake_durations_ms
                .push((e - start) as f64 / 1_000.0),
            (Mode::Summary(v), Some(e)) => v[combo as usize].record_tm((e - start) as u64),
            (Mode::Summary(v), None) => v[combo as usize].open_mistakes += 1,
            (Mode::Full(_), None) => {}
        }
        let prev = self.prev_mistake[p];
        if prev != NONE32 && !self.crash_in(source, prev, start) {
            match &mut self.mode {
                Mode::Full(v) => v[combo as usize]
                    .mistake_recurrences_ms
                    .push((start - prev) as f64 / 1_000.0),
                Mode::Summary(v) => v[combo as usize].record_tmr((start - prev) as u64),
            }
        }
        if end.is_some() {
            self.prev_mistake[p] = start;
        }
    }

    /// `true` if `source` has an effective crash in `[a, b)`.
    fn crash_in(&self, source: u32, a: u32, b: u32) -> bool {
        if !self.any_crashes {
            return false;
        }
        let Some(st) = self.crash.get(&source) else {
            return false;
        };
        let i = st.crash_times.partition_point(|&t| t < a);
        st.crash_times.get(i).is_some_and(|&t| t < b)
    }

    fn push(&mut self, at: SimTime, e: Buffered) {
        let us = t32(at);
        if us != self.cur_at {
            assert!(
                us > self.cur_at || self.buf.is_empty(),
                "QosAccumulator events must be fed in non-decreasing time order \
                 ({us} µs after {} µs)",
                self.cur_at
            );
            self.flush();
            self.cur_at = us;
        }
        self.buf.push(e);
    }

    /// Processes the buffered instant in the canonical phase order that
    /// reproduces the retained pipeline's interval arithmetic: crashes
    /// first (`crash <= start` counts as down-started), suspicion changes
    /// in arrival order, restores last (`start == restore` does not, and an
    /// episode ending at the restore instant is no longer in force).
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let at = self.cur_at;
        let buf = std::mem::take(&mut self.buf);
        for e in &buf {
            if let Buffered::Crash { source } = *e {
                self.do_crash(at, source);
            }
        }
        for e in &buf {
            match *e {
                Buffered::Start { source, combo } => self.do_start(at, source, combo),
                Buffered::End { source, combo } => self.do_end(at, source, combo),
                _ => {}
            }
        }
        for e in &buf {
            if let Buffered::Restore { source } = *e {
                self.do_restore(at, source);
            }
        }
        self.buf = buf;
        self.buf.clear();
    }

    fn do_crash(&mut self, at: u32, source: u32) {
        let st = self.crash.entry(source).or_default();
        if st.down {
            return;
        }
        st.down = true;
        st.last_crash = at;
        st.crash_times.push(at);
        self.any_crashes = true;
        self.emit_crash_all();
    }

    fn do_start(&mut self, at: u32, source: u32, combo: u32) {
        let p = self.pair(source, combo);
        if self.open_start[p] != NONE32 {
            // Duplicate starts are idempotent: keep the earliest.
            return;
        }
        self.open_start[p] = at;
        if self.any_crashes && self.crash.get(&source).is_some_and(|st| st.down) {
            let pairs = self.open_start.len();
            Self::set_bit(&mut self.started_down, pairs, p);
        }
    }

    fn do_end(&mut self, at: u32, source: u32, combo: u32) {
        let p = self.pair(source, combo);
        let start = self.open_start[p];
        if start == NONE32 {
            return;
        }
        self.open_start[p] = NONE32;
        let det = Self::bit(&self.detection, p);
        let sdown = Self::bit(&self.started_down, p);
        Self::clear_bit(&mut self.detection, p);
        Self::clear_bit(&mut self.started_down, p);
        if det {
            return;
        }
        if sdown {
            if at == start {
                // A zero-length episode while down is a mistake iff the
                // source restores in this very instant; stash it for
                // do_restore to reclassify.
                if let Some(st) = self.crash.get_mut(&source) {
                    st.pending_zero.push((combo, at));
                }
            }
            return;
        }
        self.confirm_mistake(source, combo, start, Some(at));
    }

    fn do_restore(&mut self, at: u32, source: u32) {
        let Some(st) = self.crash.get_mut(&source) else {
            return;
        };
        if !st.down {
            return;
        }
        st.down = false;
        let crash = st.last_crash;
        let pending = std::mem::take(&mut st.pending_zero);
        for &(combo, t) in &pending {
            if t == at {
                self.confirm_mistake(source, combo, t, Some(t));
            }
        }
        for combo in 0..self.n_combos as u32 {
            let p = self.pair(source, combo);
            let start = self.open_start[p];
            if start != NONE32 {
                let pairs = self.open_start.len();
                Self::set_bit(&mut self.detection, pairs, p);
                self.emit_td(combo as usize, start.saturating_sub(crash));
            } else {
                self.emit_undetected(combo as usize);
            }
        }
    }

    /// Flushes, then resolves everything still in flight at `run_end`:
    /// down sources get their last crash classified (an open episode is the
    /// detection; none means undetected), and surviving open mistakes close
    /// their recurrence window without a duration sample.
    fn finish_into(&mut self, run_end: SimTime) {
        let end_us = t32(run_end);
        assert!(
            end_us >= self.cur_at,
            "run_end ({end_us} µs) precedes the last event ({} µs)",
            self.cur_at
        );
        self.flush();

        let mut down: Vec<u32> = self
            .crash
            .iter()
            .filter(|(_, st)| st.down)
            .map(|(&s, _)| s)
            .collect();
        down.sort_unstable();
        for source in down {
            let st = self.crash.get_mut(&source).expect("down source tracked");
            let crash = st.last_crash;
            let pending = std::mem::take(&mut st.pending_zero);
            for &(combo, t) in &pending {
                // `started while down` tests `start < run_end`; an episode
                // at exactly run_end fails it and is a (zero-length)
                // mistake, same as the retained path.
                if t == end_us {
                    self.confirm_mistake(source, combo, t, Some(t));
                }
            }
            for combo in 0..self.n_combos as u32 {
                let p = self.pair(source, combo);
                let start = self.open_start[p];
                if start != NONE32 {
                    let pairs = self.open_start.len();
                    Self::set_bit(&mut self.detection, pairs, p);
                    self.emit_td(combo as usize, start.saturating_sub(crash));
                } else {
                    self.emit_undetected(combo as usize);
                }
            }
        }

        for combo in 0..self.n_combos as u32 {
            for source in 0..self.n_sources as u32 {
                let p = self.pair(source, combo);
                let start = self.open_start[p];
                if start == NONE32
                    || Self::bit(&self.detection, p)
                    || Self::bit(&self.started_down, p)
                {
                    continue;
                }
                self.confirm_mistake(source, combo, start, None);
            }
        }
    }

    /// Closes the run and returns per-combo [`QosMetrics`], bit-identical
    /// to replaying a retained log through [`extract_metrics`].
    ///
    /// # Panics
    ///
    /// Panics if the accumulator was built with [`QosAccumulator::summary`].
    pub fn finish_full(mut self, run_end: SimTime) -> Vec<QosMetrics> {
        self.finish_into(run_end);
        match self.mode {
            Mode::Full(v) => v,
            Mode::Summary(_) => panic!("finish_full on a summary-mode accumulator"),
        }
    }

    /// Closes the run and returns per-combo [`QosSummary`] roll-ups.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator was built with [`QosAccumulator::full`].
    pub fn finish_summaries(mut self, run_end: SimTime) -> Vec<QosSummary> {
        self.finish_into(run_end);
        match self.mode {
            Mode::Summary(v) => v,
            Mode::Full(_) => panic!("finish_summaries on a full-mode accumulator"),
        }
    }
}

impl EventSink for QosAccumulator {
    fn start_suspect(&mut self, at: SimTime, source: u32, combo: u32) {
        self.push(at, Buffered::Start { source, combo });
    }

    fn end_suspect(&mut self, at: SimTime, source: u32, combo: u32) {
        self.push(at, Buffered::End { source, combo });
    }

    fn crash(&mut self, at: SimTime, source: u32) {
        self.push(at, Buffered::Crash { source });
    }

    fn restore(&mut self, at: SimTime, source: u32) {
        self.push(at, Buffered::Restore { source });
    }
}

/// The default sink: streaming accumulation, no event retention.
pub type AccumulateSink = QosAccumulator;

/// One transition kept by [`RetainSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetainedEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which source it concerns.
    pub source: u32,
    /// What happened.
    pub kind: RetainedKind,
}

/// Transition kind for [`RetainedEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetainedKind {
    /// Suspicion started (payload: combo index).
    StartSuspect(u32),
    /// Suspicion ended (payload: combo index).
    EndSuspect(u32),
    /// Source crashed.
    Crash,
    /// Source restored.
    Restore,
}

/// Debug sink: retains every transition so the run can be replayed through
/// the classical [`FdStatHandler`] pipeline. Memory grows with the event
/// count — opt in only when the events themselves are needed.
#[derive(Debug, Clone, Default)]
pub struct RetainSink {
    events: Vec<RetainedEvent>,
}

impl RetainSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The retained transitions, in arrival order.
    pub fn events(&self) -> &[RetainedEvent] {
        &self.events
    }

    /// Number of retained transitions.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Replays the retained run through one [`FdStatHandler`] per touched
    /// (source, combo) pair and merges per combo, sources in ascending
    /// order. This is the reference result the streaming accumulator must
    /// reproduce.
    pub fn extract_grid(&self, n_combos: usize, run_end: SimTime) -> Vec<QosMetrics> {
        let mut handlers: HashMap<u32, Vec<FdStatHandler>> = HashMap::new();
        let fresh = |_: &u32| (0..n_combos as u32).map(FdStatHandler::new).collect();
        for e in &self.events {
            let hs = handlers.entry(e.source).or_insert_with_key(fresh);
            match e.kind {
                RetainedKind::StartSuspect(c) => hs[c as usize].on_event(&Event::new(
                    e.at,
                    ProcessId(0),
                    EventKind::StartSuspect { detector: c },
                )),
                RetainedKind::EndSuspect(c) => hs[c as usize].on_event(&Event::new(
                    e.at,
                    ProcessId(0),
                    EventKind::EndSuspect { detector: c },
                )),
                RetainedKind::Crash => {
                    let ev = Event::new(e.at, ProcessId(0), EventKind::Crash);
                    hs.iter_mut().for_each(|h| h.on_event(&ev));
                }
                RetainedKind::Restore => {
                    let ev = Event::new(e.at, ProcessId(0), EventKind::Restore);
                    hs.iter_mut().for_each(|h| h.on_event(&ev));
                }
            }
        }
        let mut out = vec![QosMetrics::default(); n_combos];
        let mut sources: Vec<u32> = handlers.keys().copied().collect();
        sources.sort_unstable();
        for s in sources {
            let hs = handlers.remove(&s).expect("handler present");
            for (c, h) in hs.into_iter().enumerate() {
                out[c].merge(&h.finish(run_end));
            }
        }
        out
    }
}

impl EventSink for RetainSink {
    fn start_suspect(&mut self, at: SimTime, source: u32, combo: u32) {
        self.events.push(RetainedEvent {
            at,
            source,
            kind: RetainedKind::StartSuspect(combo),
        });
    }

    fn end_suspect(&mut self, at: SimTime, source: u32, combo: u32) {
        self.events.push(RetainedEvent {
            at,
            source,
            kind: RetainedKind::EndSuspect(combo),
        });
    }

    fn crash(&mut self, at: SimTime, source: u32) {
        self.events.push(RetainedEvent {
            at,
            source,
            kind: RetainedKind::Crash,
        });
    }

    fn restore(&mut self, at: SimTime, source: u32) {
        self.events.push(RetainedEvent {
            at,
            source,
            kind: RetainedKind::Restore,
        });
    }
}

/// Extracts *all* detectors' metrics from a single-source [`EventLog`] in
/// one pass, bit-identical to calling
/// [`extract_metrics`](crate::extract_metrics) once per detector but
/// O(events) instead of O(detectors × events).
///
/// `Sent` / `Received` / `App` events are ignored, exactly as
/// [`FdStatHandler`] ignores them.
///
/// [`QosAccumulator`] keeps instants as 32-bit microseconds — the narrow
/// per-pair state is what lets a million-source run fit in memory — so a
/// log reaching past that ~71.6-virtual-minute horizon (the paper's own
/// 10 000 s run does) is extracted per detector instead: slower, the same
/// metrics.
pub fn accumulate_metrics(log: &EventLog, n_detectors: usize, run_end: SimTime) -> Vec<QosMetrics> {
    let latest = log.events().last().map_or(run_end, |e| e.at.max(run_end));
    if latest.as_micros() >= u64::from(NONE32) {
        return (0..n_detectors as u32)
            .map(|d| crate::metrics::extract_metrics(log, d, run_end))
            .collect();
    }
    let mut acc = QosAccumulator::full(1, n_detectors);
    for e in log {
        match e.kind {
            EventKind::StartSuspect { detector } => acc.start_suspect(e.at, 0, detector),
            EventKind::EndSuspect { detector } => acc.end_suspect(e.at, 0, detector),
            EventKind::Crash => acc.crash(e.at, 0),
            EventKind::Restore => acc.restore(e.at, 0),
            EventKind::Sent { .. } | EventKind::Received { .. } | EventKind::App { .. } => {}
        }
    }
    acc.finish_full(run_end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::extract_metrics;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// Feeds the same single-source schedule to the streaming accumulator
    /// and the retained pipeline and asserts bit-identical metrics.
    fn differential(events: &[(u64, RetainedKind)], end_s: u64) -> QosMetrics {
        let mut log = EventLog::new();
        let mut acc = QosAccumulator::full(1, 1);
        for &(s, kind) in events {
            let at = secs(s);
            match kind {
                RetainedKind::StartSuspect(c) => {
                    log.record(at, ProcessId(0), EventKind::StartSuspect { detector: c });
                    acc.start_suspect(at, 0, c);
                }
                RetainedKind::EndSuspect(c) => {
                    log.record(at, ProcessId(0), EventKind::EndSuspect { detector: c });
                    acc.end_suspect(at, 0, c);
                }
                RetainedKind::Crash => {
                    log.record(at, ProcessId(0), EventKind::Crash);
                    acc.crash(at, 0);
                }
                RetainedKind::Restore => {
                    log.record(at, ProcessId(0), EventKind::Restore);
                    acc.restore(at, 0);
                }
            }
        }
        let want = extract_metrics(&log, 0, secs(end_s));
        let got = acc.finish_full(secs(end_s)).remove(0);
        assert_eq!(got, want, "streaming result diverged from retained path");
        got
    }

    use RetainedKind::{Crash, EndSuspect, Restore, StartSuspect};

    #[test]
    fn simple_detection() {
        let m = differential(
            &[
                (100, Crash),
                (102, StartSuspect(0)),
                (130, Restore),
                (131, EndSuspect(0)),
            ],
            300,
        );
        assert_eq!(m.detection_times_ms, vec![2_000.0]);
        assert_eq!(m.total_crashes, 1);
        assert_eq!(m.undetected_crashes, 0);
        assert!(m.mistake_durations_ms.is_empty());
    }

    #[test]
    fn mistakes_and_recurrence() {
        let m = differential(
            &[
                (10, StartSuspect(0)),
                (12, EndSuspect(0)),
                (50, StartSuspect(0)),
                (53, EndSuspect(0)),
            ],
            100,
        );
        assert_eq!(m.mistake_durations_ms, vec![2_000.0, 3_000.0]);
        assert_eq!(m.mistake_recurrences_ms, vec![40_000.0]);
    }

    #[test]
    fn undetected_crash_is_counted() {
        let m = differential(&[(100, Crash), (130, Restore)], 300);
        assert_eq!(m.undetected_crashes, 1);
        assert_eq!(m.total_crashes, 1);
    }

    #[test]
    fn suspicion_already_active_at_crash_gives_zero_td() {
        let m = differential(
            &[
                (90, StartSuspect(0)),
                (100, Crash),
                (130, Restore),
                (131, EndSuspect(0)),
            ],
            300,
        );
        assert_eq!(m.detection_times_ms, vec![0.0]);
        assert!(m.mistake_durations_ms.is_empty());
    }

    #[test]
    fn in_flight_heartbeat_interrupts_then_permanent_detection() {
        let m = differential(
            &[
                (100, Crash),
                (101, StartSuspect(0)),
                (102, EndSuspect(0)),
                (104, StartSuspect(0)),
                (130, Restore),
                (131, EndSuspect(0)),
            ],
            300,
        );
        assert_eq!(m.detection_times_ms, vec![4_000.0]);
        assert!(m.mistake_durations_ms.is_empty());
    }

    #[test]
    fn recurrence_pairs_spanning_a_crash_are_skipped() {
        let m = differential(
            &[
                (10, StartSuspect(0)),
                (11, EndSuspect(0)),
                (50, Crash),
                (51, StartSuspect(0)),
                (80, Restore),
                (81, EndSuspect(0)),
                (120, StartSuspect(0)),
                (121, EndSuspect(0)),
            ],
            300,
        );
        assert_eq!(m.mistake_durations_ms.len(), 2);
        assert!(m.mistake_recurrences_ms.is_empty());
    }

    #[test]
    fn open_episode_at_run_end_detects_unrestored_crash() {
        let m = differential(&[(100, Crash), (103, StartSuspect(0))], 200);
        assert_eq!(m.detection_times_ms, vec![3_000.0]);
        assert_eq!(m.undetected_crashes, 0);
    }

    #[test]
    fn open_mistake_at_run_end_is_truncated() {
        let m = differential(&[(150, StartSuspect(0))], 200);
        assert!(m.mistake_durations_ms.is_empty());
        assert!(m.detection_times_ms.is_empty());
    }

    #[test]
    fn open_mistake_still_closes_the_recurrence_window() {
        let m = differential(
            &[
                (10, StartSuspect(0)),
                (12, EndSuspect(0)),
                (150, StartSuspect(0)),
            ],
            200,
        );
        assert_eq!(m.mistake_durations_ms, vec![2_000.0]);
        assert_eq!(m.mistake_recurrences_ms, vec![140_000.0]);
    }

    #[test]
    fn multiple_crashes_multiple_detections() {
        let m = differential(
            &[
                (100, Crash),
                (101, StartSuspect(0)),
                (130, Restore),
                (131, EndSuspect(0)),
                (400, Crash),
                (403, StartSuspect(0)),
                (430, Restore),
                (431, EndSuspect(0)),
            ],
            600,
        );
        assert_eq!(m.detection_times_ms, vec![1_000.0, 3_000.0]);
    }

    #[test]
    fn duplicate_start_suspect_is_idempotent() {
        let m = differential(
            &[
                (10, StartSuspect(0)),
                (12, StartSuspect(0)),
                (15, EndSuspect(0)),
            ],
            100,
        );
        assert_eq!(m.mistake_durations_ms, vec![5_000.0]);
    }

    #[test]
    fn one_episode_detects_two_crashes() {
        let m = differential(
            &[
                (100, Crash),
                (102, StartSuspect(0)),
                (130, Restore),
                (140, Crash),
                (170, Restore),
                (171, EndSuspect(0)),
            ],
            300,
        );
        // Same episode active at both restores: td 2 s, then clamped 0.
        assert_eq!(m.detection_times_ms, vec![2_000.0, 0.0]);
        assert!(m.mistake_durations_ms.is_empty());
    }

    #[test]
    fn same_instant_start_and_restore_is_a_detection() {
        // Start at the restore instant: active_at(restore) includes
        // `start == restore`, but `started while down` excludes it.
        let m = differential(
            &[
                (100, Crash),
                (130, StartSuspect(0)),
                (130, Restore),
                (150, EndSuspect(0)),
            ],
            300,
        );
        assert_eq!(m.detection_times_ms, vec![30_000.0]);
        assert!(m.mistake_durations_ms.is_empty());
    }

    #[test]
    fn same_instant_end_and_restore_is_undetected() {
        // The episode ends in the restore instant: no longer in force.
        let m = differential(
            &[
                (100, Crash),
                (105, StartSuspect(0)),
                (130, EndSuspect(0)),
                (130, Restore),
            ],
            300,
        );
        assert!(m.detection_times_ms.is_empty());
        assert_eq!(m.undetected_crashes, 1);
    }

    #[test]
    fn same_instant_crash_and_start_is_down_started() {
        let m = differential(
            &[
                (100, StartSuspect(0)),
                (101, EndSuspect(0)),
                (200, Crash),
                (200, StartSuspect(0)),
                (201, EndSuspect(0)),
                (230, Restore),
            ],
            300,
        );
        // The suspicion at the crash instant is correct, not a mistake.
        assert_eq!(m.mistake_durations_ms, vec![1_000.0]);
        assert!(m.mistake_recurrences_ms.is_empty());
        assert_eq!(m.undetected_crashes, 1);
    }

    #[test]
    fn zero_length_episode_at_restore_instant_is_a_mistake() {
        // Pathological: suspicion starts *and* ends at the restore
        // instant. The retained path calls it a zero-length mistake
        // (start is outside [crash, restore)); the pending-zero stash
        // reproduces that.
        let m = differential(
            &[
                (100, Crash),
                (130, StartSuspect(0)),
                (130, EndSuspect(0)),
                (130, Restore),
            ],
            300,
        );
        assert_eq!(m.mistake_durations_ms, vec![0.0]);
        assert_eq!(m.undetected_crashes, 1);
    }

    #[test]
    fn zero_length_episode_while_down_is_not_a_mistake() {
        let m = differential(
            &[
                (100, Crash),
                (110, StartSuspect(0)),
                (110, EndSuspect(0)),
                (130, Restore),
            ],
            300,
        );
        assert!(m.mistake_durations_ms.is_empty());
        assert_eq!(m.undetected_crashes, 1);
    }

    #[test]
    fn down_at_run_end_without_suspicion_is_undetected() {
        let m = differential(&[(100, Crash)], 200);
        assert_eq!(m.undetected_crashes, 1);
        assert_eq!(m.total_crashes, 1);
    }

    #[test]
    fn restore_without_crash_is_ignored() {
        let m = differential(
            &[(50, Restore), (60, StartSuspect(0)), (70, EndSuspect(0))],
            100,
        );
        assert_eq!(m.mistake_durations_ms, vec![10_000.0]);
        assert_eq!(m.total_crashes, 0);
    }

    #[test]
    fn end_without_start_is_ignored() {
        let m = differential(&[(50, EndSuspect(0))], 100);
        assert!(m.mistake_durations_ms.is_empty());
    }

    #[test]
    fn crash_between_open_mistake_and_previous_blocks_recurrence() {
        let m = differential(
            &[
                (10, StartSuspect(0)),
                (12, EndSuspect(0)),
                (50, Crash),
                (80, Restore),
                (150, StartSuspect(0)),
            ],
            200,
        );
        assert_eq!(m.mistake_durations_ms, vec![2_000.0]);
        assert!(m.mistake_recurrences_ms.is_empty());
    }

    #[test]
    fn summary_counts_match_full_metrics() {
        let events: &[(u64, RetainedKind)] = &[
            (10, StartSuspect(0)),
            (12, EndSuspect(0)),
            (50, StartSuspect(0)),
            (53, EndSuspect(0)),
            (100, Crash),
            (102, StartSuspect(0)),
            (130, Restore),
            (131, EndSuspect(0)),
            (200, Crash),
            (230, Restore),
        ];
        let mut full = QosAccumulator::full(1, 1);
        let mut sum = QosAccumulator::summary(1, 1);
        for &(s, kind) in events {
            let at = secs(s);
            match kind {
                RetainedKind::StartSuspect(c) => {
                    full.start_suspect(at, 0, c);
                    sum.start_suspect(at, 0, c);
                }
                RetainedKind::EndSuspect(c) => {
                    full.end_suspect(at, 0, c);
                    sum.end_suspect(at, 0, c);
                }
                RetainedKind::Crash => {
                    full.crash(at, 0);
                    sum.crash(at, 0);
                }
                RetainedKind::Restore => {
                    full.restore(at, 0);
                    sum.restore(at, 0);
                }
            }
        }
        let m = full.finish_full(secs(300)).remove(0);
        let s = sum.finish_summaries(secs(300)).remove(0);
        assert_eq!(s.crashes as usize, m.total_crashes);
        assert_eq!(s.undetected as usize, m.undetected_crashes);
        assert_eq!(s.detections as usize, m.detection_times_ms.len());
        assert_eq!(s.mistakes as usize, m.mistake_durations_ms.len());
        assert_eq!(s.recurrences as usize, m.mistake_recurrences_ms.len());
        let td_us: u64 = m
            .detection_times_ms
            .iter()
            .map(|ms| (ms * 1_000.0).round() as u64)
            .sum();
        assert_eq!(s.td_sum_us, td_us);
        let tm_us: u64 = m
            .mistake_durations_ms
            .iter()
            .map(|ms| (ms * 1_000.0).round() as u64)
            .sum();
        assert_eq!(s.tm_sum_us, tm_us);
        assert_eq!(s.mean_td_ms(), m.mean_td());
        assert_eq!(s.mean_tm_ms(), m.mean_tm());
        assert_eq!(s.mean_tmr_ms(), m.mean_tmr());
        assert_eq!(s.query_accuracy(), m.query_accuracy());
    }

    #[test]
    fn summary_accuracy_edge_rules_match_metrics() {
        let s = QosSummary::new();
        assert_eq!(s.query_accuracy(), Some(1.0));
        let mut one_mistake = QosSummary::new();
        one_mistake.record_tm(5_000_000);
        assert_eq!(one_mistake.query_accuracy(), None);
        assert_eq!(one_mistake.mean_td_ms(), None);
    }

    #[test]
    fn summary_merge_is_exact_and_commutative() {
        let mut a = QosSummary::new();
        a.record_td(1_500);
        a.record_tm(2_500);
        a.crashes = 2;
        let mut b = QosSummary::new();
        b.record_td(800);
        b.record_tmr(40_000_000);
        b.undetected = 1;
        b.crashes = 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.crashes, 3);
        assert_eq!(ab.detections, 2);
        assert_eq!(ab.td_sum_us, 2_300);
        assert_eq!(ab.td_min_us, 800);
        assert_eq!(ab.td_max_us, 1_500);
        assert_eq!(ab.td_hist.total(), 2);
    }

    #[test]
    fn multi_source_pairs_are_independent() {
        let mut acc = QosAccumulator::full(3, 2);
        // Source 0 makes a mistake on combo 0; source 2 crashes and is
        // detected by combo 1; source 1 stays silent.
        acc.start_suspect(secs(10), 0, 0);
        acc.end_suspect(secs(12), 0, 0);
        acc.crash(secs(100), 2);
        acc.start_suspect(secs(102), 2, 1);
        acc.restore(secs(130), 2);
        acc.end_suspect(secs(131), 2, 1);
        let ms = acc.finish_full(secs(300));
        assert_eq!(ms[0].mistake_durations_ms, vec![2_000.0]);
        assert_eq!(ms[0].detection_times_ms.len(), 0);
        assert_eq!(ms[0].total_crashes, 1);
        assert_eq!(ms[0].undetected_crashes, 1);
        assert_eq!(ms[1].detection_times_ms, vec![2_000.0]);
        assert_eq!(ms[1].total_crashes, 1);
        assert_eq!(ms[1].undetected_crashes, 0);
        assert!(ms[1].mistake_durations_ms.is_empty());
    }

    #[test]
    fn retain_sink_replay_matches_streaming_grid() {
        let mut acc = QosAccumulator::full(2, 2);
        let mut retain = RetainSink::new();
        let feed: &[(u64, u32, RetainedKind)] = &[
            (10, 0, StartSuspect(0)),
            (12, 0, EndSuspect(0)),
            (40, 1, StartSuspect(1)),
            (45, 1, EndSuspect(1)),
            (100, 0, Crash),
            (103, 0, StartSuspect(0)),
            (103, 0, StartSuspect(1)),
            (130, 0, Restore),
            (131, 0, EndSuspect(0)),
            (131, 0, EndSuspect(1)),
        ];
        for &(s, src, kind) in feed {
            let at = secs(s);
            match kind {
                RetainedKind::StartSuspect(c) => {
                    acc.start_suspect(at, src, c);
                    retain.start_suspect(at, src, c);
                }
                RetainedKind::EndSuspect(c) => {
                    acc.end_suspect(at, src, c);
                    retain.end_suspect(at, src, c);
                }
                RetainedKind::Crash => {
                    acc.crash(at, src);
                    retain.crash(at, src);
                }
                RetainedKind::Restore => {
                    acc.restore(at, src);
                    retain.restore(at, src);
                }
            }
        }
        assert_eq!(retain.len(), feed.len());
        let got = acc.finish_full(secs(300));
        let want = retain.extract_grid(2, secs(300));
        assert_eq!(got, want);
    }

    #[test]
    fn accumulate_metrics_matches_per_detector_extraction() {
        let mut log = EventLog::new();
        let rec = |log: &mut EventLog, s: u64, k: EventKind| {
            log.record(secs(s), ProcessId(0), k);
        };
        rec(&mut log, 5, EventKind::StartSuspect { detector: 1 });
        rec(&mut log, 7, EventKind::EndSuspect { detector: 1 });
        rec(&mut log, 10, EventKind::Sent { seq: 1 });
        rec(&mut log, 40, EventKind::Crash);
        rec(&mut log, 42, EventKind::StartSuspect { detector: 0 });
        rec(&mut log, 43, EventKind::StartSuspect { detector: 1 });
        rec(&mut log, 60, EventKind::Restore);
        rec(&mut log, 61, EventKind::EndSuspect { detector: 0 });
        rec(&mut log, 62, EventKind::EndSuspect { detector: 1 });
        rec(&mut log, 90, EventKind::StartSuspect { detector: 2 });
        let end = secs(120);
        let got = accumulate_metrics(&log, 3, end);
        for d in 0..3 {
            assert_eq!(got[d], extract_metrics(&log, d as u32, end), "detector {d}");
        }
    }

    /// The paper's own run is 10 000 virtual seconds; the accumulator's
    /// u32-µs clock ends at 4 294 s. A log with a crash, a detection and a
    /// mistake around 5 000 s must come out exactly as the retained
    /// reference computes it — whether only `run_end` or the events
    /// themselves lie past the horizon.
    #[test]
    fn accumulate_metrics_survives_the_u32_horizon() {
        let mut log = EventLog::new();
        let rec = |log: &mut EventLog, s: u64, k: EventKind| {
            log.record(secs(s), ProcessId(0), k);
        };
        rec(&mut log, 100, EventKind::StartSuspect { detector: 0 });
        rec(&mut log, 101, EventKind::EndSuspect { detector: 0 });
        let early = log.clone();
        rec(&mut log, 4_990, EventKind::StartSuspect { detector: 1 }); // mistake
        rec(&mut log, 4_992, EventKind::EndSuspect { detector: 1 });
        rec(&mut log, 5_000, EventKind::Crash);
        rec(&mut log, 5_003, EventKind::StartSuspect { detector: 0 }); // detection
        rec(&mut log, 5_004, EventKind::StartSuspect { detector: 1 });
        rec(&mut log, 5_030, EventKind::Restore);
        rec(&mut log, 5_031, EventKind::EndSuspect { detector: 0 });
        rec(&mut log, 5_032, EventKind::EndSuspect { detector: 1 });
        for (log, end) in [(&log, secs(10_000)), (&early, secs(10_000))] {
            let got = accumulate_metrics(log, 3, end);
            assert_eq!(got.len(), 3);
            for (d, got) in got.iter().enumerate() {
                assert_eq!(*got, extract_metrics(log, d as u32, end), "detector {d}");
            }
        }
        let got = accumulate_metrics(&log, 3, secs(10_000));
        assert_eq!(got[0].total_crashes, 1);
        assert_eq!(got[0].detection_times_ms, vec![3_000.0]);
        assert_eq!(got[1].detection_times_ms, vec![4_000.0]);
        assert_eq!(got[1].mistake_durations_ms, vec![2_000.0]);
        assert_eq!(got[2].undetected_crashes, 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::metrics::extract_metrics;
    use proptest::prelude::*;

    /// Random but causally plausible single-source schedules, including
    /// same-instant pile-ups (gap 0), fed to both pipelines.
    fn schedule_strategy() -> impl Strategy<Value = Vec<(u64, u8, u32)>> {
        // (gap µs, action, combo): action 0/1 = start/end suspicion,
        // 2 = crash, 3 = restore. Gaps of zero exercise the instant buffer.
        proptest::collection::vec((0u64..2_000_000, 0u8..4, 0u32..3), 1..80)
    }

    proptest! {
        #[test]
        fn streaming_matches_retained_on_random_schedules(
            steps in schedule_strategy(),
        ) {
            let n_combos = 3;
            let mut log = EventLog::new();
            let mut acc = QosAccumulator::full(1, n_combos);
            let mut t = 0u64;
            let mut down = false;
            for (gap, action, combo) in steps {
                t += gap;
                let at = SimTime::from_micros(t);
                match action {
                    0 => {
                        log.record(at, ProcessId(0), EventKind::StartSuspect { detector: combo });
                        acc.start_suspect(at, 0, combo);
                    }
                    1 => {
                        log.record(at, ProcessId(0), EventKind::EndSuspect { detector: combo });
                        acc.end_suspect(at, 0, combo);
                    }
                    2 if !down => {
                        log.record(at, ProcessId(0), EventKind::Crash);
                        acc.crash(at, 0);
                        down = true;
                    }
                    3 if down => {
                        log.record(at, ProcessId(0), EventKind::Restore);
                        acc.restore(at, 0);
                        down = false;
                    }
                    _ => {}
                }
            }
            let end = SimTime::from_micros(t + 1_000_000);
            let got = acc.finish_full(end);
            for d in 0..n_combos {
                let want = extract_metrics(&log, d as u32, end);
                prop_assert_eq!(&got[d], &want, "detector {} diverged", d);
            }
        }

        #[test]
        fn metrics_merge_is_commutative_and_associative(
            xs in proptest::collection::vec(0u32..10_000_000u32, 0..8),
            ys in proptest::collection::vec(0u32..10_000_000u32, 0..8),
            zs in proptest::collection::vec(0u32..10_000_000u32, 0..8),
        ) {
            let mk = |v: &[u32]| QosMetrics {
                detection_times_ms: v.iter().map(|&u| u as f64 / 1_000.0).collect(),
                mistake_durations_ms: v.iter().rev().map(|&u| u as f64 / 500.0).collect(),
                mistake_recurrences_ms: v.iter().map(|&u| u as f64).collect(),
                undetected_crashes: v.len(),
                total_crashes: v.len() * 2,
            };
            // Samples live in vectors, so merge concatenates: order-
            // sensitive in layout but order-free as a multiset. Compare
            // by total order after sorting.
            let canon = |m: &QosMetrics| {
                let mut sorted = m.clone();
                sorted.detection_times_ms.sort_by(f64::total_cmp);
                sorted.mistake_durations_ms.sort_by(f64::total_cmp);
                sorted.mistake_recurrences_ms.sort_by(f64::total_cmp);
                sorted
            };
            let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(canon(&ab), canon(&ba));
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(canon(&ab_c), canon(&a_bc));
        }

        #[test]
        fn summary_merge_is_exactly_commutative_and_associative(
            xs in proptest::collection::vec((0u32..20_000_000u32, 0u8..3), 0..12),
            ys in proptest::collection::vec((0u32..20_000_000u32, 0u8..3), 0..12),
            zs in proptest::collection::vec((0u32..20_000_000u32, 0u8..3), 0..12),
        ) {
            let mk = |v: &[(u32, u8)]| {
                let mut s = QosSummary::new();
                for &(us, kind) in v {
                    match kind {
                        0 => s.record_td(us as u64),
                        1 => s.record_tm(us as u64),
                        _ => s.record_tmr(us as u64),
                    }
                }
                s.crashes = v.len() as u64;
                s
            };
            let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));
            // Integer state: merge results are bit-identical, no
            // canonicalisation needed.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);
        }
    }
}
