//! Spans recorded around calls into the program's layers.
//!
//! Every span lives in memory until the traced run ends and is then
//! written out as one JSON object per line. A span is either one call
//! (`count == 1`) or an *aggregate* of consecutive calls to one layer
//! inside a slice of the loop: its duration is the summed busy time of
//! those calls and `count` says how many there were. Aggregates of one
//! parent are laid out back to back from the parent's start, so they never
//! overlap and the self-time rule below holds for both kinds.
//!
//! **Self time** of a span is its duration minus the part of its interval
//! that its child spans cover.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. `id` is its index in the recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within one trace file.
    pub id: u32,
    /// `<crate>.<module>.<call>` of the layer entered.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Calls aggregated into this span (1 for a single call).
    pub count: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Busy time, self time and call count of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Summed durations.
    pub busy_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
    /// Summed call counts.
    pub count: u64,
}

impl LayerTime {
    /// Self time per call, nanoseconds (0 for a layer never entered).
    pub fn self_ns_per_call(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64
        }
    }
}

/// An in-memory span store with one clock origin. Recorders of worker
/// threads share the origin of the main one and are [`absorb`]ed into it
/// when the thread is joined.
///
/// [`absorb`]: Recorder::absorb
#[derive(Debug, Clone)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder::with_origin(Instant::now())
    }

    /// An empty recorder on an existing clock origin.
    pub fn with_origin(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    /// The clock origin, to hand to a worker thread's recorder.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// The recorded spans, in id order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        count: u64,
    ) -> u32 {
        debug_assert!(end_ns >= start_ns);
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            count,
        });
        id
    }

    /// Opens a single-call span that starts now; [`close`](Self::close) it.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let now = self.now_ns();
        self.push(name, now, now, parent, 1)
    }

    /// Ends a span opened with [`open`](Self::open) now.
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a single-call span.
    pub fn time<R>(&mut self, name: &'static str, parent: Option<u32>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Records aggregates of one parent back to back from `start_ns`:
    /// each `(name, busy_ns, count)` with a non-zero count becomes one
    /// span. Returns the end of the last one.
    pub fn push_aggregates(
        &mut self,
        parent: u32,
        start_ns: u64,
        layers: &[(&'static str, u64, u64)],
    ) -> u64 {
        let mut at = start_ns;
        for &(name, busy_ns, count) in layers {
            if count > 0 {
                self.push(name, at, at + busy_ns, Some(parent), count);
                at += busy_ns;
            }
        }
        at
    }

    /// Moves another recorder's spans into this one, re-numbering them,
    /// hanging its root spans under `parent` and moving its times onto
    /// this recorder's clock (its origin must not be the earlier one).
    pub fn absorb(&mut self, worker: Recorder, parent: Option<u32>) {
        let offset = self.spans.len() as u32;
        let shift = worker
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(worker.spans.into_iter().map(|s| Span {
            id: s.id + offset,
            parent: s.parent.map(|p| p + offset).or(parent),
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            ..s
        }));
    }

    /// Self time of every span: duration minus the part of its interval
    /// covered by the union of its children.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p as usize];
                let start = s.start_ns.max(parent.start_ns);
                let end = s.end_ns.min(parent.end_ns);
                if end > start {
                    children[p as usize].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                s.duration() - covered
            })
            .collect()
    }

    /// Busy time, self time and count summed per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(s.name).or_default();
            e.busy_ns += s.duration();
            e.self_ns += self_ns;
            e.count += s.count;
        }
        out
    }

    /// Writes the spans as a JSON array, one object per line.
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"count\":{}}}{}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.count, comma
            )?;
        }
        writeln!(w, "]")
    }

    /// Writes the spans to `path`, creating its directory.
    pub fn write_file(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        self.write_json(&mut w)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut r = Recorder::new();
        let root = r.push("root", 0, 100, None, 1);
        let a = r.push("a", 10, 40, Some(root), 1);
        r.push("a.inner", 15, 25, Some(a), 1);
        // Overlapping siblings cover 50..80 once, not twice.
        r.push("b", 50, 70, Some(root), 1);
        r.push("b", 60, 80, Some(root), 1);
        // A child reaching past its parent is clipped to it.
        r.push("late", 95, 130, Some(root), 1);
        let st = r.self_times();
        assert_eq!(st[root as usize], 100 - 30 - 30 - 5);
        assert_eq!(st[a as usize], 30 - 10);
        let by = r.by_name();
        assert_eq!(by["b"].busy_ns, 40);
        assert_eq!(by["b"].self_ns, 40);
        assert_eq!(by["b"].count, 2);
        assert_eq!(by["a.inner"].self_ns, 10);
    }

    #[test]
    fn aggregates_sit_back_to_back_and_leave_the_loop_share_as_self_time() {
        let mut r = Recorder::new();
        let slice = r.push("slice", 1_000, 2_000, None, 1);
        let end = r.push_aggregates(
            slice,
            1_000,
            &[
                ("pop", 200, 4_096),
                ("never", 0, 0),
                ("observe", 500, 3_000),
            ],
        );
        assert_eq!(end, 1_700);
        assert_eq!(r.spans().len(), 3, "a layer never entered leaves no span");
        // Nested aggregate: the sink's share of the observe calls.
        let observe = 2;
        r.push_aggregates(observe, 1_200, &[("sink", 120, 9_000)]);
        let by = r.by_name();
        assert_eq!(by["slice"].self_ns, 300, "loop share = wall - layer busy");
        assert_eq!(by["observe"].busy_ns, 500);
        assert_eq!(by["observe"].self_ns, 380);
        assert_eq!(by["observe"].count, 3_000);
        assert!((by["sink"].self_ns_per_call() - 120.0 / 9_000.0).abs() < 1e-12);
    }

    #[test]
    fn absorbing_a_worker_renumbers_and_reparents() {
        let mut main = Recorder::new();
        let root = main.push("root", 0, 50, None, 1);
        let mut worker = Recorder::with_origin(main.origin());
        let shard = worker.push("shard", 5, 45, None, 1);
        worker.push("slice", 5, 20, Some(shard), 1);
        main.absorb(worker, Some(root));
        let spans = main.spans();
        assert_eq!(spans[1].id, 1);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(main.by_name()["root"].self_ns, 10);
    }

    #[test]
    fn json_has_one_object_per_span() {
        let mut r = Recorder::new();
        let root = r.push("root", 0, 9, None, 1);
        r.push("leaf", 1, 2, Some(root), 7);
        let mut out = Vec::new();
        r.write_json(&mut out).expect("write to memory");
        assert_eq!(
            String::from_utf8(out).expect("utf-8"),
            "[\n\
             {\"id\":0,\"name\":\"root\",\"start_ns\":0,\"end_ns\":9,\"parent\":null,\"count\":1},\n\
             {\"id\":1,\"name\":\"leaf\",\"start_ns\":1,\"end_ns\":2,\"parent\":0,\"count\":7}\n\
             ]\n"
        );
    }
}
