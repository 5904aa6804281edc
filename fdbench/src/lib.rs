//! `fdbench` — the benchmark every later performance claim about this
//! repository is measured with: six named workloads, seven end-to-end
//! metrics and a per-layer trace. See `README.md` beside this crate.

pub mod affinity;
pub mod harness;
pub mod replica;
pub mod span;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workload;
