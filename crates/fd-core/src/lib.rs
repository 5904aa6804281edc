//! Modular adaptive push-style failure detectors.
//!
//! This crate implements the DSN'05 paper's contribution: a push-style crash
//! failure detector whose time-out `δ_i` is split into a **predictor** of the
//! next heartbeat delay plus a **safety margin**:
//!
//! ```text
//! τ_i = σ_i + δ_i,   δ_i = pred_i + sm_i,   σ_i = i·η
//! ```
//!
//! The monitor suspects the monitored process if, at a time in
//! `[τ_i, τ_{i+1}]`, no heartbeat with sequence ≥ i has been received.
//!
//! * [`predictor`] — the five predictors of the paper: `LAST`, `MEAN`,
//!   `WINMEAN(N)`, `LPF(β)`, `ARIMA(p,d,q)`;
//! * [`margin`] — the two adaptive safety-margin families (`SM_CI(γ)`,
//!   `SM_JAC(φ)`) plus the constant margin of the NFD-E baseline;
//! * [`detector`] — the freshness-point state machine;
//! * [`bank`] — the shared-computation [`DetectorBank`]: all 30
//!   combinations behind one batched engine, each distinct predictor
//!   updated once per heartbeat and the margin cores shared;
//! * [`source_bank`] — the many-source [`SourceBank`]: N sources × M
//!   combinations in struct-of-arrays layout with contiguous per-combo
//!   deadline arrays and a batch heartbeat path;
//! * [`snapshot`] — the byte plumbing of the `FDBK`/`FDSB` warm-restart
//!   images; each predictor and margin core defines its own bytes in a
//!   `write_state`/`read_state` pair beside the type;
//! * [`combinations`] — the registry of the paper's 30 predictor × margin
//!   combinations;
//! * [`nfd`] — the Chen–Toueg–Aguilera NFD-E baseline the paper extends.
//!
//! # Example
//!
//! ```
//! use fd_core::combinations::Combination;
//! use fd_core::{MarginKind, PredictorKind};
//! use fd_sim::{SimDuration, SimTime};
//!
//! let eta = SimDuration::from_secs(1);
//! let combo = Combination::new(PredictorKind::Last, MarginKind::Jac { phi: 1.0 });
//! let mut fd = combo.build(eta);
//!
//! // Heartbeat m_0 sent at 0 s arrives after 200 ms.
//! fd.on_heartbeat(0, SimTime::from_millis(200));
//! assert!(!fd.is_suspecting());
//! // Well past the next freshness point with no heartbeat: suspect.
//! fd.check(SimTime::from_secs(5));
//! assert!(fd.is_suspecting());
//! ```

pub mod bank;
pub mod combinations;
pub mod detector;
pub mod margin;
pub mod nfd;
pub mod predictor;
pub mod pull;
pub mod snapshot;
pub mod source_bank;

pub use bank::{BankTransition, DetectorBank, PredictorState};
pub use combinations::{
    all_combinations, extended_combinations, Combination, MarginKind, PredictorKind,
};
pub use detector::{FailureDetector, FdOutput, FdTransition};
pub use margin::{
    CiCore, ConfidenceMargin, ConstantMargin, JacCore, JacobsonMargin, RtoCore, RtoMargin,
    SafetyMargin,
};
pub use nfd::nfd_e;
pub use predictor::{
    AdaptiveWindow, ArimaPredictor, Last, Lpf, Mean, MlPredictor, PhiAccrual, Predictor, WinMean,
};
pub use pull::PullFailureDetector;
pub use snapshot::SnapshotError;
pub use source_bank::{HeartbeatObs, SourceBank, SourceTransition};
