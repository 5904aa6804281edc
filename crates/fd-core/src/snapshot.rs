//! The byte-level plumbing of the two warm-restart images.
//!
//! A [`DetectorBank`](crate::bank::DetectorBank) checkpoints as an `FDBK`
//! image ([`snapshot_bytes`](crate::bank::DetectorBank::snapshot_bytes) /
//! [`restore_bytes`](crate::bank::DetectorBank::restore_bytes)) and a
//! [`SourceBank`](crate::source_bank::SourceBank) as an `FDSB` image. Both
//! are versioned, hand-rolled little-endian byte formats: every `f64` is
//! stored via [`f64::to_bits`], so a decode→encode round trip is exact and
//! a restored bank's floating-point trajectory is the original's. No
//! textual format (JSON, CSV) can guarantee that.
//!
//! Each predictor family and margin core defines its own bytes once, as a
//! `write_state(&mut Writer)` / `read_state(&mut Reader)` pair beside the
//! type; the two bank codecs frame those bodies. This module holds what
//! they share: the error type, the [`Writer`]/[`Reader`] pair and the
//! ARIMA body (whose state lives in `fd-arima`).
//!
//! An image does **not** store the combination grid — that is
//! configuration, not state. `read_state` decodes *into the shape of* an
//! already-configured value and rejects bytes that do not fit it with
//! [`SnapshotError::Mismatch`].

use std::fmt;

use fd_arima::{ArimaSnapshot, ArimaSpec};

/// Errors from [`DetectorBank::restore_bytes`](crate::bank::DetectorBank::restore_bytes),
/// [`SourceBank::restore_bytes`](crate::source_bank::SourceBank::restore_bytes)
/// and the per-family `read_state` decoders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The byte stream ended before the snapshot was complete.
    Truncated,
    /// The leading magic bytes are not `FDBK`.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u8),
    /// An enum tag byte was out of range.
    BadTag(u8),
    /// Bytes remained after the snapshot was fully decoded.
    TrailingBytes(usize),
    /// A decoded value is inconsistent (e.g. an overfull window).
    Invalid(&'static str),
    /// The snapshot does not fit the bank it is being restored into.
    Mismatch(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::BadTag(t) => write!(f, "bad snapshot tag {t}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after snapshot")
            }
            SnapshotError::Invalid(what) => write!(f, "invalid snapshot field: {what}"),
            SnapshotError::Mismatch(what) => {
                write!(f, "snapshot does not match bank: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

pub(crate) fn write_arima(w: &mut Writer, a: &ArimaSnapshot) {
    w.u64(a.spec.p as u64);
    w.u64(a.spec.d as u64);
    w.u64(a.spec.q as u64);
    w.u64(a.refit_every as u64);
    w.vec_f64(&a.window);
    match &a.model {
        Some((intercept, phi, psi, sigma2)) => {
            w.u8(1);
            w.f64(*intercept);
            w.vec_f64(phi);
            w.vec_f64(psi);
            w.f64(*sigma2);
        }
        None => w.u8(0),
    }
    w.vec_f64(&a.diff_recent);
    w.vec_f64(&a.recent_z);
    w.vec_f64(&a.recent_innov);
    w.opt_f64(a.pending_diff_forecast);
    w.opt_f64(a.last_level);
    w.u64(a.observed as u64);
    w.u64(a.refits as u64);
    w.u64(a.failed_fits as u64);
}

pub(crate) fn read_arima(r: &mut Reader<'_>) -> Result<ArimaSnapshot, SnapshotError> {
    let p = r.len()?;
    let d = r.len()?;
    let q = r.len()?;
    // `ArimaState` stores orders in a byte each and panics past 255; a
    // corrupted snapshot must surface as a decode error instead.
    if p > 255 || d > 255 || q > 255 {
        return Err(SnapshotError::Invalid("arima order"));
    }
    let spec = ArimaSpec::new(p, d, q);
    let refit_every = r.len()?;
    let window = r.vec_f64()?;
    let model = if r.flag()? {
        Some((r.f64()?, r.vec_f64()?, r.vec_f64()?, r.f64()?))
    } else {
        None
    };
    Ok(ArimaSnapshot {
        spec,
        refit_every,
        window,
        model,
        diff_recent: r.vec_f64()?,
        recent_z: r.vec_f64()?,
        recent_innov: r.vec_f64()?,
        pending_diff_forecast: r.opt_f64()?,
        last_level: r.opt_f64()?,
        observed: r.len()?,
        refits: r.len()?,
        failed_fits: r.len()?,
    })
}

/// Little-endian byte writer shared by the `FDBK` and `FDSB` codecs and
/// the per-family `write_state` encoders.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }
    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    pub(crate) fn vec_f64(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }
    pub(crate) fn vec_u32(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u32(x);
        }
    }
    pub(crate) fn vec_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }
    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }
    pub(crate) fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.f64(x);
            }
            None => self.u8(0),
        }
    }
}

/// The matching never-panicking reader: truncation, corruption and
/// length-claim overflows all surface as [`SnapshotError`].
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }
    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.bytes(1)?[0])
    }
    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }
    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A u64 that must fit in usize (lengths, counters).
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Invalid("length overflows usize"))
    }
    pub(crate) fn vec_f64(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let n = self.len()?;
        // A length claim beyond the bytes actually present is corruption;
        // reject before allocating.
        if n > self.remaining() / 8 {
            return Err(SnapshotError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.f64()?);
        }
        Ok(out)
    }
    pub(crate) fn vec_u32(&mut self) -> Result<Vec<u32>, SnapshotError> {
        let n = self.len()?;
        if n > self.remaining() / 4 {
            return Err(SnapshotError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }
    pub(crate) fn vec_u64(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let n = self.len()?;
        if n > self.remaining() / 8 {
            return Err(SnapshotError::Truncated);
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }
    /// A presence/boolean byte: 0 or 1, anything else is a bad tag.
    pub(crate) fn flag(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapshotError::BadTag(t)),
        }
    }
    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.flag()? {
            Some(self.u64()?)
        } else {
            None
        })
    }
    pub(crate) fn opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        Ok(if self.flag()? {
            Some(self.f64()?)
        } else {
            None
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::Mismatch("eta").to_string().contains("eta"));
    }
}
