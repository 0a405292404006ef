//! The error bound, written once: the absolute bound `pressio:abs`, the
//! value-range-relative bound `pressio:rel` (the normalization the paper's
//! footnote 6 discusses), and the finite value range that turns one into
//! the other.
//!
//! Both codecs hold one [`ErrorBound`] and resolve it per buffer; the
//! prediction schemes resolve the bound a codec reports against the same
//! range, so a scheme predicts at the bound the codec will hold.

use crate::data::Data;
use crate::error::{Error, Result};
use crate::lanes::Widen;
use crate::options::Options;

const ABS: &str = "pressio:abs";
const REL: &str = "pressio:rel";

/// A point-wise absolute error bound and an optional relative one.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorBound {
    /// `pressio:abs` (default `1e-4`): positive and finite.
    pub abs: f64,
    /// `pressio:rel`: while set, the bound on a buffer is `rel × range`
    /// of its finite values (`abs` where that range is 0). Positive and
    /// finite; setting 0 clears it.
    pub rel: Option<f64>,
}

impl Default for ErrorBound {
    fn default() -> Self {
        ErrorBound {
            abs: 1e-4,
            rel: None,
        }
    }
}

impl ErrorBound {
    /// The two option keys, as a codec lists them among its
    /// error-dependent settings.
    pub const KEYS: [&'static str; 2] = [ABS, REL];

    /// The bound a compressor reports in its options: its `pressio:abs`,
    /// which must be there, and its `pressio:rel` if set.
    pub fn of(opts: &Options) -> Result<ErrorBound> {
        opts.get_f64(ABS)?;
        let mut bound = ErrorBound::default();
        bound.set_options(opts)?;
        Ok(bound)
    }

    /// Apply whichever of the two keys `opts` holds, validated; a rejected
    /// value leaves the bound as it was.
    pub fn set_options(&mut self, opts: &Options) -> Result<()> {
        let abs = opts.get_f64_opt(ABS)?.unwrap_or(self.abs);
        let rel = match opts.get_f64_opt(REL)? {
            Some(0.0) => None,
            None => self.rel,
            rel => rel,
        };
        let invalid = |key: &str, reason: &str| Error::InvalidValue {
            key: key.into(),
            reason: reason.into(),
        };
        if !(abs.is_finite() && abs > 0.0) {
            return Err(invalid(ABS, "error bound must be positive and finite"));
        }
        if rel.is_some_and(|rel| !(rel.is_finite() && rel > 0.0)) {
            return Err(invalid(
                REL,
                "relative bound must be positive and finite (0 clears)",
            ));
        }
        *self = ErrorBound { abs, rel };
        Ok(())
    }

    /// The bound as a codec reports it: both keys, `rel` 0 when unset.
    pub fn options(&self) -> Options {
        Options::new()
            .with(ABS, self.abs)
            .with(REL, self.rel.unwrap_or(0.0))
    }

    /// The absolute bound on a buffer: `rel × range` while `rel` is set and
    /// the buffer's finite value range is finite and positive, else `abs`.
    /// `range` is called only while `rel` is set.
    pub fn resolve(&self, range: impl FnOnce() -> f64) -> f64 {
        match self.rel.map(|rel| (rel, range())) {
            Some((rel, range)) if range.is_finite() && range > 0.0 => rel * range,
            _ => self.abs,
        }
    }
}

/// The least and greatest finite element of `values`, `None` when there is
/// no finite one.
pub fn finite_extrema<T: Widen>(values: &[T]) -> Option<(f64, f64)> {
    let finite = values.iter().map(|v| v.widen()).filter(|v| v.is_finite());
    finite.fold(None, |extrema, v| match extrema {
        None => Some((v, v)),
        Some((lo, hi)) => Some((lo.min(v), hi.max(v))),
    })
}

/// `max − min` over the finite elements of `values`, 0 when there are none.
pub fn finite_range<T: Widen>(values: &[T]) -> f64 {
    finite_extrema(values).map_or(0.0, |(lo, hi)| hi - lo)
}

/// [`finite_range`] of a buffer's elements, whatever their type.
pub fn finite_range_of(data: &Data) -> f64 {
    crate::with_elements!(data.elements(), values => finite_range(values))
}
