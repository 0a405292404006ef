//! Linear-scale quantization with an unpredictable-value escape hatch —
//! the error-control heart of SZ-style compressors.
//!
//! Given a prediction `p` for a value `v` and an absolute error bound `eb`,
//! the residual is quantized to `code = round((v - p) / (2·eb))` and the
//! reconstruction is `p + 2·eb·code`, which is within `eb` of `v` unless
//! floating-point cancellation intervenes — in which case the value is
//! stored verbatim ("unpredictable", symbol 0). Symbols are
//! `code + radius`, keeping the common near-zero residuals in a dense,
//! low-entropy band for the Huffman stage.

use pressio_core::lanes::{finite, LANES};

/// A quantizer's constants as the branch-free kernels read them, and the one
/// branch-free statement of [`Quantizer::quantize`] and of
/// [`decode_symbol`]: an escape is a select, never a branch. The lane body
/// of [`Quantizer::quantize_slice`] and the portable Lorenzo sweep both
/// call these two functions; the AVX2 sweep is their only transliteration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Formula {
    pub(crate) eb: f64,
    /// `2·eb`, the width of one quantization bin.
    pub(crate) two_eb: f64,
    /// `radius − 1`: a code is representable strictly inside `±limit`.
    pub(crate) limit: f64,
    pub(crate) radius: f64,
    pub(crate) round_f32: bool,
}

impl Formula {
    pub(crate) fn new(eb: f64, radius: i64, round_f32: bool) -> Formula {
        assert!(eb > 0.0, "error bound must be positive");
        // a symbol `code + radius` must fit the i32 the vector convert yields
        assert!(radius > 1 && radius <= 1 << 30);
        Formula {
            eb,
            two_eb: 2.0 * eb,
            limit: (radius - 1) as f64,
            radius: radius as f64,
            round_f32,
        }
    }

    #[inline(always)]
    fn round_target(&self, v: f64) -> f64 {
        if self.round_f32 {
            v as f32 as f64
        } else {
            v
        }
    }

    /// `(reconstruction, symbol)` of `value` against `prediction`; symbol 0
    /// is the escape, whose reconstruction is the value to store verbatim.
    ///
    /// All-`f64` arithmetic: where `ok` holds `code` is integral and inside
    /// `±limit`, so it is the scalar path's `i64` round trip bit for bit —
    /// but for its sign when zero: the round trip yields `+0.0` where
    /// `round` keeps `−0.0`, which shows only when `prediction` is `−0.0`
    /// too, so the prediction is added to `+0.0` first (a no-op on any other
    /// value, and off the dependency chain). `&`, not `&&`, keeps the
    /// predicate chain free of branches.
    #[inline(always)]
    pub(crate) fn quantize(&self, prediction: f64, value: f64) -> (f64, u32) {
        let code = ((value - prediction) / self.two_eb).round();
        let recon = self.round_target((prediction + 0.0) + self.two_eb * code);
        let ok = finite(value)
            & finite(prediction)
            & (code.abs() < self.limit)
            & ((recon - value).abs() <= self.eb);
        // select in f64, convert once: an escape's huge or NaN code never
        // reaches the cast
        let (recon, symbol) = if ok {
            (recon, code + self.radius)
        } else {
            (self.round_target(value), 0.0)
        };
        (recon, symbol as i32 as u32)
    }

    /// The value a valid `symbol` decodes to against `prediction`;
    /// `verbatim` is what the escape symbol 0 stands for at this point.
    #[inline(always)]
    pub(crate) fn recover(&self, prediction: f64, symbol: u32, verbatim: f64) -> f64 {
        let code = symbol as f64 - self.radius;
        let coded = self.round_target(prediction + self.two_eb * code);
        if symbol == 0 {
            verbatim
        } else {
            coded
        }
    }
}

/// Streaming quantizer used during compression.
#[derive(Debug)]
pub struct Quantizer {
    eb: f64,
    radius: i64,
    /// When set, reconstructions are rounded through `f32` so that the
    /// decompressor (whose output buffer is `f32`) sees bit-identical
    /// predictions.
    round_f32: bool,
    /// Emitted symbol stream; 0 = unpredictable, else `code + radius`.
    pub symbols: Vec<u32>,
    /// Verbatim values for unpredictable points, in emission order.
    pub unpredictable: Vec<f64>,
}

impl Quantizer {
    /// Create a quantizer. `radius` bounds representable codes to
    /// `[-(radius-1), radius-1]`; residuals outside become unpredictable.
    pub fn new(eb: f64, radius: i64, round_f32: bool, capacity: usize) -> Quantizer {
        assert!(eb > 0.0, "error bound must be positive");
        assert!(radius > 1);
        Quantizer {
            eb,
            radius,
            round_f32,
            symbols: Vec::with_capacity(capacity),
            unpredictable: Vec::new(),
        }
    }

    #[inline]
    fn round_target(&self, v: f64) -> f64 {
        if self.round_f32 {
            v as f32 as f64
        } else {
            v
        }
    }

    /// Quantize `value` against `prediction`; returns the reconstruction the
    /// decompressor will produce (feed it back into the predictor state).
    #[inline]
    pub fn quantize(&mut self, prediction: f64, value: f64) -> f64 {
        if value.is_finite() && prediction.is_finite() {
            let diff = value - prediction;
            let code = (diff / (2.0 * self.eb)).round();
            if code.abs() < (self.radius - 1) as f64 {
                let code = code as i64;
                let recon = self.round_target(prediction + 2.0 * self.eb * code as f64);
                if (recon - value).abs() <= self.eb {
                    self.symbols.push((code + self.radius) as u32);
                    return recon;
                }
            }
        }
        // escape: store verbatim (rounded through target precision, which is
        // exact for values that came from that precision)
        let recon = self.round_target(value);
        self.symbols.push(0);
        self.unpredictable.push(recon);
        recon
    }

    /// Lane-kernel bulk quantization: quantizes `values[i]` against
    /// `predictions[i]`, writing reconstructions into `recon` and emitting
    /// symbols/escapes exactly as per-element [`Quantizer::quantize`] calls
    /// would — the two paths are byte-identical (pinned by proptests).
    ///
    /// Chunks of [`LANES`] elements go through the branch-free
    /// [`Formula::quantize`] (division, round, and the error-bound check all
    /// vectorize) and commit their eight symbols with one bulk push; an
    /// escape's reconstruction is the value stored verbatim, so the escapes
    /// of a chunk are read back off its symbols, in order.
    pub fn quantize_slice(&mut self, predictions: &[f64], values: &[f64], recon: &mut [f64]) {
        assert_eq!(predictions.len(), values.len());
        assert_eq!(values.len(), recon.len());
        let formula = Formula::new(self.eb, self.radius, self.round_f32);
        let mut i = 0usize;
        while i + LANES <= values.len() {
            let vs: &[f64; LANES] = values[i..i + LANES].try_into().unwrap();
            let ps: &[f64; LANES] = predictions[i..i + LANES].try_into().unwrap();
            let mut syms = [0u32; LANES];
            let mut recs = [0.0f64; LANES];
            for l in 0..LANES {
                (recs[l], syms[l]) = formula.quantize(ps[l], vs[l]);
            }
            self.symbols.extend_from_slice(&syms);
            recon[i..i + LANES].copy_from_slice(&recs);
            if syms.contains(&0) {
                let escapes = syms.iter().zip(recs).filter(|(&s, _)| s == 0);
                self.unpredictable.extend(escapes.map(|(_, r)| r));
            }
            i += LANES;
        }
        for l in i..values.len() {
            recon[l] = self.quantize(predictions[l], values[l]);
        }
    }

    /// An empty quantizer with the same parameters. Parallel encoders
    /// quantize disjoint regions through forks and splice the streams back
    /// in canonical order with [`Quantizer::absorb`]; because `quantize`
    /// has no cross-call state, the spliced streams are identical to a
    /// single sequential pass.
    pub fn fork(&self, capacity: usize) -> Quantizer {
        Quantizer::new(self.eb, self.radius, self.round_f32, capacity)
    }

    /// Append another quantizer's symbol and verbatim streams.
    pub fn absorb(&mut self, other: Quantizer) {
        self.symbols.extend_from_slice(&other.symbols);
        self.unpredictable.extend_from_slice(&other.unpredictable);
    }
}

/// Streaming dequantizer used during decompression; mirrors [`Quantizer`].
#[derive(Debug)]
pub struct Dequantizer<'a> {
    eb: f64,
    radius: i64,
    round_f32: bool,
    symbols: std::slice::Iter<'a, u32>,
    unpredictable: std::slice::Iter<'a, f64>,
}

/// Error produced when the symbol/unpredictable streams run dry or contain
/// out-of-range codes (corrupt input).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DequantError(pub &'static str);

impl std::fmt::Display for DequantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dequantization failed: {}", self.0)
    }
}

impl std::error::Error for DequantError {}

impl From<DequantError> for pressio_core::Error {
    fn from(e: DequantError) -> Self {
        pressio_core::Error::CorruptStream(e.to_string())
    }
}

/// Stateless single-symbol decode shared by [`Dequantizer::recover`] and
/// the pass-parallel interpolation decoder: `Ok(Some(v))` recovers a coded
/// value, `Ok(None)` means "take the next unpredictable value verbatim",
/// and `Err` flags an out-of-range symbol. Keeping the arithmetic in one
/// place guarantees the sequential and parallel decode paths can never
/// diverge by an ulp.
#[inline]
pub(crate) fn decode_symbol(
    eb: f64,
    radius: i64,
    round_f32: bool,
    sym: u32,
    prediction: f64,
) -> Result<Option<f64>, DequantError> {
    if sym == 0 {
        return Ok(None);
    }
    let code = sym as i64 - radius;
    if code.abs() >= radius {
        return Err(DequantError("symbol out of range"));
    }
    let v = prediction + 2.0 * eb * code as f64;
    Ok(Some(if round_f32 { v as f32 as f64 } else { v }))
}

impl<'a> Dequantizer<'a> {
    /// Create a dequantizer over decoded symbol and verbatim-value streams.
    pub fn new(
        eb: f64,
        radius: i64,
        round_f32: bool,
        symbols: &'a [u32],
        unpredictable: &'a [f64],
    ) -> Dequantizer<'a> {
        Dequantizer {
            eb,
            radius,
            round_f32,
            symbols: symbols.iter(),
            unpredictable: unpredictable.iter(),
        }
    }

    /// Recover the next value given the same `prediction` the compressor
    /// computed (guaranteed by feeding reconstructions into the predictor).
    #[inline]
    pub fn recover(&mut self, prediction: f64) -> Result<f64, DequantError> {
        let &sym = self
            .symbols
            .next()
            .ok_or(DequantError("symbol stream exhausted"))?;
        match decode_symbol(self.eb, self.radius, self.round_f32, sym, prediction)? {
            Some(v) => Ok(v),
            None => {
                let &v = self
                    .unpredictable
                    .next()
                    .ok_or(DequantError("unpredictable stream exhausted"))?;
                Ok(v)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: &[f64], eb: f64, round_f32: bool) -> Vec<f64> {
        let mut q = Quantizer::new(eb, 32768, round_f32, values.len());
        let mut recon_c = Vec::with_capacity(values.len());
        let mut pred = 0.0;
        for &v in values {
            let r = q.quantize(pred, v);
            recon_c.push(r);
            pred = r; // 1-d lorenzo
        }
        let mut dq = Dequantizer::new(eb, 32768, round_f32, &q.symbols, &q.unpredictable);
        let mut out = Vec::with_capacity(values.len());
        let mut pred = 0.0;
        for _ in values {
            let r = dq.recover(pred).unwrap();
            out.push(r);
            pred = r;
        }
        assert_eq!(recon_c, out, "compressor/decompressor recon divergence");
        out
    }

    #[test]
    fn error_bound_respected_f64() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin() * 5.0).collect();
        for eb in [1e-1, 1e-3, 1e-6] {
            let recon = round_trip(&values, eb, false);
            for (v, r) in values.iter().zip(&recon) {
                assert!((v - r).abs() <= eb, "eb={eb}: |{v}-{r}|");
            }
        }
    }

    #[test]
    fn error_bound_respected_f32_rounding() {
        let values: Vec<f64> = (0..1000)
            .map(|i| ((i as f32 * 0.01).sin() * 1e6) as f64)
            .collect();
        let eb = 1e-2;
        let recon = round_trip(&values, eb, true);
        for (v, r) in values.iter().zip(&recon) {
            assert!((v - r).abs() <= eb, "|{v}-{r}| > {eb}");
            assert_eq!(*r, *r as f32 as f64, "recon not f32-representable");
        }
    }

    #[test]
    fn huge_jumps_become_unpredictable() {
        let values = vec![0.0, 1e12, -1e12, 0.0];
        let mut q = Quantizer::new(1e-6, 256, false, 4);
        let mut pred = 0.0;
        for &v in &values {
            pred = q.quantize(pred, v);
        }
        assert!(q.unpredictable.len() >= 2);
        // verbatim values are exact
        for (v, u) in values
            .iter()
            .filter(|v| v.abs() > 1.0)
            .zip(&q.unpredictable)
        {
            assert_eq!(v, u);
        }
    }

    #[test]
    fn non_finite_values_stored_verbatim() {
        let mut q = Quantizer::new(1e-3, 32768, false, 3);
        let r = q.quantize(0.0, f64::NAN);
        assert!(r.is_nan());
        assert_eq!(q.symbols, vec![0]);
        let r = q.quantize(f64::INFINITY, 1.0);
        assert_eq!(r, 1.0);
        assert_eq!(q.unpredictable.len(), 2);
    }

    #[test]
    fn constant_data_single_symbol() {
        let values = vec![3.25; 100];
        let mut q = Quantizer::new(1e-3, 32768, false, 100);
        let mut pred = 0.0;
        for &v in &values {
            pred = q.quantize(pred, v);
        }
        // after the first sample, every residual is zero -> same symbol
        let s1 = q.symbols[1];
        assert!(q.symbols[1..].iter().all(|&s| s == s1));
        assert!(q.unpredictable.is_empty());
    }

    #[test]
    fn exhausted_streams_error() {
        let symbols = [0u32];
        let unpred: [f64; 0] = [];
        let mut dq = Dequantizer::new(1e-3, 32768, false, &symbols, &unpred);
        assert!(dq.recover(0.0).is_err()); // symbol 0 but no verbatim value
        let symbols: [u32; 0] = [];
        let mut dq = Dequantizer::new(1e-3, 32768, false, &symbols, &unpred);
        assert!(dq.recover(0.0).is_err()); // no symbols at all
    }

    #[test]
    fn out_of_range_symbol_errors() {
        let symbols = [100_000u32];
        let unpred: [f64; 0] = [];
        let mut dq = Dequantizer::new(1e-3, 32768, false, &symbols, &unpred);
        assert!(dq.recover(0.0).is_err());
    }

    #[test]
    #[should_panic(expected = "error bound must be positive")]
    fn zero_error_bound_panics() {
        let _ = Quantizer::new(0.0, 32768, false, 0);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn quantize_slice_matches_scalar_bit_for_bit() {
        // sizes straddling the lane width, both rounding modes, with
        // escapes and non-finite lanes forcing mixed chunks
        for (n, round_f32) in [
            (1usize, false),
            (7, false),
            (8, true),
            (61, false),
            (200, true),
        ] {
            let mut values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
            let preds: Vec<f64> = (0..n)
                .map(|i| (i as f64 * 0.37).sin() * 3.0 + 1e-5 * (i % 5) as f64)
                .collect();
            if n > 10 {
                values[3] = 1e40; // out-of-range code -> escape
                values[9] = f64::NAN;
                values[10] = f64::INFINITY;
            }
            let mut lane_q = Quantizer::new(1e-4, 32768, round_f32, n);
            let mut lane_recon = vec![0.0f64; n];
            lane_q.quantize_slice(&preds, &values, &mut lane_recon);
            let mut scalar_q = Quantizer::new(1e-4, 32768, round_f32, n);
            let scalar_recon: Vec<f64> = preds
                .iter()
                .zip(&values)
                .map(|(&p, &v)| scalar_q.quantize(p, v))
                .collect();
            assert_eq!(bits(&lane_recon), bits(&scalar_recon), "n={n}");
            assert_eq!(lane_q.symbols, scalar_q.symbols, "n={n}");
            assert_eq!(
                bits(&lane_q.unpredictable),
                bits(&scalar_q.unpredictable),
                "n={n}"
            );
        }
    }
}
