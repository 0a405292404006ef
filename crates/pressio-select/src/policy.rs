//! The target-metric policy: "maximize compression ratio subject to
//! PSNR ≥ X dB".
//!
//! Both SZ and ZFP run here in fixed-accuracy mode, which guarantees the
//! point-wise absolute error bound. That guarantee gives an *analytic*
//! PSNR floor — `rmse ≤ abs` implies `psnr ≥ 20·log10(range/abs)` — so the
//! policy can decide which candidate bounds are admissible without
//! compressing anything, and the predictor only has to rank compression
//! ratios inside the admissible set. The same property makes the static
//! fallback safe: it never needs a prediction to honor the quality target.

/// Default PSNR floor in dB.
pub const DEFAULT_PSNR_FLOOR: f64 = 60.0;
/// Default candidate absolute error bounds (matching the serve trainer's
/// default sweep, so remote models cover the same grid).
pub const DEFAULT_BOUNDS: [f64; 3] = [1e-5, 1e-4, 1e-3];

/// A "max ratio subject to PSNR ≥ floor" selection policy.
#[derive(Debug, Clone, PartialEq)]
pub struct Policy {
    /// Minimum acceptable PSNR in dB.
    pub psnr_floor: f64,
    /// Candidate absolute error bounds, kept sorted ascending.
    pub bounds: Vec<f64>,
}

impl Default for Policy {
    fn default() -> Self {
        Policy {
            psnr_floor: DEFAULT_PSNR_FLOOR,
            bounds: DEFAULT_BOUNDS.to_vec(),
        }
    }
}

impl Policy {
    /// Human-readable form stored in the decision record.
    pub fn describe(&self) -> String {
        format!("max-ratio s.t. psnr>={}dB", self.psnr_floor)
    }

    /// The analytic PSNR guarantee of an absolute bound on data with the
    /// given value range (`max - min`). Infinite for degenerate ranges:
    /// constant data reconstructs within any bound.
    pub fn guaranteed_psnr(range: f64, abs: f64) -> f64 {
        if range <= 0.0 || !range.is_finite() {
            return f64::INFINITY;
        }
        20.0 * (range / abs).log10()
    }

    /// Candidate bounds admissible for this data range, ascending. When no
    /// candidate can guarantee the floor, the tightest bound is returned
    /// alone — the best available quality rather than an empty choice.
    pub fn feasible_bounds(&self, range: f64) -> Vec<f64> {
        let mut sorted: Vec<f64> = self
            .bounds
            .iter()
            .copied()
            .filter(|b| b.is_finite() && *b > 0.0)
            .collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        sorted.dedup();
        assert!(!sorted.is_empty(), "policy needs at least one valid bound");
        let feasible: Vec<f64> = sorted
            .iter()
            .copied()
            .filter(|&b| Self::guaranteed_psnr(range, b) >= self.psnr_floor)
            .collect();
        if feasible.is_empty() {
            vec![sorted[0]]
        } else {
            feasible
        }
    }

    /// The deterministic static choice: SZ at the loosest admissible
    /// bound. No prediction involved, so it is byte-reproducible whenever
    /// the consult path is down — the fallback the chaos tests pin.
    pub fn static_choice(&self, range: f64) -> (&'static str, f64) {
        let feasible = self.feasible_bounds(range);
        (
            "sz3",
            *feasible.last().expect("feasible_bounds is non-empty"),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pressio_core::bound::finite_range_of;
    use pressio_core::{Compressor, Data, Options};

    #[test]
    fn analytic_floor_matches_formula() {
        // range 1.0, abs 1e-3 -> exactly 60 dB
        assert!((Policy::guaranteed_psnr(1.0, 1e-3) - 60.0).abs() < 1e-9);
        assert_eq!(Policy::guaranteed_psnr(0.0, 1e-3), f64::INFINITY);
    }

    #[test]
    fn feasible_set_narrows_with_range() {
        let p = Policy::default();
        // wide range: all three bounds guarantee 60 dB
        assert_eq!(p.feasible_bounds(1000.0).len(), 3);
        // range 0.02: only abs <= 2e-5 reaches 60 dB
        assert_eq!(p.feasible_bounds(0.02), vec![1e-5]);
    }

    #[test]
    fn infeasible_policy_degrades_to_tightest_bound() {
        let p = Policy {
            psnr_floor: 200.0,
            bounds: vec![1e-3, 1e-4],
        };
        assert_eq!(p.feasible_bounds(1.0), vec![1e-4]);
        assert_eq!(p.static_choice(1.0), ("sz3", 1e-4));
    }

    #[test]
    fn static_choice_takes_loosest_admissible() {
        let p = Policy::default();
        assert_eq!(p.static_choice(1000.0), ("sz3", 1e-3));
    }

    #[test]
    fn value_range_skips_nans() {
        let d = Data::from_f32(vec![4], vec![1.0, f32::NAN, -2.0, 3.0]);
        assert_eq!(finite_range_of(&d), 5.0);
        let flat = Data::from_f32(vec![2], vec![7.0, 7.0]);
        assert_eq!(finite_range_of(&flat), 0.0);
    }

    /// An infinity is stored exactly and says nothing of the range the
    /// PSNR floor is held over: a smooth field of range 0.2 is held at
    /// 1e-4 (66 dB), and one `+inf` in it must not make it look constant
    /// and send it to 1e-3 (46 dB on its finite values).
    #[test]
    fn an_infinity_does_not_loosen_the_bound() {
        let mut codec = crate::SelectCodec::new();
        codec
            .set_options(&Options::new().with("select:consult", "static"))
            .unwrap();
        let mut values: Vec<f32> = (0..32 * 32 * 16)
            .map(|i| 0.1 * (i as f32 * 0.01).sin())
            .collect();
        let finite = codec.decide(&Data::from_f32(vec![32, 32, 16], values.clone()));
        values[100] = f32::INFINITY;
        let salted = codec.decide(&Data::from_f32(vec![32, 32, 16], values));
        assert_eq!(finite.abs, 1e-4);
        assert_eq!(salted.abs, finite.abs);
    }
}
