//! The `predict_plugin` abstraction (paper §4.2): Scikit-Learn
//! `BaseEstimator`-inspired `fit`/`predict` with serializable state.
//!
//! Every trained model here regresses `log2` of its target over named
//! features and is a `LogSpaceModel`: it states only its own fit of rows
//! and its own prediction of one row, and the one [`Predictor`] impl over
//! them does the rest.

use crate::features::feature_vector;
use pressio_core::error::{Error, Result};
use pressio_core::Options;
use pressio_stats::{
    augment_by_interpolation, ConformalCalibration, ForestParams, GaussianProcess, Interval,
    LinearModel, Mlp, MlpParams, NaturalSpline, RandomForest,
};
use serde::{Deserialize, Serialize};

/// A compression-performance predictor.
///
/// `fit` consumes one feature [`Options`] per training observation plus the
/// observed target (compression ratio); `predict` maps features to an
/// estimate. State must round-trip through `state`/`load_state` so trained
/// predictors can be checkpointed and shipped (the paper requires predictor
/// state to be serializable like every other LibPressio object).
pub trait Predictor: Send + Sync {
    /// Whether `fit` must be called before `predict`.
    fn requires_training(&self) -> bool;

    /// Train on features/targets (no-op for calculation-based predictors).
    fn fit(&mut self, features: &[Options], targets: &[f64]) -> Result<()>;

    /// Predict the target for one feature structure.
    fn predict(&self, features: &Options) -> Result<f64>;

    /// Optional conformal interval around a value [`Predictor::predict`]
    /// answered (only the Ganguli-style predictor provides one). It reads
    /// nothing but the value, so a cached prediction has the same interval.
    fn interval(&self, _prediction: f64, _alpha: f64) -> Option<Interval> {
        None
    }

    /// [`Predictor::interval`] around the prediction for `features`.
    fn predict_interval(&self, features: &Options, alpha: f64) -> Option<Interval> {
        self.interval(self.predict(features).ok()?, alpha)
    }

    /// Serialize trained state.
    fn state(&self) -> Result<Vec<u8>>;

    /// Restore trained state.
    fn load_state(&mut self, bytes: &[u8]) -> Result<()>;

    /// Publish [`Predictor::state`] at `path`, creating its directory
    /// (DESIGN.md, "Durable files").
    fn save_to(&self, path: &std::path::Path) -> Result<()> {
        let state = self.state()?;
        if let Some(dir) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        pressio_core::fs::publish(path, |w| Ok(w.write_all(&state)?))
    }

    /// Restore state saved by [`Predictor::save_to`].
    fn load_from(&mut self, path: &std::path::Path) -> Result<()> {
        let bytes = std::fs::read(path)
            .map_err(|e| Error::Io(format!("predictor state {}: {e}", path.display())))?;
        self.load_state(&bytes)
    }
}

/// The "simple" predictor module from the paper: the prediction *is* the
/// value of a single named metric. No training.
pub struct IdentityPredictor {
    key: String,
}

impl IdentityPredictor {
    /// Predict the value of feature `key` verbatim.
    pub fn new(key: impl Into<String>) -> IdentityPredictor {
        IdentityPredictor { key: key.into() }
    }
}

impl Predictor for IdentityPredictor {
    fn requires_training(&self) -> bool {
        false
    }

    fn fit(&mut self, _features: &[Options], _targets: &[f64]) -> Result<()> {
        Ok(())
    }

    fn predict(&self, features: &Options) -> Result<f64> {
        features.get_f64(&self.key)
    }

    fn state(&self) -> Result<Vec<u8>> {
        Ok(self.key.as_bytes().to_vec())
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        self.key =
            String::from_utf8(bytes.to_vec()).map_err(|e| Error::Serialization(e.to_string()))?;
        Ok(())
    }
}

/// A trained model of `log2` of its target over named features: every
/// model here but the identity. Ratios and times span orders of magnitude,
/// so rows are fit against `log2` targets and a prediction answers through
/// `exp2`. The model's state is its own serde struct as JSON, whose field
/// order is its state bytes.
pub(crate) trait LogSpaceModel: Serialize + Deserialize + Send + Sync {
    /// The features a row holds, in column order.
    fn keys(&self) -> impl Iterator<Item = &String> + Clone;

    /// Fit `log2` targets over rows, as many of each.
    fn fit_rows(&mut self, rows: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<()>;

    /// The `log2` prediction for one row ([`fitted`] refuses a model that
    /// was neither fit nor loaded).
    fn predict_row(&self, x: &[f64]) -> Result<f64>;

    /// An interval in `log2` space around a `log2` prediction.
    fn log2_interval(&self, _prediction: f64, _alpha: f64) -> Option<Interval> {
        None
    }
}

impl<M: LogSpaceModel> Predictor for M {
    fn requires_training(&self) -> bool {
        true
    }

    fn fit(&mut self, features: &[Options], targets: &[f64]) -> Result<()> {
        let invalid = |reason: String| Error::InvalidValue {
            key: "target".into(),
            reason,
        };
        if features.len() != targets.len() {
            let (n, m) = (features.len(), targets.len());
            return Err(invalid(format!("{m} targets for {n} feature rows")));
        }
        let rows = features
            .iter()
            .map(|f| feature_vector(f, self.keys()))
            .collect::<Result<_>>()?;
        let ys = targets
            .iter()
            .map(|&t| {
                if t > 0.0 && t.is_finite() {
                    Ok(t.log2())
                } else {
                    Err(invalid(format!("must be positive and finite, got {t}")))
                }
            })
            .collect::<Result<_>>()?;
        self.fit_rows(rows, ys)
    }

    fn predict(&self, features: &Options) -> Result<f64> {
        Ok(self
            .predict_row(&feature_vector(features, self.keys())?)?
            .exp2())
    }

    fn interval(&self, prediction: f64, alpha: f64) -> Option<Interval> {
        let iv = self.log2_interval(prediction.log2(), alpha)?;
        Some(Interval {
            lo: iv.lo.exp2(),
            hi: iv.hi.exp2(),
            coverage: iv.coverage,
        })
    }

    fn state(&self) -> Result<Vec<u8>> {
        serde_json::to_vec(self).map_err(|e| Error::Serialization(e.to_string()))
    }

    fn load_state(&mut self, bytes: &[u8]) -> Result<()> {
        *self = serde_json::from_slice(bytes).map_err(|e| Error::Serialization(e.to_string()))?;
        Ok(())
    }
}

/// The fitted model, or the refusal of a model neither fit nor loaded.
fn fitted<T>(model: &Option<T>) -> Result<&T> {
    model
        .as_ref()
        .ok_or_else(|| Error::NotFitted("call fit() or load_state() first".into()))
}

fn numerical(e: impl std::fmt::Display) -> Error {
    Error::Numerical(e.to_string())
}

/// Linear regression over named features (Krasowska 2021 style).
#[derive(Serialize, Deserialize)]
pub struct LinearPredictor {
    keys: Vec<String>,
    model: Option<LinearModel>,
}

impl LinearPredictor {
    /// OLS over the given feature keys, predicting `log2(CR)`.
    pub fn new(keys: Vec<String>) -> LinearPredictor {
        LinearPredictor { keys, model: None }
    }
}

impl LogSpaceModel for LinearPredictor {
    fn keys(&self) -> impl Iterator<Item = &String> + Clone {
        self.keys.iter()
    }

    fn fit_rows(&mut self, rows: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<()> {
        self.model = Some(LinearModel::fit(&rows, &ys).map_err(numerical)?);
        Ok(())
    }

    fn predict_row(&self, x: &[f64]) -> Result<f64> {
        fitted(&self.model)?.predict(x).map_err(numerical)
    }
}

/// Additive spline + linear model (Underwood 2023 style): a natural cubic
/// spline over a primary feature plus a linear term in the secondary
/// features, fit by backfitting.
#[derive(Serialize, Deserialize)]
pub struct SplinePredictor {
    /// Feature receiving the spline (a row's first column).
    spline_key: String,
    /// Features entering linearly (the rest of the row).
    linear_keys: Vec<String>,
    knots: usize,
    spline: Option<NaturalSpline>,
    linear: Option<LinearModel>,
}

impl SplinePredictor {
    /// Spline on `spline_key`, linear terms on `linear_keys`.
    pub fn new(spline_key: impl Into<String>, linear_keys: Vec<String>) -> SplinePredictor {
        SplinePredictor {
            spline_key: spline_key.into(),
            linear_keys,
            knots: 6,
            spline: None,
            linear: None,
        }
    }
}

impl LogSpaceModel for SplinePredictor {
    fn keys(&self) -> impl Iterator<Item = &String> + Clone {
        std::iter::once(&self.spline_key).chain(&self.linear_keys)
    }

    fn fit_rows(&mut self, rows: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<()> {
        let xs: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        let lin_rows: Vec<Vec<f64>> = rows.iter().map(|r| r[1..].to_vec()).collect();
        let mut spline = NaturalSpline::fit(&xs, &ys, self.knots).map_err(numerical)?;
        let mut linear: Option<LinearModel> = None;
        if !self.linear_keys.is_empty() {
            // 3 backfitting rounds: spline residuals <-> linear residuals;
            // the final model is spline(resid2) + linear
            for _ in 0..3 {
                let spline_pred = spline.predict_batch(&xs);
                let resid: Vec<f64> = ys.iter().zip(&spline_pred).map(|(y, p)| y - p).collect();
                let lin = LinearModel::fit(&lin_rows, &resid).map_err(numerical)?;
                let lin_pred = lin.predict_batch(&lin_rows).map_err(numerical)?;
                let resid2: Vec<f64> = ys.iter().zip(&lin_pred).map(|(y, p)| y - p).collect();
                spline = NaturalSpline::fit(&xs, &resid2, self.knots).map_err(numerical)?;
                linear = Some(lin);
            }
        }
        self.spline = Some(spline);
        self.linear = linear;
        Ok(())
    }

    fn predict_row(&self, x: &[f64]) -> Result<f64> {
        let spline = fitted(&self.spline)?.predict(x[0]);
        match &self.linear {
            Some(lin) => Ok(spline + lin.predict(&x[1..]).map_err(numerical)?),
            None => Ok(spline),
        }
    }
}

/// Random-forest predictor with FXRZ data augmentation (Rahman 2023 style).
#[derive(Serialize, Deserialize)]
pub struct ForestPredictor {
    keys: Vec<String>,
    /// Synthetic-to-real augmentation factor (0 disables).
    pub augmentation: f64,
    /// Forest hyper-parameters.
    pub params: ForestParams,
    forest: Option<RandomForest>,
}

impl ForestPredictor {
    /// Forest over the given feature keys, predicting `log2(CR)`.
    pub fn new(keys: Vec<String>) -> ForestPredictor {
        ForestPredictor {
            keys,
            augmentation: 2.0,
            params: ForestParams {
                num_trees: 40,
                ..Default::default()
            },
            forest: None,
        }
    }
}

impl LogSpaceModel for ForestPredictor {
    fn keys(&self) -> impl Iterator<Item = &String> + Clone {
        self.keys.iter()
    }

    fn fit_rows(&mut self, mut rows: Vec<Vec<f64>>, mut ys: Vec<f64>) -> Result<()> {
        if rows.is_empty() {
            return Err(Error::NotFitted("no training data".into()));
        }
        augment_by_interpolation(&mut rows, &mut ys, self.augmentation, self.params.seed);
        self.forest = Some(RandomForest::fit(&rows, &ys, &self.params));
        Ok(())
    }

    fn predict_row(&self, x: &[f64]) -> Result<f64> {
        Ok(fitted(&self.forest)?.predict(x))
    }
}

/// Forest + split conformal intervals (Ganguli 2023 style): part of the
/// training set is held out to calibrate distribution-free bounds on the
/// log-ratio prediction error.
#[derive(Serialize, Deserialize)]
pub struct ConformalForestPredictor {
    inner: ForestPredictor,
    calibration: Option<ConformalCalibration>,
}

impl ConformalForestPredictor {
    /// Forest over `keys` with conformal calibration.
    pub fn new(keys: Vec<String>) -> ConformalForestPredictor {
        ConformalForestPredictor {
            inner: ForestPredictor::new(keys),
            calibration: None,
        }
    }
}

impl LogSpaceModel for ConformalForestPredictor {
    fn keys(&self) -> impl Iterator<Item = &String> + Clone {
        self.inner.keys()
    }

    fn fit_rows(&mut self, rows: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<()> {
        // hold out every 4th sample for calibration, none of a set too
        // small to split
        let split = rows.len() >= 5;
        let (held, train): (Vec<_>, Vec<_>) =
            (rows.into_iter().zip(ys).enumerate()).partition(|(i, _)| split && i % 4 == 3);
        let (xs, ys) = train.into_iter().map(|(_, sample)| sample).unzip();
        self.inner.fit_rows(xs, ys)?;
        let (mut predicted, mut actual) = (Vec::new(), Vec::new());
        for (_, (x, y)) in held {
            // the point `predict` answers, back in log space
            predicted.push(self.inner.predict_row(&x)?.exp2().log2());
            actual.push(y);
        }
        self.calibration = ConformalCalibration::calibrate(&predicted, &actual);
        Ok(())
    }

    fn predict_row(&self, x: &[f64]) -> Result<f64> {
        self.inner.predict_row(x)
    }

    fn log2_interval(&self, prediction: f64, alpha: f64) -> Option<Interval> {
        Some(self.calibration.as_ref()?.interval(prediction, alpha))
    }
}

/// Gaussian-process predictor (Lu 2018 style): exact GP regression over
/// named features, predicting `log2(CR)`.
#[derive(Serialize, Deserialize)]
pub struct GpPredictor {
    keys: Vec<String>,
    /// Noise-variance fraction of the target variance.
    pub noise: f64,
    model: Option<GaussianProcess>,
}

impl GpPredictor {
    /// GP over the given feature keys.
    pub fn new(keys: Vec<String>) -> GpPredictor {
        GpPredictor {
            keys,
            noise: 0.01,
            model: None,
        }
    }
}

impl LogSpaceModel for GpPredictor {
    fn keys(&self) -> impl Iterator<Item = &String> + Clone {
        self.keys.iter()
    }

    fn fit_rows(&mut self, rows: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<()> {
        self.model = Some(GaussianProcess::fit(&rows, &ys, self.noise).map_err(numerical)?);
        Ok(())
    }

    fn predict_row(&self, x: &[f64]) -> Result<f64> {
        fitted(&self.model)?.predict(x).map_err(numerical)
    }
}

/// Neural-network predictor (Qin 2020 style): a small MLP over named
/// features, predicting `log2(CR)`.
#[derive(Serialize, Deserialize)]
pub struct MlpPredictor {
    keys: Vec<String>,
    /// Network/training hyper-parameters.
    pub params: MlpParams,
    model: Option<Mlp>,
}

impl MlpPredictor {
    /// MLP over the given feature keys.
    pub fn new(keys: Vec<String>) -> MlpPredictor {
        MlpPredictor {
            keys,
            params: MlpParams::default(),
            model: None,
        }
    }
}

impl LogSpaceModel for MlpPredictor {
    fn keys(&self) -> impl Iterator<Item = &String> + Clone {
        self.keys.iter()
    }

    fn fit_rows(&mut self, rows: Vec<Vec<f64>>, ys: Vec<f64>) -> Result<()> {
        let model = Mlp::fit(&rows, &ys, &self.params);
        self.model = Some(model.ok_or_else(|| Error::Numerical("mlp training failed".into()))?);
        Ok(())
    }

    fn predict_row(&self, x: &[f64]) -> Result<f64> {
        let prediction = fitted(&self.model)?.predict(x);
        prediction.ok_or_else(|| Error::Numerical("mlp dimension mismatch".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn training_set(n: usize) -> (Vec<Options>, Vec<f64>) {
        // CR = 2^(8 - entropy) roughly: log-linear in the feature
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..n {
            let entropy = (i % 9) as f64;
            let aux = (i % 5) as f64 * 0.1;
            features.push(
                Options::new()
                    .with("qent:entropy", entropy)
                    .with("variogram:score", aux),
            );
            targets.push((8.0 - entropy + aux).exp2());
        }
        (features, targets)
    }

    #[test]
    fn identity_predictor_returns_metric() {
        let p = IdentityPredictor::new("tao:sampled_ratio");
        assert!(!p.requires_training());
        let f = Options::new().with("tao:sampled_ratio", 12.5);
        assert_eq!(p.predict(&f).unwrap(), 12.5);
        assert!(p.predict(&Options::new()).is_err());
    }

    #[test]
    fn linear_predictor_learns_log_linear_law() {
        let (features, targets) = training_set(100);
        let mut p = LinearPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        assert!(p.requires_training());
        assert!(matches!(p.predict(&features[0]), Err(Error::NotFitted(_))));
        p.fit(&features, &targets).unwrap();
        for (f, t) in features.iter().zip(&targets).take(20) {
            let pred = p.predict(f).unwrap();
            assert!((pred / t - 1.0).abs() < 0.05, "{pred} vs {t}");
        }
    }

    /// 48 identical rows leave each column a std of rounding residue, not
    /// zero. Standardizing by it once sent a probe off the rows to a ratio
    /// of 0.0 or inf; a column that flat is constant.
    #[test]
    fn linear_predictor_on_identical_rows_answers_a_positive_ratio() {
        let row = Options::new().with("a", 0.1).with("b", 0.7);
        let mut p = LinearPredictor::new(vec!["a".to_string(), "b".to_string()]);
        p.fit(&vec![row; 48], &[3.0; 48]).unwrap();
        let probe = Options::new().with("a", 0.2).with("b", 0.5);
        let ratio = p.predict(&probe).unwrap();
        assert!(ratio.is_finite() && ratio > 0.0, "{ratio}");
    }

    #[test]
    fn spline_predictor_fits_nonlinear_law() {
        // CR = 2^( (entropy-4)^2 / 4 ): nonlinear in entropy
        let mut features = Vec::new();
        let mut targets = Vec::new();
        for i in 0..120 {
            let e = (i % 12) as f64 * 0.75;
            features.push(Options::new().with("qent:entropy", e).with("aux", 0.0));
            targets.push(((e - 4.0) * (e - 4.0) / 4.0).exp2());
        }
        let mut p = SplinePredictor::new("qent:entropy", vec!["aux".to_string()]);
        p.fit(&features, &targets).unwrap();
        for (f, t) in features.iter().zip(&targets).take(12) {
            let pred = p.predict(f).unwrap();
            assert!((pred.log2() - t.log2()).abs() < 0.35, "{pred} vs {t}");
        }
    }

    #[test]
    fn spline_predictor_round_trips_state() {
        let (features, targets) = training_set(60);
        let mut p = SplinePredictor::new("qent:entropy", vec!["variogram:score".to_string()]);
        p.fit(&features, &targets).unwrap();
        let mut q = SplinePredictor::new("", vec![]);
        q.load_state(&p.state().unwrap()).unwrap();
        assert_eq!(
            p.predict(&features[7]).unwrap(),
            q.predict(&features[7]).unwrap()
        );
    }

    /// A truncated state is refused with the parser's reason, and the
    /// predictor stays unfitted rather than half-loaded.
    #[test]
    fn a_truncated_linear_state_says_why_it_does_not_load() {
        let (features, targets) = training_set(50);
        let mut p = LinearPredictor::new(vec!["qent:entropy".to_string()]);
        p.fit(&features, &targets).unwrap();
        let state = p.state().unwrap();
        let mut q = LinearPredictor::new(vec!["qent:entropy".to_string()]);
        match q.load_state(&state[..state.len() - 1]) {
            Err(e @ Error::Serialization(_)) => {
                assert!(e.to_string().starts_with("serialization error: "), "{e}")
            }
            other => panic!("a truncated state: {other:?}"),
        }
        assert!(matches!(q.predict(&features[0]), Err(Error::NotFitted(_))));
    }

    #[test]
    fn a_truncated_spline_state_says_why_it_does_not_load() {
        let (features, targets) = training_set(60);
        let mut p = SplinePredictor::new("qent:entropy", vec!["variogram:score".to_string()]);
        p.fit(&features, &targets).unwrap();
        let state = p.state().unwrap();
        let mut q = SplinePredictor::new("qent:entropy", vec!["variogram:score".to_string()]);
        match q.load_state(&state[..state.len() / 2]) {
            Err(e @ Error::Serialization(_)) => {
                assert!(e.to_string().starts_with("serialization error: "), "{e}")
            }
            other => panic!("a truncated state: {other:?}"),
        }
        assert!(matches!(q.predict(&features[0]), Err(Error::NotFitted(_))));
    }

    #[test]
    fn forest_predictor_round_trips_state() {
        let (features, targets) = training_set(80);
        let mut p = ForestPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        p.fit(&features, &targets).unwrap();
        let state = p.state().unwrap();
        let mut q = ForestPredictor::new(vec![]);
        q.load_state(&state).unwrap();
        assert_eq!(
            p.predict(&features[3]).unwrap(),
            q.predict(&features[3]).unwrap()
        );
    }

    #[test]
    fn forest_learns_reasonably() {
        let (features, targets) = training_set(120);
        let mut p = ForestPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        p.fit(&features, &targets).unwrap();
        let preds: Vec<f64> = features.iter().map(|f| p.predict(f).unwrap()).collect();
        let med = pressio_stats::medape(&targets, &preds).unwrap();
        assert!(med < 25.0, "forest MedAPE {med}%");
    }

    /// A NaN feature, and a forest over no features at all, fit and answer
    /// finite predictions.
    #[test]
    fn forest_fits_a_nan_feature_and_no_features() {
        let (mut features, targets) = training_set(141);
        for f in features.iter_mut().step_by(5) {
            f.set("variogram:score", f64::NAN);
        }
        let keys = ["qent:entropy", "variogram:score"]
            .map(String::from)
            .to_vec();
        let mut p = ForestPredictor::new(keys);
        p.fit(&features, &targets).unwrap();
        assert!(features.iter().all(|f| p.predict(f).unwrap().is_finite()));
        let mut none = ForestPredictor::new(vec![]);
        none.fit(&features, &targets).unwrap();
        assert!(none.predict(&features[0]).unwrap().is_finite());
    }

    /// Eight rows and three targets: every trainable predictor turns the
    /// fit down as an invalid value, and none reads past the targets.
    #[test]
    fn fit_refuses_fewer_targets_than_rows() {
        let (features, targets) = training_set(8);
        let keys = || {
            ["qent:entropy", "variogram:score"]
                .map(String::from)
                .to_vec()
        };
        let predictors: [Box<dyn Predictor>; 6] = [
            Box::new(LinearPredictor::new(keys())),
            Box::new(SplinePredictor::new("qent:entropy", keys()[1..].to_vec())),
            Box::new(ForestPredictor::new(keys())),
            Box::new(ConformalForestPredictor::new(keys())),
            Box::new(GpPredictor::new(keys())),
            Box::new(MlpPredictor::new(keys())),
        ];
        for mut p in predictors {
            let fitted = p.fit(&features, &targets[..3]);
            assert!(
                matches!(fitted, Err(Error::InvalidValue { .. })),
                "{fitted:?}"
            );
        }
    }

    #[test]
    fn negative_targets_rejected() {
        let f = vec![Options::new().with("x", 1.0); 4];
        let mut p = LinearPredictor::new(vec!["x".to_string()]);
        assert!(p.fit(&f, &[1.0, 2.0, -1.0, 3.0]).is_err());
        assert!(p.fit(&f, &[1.0, 2.0, 0.0, 3.0]).is_err());
    }

    #[test]
    fn conformal_intervals_cover_training_law() {
        let (features, targets) = training_set(200);
        let mut p = ConformalForestPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        p.fit(&features, &targets).unwrap();
        let mut covered = 0usize;
        for (f, &t) in features.iter().zip(&targets) {
            let iv = p.predict_interval(f, 0.1).unwrap();
            assert!(iv.lo <= iv.hi);
            if iv.lo <= t && t <= iv.hi {
                covered += 1;
            }
        }
        let rate = covered as f64 / targets.len() as f64;
        assert!(rate > 0.8, "coverage {rate}");
    }

    #[test]
    fn conformal_without_enough_data_has_no_interval() {
        let (features, targets) = training_set(4);
        let mut p = ConformalForestPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        p.fit(&features, &targets).unwrap();
        assert!(p.predict_interval(&features[0], 0.1).is_none());
        // but the point prediction works
        assert!(p.predict(&features[0]).is_ok());
    }

    #[test]
    fn gp_predictor_learns_log_law() {
        let (features, targets) = training_set(80);
        let mut p = GpPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        assert!(p.requires_training());
        p.fit(&features, &targets).unwrap();
        let preds: Vec<f64> = features.iter().map(|f| p.predict(f).unwrap()).collect();
        let med = pressio_stats::medape(&targets, &preds).unwrap();
        assert!(med < 20.0, "gp MedAPE {med}%");
        // state round trip
        let mut q = GpPredictor::new(vec![]);
        q.load_state(&p.state().unwrap()).unwrap();
        assert_eq!(
            p.predict(&features[5]).unwrap(),
            q.predict(&features[5]).unwrap()
        );
    }

    #[test]
    fn mlp_predictor_learns_log_law() {
        let (features, targets) = training_set(90);
        let mut p = MlpPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        p.fit(&features, &targets).unwrap();
        let preds: Vec<f64> = features.iter().map(|f| p.predict(f).unwrap()).collect();
        let med = pressio_stats::medape(&targets, &preds).unwrap();
        assert!(med < 40.0, "mlp MedAPE {med}%");
        let mut q = MlpPredictor::new(vec![]);
        q.load_state(&p.state().unwrap()).unwrap();
        assert_eq!(
            p.predict(&features[5]).unwrap(),
            q.predict(&features[5]).unwrap()
        );
    }

    /// A feature column near 1e300 squares past f64's range: the MLP's
    /// scale stays finite, so its state loads back bit for bit and it
    /// predicts a finite positive ratio.
    #[test]
    fn mlp_state_with_a_1e300_column_loads_back() {
        let (mut features, targets) = training_set(40);
        for (i, f) in features.iter_mut().enumerate() {
            f.set("variogram:score", 1e300 * (1.0 + i as f64 / 40.0));
        }
        let mut p = MlpPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        p.fit(&features, &targets).unwrap();
        let state = p.state().unwrap();
        let mut q = MlpPredictor::new(vec![]);
        q.load_state(&state).unwrap();
        assert_eq!(q.state().unwrap(), state);
        let ratio = q.predict(&features[3]).unwrap();
        assert!(ratio.is_finite() && ratio > 0.0, "{ratio}");
    }

    #[test]
    fn linear_state_round_trip() {
        let (features, targets) = training_set(50);
        let mut p = LinearPredictor::new(vec![
            "qent:entropy".to_string(),
            "variogram:score".to_string(),
        ]);
        p.fit(&features, &targets).unwrap();
        let mut q = LinearPredictor::new(vec![]);
        q.load_state(&p.state().unwrap()).unwrap();
        assert_eq!(
            p.predict(&features[0]).unwrap(),
            q.predict(&features[0]).unwrap()
        );
    }
}
