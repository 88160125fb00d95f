//! The paper's network architectures.
//!
//! Three families, each in plain / `c` / `d` variants distinguished *only*
//! by their input encoding (§4):
//!
//! | variant | input                | kernel view        | CAM shape |
//! |---------|----------------------|--------------------|-----------|
//! | plain   | `(D, 1, n)`          | `(D, ℓ)` mixes dims| `(n,)`    |
//! | `c`     | `(1, D, n)`          | `(1, ℓ)` per dim   | `(D, n)`  |
//! | `d`     | `C(T)` = `(D, D, n)` | `(D, ℓ, 1)` per row| `(D, n)`  |
//!
//! plus the recurrent baselines (RNN/GRU/LSTM) and MTEX-CNN.

mod cnn;
mod inception;
mod mtex;
mod recurrent;
mod resnet;

pub use cnn::cnn;
pub use inception::{inception_time, InceptionModule};
pub use mtex::{GradCamMaps, MtexCnn};
pub use recurrent::{recurrent, RecurrentCell, RecurrentClassifier};
pub use resnet::resnet;

use dcam_nn::layers::{ConvStrategy, Dense, GlobalAvgPool, Layer, Sequential};
use dcam_nn::{Param, Precision};
use dcam_series::{cube, MultivariateSeries};
use dcam_tensor::Tensor;

/// How a multivariate series is presented to a network (paper §2.1–§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InputEncoding {
    /// Standard 1-D CNN view: channels = dimensions, one row.
    Cnn,
    /// cCNN view: one channel, rows = dimensions (dimension-independent).
    Ccnn,
    /// dCNN view: the `C(T)` cube of §4.2.
    Dcnn,
    /// Recurrent view: raw `(D, n)` sequence.
    Rnn,
}

impl InputEncoding {
    /// Encodes one series for this input convention.
    pub fn encode(self, series: &MultivariateSeries) -> Tensor {
        match self {
            InputEncoding::Cnn => cube::cnn_input(series),
            InputEncoding::Ccnn => cube::ccnn_input(series),
            InputEncoding::Dcnn => cube::dcnn_input(series),
            InputEncoding::Rnn => cube::rnn_input(series),
        }
    }

    /// Convolution input channels for a `D`-dimensional series.
    pub fn in_channels(self, d: usize) -> usize {
        match self {
            InputEncoding::Cnn | InputEncoding::Dcnn => d,
            InputEncoding::Ccnn => 1,
            InputEncoding::Rnn => d,
        }
    }
}

/// Width presets: `Paper` mirrors the layer widths of §5.2, `Small` scales
/// them down for CPU-budget experiments and tests. Relative comparisons are
/// preserved because *every* competing architecture is scaled identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelScale {
    /// Paper-sized layers (CNN: 64/128/256/256/256 filters, ResNet 64/64/128,
    /// InceptionTime as published).
    Paper,
    /// Reduced widths (~1/8) for CPU experiments.
    Small,
    /// Minimal widths for unit tests.
    Tiny,
}

/// The GAP-classifier families the paper's study trains (each available in
/// every [`InputEncoding`]); the `family=` axis of an [`ArchDescriptor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchFamily {
    /// Five-layer CNN ([`cnn`]).
    Cnn,
    /// Three-block ResNet ([`resnet`]).
    ResNet,
    /// InceptionTime ([`inception_time`]).
    InceptionTime,
}

/// A machine-readable recipe for reconstructing a [`GapClassifier`]
/// architecture: which constructor to call and with what geometry.
///
/// Descriptors render into a compact `key=value;…` string that travels
/// inside binary checkpoint files ([`dcam_nn::checkpoint::Checkpoint::arch`]),
/// so a process that only has the file — the `dcam-server` model registry
/// performing a hot swap — can rebuild the network and restore the weights
/// into it. [`parse`](ArchDescriptor::parse) inverts
/// [`render`](ArchDescriptor::render) exactly.
///
/// ```
/// use dcam::arch::{ArchDescriptor, ArchFamily, InputEncoding, ModelScale};
///
/// let desc = ArchDescriptor {
///     family: ArchFamily::Cnn,
///     encoding: InputEncoding::Dcnn,
///     dims: 3,
///     classes: 2,
///     scale: ModelScale::Tiny,
/// };
/// let text = desc.render();
/// assert_eq!(text, "family=cnn;enc=dcnn;d=3;classes=2;scale=tiny");
/// assert_eq!(ArchDescriptor::parse(&text).unwrap(), desc);
/// let mut model = desc.build(7);
/// assert_eq!(model.n_classes(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArchDescriptor {
    /// Architecture family (constructor).
    pub family: ArchFamily,
    /// Input encoding (dCAM itself needs [`InputEncoding::Dcnn`]).
    pub encoding: InputEncoding,
    /// Series dimension count `D`.
    pub dims: usize,
    /// Number of output classes.
    pub classes: usize,
    /// Width preset.
    pub scale: ModelScale,
}

impl ArchDescriptor {
    /// Renders the descriptor as its canonical `key=value;…` string.
    pub fn render(&self) -> String {
        let family = match self.family {
            ArchFamily::Cnn => "cnn",
            ArchFamily::ResNet => "resnet",
            ArchFamily::InceptionTime => "inception",
        };
        let enc = match self.encoding {
            InputEncoding::Cnn => "cnn",
            InputEncoding::Ccnn => "ccnn",
            InputEncoding::Dcnn => "dcnn",
            InputEncoding::Rnn => "rnn",
        };
        let scale = match self.scale {
            ModelScale::Paper => "paper",
            ModelScale::Small => "small",
            ModelScale::Tiny => "tiny",
        };
        format!(
            "family={family};enc={enc};d={};classes={};scale={scale}",
            self.dims, self.classes
        )
    }

    /// Parses a descriptor string. Unknown keys are rejected (a descriptor
    /// naming features this build does not understand must not silently
    /// build something else); the error message names the offending part.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (mut family, mut encoding, mut dims, mut classes, mut scale) =
            (None, None, None, None, None);
        for part in s.split(';').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("descriptor part {part:?} is not key=value"))?;
            match key {
                "family" => {
                    family = Some(match value {
                        "cnn" => ArchFamily::Cnn,
                        "resnet" => ArchFamily::ResNet,
                        "inception" => ArchFamily::InceptionTime,
                        other => return Err(format!("unknown architecture family {other:?}")),
                    })
                }
                "enc" => {
                    encoding = Some(match value {
                        "cnn" => InputEncoding::Cnn,
                        "ccnn" => InputEncoding::Ccnn,
                        "dcnn" => InputEncoding::Dcnn,
                        // Parsed so parse ∘ render is the identity on
                        // every encoding; `build` still rejects it (the
                        // GAP families have no RNN constructor), which
                        // checkpoint loaders surface as a typed error.
                        "rnn" => InputEncoding::Rnn,
                        other => return Err(format!("unknown input encoding {other:?}")),
                    })
                }
                "d" => {
                    dims = Some(
                        value
                            .parse::<usize>()
                            .ok()
                            .filter(|&d| d >= 1)
                            .ok_or_else(|| format!("bad dimension count {value:?}"))?,
                    )
                }
                "classes" => {
                    classes = Some(
                        value
                            .parse::<usize>()
                            .ok()
                            .filter(|&c| c >= 1)
                            .ok_or_else(|| format!("bad class count {value:?}"))?,
                    )
                }
                "scale" => {
                    scale = Some(match value {
                        "paper" => ModelScale::Paper,
                        "small" => ModelScale::Small,
                        "tiny" => ModelScale::Tiny,
                        other => return Err(format!("unknown model scale {other:?}")),
                    })
                }
                other => return Err(format!("unknown descriptor key {other:?}")),
            }
        }
        Ok(ArchDescriptor {
            family: family.ok_or("descriptor missing \"family\"")?,
            encoding: encoding.ok_or("descriptor missing \"enc\"")?,
            dims: dims.ok_or("descriptor missing \"d\"")?,
            classes: classes.ok_or("descriptor missing \"classes\"")?,
            scale: scale.ok_or("descriptor missing \"scale\"")?,
        })
    }

    /// Constructs the (untrained) architecture this descriptor names. The
    /// seed only fixes the throwaway initial weights — every use restores
    /// a checkpoint over them.
    pub fn build(&self, seed: u64) -> GapClassifier {
        let mut rng = dcam_tensor::SeededRng::new(seed);
        match self.family {
            ArchFamily::Cnn => cnn(self.encoding, self.dims, self.classes, self.scale, &mut rng),
            ArchFamily::ResNet => {
                resnet(self.encoding, self.dims, self.classes, self.scale, &mut rng)
            }
            ArchFamily::InceptionTime => {
                inception_time(self.encoding, self.dims, self.classes, self.scale, &mut rng)
            }
        }
    }
}

/// A convolutional classifier with the `features → GAP → dense` shape every
/// CAM-based method requires (§2.2).
///
/// `features` must preserve the spatial extent `(H, W)` of its input (all
/// convolutions are stride-1/"same"), so the class activation map aligns
/// index-for-index with the input series.
pub struct GapClassifier {
    encoding: InputEncoding,
    features: Sequential,
    gap: GlobalAvgPool,
    head: Dense,
    name: String,
    input_dims: Option<usize>,
    precision: Precision,
}

impl GapClassifier {
    /// Assembles a classifier from a feature extractor and a dense head.
    pub fn new(
        name: impl Into<String>,
        encoding: InputEncoding,
        features: Sequential,
        head: Dense,
    ) -> Self {
        GapClassifier {
            encoding,
            features,
            gap: GlobalAvgPool::new(),
            head,
            name: name.into(),
            input_dims: None,
            precision: Precision::F32,
        }
    }

    /// Records the series dimension count `D` this classifier was built
    /// for, enabling submit-time shape validation in the explanation
    /// service. The architecture constructors ([`cnn`], [`resnet`],
    /// [`inception_time`]) all set it.
    pub fn with_input_dims(mut self, d: usize) -> Self {
        self.input_dims = Some(d);
        self
    }

    /// The series dimension count `D` this classifier expects, when known
    /// (recorded by the architecture constructors; `None` for classifiers
    /// assembled directly through [`GapClassifier::new`]).
    pub fn input_dims(&self) -> Option<usize> {
        self.input_dims
    }

    /// The input convention this classifier expects.
    pub fn encoding(&self) -> InputEncoding {
        self.encoding
    }

    /// Architecture name (e.g. `"dResNet"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.head.out_dim()
    }

    /// The dense weights `w^{C_j}_m` connecting GAP features to class
    /// neurons, shape `(classes, n_f)` — the CAM coefficients.
    pub fn class_weights(&self) -> &Tensor {
        self.head.weight()
    }

    /// Evaluation-mode forward returning both the last-conv feature maps
    /// `A(T)` (shape `(N, n_f, H, W)`) and the logits.
    pub fn forward_with_features(&mut self, x: &Tensor) -> (Tensor, Tensor) {
        let features = self.features.forward(x, false);
        let pooled = self.gap.forward(&features, false);
        let logits = self.head.forward(&pooled, false);
        (features, logits)
    }

    /// [`GapClassifier::forward_with_features`] on the allocation-free
    /// inference path: consumes the input batch and recycles every
    /// intermediate activation through `arena` (see
    /// [`dcam_nn::arena::BatchArena`]). The returned feature tensor's
    /// storage should be handed back to the arena once the caller is done
    /// with it.
    pub fn forward_with_features_eval(
        &mut self,
        x: Tensor,
        arena: &mut dcam_nn::BatchArena,
    ) -> (Tensor, Tensor) {
        let features = self.features.forward_eval(x, arena);
        let pooled = self.gap.forward(&features, false);
        let logits = self.head.forward(&pooled, false);
        (features, logits)
    }

    /// [`GapClassifier::forward_with_features_eval`] of a batch of permuted
    /// dCAM cubes, each given as `(series, permutation)` (see
    /// [`Layer::forward_eval_cubes`]). A long-kernel first convolution
    /// runs without materialising the cubes; every other first layer gets
    /// them assembled into an arena buffer.
    pub fn forward_cubes_with_features_eval(
        &mut self,
        samples: &[(&[f32], &[usize])],
        arena: &mut dcam_nn::BatchArena,
    ) -> (Tensor, Tensor) {
        let features = self.features.forward_eval_cubes(samples, arena);
        let pooled = self.gap.forward(&features, false);
        let logits = self.head.forward(&pooled, false);
        (features, logits)
    }

    /// Pins every convolution in the feature extractor to `strategy`
    /// (e.g. for A/B benchmarking or to rule out a path); pass
    /// [`ConvStrategy::Auto`] to restore per-geometry selection.
    pub fn set_conv_strategy(&mut self, strategy: ConvStrategy) {
        self.features
            .visit_convs(&mut |conv| conv.set_strategy(strategy));
    }

    /// The execution strategy each convolution would resolve to for an
    /// input plane of `h` rows × `w` samples — `Auto` (and the
    /// `DCAM_CONV_STRATEGY` override) already applied, so the permutation
    /// engine's callers can see which kernels a long-series explanation
    /// actually runs. Layers are visited in feature-extractor order.
    ///
    /// Note `(h, w)` describes the plane *entering each layer*: the GAP
    /// architectures here are all stride-1/"same", so one `(h, w)` holds
    /// for the whole stack.
    pub fn resolved_conv_strategies(&mut self, h: usize, w: usize) -> Vec<ConvStrategy> {
        let mut out = Vec::new();
        self.features
            .visit_convs(&mut |conv| out.push(conv.resolved_strategy(h, w)));
        out
    }

    /// Selects the inference precision for every quantization-capable
    /// layer. Switching to [`Precision::Int8`] only takes effect once
    /// activation scales exist — either from a
    /// [`calibrate_int8`](GapClassifier::calibrate_int8) pass or a
    /// checkpoint restore; until then the model keeps serving f32 answers.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
        self.visit_quant(&mut |q| q.precision = precision);
    }

    /// The selected inference precision (see
    /// [`set_precision`](GapClassifier::set_precision)).
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// True when every quantization-capable layer carries a calibrated
    /// activation scale, i.e. the int8 path can engage.
    pub fn is_calibrated(&mut self) -> bool {
        let mut any = false;
        let mut all = true;
        self.visit_quant(&mut |q| {
            any = true;
            all &= q.act_scale.is_some();
        });
        any && all
    }

    /// Calibrates the int8 path on a representative encoded batch `x`
    /// (shape `(N, …)` in this classifier's input encoding) and switches
    /// the model to [`Precision::Int8`]: one f32 recording forward latches
    /// each layer's per-tensor activation scale.
    pub fn calibrate_int8(&mut self, x: &Tensor) {
        self.visit_quant(&mut |q| {
            q.precision = Precision::Int8;
            q.calibrating = true;
            q.absmax = 0.0;
        });
        let _ = self.forward(x, false);
        self.visit_quant(&mut |q| q.finish_calibration());
        self.precision = Precision::Int8;
    }

    /// [`calibrate_int8`](GapClassifier::calibrate_int8) on a slice of
    /// representative series, encoded and stacked with this classifier's
    /// input encoding. Panics on an empty slice.
    pub fn calibrate_int8_on(&mut self, series: &[MultivariateSeries]) {
        assert!(!series.is_empty(), "calibration needs at least one series");
        let mut data = Vec::new();
        let mut per_sample_dims = Vec::new();
        for s in series {
            let x = self.encoding.encode(s);
            per_sample_dims = x.dims().to_vec();
            data.extend_from_slice(x.data());
        }
        let mut dims = vec![series.len()];
        dims.extend_from_slice(&per_sample_dims);
        let xb = Tensor::from_vec(data, &dims).expect("calibration batch");
        self.calibrate_int8(&xb);
    }

    /// [`calibrate_int8`](GapClassifier::calibrate_int8) on a seeded
    /// synthetic batch — the fallback when no representative data is
    /// available (e.g. a served model switched to int8 without a
    /// calibration set). Values are standard-normal, matching z-normalized
    /// series; the same `(series_len, seed)` always produces the same
    /// scales, so replicas calibrated independently agree.
    ///
    /// Requires the classifier to know its input dimension count
    /// ([`GapClassifier::input_dims`]); panics otherwise.
    pub fn calibrate_int8_synthetic(&mut self, series_len: usize, seed: u64) {
        let d = self
            .input_dims
            .expect("synthetic calibration needs input_dims");
        let mut rng = dcam_tensor::SeededRng::new(seed);
        let samples: Vec<MultivariateSeries> = (0..4)
            .map(|_| {
                let rows: Vec<Vec<f32>> = (0..d)
                    .map(|_| (0..series_len).map(|_| rng.normal()).collect())
                    .collect();
                MultivariateSeries::from_rows(&rows)
            })
            .collect();
        self.calibrate_int8_on(&samples);
    }

    /// Encodes one series and returns its logits (batch of one).
    pub fn logits_for(&mut self, series: &MultivariateSeries) -> Tensor {
        let x = self.encoding.encode(series);
        let mut dims = vec![1usize];
        dims.extend_from_slice(x.dims());
        let xb = x.reshape(&dims).expect("batch of one");
        self.forward(&xb, false)
    }
}

impl Layer for GapClassifier {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let f = self.features.forward(x, train);
        let p = self.gap.forward(&f, train);
        self.head.forward(&p, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let g = self.head.backward(grad_out);
        let g = self.gap.backward(&g);
        self.features.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.features.visit_params(f);
        self.gap.visit_params(f);
        self.head.visit_params(f);
    }

    fn visit_buffers(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.features.visit_buffers(f);
        self.gap.visit_buffers(f);
        self.head.visit_buffers(f);
    }

    fn visit_convs(&mut self, f: &mut dyn FnMut(&mut dcam_nn::layers::Conv2dRows)) {
        self.features.visit_convs(f);
    }

    fn visit_quant(&mut self, f: &mut dyn FnMut(&mut dcam_nn::QuantState)) {
        self.features.visit_quant(f);
        self.head.visit_quant(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcam_tensor::SeededRng;

    #[test]
    fn arch_descriptor_parse_inverts_render() {
        for family in [
            ArchFamily::Cnn,
            ArchFamily::ResNet,
            ArchFamily::InceptionTime,
        ] {
            for encoding in [
                InputEncoding::Cnn,
                InputEncoding::Ccnn,
                InputEncoding::Dcnn,
                InputEncoding::Rnn, // renders and parses, but does not build
            ] {
                let desc = ArchDescriptor {
                    family,
                    encoding,
                    dims: 4,
                    classes: 3,
                    scale: ModelScale::Tiny,
                };
                assert_eq!(ArchDescriptor::parse(&desc.render()), Ok(desc));
            }
        }
    }

    #[test]
    fn arch_descriptor_rejects_garbage() {
        for bad in [
            "",
            "family=cnn",
            "family=vit;enc=dcnn;d=3;classes=2;scale=tiny",
            "family=cnn;enc=dcnn;d=0;classes=2;scale=tiny",
            "family=cnn;enc=dcnn;d=3;classes=2;scale=tiny;extra=1",
            "family=cnn;enc=lstm;d=3;classes=2;scale=tiny",
            "notakv",
        ] {
            assert!(ArchDescriptor::parse(bad).is_err(), "{bad:?} must fail");
        }
        // An RNN encoding parses (so parse ∘ render stays the identity)
        // but cannot build a GAP classifier — the checkpoint loaders
        // catch this panic and surface a typed error.
        let rnn = ArchDescriptor::parse("family=cnn;enc=rnn;d=3;classes=2;scale=tiny").unwrap();
        assert!(std::panic::catch_unwind(|| rnn.build(0)).is_err());
    }

    #[test]
    fn auto_strategy_surfaces_fft_on_long_series() {
        // InceptionTime/Small carries a 15-tap branch kernel — past the
        // fft heuristic's tap floor — so on a long series the Auto
        // resolution visible through `resolved_conv_strategies` must
        // include the fft path, while a short series stays on O(W·ℓ)
        // paths throughout.
        let mut rng = SeededRng::new(3);
        let mut m = inception_time(InputEncoding::Dcnn, 3, 2, ModelScale::Small, &mut rng);
        let long = m.resolved_conv_strategies(3, 32768);
        let short = m.resolved_conv_strategies(3, 128);
        assert_eq!(long.len(), short.len());
        assert!(!long.is_empty());
        match std::env::var("DCAM_CONV_STRATEGY").as_deref() {
            // Under the CI matrix's global pin the heuristic is not
            // reachable; every layer must report the pinned strategy.
            Ok(v) if v != "auto" => {
                let pinned = ConvStrategy::parse(v);
                assert!(long.iter().chain(&short).all(|&s| s == pinned));
            }
            _ => {
                assert!(
                    long.contains(&ConvStrategy::Fft),
                    "long series must route at least one conv to fft: {long:?}"
                );
                assert!(
                    !short.contains(&ConvStrategy::Fft),
                    "short series must not use fft: {short:?}"
                );
            }
        }
        // A per-layer pin outranks both the heuristic and the env override.
        m.set_conv_strategy(ConvStrategy::Direct);
        assert!(m
            .resolved_conv_strategies(3, 32768)
            .iter()
            .all(|&s| s == ConvStrategy::Direct));
    }

    #[test]
    fn arch_descriptor_builds_working_model() {
        let desc = ArchDescriptor {
            family: ArchFamily::Cnn,
            encoding: InputEncoding::Dcnn,
            dims: 3,
            classes: 2,
            scale: ModelScale::Tiny,
        };
        let mut m = desc.build(1);
        assert_eq!(m.input_dims(), Some(3));
        assert_eq!(m.n_classes(), 2);
        assert_eq!(m.name(), "dCNN");
        let s = MultivariateSeries::from_rows(&[vec![0.1; 10], vec![0.2; 10], vec![0.3; 10]]);
        assert_eq!(m.logits_for(&s).dims(), &[1, 2]);
    }

    #[test]
    fn int8_logits_track_f32_after_calibration() {
        let mut rng = SeededRng::new(11);
        let mut m = cnn(InputEncoding::Dcnn, 3, 2, ModelScale::Tiny, &mut rng);
        let s = MultivariateSeries::from_rows(&[
            (0..24).map(|i| (i as f32 * 0.4).sin()).collect(),
            (0..24).map(|i| (i as f32 * 0.15).cos()).collect(),
            (0..24)
                .map(|i| if i % 5 == 0 { 0.8 } else { -0.2 })
                .collect(),
        ]);
        let want = m.logits_for(&s);
        assert_eq!(m.precision(), Precision::F32);
        assert!(!m.is_calibrated());

        m.calibrate_int8_synthetic(24, 7);
        assert_eq!(m.precision(), Precision::Int8);
        assert!(m.is_calibrated());
        let got = m.logits_for(&s);
        for (a, b) in got.data().iter().zip(want.data()) {
            assert!((a - b).abs() < 0.15, "int8 logit {a} vs f32 {b}");
        }

        // Switching back to f32 restores exact agreement; the calibrated
        // scales stay latched for a later int8 re-engage.
        m.set_precision(Precision::F32);
        assert!(m.logits_for(&s).allclose(&want, 1e-6));
        assert!(m.is_calibrated());
    }

    #[test]
    fn encoding_channels() {
        assert_eq!(InputEncoding::Cnn.in_channels(5), 5);
        assert_eq!(InputEncoding::Ccnn.in_channels(5), 1);
        assert_eq!(InputEncoding::Dcnn.in_channels(5), 5);
    }

    #[test]
    fn gap_classifier_logits_shape() {
        let mut rng = SeededRng::new(0);
        let clf = cnn(InputEncoding::Cnn, 3, 4, ModelScale::Tiny, &mut rng);
        let mut clf = clf;
        let s = MultivariateSeries::from_rows(&[vec![0.0; 16], vec![1.0; 16], vec![2.0; 16]]);
        let logits = clf.logits_for(&s);
        assert_eq!(logits.dims(), &[1, 4]);
    }

    #[test]
    fn features_preserve_spatial_extent() {
        let mut rng = SeededRng::new(1);
        for enc in [InputEncoding::Cnn, InputEncoding::Ccnn, InputEncoding::Dcnn] {
            let mut clf = cnn(enc, 4, 2, ModelScale::Tiny, &mut rng);
            let s = MultivariateSeries::from_rows(&[
                vec![0.1; 12],
                vec![0.2; 12],
                vec![0.3; 12],
                vec![0.4; 12],
            ]);
            let x = enc.encode(&s);
            let mut dims = vec![1usize];
            dims.extend_from_slice(x.dims());
            let xb = x.reshape(&dims).unwrap();
            let (f, _) = clf.forward_with_features(&xb);
            let expect_h = match enc {
                InputEncoding::Cnn => 1,
                _ => 4,
            };
            assert_eq!(f.dims()[2], expect_h, "{enc:?} H");
            assert_eq!(f.dims()[3], 12, "{enc:?} W");
        }
    }
}
