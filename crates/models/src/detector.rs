//! End-to-end detector wrappers: sensor data in, 3D boxes out.
//!
//! Both concrete detectors implement [`StreamingDetector`], the
//! modality-agnostic contract a streaming runtime needs: split the
//! pipeline into `preprocess → backbone forward → postprocess` stages
//! that, chained, are bit-identical to the one-shot `detect` call.

use std::collections::HashMap;
use upaq_det3d::camera_head::{decode_camera, CameraHeadSpec};
use upaq_det3d::head::{decode, HeadSpec};
use upaq_det3d::nms::nms;
use upaq_det3d::pillars::{pillarize, pillarize_active, PillarConfig};
use upaq_det3d::refine::{refine_all, RefineConfig};
use upaq_det3d::Box3d;
use upaq_kitti::camera::CameraImage;
use upaq_kitti::lidar::PointCloud;
use upaq_nn::exec::forward;
use upaq_nn::{LayerId, Model, NnError, Result};
use upaq_tensor::{Shape, Tensor};

/// The detector contract a modality-agnostic streaming runtime consumes.
///
/// A streaming engine splits one `detect` call into pipeline stages and
/// swaps compressed model variants in and out between frames; this trait
/// names exactly the pieces it needs:
///
/// * the sensor [`Input`][Self::Input] type its frame source yields;
/// * [`preprocess`][Self::preprocess] / [`postprocess`][Self::postprocess]
///   stage bodies that bracket the backbone forward pass;
/// * model access ([`model`][Self::model] / [`set_model`][Self::set_model])
///   plus the wiring metadata ([`input_name`][Self::input_name],
///   [`input_shapes`][Self::input_shapes], [`head_layer`][Self::head_layer])
///   that variant-ladder construction and the hardware cost model consume.
///
/// Implementations must keep `detect == postprocess ∘ forward ∘ preprocess`
/// bit-identical — the streaming-vs-batch determinism tests assert it for
/// both modalities.
pub trait StreamingDetector: Clone + Send + Sync + 'static {
    /// The sensor sample one frame carries (point cloud, camera image).
    type Input: Clone + Send + 'static;

    /// Short modality label for reports (`"lidar"`, `"camera"`).
    fn modality(&self) -> &'static str;

    /// The network.
    fn model(&self) -> &Model;

    /// Replaces the network — how a compression framework's output becomes
    /// a degrade-ladder variant of this detector.
    fn set_model(&mut self, model: Model);

    /// Name of the model's input node.
    fn input_name(&self) -> &str;

    /// Named input shapes for cost/latency modelling.
    fn input_shapes(&self) -> HashMap<String, Shape>;

    /// Id of the head (output) layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadWiring`] when the model has no unique sink.
    fn head_layer(&self) -> Result<LayerId>;

    /// Stage 1: sensor sample → network input tensor.
    fn preprocess(&self, input: &Self::Input) -> Tensor;

    /// Stage 1 plus the input's active-site list for sparse-activation
    /// execution: sorted row-major linear indices (`y * w + x`) of the
    /// sites that differ from the all-zero background. `None` means the
    /// modality has no sparse encoding and the runtime executes dense
    /// even when `--sparse-act` is on. The tensor must be bit-identical
    /// to [`preprocess`][Self::preprocess].
    fn preprocess_sparse(&self, input: &Self::Input) -> (Tensor, Option<Vec<u32>>) {
        (self.preprocess(input), None)
    }

    /// Stage 3: raw head output (+ the original sample, for refinement) →
    /// final 3D boxes.
    fn postprocess(&self, output: &Tensor, input: &Self::Input) -> Vec<Box3d>;

    /// The one-shot pipeline, by construction identical to running the
    /// three stages in sequence.
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors.
    fn detect(&self, input: &Self::Input) -> Result<Vec<Box3d>> {
        let tensor = self.preprocess(input);
        let mut inputs = HashMap::new();
        inputs.insert(self.input_name().to_string(), tensor);
        let acts = forward(self.model(), &inputs)?;
        let output = &acts[&self.head_layer()?];
        Ok(self.postprocess(output, input))
    }

    /// Runs a batch of preprocessed frames through one shared backbone pass
    /// and returns each frame's raw head output.
    ///
    /// Per-frame results are bit-identical to calling the single-frame
    /// forward on each tensor — the batched kernels only amortize fixed
    /// per-call work (see `upaq_nn::exec::forward_batch`).
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors; a failure anywhere in the
    /// batch fails the whole call (no partial results).
    fn forward_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        let maps: Vec<HashMap<String, Tensor>> = inputs
            .iter()
            .map(|t| {
                let mut m = HashMap::new();
                m.insert(self.input_name().to_string(), t.clone());
                m
            })
            .collect();
        let acts = upaq_nn::exec::forward_batch(self.model(), &maps)?;
        let head = self.head_layer()?;
        acts.into_iter()
            .map(|mut frame| {
                frame.remove(&head).ok_or_else(|| {
                    NnError::BadWiring("head activation missing from batched forward".into())
                })
            })
            .collect::<Result<_>>()
    }

    /// The batched counterpart of [`detect`][Self::detect]: per-frame
    /// preprocess, one shared backbone pass, per-frame decode. Bit-identical
    /// to mapping `detect` over `inputs`.
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors; a failure anywhere in the
    /// batch fails the whole call.
    fn detect_batch(&self, inputs: &[Self::Input]) -> Result<Vec<Vec<Box3d>>> {
        let tensors: Vec<Tensor> = inputs.iter().map(|i| self.preprocess(i)).collect();
        let heads = self.forward_batch(&tensors)?;
        Ok(heads
            .iter()
            .zip(inputs)
            .map(|(head, input)| self.postprocess(head, input))
            .collect())
    }
}

/// A LiDAR (PointPillars-style) detector: pillar encoder + BEV network +
/// BEV head decoder.
#[derive(Debug, Clone)]
pub struct LidarDetector {
    /// The network. Public so compression frameworks can replace it.
    pub model: Model,
    /// Pillar-encoder configuration (fixes the input geometry).
    pub pillar_config: PillarConfig,
    /// Head decoding parameters.
    pub head_spec: HeadSpec,
    /// Second-stage point-based refinement (`None` disables it).
    pub refine: Option<RefineConfig>,
    /// Name of the model's input node.
    pub input_name: String,
}

impl LidarDetector {
    /// Full pipeline: point cloud → pillars → network → decoded proposals →
    /// point-based refinement → final NMS.
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors.
    pub fn detect(&self, cloud: &PointCloud) -> Result<Vec<Box3d>> {
        let output = self.head_output(cloud)?;
        Ok(self.postprocess(&output, cloud))
    }

    /// Stage 1 of the pipeline: point cloud → pillar tensor. Exposed so a
    /// streaming runtime can run it as its own stage while sharing the
    /// exact code path [`detect`][Self::detect] uses.
    pub fn preprocess(&self, cloud: &PointCloud) -> Tensor {
        pillarize(cloud, &self.pillar_config)
    }

    /// Stage 3 of the pipeline: raw head output → decoded proposals →
    /// point-based refinement → final NMS. Exposed for the same reason as
    /// [`preprocess`][Self::preprocess]; `detect` delegates here, so
    /// streaming and batch detections are bit-identical by construction.
    pub fn postprocess(&self, output: &Tensor, cloud: &PointCloud) -> Vec<Box3d> {
        // Empty-scene gate: with zero points there is no evidence of any
        // object — whatever constant the head's biases put on the all-zero
        // BEV is background, not detections. Without this gate a bias
        // crossing the logit threshold would hallucinate a box in every
        // cell of an empty sweep.
        if cloud.is_empty() {
            return Vec::new();
        }
        let proposals = decode(output, &self.head_spec);
        match &self.refine {
            Some(cfg) => {
                // Refinement can converge near-duplicates onto the same
                // cluster; a second NMS dedupes them.
                let refined = refine_all(&proposals, cloud, cfg);
                nms(refined, self.head_spec.nms_iou)
            }
            None => proposals,
        }
    }

    /// The raw head-output tensor for a cloud.
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors.
    pub fn head_output(&self, cloud: &PointCloud) -> Result<Tensor> {
        let pillars = pillarize(cloud, &self.pillar_config);
        let acts = self.forward_all(&pillars)?;
        Ok(acts[&self.head_layer()?].clone())
    }

    /// The activation feeding the head layer — the feature map the
    /// closed-form head fit regresses on.
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors.
    pub fn head_features(&self, cloud: &PointCloud) -> Result<Tensor> {
        let pillars = pillarize(cloud, &self.pillar_config);
        let acts = self.forward_all(&pillars)?;
        let head = self.head_layer()?;
        let graph = self.model.compute_graph();
        let feed = graph.inputs_of(head);
        if feed.len() != 1 {
            return Err(NnError::BadWiring(
                "head must have exactly one input".into(),
            ));
        }
        Ok(acts[&feed[0]].clone())
    }

    /// Id of the head layer (the unique sink).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadWiring`] when the model has more than one sink.
    pub fn head_layer(&self) -> Result<LayerId> {
        let sinks = self.model.compute_graph().sinks();
        if sinks.len() != 1 {
            return Err(NnError::BadWiring(format!(
                "expected 1 sink, got {}",
                sinks.len()
            )));
        }
        Ok(sinks[0])
    }

    /// Named input shapes for cost/latency modelling.
    pub fn input_shapes(&self) -> HashMap<String, Shape> {
        let grid = &self.pillar_config.grid;
        let mut shapes = HashMap::new();
        shapes.insert(
            self.input_name.clone(),
            Shape::nchw(
                1,
                upaq_det3d::pillars::PILLAR_CHANNELS,
                grid.cells_x,
                grid.cells_y,
            ),
        );
        shapes
    }

    fn forward_all(&self, input: &Tensor) -> Result<HashMap<LayerId, Tensor>> {
        let mut inputs = HashMap::new();
        inputs.insert(self.input_name.clone(), input.clone());
        forward(&self.model, &inputs)
    }
}

impl StreamingDetector for LidarDetector {
    type Input = PointCloud;

    fn modality(&self) -> &'static str {
        "lidar"
    }

    fn model(&self) -> &Model {
        &self.model
    }

    fn set_model(&mut self, model: Model) {
        self.model = model;
    }

    fn input_name(&self) -> &str {
        &self.input_name
    }

    fn input_shapes(&self) -> HashMap<String, Shape> {
        LidarDetector::input_shapes(self)
    }

    fn head_layer(&self) -> Result<LayerId> {
        LidarDetector::head_layer(self)
    }

    fn preprocess(&self, input: &PointCloud) -> Tensor {
        LidarDetector::preprocess(self, input)
    }

    fn preprocess_sparse(&self, input: &PointCloud) -> (Tensor, Option<Vec<u32>>) {
        // The pillarizer knows exactly which BEV cells are occupied, and
        // every pillar channel is zero at unoccupied cells, so the
        // occupied-cell list *is* the active set.
        let (tensor, active) = pillarize_active(input, &self.pillar_config);
        (tensor, Some(active))
    }

    fn postprocess(&self, output: &Tensor, input: &PointCloud) -> Vec<Box3d> {
        LidarDetector::postprocess(self, output, input)
    }
}

/// A camera (SMOKE-style) detector: rendered image in, lifted 3D boxes out.
#[derive(Debug, Clone)]
pub struct CameraDetector {
    /// The network. Public so compression frameworks can replace it.
    pub model: Model,
    /// Camera-head decoding parameters (owns the calibration).
    pub head_spec: CameraHeadSpec,
    /// Name of the model's input node.
    pub input_name: String,
}

impl CameraDetector {
    /// Full pipeline: image → network → camera head → lifted 3D boxes.
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors.
    pub fn detect(&self, image: &CameraImage) -> Result<Vec<Box3d>> {
        let output = self.head_output(image)?;
        Ok(self.postprocess(&output, image))
    }

    /// Stage 1 of the pipeline: rendered image → network input tensor.
    /// The render already is the `[1, 4, H, W]` tensor, so this is a copy —
    /// exposed so the streaming runtime treats both modalities uniformly.
    pub fn preprocess(&self, image: &CameraImage) -> Tensor {
        image.tensor().clone()
    }

    /// Stage 3 of the pipeline: raw head output → lifted 3D boxes.
    /// `detect` delegates here, so streaming and batch detections are
    /// bit-identical by construction (mirroring [`LidarDetector`]).
    pub fn postprocess(&self, output: &Tensor, _image: &CameraImage) -> Vec<Box3d> {
        decode_camera(output, &self.head_spec)
    }

    /// The raw head-output tensor for an image.
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors.
    pub fn head_output(&self, image: &CameraImage) -> Result<Tensor> {
        let acts = self.forward_all(image.tensor())?;
        Ok(acts[&self.head_layer()?].clone())
    }

    /// The activation feeding the head layer.
    ///
    /// # Errors
    ///
    /// Propagates network-execution errors.
    pub fn head_features(&self, image: &CameraImage) -> Result<Tensor> {
        let acts = self.forward_all(image.tensor())?;
        let head = self.head_layer()?;
        let graph = self.model.compute_graph();
        let feed = graph.inputs_of(head);
        if feed.len() != 1 {
            return Err(NnError::BadWiring(
                "head must have exactly one input".into(),
            ));
        }
        Ok(acts[&feed[0]].clone())
    }

    /// Id of the head layer (the unique sink).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadWiring`] when the model has more than one sink.
    pub fn head_layer(&self) -> Result<LayerId> {
        let sinks = self.model.compute_graph().sinks();
        if sinks.len() != 1 {
            return Err(NnError::BadWiring(format!(
                "expected 1 sink, got {}",
                sinks.len()
            )));
        }
        Ok(sinks[0])
    }

    /// Named input shapes for cost/latency modelling.
    pub fn input_shapes(&self) -> HashMap<String, Shape> {
        let calib = &self.head_spec.calib;
        let mut shapes = HashMap::new();
        shapes.insert(
            self.input_name.clone(),
            Shape::nchw(
                1,
                upaq_kitti::camera::CAMERA_CHANNELS,
                calib.height,
                calib.width,
            ),
        );
        shapes
    }

    fn forward_all(&self, input: &Tensor) -> Result<HashMap<LayerId, Tensor>> {
        let mut inputs = HashMap::new();
        inputs.insert(self.input_name.clone(), input.clone());
        forward(&self.model, &inputs)
    }
}

impl StreamingDetector for CameraDetector {
    type Input = CameraImage;

    fn modality(&self) -> &'static str {
        "camera"
    }

    fn model(&self) -> &Model {
        &self.model
    }

    fn set_model(&mut self, model: Model) {
        self.model = model;
    }

    fn input_name(&self) -> &str {
        &self.input_name
    }

    fn input_shapes(&self) -> HashMap<String, Shape> {
        CameraDetector::input_shapes(self)
    }

    fn head_layer(&self) -> Result<LayerId> {
        CameraDetector::head_layer(self)
    }

    fn preprocess(&self, input: &CameraImage) -> Tensor {
        CameraDetector::preprocess(self, input)
    }

    fn postprocess(&self, output: &Tensor, input: &CameraImage) -> Vec<Box3d> {
        CameraDetector::postprocess(self, output, input)
    }
}
