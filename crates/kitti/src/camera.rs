//! Pinhole camera model and synthetic image rendering.
//!
//! The SMOKE-style detector path consumes camera images. We model a KITTI
//! front camera (x forward, y left, z up in the *vehicle* frame; the camera
//! looks along +x) and render a grey-scale-plus-depth image: object
//! silhouettes are painted with class-dependent albedo over a textured
//! background, so a compressed network's detection quality depends on how
//! faithfully its feature maps survive pruning/quantization noise.

use crate::scene::{Scene, SceneObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use upaq_tensor::{Shape, Tensor};

/// Intrinsics of a pinhole camera, KITTI-like by default.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraCalib {
    /// Focal length in pixels (x).
    pub fx: f32,
    /// Focal length in pixels (y).
    pub fy: f32,
    /// Principal point x.
    pub cx: f32,
    /// Principal point y.
    pub cy: f32,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Camera height above ground, metres.
    pub mount_height: f32,
}

impl CameraCalib {
    /// A downscaled KITTI-like camera. Real KITTI images are 1242×375 with
    /// f≈721 px; we keep the same field of view at a resolution the pure-Rust
    /// substrate can execute quickly.
    pub fn kitti_small(width: usize, height: usize) -> Self {
        let scale = width as f32 / 1242.0;
        CameraCalib {
            fx: 721.5 * scale,
            fy: 721.5 * scale,
            cx: width as f32 / 2.0,
            cy: height as f32 / 2.0,
            width,
            height,
            mount_height: 1.65,
        }
    }

    /// Projects a vehicle-frame point (x fwd, y left, z up) to pixel
    /// coordinates `(u, v)` plus depth. Returns `None` behind the camera.
    pub fn project(&self, p: [f32; 3]) -> Option<(f32, f32, f32)> {
        let depth = p[0];
        if depth <= 0.1 {
            return None;
        }
        // Camera frame: u grows right (−y), v grows down (−z + mount).
        let u = self.cx + self.fx * (-p[1]) / depth;
        let v = self.cy + self.fy * (self.mount_height - p[2]) / depth;
        Some((u, v, depth))
    }
}

impl Default for CameraCalib {
    fn default() -> Self {
        CameraCalib::kitti_small(124, 38)
    }
}

/// Channels of a rendered camera frame: 0 intensity, 1 inverse depth,
/// 2 direct depth (z-buffer / 80 m), 3 the calibration-derived ground-plane
/// depth prior.
///
/// Channels 2 and 3 are standard monocular-detection inputs: direct depth
/// is just a second encoding of the photometric depth cue, and the
/// ground-plane prior (`f·h_mount / (v − c_v)`) injects the pixel-row
/// geometry that translation-invariant convolutions cannot otherwise see —
/// the CoordConv/LID trick monocular 3D detectors rely on.
pub const CAMERA_CHANNELS: usize = 4;

/// A rendered camera frame — see [`CAMERA_CHANNELS`] for the layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CameraImage {
    tensor: Tensor,
}

impl CameraImage {
    /// Wraps an arbitrary tensor as a camera frame. The renderer always
    /// produces `[1, 4, H, W]`; the fault-injection harness uses this to
    /// model malformed sensor output, which the admission firewall's
    /// shape check ([`crate::faults::inspect_image`]) then catches.
    pub fn from_tensor(tensor: Tensor) -> Self {
        CameraImage { tensor }
    }

    /// The underlying `[1, 4, H, W]` tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// Mutable access to the backing tensor — the fault-injection
    /// harness corrupts frames in place through this.
    pub fn tensor_mut(&mut self) -> &mut Tensor {
        &mut self.tensor
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.tensor.shape().dim(3)
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.tensor.shape().dim(2)
    }
}

/// Class-dependent albedo painted into the intensity channel.
fn albedo(obj: &SceneObject) -> f32 {
    match obj.class {
        crate::scene::ObjectClass::Car => 0.85,
        crate::scene::ObjectClass::Pedestrian => 0.55,
        crate::scene::ObjectClass::Cyclist => 0.70,
    }
}

/// Renders the scene through `calib` into a `[1, 4, H, W]` image tensor
/// (see [`CAMERA_CHANNELS`]).
///
/// Rendering is a painter's algorithm over object bounding volumes: for each
/// pixel the nearest intersecting object wins; background pixels get a noisy
/// road/sky gradient. Channel 1 stores `10 / depth` (clamped), giving the
/// monocular network a physically-motivated depth cue just like real
/// photometric perspective does.
pub fn render(scene: &Scene, calib: &CameraCalib, seed: u64) -> CameraImage {
    let (w, h) = (calib.width, calib.height);
    let mut rng = StdRng::seed_from_u64(seed ^ scene.seed.rotate_left(29));
    let mut intensity = vec![0.0f32; w * h];
    let mut inv_depth = vec![0.0f32; w * h];
    let mut direct_depth = vec![0.0f32; w * h];
    let mut depth_buf = vec![f32::INFINITY; w * h];

    // Background: sky above the horizon, textured road below.
    for y in 0..h {
        for x in 0..w {
            let horizon = calib.cy as usize;
            let base = if y < horizon {
                0.30
            } else {
                0.15 + 0.05 * (y - horizon) as f32 / h as f32
            };
            intensity[y * w + x] = base + rng.gen_range(-0.02..0.02);
        }
    }

    // Painter's algorithm over object screen-space bounding boxes.
    for obj in &scene.objects {
        let visible = 1.0 - obj.occlusion;
        if visible <= 0.05 {
            continue;
        }
        // Project the 8 box corners; take the screen-space AABB.
        let mut min_u = f32::INFINITY;
        let mut max_u = f32::NEG_INFINITY;
        let mut min_v = f32::INFINITY;
        let mut max_v = f32::NEG_INFINITY;
        let mut any = false;
        for corner in box_corners(obj) {
            if let Some((u, v, _)) = calib.project(corner) {
                min_u = min_u.min(u);
                max_u = max_u.max(u);
                min_v = min_v.min(v);
                max_v = max_v.max(v);
                any = true;
            }
        }
        if !any {
            continue;
        }
        let depth = obj.center[0];
        let x0 = (min_u.floor().max(0.0)) as usize;
        let x1 = (max_u.ceil().min(w as f32 - 1.0)) as usize;
        let y0 = (min_v.floor().max(0.0)) as usize;
        let y1 = (max_v.ceil().min(h as f32 - 1.0)) as usize;
        if x0 > x1 || y0 > y1 {
            continue;
        }
        let a = albedo(obj) * (0.6 + 0.4 * visible);
        for y in y0..=y1 {
            for x in x0..=x1 {
                let idx = y * w + x;
                if depth < depth_buf[idx] {
                    depth_buf[idx] = depth;
                    intensity[idx] = a + rng.gen_range(-0.03..0.03);
                    inv_depth[idx] = (10.0 / depth).min(1.0);
                    direct_depth[idx] = (depth / 80.0).min(1.0);
                }
            }
        }
    }

    // Ground-plane depth prior: a pixel row below the horizon sees the
    // ground at depth f·h_mount / (v − c_v). Pure calibration geometry —
    // no scene content involved.
    let mut prior = vec![0.0f32; w * h];
    for y in 0..h {
        let dv = y as f32 + 0.5 - calib.cy;
        let p = if dv > 0.5 {
            (calib.fy * calib.mount_height / dv / 80.0).min(1.0)
        } else {
            1.0 // at/above the horizon: unbounded depth
        };
        for x in 0..w {
            prior[y * w + x] = p;
        }
    }

    let mut data = intensity;
    data.extend_from_slice(&inv_depth);
    data.extend_from_slice(&direct_depth);
    data.extend_from_slice(&prior);
    let tensor = Tensor::from_vec(Shape::nchw(1, CAMERA_CHANNELS, h, w), data)
        .expect("render buffer matches declared shape");
    CameraImage { tensor }
}

fn box_corners(obj: &SceneObject) -> [[f32; 3]; 8] {
    let bev = obj.bev_corners();
    let z0 = obj.center[2] - obj.dims[2] / 2.0;
    let z1 = obj.center[2] + obj.dims[2] / 2.0;
    [
        [bev[0][0], bev[0][1], z0],
        [bev[1][0], bev[1][1], z0],
        [bev[2][0], bev[2][1], z0],
        [bev[3][0], bev[3][1], z0],
        [bev[0][0], bev[0][1], z1],
        [bev[1][0], bev[1][1], z1],
        [bev[2][0], bev[2][1], z1],
        [bev[3][0], bev[3][1], z1],
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scene::{ObjectClass, SceneConfig};

    #[test]
    fn projection_center_maps_to_principal_point() {
        let calib = CameraCalib::kitti_small(100, 40);
        // A point straight ahead at camera height projects to (cx, cy).
        let (u, v, d) = calib.project([20.0, 0.0, calib.mount_height]).unwrap();
        assert!((u - calib.cx).abs() < 1e-3);
        assert!((v - calib.cy).abs() < 1e-3);
        assert!((d - 20.0).abs() < 1e-5);
    }

    #[test]
    fn points_behind_camera_rejected() {
        let calib = CameraCalib::default();
        assert!(calib.project([-5.0, 0.0, 1.0]).is_none());
    }

    #[test]
    fn left_points_project_left() {
        let calib = CameraCalib::kitti_small(100, 40);
        // +y is left in the vehicle frame → smaller u.
        let (u_left, _, _) = calib.project([20.0, 5.0, 1.0]).unwrap();
        let (u_right, _, _) = calib.project([20.0, -5.0, 1.0]).unwrap();
        assert!(u_left < calib.cx && u_right > calib.cx);
    }

    #[test]
    fn render_is_deterministic() {
        let scene = Scene::generate(0, &SceneConfig::default(), 11);
        let calib = CameraCalib::default();
        assert_eq!(render(&scene, &calib, 3), render(&scene, &calib, 3));
    }

    #[test]
    fn rendered_shape_matches_calib() {
        let scene = Scene::generate(0, &SceneConfig::default(), 1);
        let calib = CameraCalib::kitti_small(64, 24);
        let img = render(&scene, &calib, 0);
        assert_eq!(img.tensor().shape().dims(), &[1, CAMERA_CHANNELS, 24, 64]);
        assert_eq!(img.width(), 64);
        assert_eq!(img.height(), 24);
    }

    #[test]
    fn objects_brighten_pixels() {
        // A close car ahead must paint pixels brighter than the background.
        let mut scene = Scene::generate(0, &SceneConfig::default(), 1);
        scene.objects.clear();
        scene.objects.push(crate::scene::SceneObject {
            class: ObjectClass::Car,
            center: [10.0, 0.0, 0.78],
            dims: [3.9, 1.6, 1.56],
            yaw: 0.0,
            occlusion: 0.0,
            difficulty: crate::scene::Difficulty::Easy,
        });
        let calib = CameraCalib::kitti_small(124, 38);
        let img = render(&scene, &calib, 0);
        let max_intensity = img
            .tensor()
            .as_slice()
            .iter()
            .take(38 * 124)
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(
            max_intensity > 0.6,
            "car should paint bright pixels, max={max_intensity}"
        );
    }

    #[test]
    fn depth_channel_encodes_inverse_depth() {
        let mut scene = Scene::generate(0, &SceneConfig::default(), 1);
        scene.objects.clear();
        scene.objects.push(crate::scene::SceneObject {
            class: ObjectClass::Car,
            center: [20.0, 0.0, 0.78],
            dims: [3.9, 1.6, 1.56],
            yaw: 0.0,
            occlusion: 0.0,
            difficulty: crate::scene::Difficulty::Easy,
        });
        let calib = CameraCalib::kitti_small(124, 38);
        let img = render(&scene, &calib, 0);
        let n = 38 * 124;
        let inv_depth_max = img.tensor().as_slice()[n..2 * n]
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(
            (inv_depth_max - 0.5).abs() < 0.05,
            "10/20 = 0.5, got {inv_depth_max}"
        );
        // Direct-depth channel carries 20/80 = 0.25 at the painted pixels.
        let direct_max = img.tensor().as_slice()[2 * n..3 * n]
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max);
        assert!(
            (direct_max - 0.25).abs() < 0.05,
            "20/80 = 0.25, got {direct_max}"
        );
        // Ground-plane prior decreases with pixel row below the horizon.
        let prior = &img.tensor().as_slice()[3 * n..4 * n];
        let top_row = prior[0];
        let bottom_row = prior[(38 - 1) * 124];
        assert!(
            bottom_row < top_row,
            "prior must shrink toward the near ground"
        );
    }
}
