//! Pillar encoding: LiDAR sweeps → BEV pseudo-image.
//!
//! PointPillars discretizes the cloud into vertical columns ("pillars") and
//! feeds per-pillar point features through a Pillar Feature Network of 1×1
//! convolutions. Here the pillar stage computes the nine per-pillar input
//! statistics; the 1×1 PFN layers live in the model itself (they are exactly
//! the kernels the paper's Algorithm 5 transforms before quantization).

use serde::{Deserialize, Serialize};
use upaq_kitti::lidar::PointCloud;
use upaq_tensor::ops::parallel_for_chunks;
use upaq_tensor::{Shape, Tensor};

/// Bird's-eye-view grid geometry shared by the pillar encoder and the
/// detection head.
///
/// Rows (tensor H axis) run along +x (forward), columns (W axis) along +y
/// (left), so `cell (0, 0)` is the nearest-right corner of the range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BevGrid {
    /// Minimum x (forward) covered, metres.
    pub x_min: f32,
    /// Maximum x covered, metres.
    pub x_max: f32,
    /// Minimum y (left) covered, metres.
    pub y_min: f32,
    /// Maximum y covered, metres.
    pub y_max: f32,
    /// Cells along x (tensor height).
    pub cells_x: usize,
    /// Cells along y (tensor width).
    pub cells_y: usize,
}

impl BevGrid {
    /// The standard KITTI PointPillars range at a configurable resolution.
    pub fn kitti(cells_x: usize, cells_y: usize) -> Self {
        BevGrid {
            x_min: 0.0,
            x_max: 69.12,
            y_min: -39.68,
            y_max: 39.68,
            cells_x,
            cells_y,
        }
    }

    /// Cell edge lengths `(dx, dy)` in metres.
    pub fn cell_size(&self) -> (f32, f32) {
        (
            (self.x_max - self.x_min) / self.cells_x as f32,
            (self.y_max - self.y_min) / self.cells_y as f32,
        )
    }

    /// The cell containing a metric point, or `None` outside the range.
    pub fn cell_of(&self, x: f32, y: f32) -> Option<(usize, usize)> {
        if x < self.x_min || x >= self.x_max || y < self.y_min || y >= self.y_max {
            return None;
        }
        let (dx, dy) = self.cell_size();
        let cx = ((x - self.x_min) / dx) as usize;
        let cy = ((y - self.y_min) / dy) as usize;
        Some((cx.min(self.cells_x - 1), cy.min(self.cells_y - 1)))
    }

    /// Metric centre of a cell.
    ///
    /// # Panics
    ///
    /// Panics when the cell is out of range.
    pub fn cell_center(&self, cx: usize, cy: usize) -> (f32, f32) {
        assert!(cx < self.cells_x && cy < self.cells_y, "cell out of range");
        let (dx, dy) = self.cell_size();
        (
            self.x_min + (cx as f32 + 0.5) * dx,
            self.y_min + (cy as f32 + 0.5) * dy,
        )
    }
}

/// Number of per-pillar feature channels produced by [`pillarize`].
pub const PILLAR_CHANNELS: usize = 12;

/// Pillar-encoder parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PillarConfig {
    /// BEV grid geometry.
    pub grid: BevGrid,
    /// Points above this height are ignored (metres).
    pub z_max: f32,
    /// Count normalizer: channel 0 stores `min(count, cap) / cap`.
    pub count_cap: usize,
}

impl PillarConfig {
    /// Standard configuration over the KITTI range.
    pub fn kitti(cells_x: usize, cells_y: usize) -> Self {
        PillarConfig {
            grid: BevGrid::kitti(cells_x, cells_y),
            z_max: 4.0,
            count_cap: 32,
        }
    }
}

/// Encodes a point cloud into a `[1, 12, cells_x, cells_y]` pseudo-image.
///
/// Channels: 0 normalized point count, 1 mean z, 2 max z, 3 z std-dev,
/// 4 mean intensity, 5 mean x-offset from the cell centre, 6 mean y-offset,
/// 7 occupancy flag, 8 normalized range of the cell centre (populated
/// cells only), 9/10/11 the in-cell point-spread second moments (σ²ₓ,
/// σ²ᵧ, σₓᵧ) — the local surface direction, which is what lets a per-cell
/// head regress heading.
///
/// Every channel is exactly `0.0` at unpopulated cells — including the
/// range channel, which is gated by occupancy.
///
/// Signed quantities (channels 5/6 offsets and 11 covariance) are remapped
/// into `[0, 1]` (0.5 = zero): the networks downstream start with a
/// ReLU-ing 1×1 PFN, and signed features would lose their negative half at
/// the first activation — destroying exactly the sub-cell localization
/// signal the box regressor needs.
///
/// Work is distributed over the persistent tensor worker pool in three
/// passes: a parallel per-point classify (cell index + accumulation
/// addends), a serial merge in original point order, and a parallel
/// per-cell finalize over disjoint cell chunks concatenated in
/// deterministic order. Each pass either preserves the serial operation
/// order or touches disjoint data, so the output is bit-identical to the
/// serial encoder ([`pillarize_reference`]) at any thread count.
pub fn pillarize(cloud: &PointCloud, config: &PillarConfig) -> Tensor {
    let grid = &config.grid;
    let (h, w) = (grid.cells_x, grid.cells_y);
    let n_cells = h * w;
    let points = cloud.points();
    let n_points = points.len();

    // Pass A (parallel): classify each point into its cell and precompute
    // its accumulation addends. Chunks write disjoint ranges.
    let mut cells = vec![SKIP_CELL; n_points];
    let mut adds = vec![[0.0f32; 8]; n_points];
    let n_chunks = n_points.div_ceil(POINT_CHUNK);
    let cells_ptr = SendMut(cells.as_mut_ptr());
    let adds_ptr = SendMut::<PointAddends>(adds.as_mut_ptr());
    parallel_for_chunks(n_chunks, move |chunk| {
        let lo = chunk * POINT_CHUNK;
        let hi = (lo + POINT_CHUNK).min(n_points);
        // SAFETY: chunks partition `0..n_points`, so the slices are
        // disjoint, and `parallel_for_chunks` blocks until all finish.
        let (cells, adds) = unsafe {
            (
                std::slice::from_raw_parts_mut(cells_ptr.get().add(lo), hi - lo),
                std::slice::from_raw_parts_mut(adds_ptr.get().add(lo), hi - lo),
            )
        };
        for (k, p) in points[lo..hi].iter().enumerate() {
            let [x, y, z] = p.position;
            if z > config.z_max {
                continue;
            }
            if let Some((cx, cy)) = grid.cell_of(x, y) {
                let (ccx, ccy) = grid.cell_center(cx, cy);
                let dx = x - ccx;
                let dy = y - ccy;
                cells[k] = (cx * w + cy) as u32;
                adds[k] = [z, z * z, p.intensity, dx, dy, dx * dx, dy * dy, dx * dy];
            }
        }
    });

    // Pass B (serial): merge addends into the per-cell accumulators in
    // original point order — the float-order-sensitive part.
    let mut count = vec![0u32; n_cells];
    let mut sum_z = vec![0.0f32; n_cells];
    let mut max_z = vec![0.0f32; n_cells];
    let mut sum_z2 = vec![0.0f32; n_cells];
    let mut sum_i = vec![0.0f32; n_cells];
    let mut sum_dx = vec![0.0f32; n_cells];
    let mut sum_dy = vec![0.0f32; n_cells];
    let mut sum_dx2 = vec![0.0f32; n_cells];
    let mut sum_dy2 = vec![0.0f32; n_cells];
    let mut sum_dxdy = vec![0.0f32; n_cells];
    for (cell, add) in cells.iter().zip(&adds) {
        if *cell == SKIP_CELL {
            continue;
        }
        let idx = *cell as usize;
        count[idx] += 1;
        sum_z[idx] += add[0];
        sum_z2[idx] += add[1];
        max_z[idx] = max_z[idx].max(add[0]);
        sum_i[idx] += add[2];
        sum_dx[idx] += add[3];
        sum_dy[idx] += add[4];
        sum_dx2[idx] += add[5];
        sum_dy2[idx] += add[6];
        sum_dxdy[idx] += add[7];
    }

    // Pass C (parallel): per-cell finalize over disjoint cell chunks.
    let mut data = vec![0.0f32; PILLAR_CHANNELS * n_cells];
    let max_range = (grid.x_max * grid.x_max + grid.y_max.max(-grid.y_min).powi(2)).sqrt();
    let data_ptr = SendMut(data.as_mut_ptr());
    let count_ref = &count;
    let cell_chunks = n_cells.div_ceil(CELL_CHUNK);
    parallel_for_chunks(cell_chunks, move |chunk| {
        let lo = chunk * CELL_CHUNK;
        let hi = (lo + CELL_CHUNK).min(n_cells);
        for idx in lo..hi {
            let n = count_ref[idx] as f32;
            // SAFETY: cell chunks are disjoint, every channel plane is
            // indexed at `idx` only, and the buffer outlives the blocking
            // `parallel_for_chunks` call.
            let at = |ch: usize, v: f32| unsafe { *data_ptr.get().add(ch * n_cells + idx) = v };
            at(
                0,
                (n.min(config.count_cap as f32)) / config.count_cap as f32,
            );
            if n > 0.0 {
                let (cx, cy) = (idx / w, idx % w);
                let (ccx, ccy) = grid.cell_center(cx, cy);
                let mean_z = sum_z[idx] / n;
                at(1, mean_z);
                at(2, max_z[idx]);
                at(3, (sum_z2[idx] / n - mean_z * mean_z).max(0.0).sqrt());
                at(4, sum_i[idx] / n);
                let (dx_cell, dy_cell) = grid.cell_size();
                let mean_dx = sum_dx[idx] / n;
                let mean_dy = sum_dy[idx] / n;
                at(5, (mean_dx / dx_cell + 0.5).clamp(0.0, 1.0));
                at(6, (mean_dy / dy_cell + 0.5).clamp(0.0, 1.0));
                at(7, 1.0);
                at(8, (ccx * ccx + ccy * ccy).sqrt() / max_range);
                // Second moments of the in-cell point spread, normalized by
                // the cell area; covariance shifted so zero maps to 0.5.
                let var_x = (sum_dx2[idx] / n - mean_dx * mean_dx).max(0.0);
                let var_y = (sum_dy2[idx] / n - mean_dy * mean_dy).max(0.0);
                let cov = sum_dxdy[idx] / n - mean_dx * mean_dy;
                let norm = dx_cell * dy_cell;
                at(9, (var_x / norm).min(1.0));
                at(10, (var_y / norm).min(1.0));
                at(11, (cov / norm * 2.0 + 0.5).clamp(0.0, 1.0));
            }
        }
    });

    Tensor::from_vec(Shape::nchw(1, PILLAR_CHANNELS, h, w), data)
        .expect("pillar buffer matches declared shape")
}

/// Per-point accumulation addends, precomputed in the parallel classify
/// pass: `[z, z², intensity, dx, dy, dx², dy², dx·dy]`. The serial merge
/// pass adds them to the per-cell accumulators in original point order, so
/// the sums are bit-identical to the single-pass serial encoder at any
/// thread count.
type PointAddends = [f32; 8];

/// Sentinel for points filtered out by the height/range gates.
const SKIP_CELL: u32 = u32::MAX;

/// Points per chunk of the parallel classify pass.
const POINT_CHUNK: usize = 2048;

/// Cells per chunk of the parallel finalize pass.
const CELL_CHUNK: usize = 512;

/// Raw-pointer handoff for the disjoint per-chunk writes of the parallel
/// passes (same pattern as the tensor crate's conv dispatch).
#[derive(Clone, Copy)]
struct SendMut<T>(*mut T);
unsafe impl<T> Send for SendMut<T> {}
unsafe impl<T> Sync for SendMut<T> {}

impl<T> SendMut<T> {
    // Accessor (rather than field access) so closures capture the Sync
    // wrapper, not the raw pointer, under 2021 disjoint capture.
    fn get(self) -> *mut T {
        self.0
    }
}

/// The single-pass serial pillar encoder, preserved verbatim as the
/// bit-identity oracle for [`pillarize`]'s parallel passes.
#[doc(hidden)]
pub fn pillarize_reference(cloud: &PointCloud, config: &PillarConfig) -> Tensor {
    let grid = &config.grid;
    let (h, w) = (grid.cells_x, grid.cells_y);
    let n_cells = h * w;
    let mut count = vec![0u32; n_cells];
    let mut sum_z = vec![0.0f32; n_cells];
    let mut max_z = vec![0.0f32; n_cells];
    let mut sum_z2 = vec![0.0f32; n_cells];
    let mut sum_i = vec![0.0f32; n_cells];
    let mut sum_dx = vec![0.0f32; n_cells];
    let mut sum_dy = vec![0.0f32; n_cells];
    let mut sum_dx2 = vec![0.0f32; n_cells];
    let mut sum_dy2 = vec![0.0f32; n_cells];
    let mut sum_dxdy = vec![0.0f32; n_cells];

    for p in cloud.points() {
        let [x, y, z] = p.position;
        if z > config.z_max {
            continue;
        }
        if let Some((cx, cy)) = grid.cell_of(x, y) {
            let idx = cx * w + cy;
            let (ccx, ccy) = grid.cell_center(cx, cy);
            count[idx] += 1;
            sum_z[idx] += z;
            sum_z2[idx] += z * z;
            max_z[idx] = max_z[idx].max(z);
            sum_i[idx] += p.intensity;
            let dx = x - ccx;
            let dy = y - ccy;
            sum_dx[idx] += dx;
            sum_dy[idx] += dy;
            sum_dx2[idx] += dx * dx;
            sum_dy2[idx] += dy * dy;
            sum_dxdy[idx] += dx * dy;
        }
    }

    let mut data = vec![0.0f32; PILLAR_CHANNELS * n_cells];
    let max_range = (grid.x_max * grid.x_max + grid.y_max.max(-grid.y_min).powi(2)).sqrt();
    for idx in 0..n_cells {
        let n = count[idx] as f32;
        data[idx] = (n.min(config.count_cap as f32)) / config.count_cap as f32;
        if n > 0.0 {
            let (cx, cy) = (idx / w, idx % w);
            let (ccx, ccy) = grid.cell_center(cx, cy);
            let mean_z = sum_z[idx] / n;
            data[n_cells + idx] = mean_z;
            data[2 * n_cells + idx] = max_z[idx];
            data[3 * n_cells + idx] = (sum_z2[idx] / n - mean_z * mean_z).max(0.0).sqrt();
            data[4 * n_cells + idx] = sum_i[idx] / n;
            let (dx_cell, dy_cell) = grid.cell_size();
            let mean_dx = sum_dx[idx] / n;
            let mean_dy = sum_dy[idx] / n;
            data[5 * n_cells + idx] = (mean_dx / dx_cell + 0.5).clamp(0.0, 1.0);
            data[6 * n_cells + idx] = (mean_dy / dy_cell + 0.5).clamp(0.0, 1.0);
            data[7 * n_cells + idx] = 1.0;
            data[8 * n_cells + idx] = (ccx * ccx + ccy * ccy).sqrt() / max_range;
            let var_x = (sum_dx2[idx] / n - mean_dx * mean_dx).max(0.0);
            let var_y = (sum_dy2[idx] / n - mean_dy * mean_dy).max(0.0);
            let cov = sum_dxdy[idx] / n - mean_dx * mean_dy;
            let norm = dx_cell * dy_cell;
            data[9 * n_cells + idx] = (var_x / norm).min(1.0);
            data[10 * n_cells + idx] = (var_y / norm).min(1.0);
            data[11 * n_cells + idx] = (cov / norm * 2.0 + 0.5).clamp(0.0, 1.0);
        }
    }

    Tensor::from_vec(Shape::nchw(1, PILLAR_CHANNELS, h, w), data)
        .expect("pillar buffer matches declared shape")
}

#[cfg(test)]
mod tests {
    use super::*;
    use upaq_kitti::dataset::{Dataset, DatasetConfig};
    use upaq_kitti::lidar::LidarPoint;

    fn cloud_of(points: Vec<LidarPoint>) -> PointCloud {
        PointCloud::from_points(points)
    }

    #[test]
    fn grid_cell_mapping_roundtrip() {
        let grid = BevGrid::kitti(32, 32);
        let (x, y) = grid.cell_center(5, 20);
        assert_eq!(grid.cell_of(x, y), Some((5, 20)));
        assert_eq!(grid.cell_of(-1.0, 0.0), None);
        assert_eq!(grid.cell_of(0.0, 100.0), None);
    }

    #[test]
    fn cell_size_consistent() {
        let grid = BevGrid::kitti(64, 64);
        let (dx, dy) = grid.cell_size();
        assert!((dx * 64.0 - 69.12).abs() < 1e-3);
        assert!((dy * 64.0 - 79.36).abs() < 1e-3);
    }

    #[test]
    fn pillarize_shape_and_occupancy() {
        let cfg = PillarConfig::kitti(16, 16);
        let p = LidarPoint {
            position: [10.0, 0.0, 1.0],
            intensity: 0.5,
        };
        let cloud = cloud_of(vec![p; 8]);
        let img = pillarize(&cloud, &cfg);
        assert_eq!(img.shape().dims(), &[1, 12, 16, 16]);
        let (cx, cy) = cfg.grid.cell_of(10.0, 0.0).unwrap();
        // Occupancy channel (7) set exactly at the populated cell.
        assert_eq!(img.get(&[0, 7, cx, cy]).unwrap(), 1.0);
        let occupied: f32 = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .map(|(a, b)| img.get(&[0, 7, a, b]).unwrap())
            .sum();
        assert_eq!(occupied, 1.0);
        // Mean z of identical points is their z.
        assert!((img.get(&[0, 1, cx, cy]).unwrap() - 1.0).abs() < 1e-5);
        // Count channel: 8 points over cap 32 → 0.25.
        assert!((img.get(&[0, 0, cx, cy]).unwrap() - 0.25).abs() < 1e-5);
    }

    #[test]
    fn high_points_filtered() {
        let cfg = PillarConfig::kitti(8, 8);
        let cloud = cloud_of(vec![LidarPoint {
            position: [10.0, 0.0, 10.0],
            intensity: 0.5,
        }]);
        let img = pillarize(&cloud, &cfg);
        assert_eq!(img.map(|v| if v == 1.0 { 1.0 } else { 0.0 }).sum(), 0.0);
    }

    #[test]
    fn empty_cells_have_zero_features() {
        let cfg = PillarConfig::kitti(8, 8);
        let img = pillarize(&cloud_of(vec![]), &cfg);
        // Every channel — including range (8) — is exactly zero at empty
        // cells.
        for v in img.as_slice() {
            assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn range_channel_gated_by_occupancy() {
        let cfg = PillarConfig::kitti(8, 8);
        let cloud = cloud_of(vec![LidarPoint {
            position: [10.0, 0.0, 1.0],
            intensity: 0.5,
        }]);
        let img = pillarize(&cloud, &cfg);
        let (cx, cy) = cfg.grid.cell_of(10.0, 0.0).unwrap();
        assert!(img.get(&[0, 8, cx, cy]).unwrap() > 0.0);
        // A far empty cell carries no range signal.
        assert_eq!(img.get(&[0, 8, 7, 7]).unwrap(), 0.0);
    }

    #[test]
    fn parallel_pillarize_matches_serial_bit_exact() {
        let dataset = Dataset::generate(&DatasetConfig::small(), 11);
        let cfg = PillarConfig::kitti(32, 32);
        for frame in 0..4 {
            let cloud = dataset.lidar(frame);
            let par = pillarize(&cloud, &cfg);
            let ser = pillarize_reference(&cloud, &cfg);
            let a: Vec<u32> = par.as_slice().iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = ser.as_slice().iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "frame {frame}");
        }
    }

    #[test]
    fn real_cloud_produces_structure() {
        let dataset = Dataset::generate(&DatasetConfig::small(), 5);
        let cloud = dataset.lidar(0);
        let cfg = PillarConfig::kitti(32, 32);
        let img = pillarize(&cloud, &cfg);
        // Some cells occupied, not all.
        let occupied: f32 = (0..32)
            .flat_map(|a| (0..32).map(move |b| (a, b)))
            .map(|(a, b)| img.get(&[0, 7, a, b]).unwrap())
            .sum();
        assert!(occupied > 10.0 && occupied < 1000.0, "occupied={occupied}");
    }

    #[test]
    fn offsets_normalized_to_unit_interval() {
        let dataset = Dataset::generate(&DatasetConfig::small(), 6);
        let cloud = dataset.lidar(1);
        let cfg = PillarConfig::kitti(32, 32);
        let img = pillarize(&cloud, &cfg);
        for a in 0..32 {
            for b in 0..32 {
                let dx = img.get(&[0, 5, a, b]).unwrap();
                let dy = img.get(&[0, 6, a, b]).unwrap();
                assert!((0.0..=1.0).contains(&dx));
                assert!((0.0..=1.0).contains(&dy));
            }
        }
    }

    #[test]
    fn offset_channel_encodes_sub_cell_position() {
        // A point left-of-centre vs right-of-centre must produce different
        // (and correctly ordered) offset codes.
        let cfg = PillarConfig::kitti(16, 16);
        let (cx, cy) = cfg.grid.cell_of(10.0, 0.0).unwrap();
        let (ccx, _) = cfg.grid.cell_center(cx, cy);
        let low = cloud_of(vec![LidarPoint {
            position: [ccx - 1.0, 0.0, 1.0],
            intensity: 0.5,
        }]);
        let high = cloud_of(vec![LidarPoint {
            position: [ccx + 1.0, 0.0, 1.0],
            intensity: 0.5,
        }]);
        let img_low = pillarize(&low, &cfg);
        let img_high = pillarize(&high, &cfg);
        let v_low = img_low.get(&[0, 5, cx, cy]).unwrap();
        let v_high = img_high.get(&[0, 5, cx, cy]).unwrap();
        assert!(v_low < 0.5 && v_high > 0.5, "low {v_low}, high {v_high}");
    }
}
