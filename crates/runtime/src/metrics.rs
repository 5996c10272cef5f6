//! Observability building blocks for the serving engine: latency
//! percentiles and batch statistics. The run report that assembles them
//! is `upaq_serve::FleetReport`.

use std::collections::BTreeMap;
use std::sync::Mutex;
use upaq_json::{json, ToJson, Value};

/// Collects latency samples and answers percentile queries.
///
/// Samples are stored raw (one `f64` per frame) — streaming runs here are
/// thousands of frames, not billions, so exact percentiles are affordable
/// and simpler to trust than a sketch.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples: Mutex<Vec<f64>>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        LatencyRecorder::default()
    }

    /// Records one latency sample, in seconds.
    pub fn record(&self, seconds: f64) {
        self.samples.lock().unwrap().push(seconds);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.lock().unwrap().len()
    }

    /// Sorted copy of the samples.
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.samples.lock().unwrap().clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v
    }

    /// Summarises the samples (zeros when empty).
    pub fn summary(&self) -> LatencySummary {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return LatencySummary::default();
        }
        let pct = |p: f64| {
            let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
            sorted[idx]
        };
        LatencySummary {
            count: sorted.len() as u64,
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_s: pct(50.0),
            p95_s: pct(95.0),
            p99_s: pct(99.0),
            max_s: *sorted.last().unwrap(),
        }
    }
}

/// Percentile summary of one latency distribution, in seconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Samples observed.
    pub count: u64,
    /// Mean.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Worst observed.
    pub max_s: f64,
}

impl ToJson for LatencySummary {
    fn to_json(&self) -> Value {
        json!({
            "count": self.count,
            "mean_ms": self.mean_s * 1e3,
            "p50_ms": self.p50_s * 1e3,
            "p95_ms": self.p95_s * 1e3,
            "p99_ms": self.p99_s * 1e3,
            "max_ms": self.max_s * 1e3,
        })
    }
}

/// Batched-execution statistics for the backbone stage: how many
/// invocations ran at each batch size and how much backbone busy time the
/// admitted frames cost in total — the inputs to the amortized per-frame
/// latency and batched-vs-serial throughput numbers in the run report.
#[derive(Debug, Default)]
pub struct BatchStats {
    /// Invocation count per batch size.
    sizes: Mutex<BTreeMap<usize, u64>>,
    /// Total backbone busy time across invocations, seconds.
    busy_s: Mutex<f64>,
}

impl BatchStats {
    /// An empty collector.
    pub fn new() -> Self {
        BatchStats::default()
    }

    /// Records one backbone invocation covering `size` frames that took
    /// `busy_s` seconds of wall time.
    pub fn record(&self, size: usize, busy_s: f64) {
        if size == 0 {
            return;
        }
        *self.sizes.lock().unwrap().entry(size).or_insert(0) += 1;
        *self.busy_s.lock().unwrap() += busy_s;
    }

    /// Invocation counts by batch size, ascending.
    pub fn histogram(&self) -> Vec<BatchBucket> {
        self.sizes
            .lock()
            .unwrap()
            .iter()
            .map(|(&size, &batches)| BatchBucket { size, batches })
            .collect()
    }

    /// Total backbone invocations.
    pub fn batches(&self) -> u64 {
        self.sizes.lock().unwrap().values().sum()
    }

    /// Total frames that went through the backbone.
    pub fn frames(&self) -> u64 {
        self.sizes
            .lock()
            .unwrap()
            .iter()
            .map(|(&size, &batches)| size as u64 * batches)
            .sum()
    }

    /// Mean frames per backbone invocation (0 when nothing ran).
    pub fn mean_batch_size(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            return 0.0;
        }
        self.frames() as f64 / batches as f64
    }

    /// Amortized backbone busy time per frame, seconds (0 when nothing
    /// ran). Under batching this drops below the serial per-invocation
    /// latency — the throughput win the report surfaces.
    pub fn amortized_backbone_s(&self) -> f64 {
        let frames = self.frames();
        if frames == 0 {
            return 0.0;
        }
        *self.busy_s.lock().unwrap() / frames as f64
    }
}

/// Sparse-activation section of the run report. Nothing fills it
/// (serving leaves `FleetReport::sparse_activation` as `None`); the type
/// stays while report consumers still name the field.
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityReport {
    /// Frames where at least one layer ran the gather kernel.
    pub frames_sparse: u64,
    /// Frames that ran fully dense (fallback or no sparse encoding).
    pub frames_dense: u64,
    /// Mean of the per-layer mean active fractions.
    pub mean_active_frac: f64,
    /// Per-layer aggregates, sorted by layer name.
    pub layers: Vec<LayerSparsityReport>,
}

impl ToJson for SparsityReport {
    fn to_json(&self) -> Value {
        json!({
            "frames_sparse": self.frames_sparse,
            "frames_dense": self.frames_dense,
            "mean_active_frac": self.mean_active_frac,
            "layers": self.layers,
        })
    }
}

/// One layer's aggregated sparsity over a run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSparsityReport {
    /// Layer name.
    pub layer: String,
    /// Mean active fraction of this layer's output map across frames.
    pub mean_active_frac: f64,
    /// Frames where this layer retained its sparse representation.
    pub sparse_frames: u64,
    /// Frames this layer executed.
    pub frames: u64,
}

impl ToJson for LayerSparsityReport {
    fn to_json(&self) -> Value {
        json!({
            "layer": self.layer,
            "mean_active_frac": self.mean_active_frac,
            "sparse_frames": self.sparse_frames,
            "frames": self.frames,
        })
    }
}

/// One row of the batch-size histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchBucket {
    /// Frames per invocation.
    pub size: usize,
    /// Invocations observed at this size.
    pub batches: u64,
}

impl ToJson for BatchBucket {
    fn to_json(&self) -> Value {
        json!({
            "size": self.size,
            "batches": self.batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_distribution() {
        let r = LatencyRecorder::new();
        for i in 1..=100 {
            r.record(i as f64);
        }
        let s = r.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean_s - 50.5).abs() < 1e-9);
        // Nearest-rank on an even count rounds up: index round(49.5) = 50.
        assert_eq!(s.p50_s, 51.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
    }

    #[test]
    fn empty_recorder_summary_is_zero() {
        let s = LatencyRecorder::new().summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_s, 0.0);
    }

    #[test]
    fn batch_stats_aggregate_sizes_and_amortized_cost() {
        let b = BatchStats::new();
        assert_eq!(b.mean_batch_size(), 0.0);
        assert_eq!(b.amortized_backbone_s(), 0.0);
        // Two singles at 40 ms, one batch of 4 at 60 ms.
        b.record(1, 0.040);
        b.record(1, 0.040);
        b.record(4, 0.060);
        b.record(0, 9.9); // ignored
        assert_eq!(b.batches(), 3);
        assert_eq!(b.frames(), 6);
        assert!((b.mean_batch_size() - 2.0).abs() < 1e-12);
        // 140 ms over 6 frames ≈ 23.3 ms/frame, well under the serial 40 ms.
        assert!((b.amortized_backbone_s() - 0.140 / 6.0).abs() < 1e-12);
        let hist = b.histogram();
        assert_eq!(hist.len(), 2);
        assert_eq!(
            hist[0],
            BatchBucket {
                size: 1,
                batches: 2
            }
        );
        assert_eq!(
            hist[1],
            BatchBucket {
                size: 4,
                batches: 1
            }
        );
    }
}
