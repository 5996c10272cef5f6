//! Symmetric integer quantization — the one owner of the quantization
//! rule.
//!
//! Implements the numeric core of the paper's Algorithm 6: symmetric
//! quantization centred on zero, plus the signal-to-quantization-noise
//! ratio (SQNR) used to measure quantization error. [`Grid::of`] is the
//! only place the workspace computes a grid; [`quantize`] (codes, for the
//! artifact packer) and [`fake_quantize`] (restored values, in place, for
//! every compression algorithm) apply it to a slice. UPAQ calls them once
//! per kernel from its mixed-precision search; the baselines reuse them
//! with their own policies.

use crate::{Result, Tensor, TensorError};

/// Inclusive range of bitwidths this crate supports.
///
/// The paper sweeps quantization bits from 4 to 16; we additionally allow 2
/// and 3 bits so ablations can explore more aggressive settings.
pub const MIN_BITS: u8 = 2;
/// See [`MIN_BITS`].
pub const MAX_BITS: u8 = 16;

/// A symmetric quantization grid: integer codes in
/// `-max_code..=max_code`, code `q` standing for `q as f32 * scale`.
///
/// Symmetric quantization maps `[-α, α]` onto `[-(2^(b-1)-1), 2^(b-1)-1]`,
/// so zero is always exactly representable — important for pruned
/// kernels, where most elements are exactly zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grid {
    /// The step between adjacent codes.
    pub scale: f32,
    /// The largest code, `2^(b-1) - 1`.
    pub max_code: i32,
}

impl Grid {
    /// The `bits`-bit grid of `values` — lines 1–5 of the paper's
    /// Algorithm 6: `α = max|x|`, `scale = α / (2^(b-1) - 1)`. An all-zero
    /// slice gets unit scale.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnsupportedBitwidth`] for bitwidths outside
    /// [`MIN_BITS`]`..=`[`MAX_BITS`].
    pub fn of(values: &[f32], bits: u8) -> Result<Grid> {
        if !(MIN_BITS..=MAX_BITS).contains(&bits) {
            return Err(TensorError::UnsupportedBitwidth(bits));
        }
        let max_code = (1i32 << (bits - 1)) - 1;
        let alpha = values.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
        let scale = if alpha == 0.0 {
            1.0
        } else {
            alpha / max_code as f32
        };
        Ok(Grid { scale, max_code })
    }

    /// The code of `x`: `clip(round(x / scale))` (Algorithm 6, line 6).
    pub fn code(&self, x: f32) -> i32 {
        ((x / self.scale).round() as i32).clamp(-self.max_code, self.max_code)
    }
}

/// Quantizes `values` to `bits` bits with one symmetric scale, returning
/// `(scale, codes)`; value `i` is restored as `codes[i] as f32 * scale`.
///
/// ```
/// use upaq_tensor::quant::quantize;
///
/// # fn main() -> Result<(), upaq_tensor::TensorError> {
/// let (scale, codes) = quantize(&[-1.0, 0.0, 0.25], 8)?;
/// assert_eq!(codes, vec![-127, 0, 32]);
/// assert!((codes[2] as f32 * scale - 0.25).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedBitwidth`] as [`Grid::of`] does.
pub fn quantize(values: &[f32], bits: u8) -> Result<(f32, Vec<i32>)> {
    let grid = Grid::of(values, bits)?;
    Ok((grid.scale, values.iter().map(|&x| grid.code(x)).collect()))
}

/// Quantizes then immediately restores `values` in place (`fake
/// quantization`): every value moves to its nearest point of the slice's
/// `bits`-bit grid. This is the form every compression algorithm in the
/// workspace writes back into a model.
///
/// # Errors
///
/// Returns [`TensorError::UnsupportedBitwidth`] as [`Grid::of`] does,
/// leaving `values` untouched.
pub fn fake_quantize(values: &mut [f32], bits: u8) -> Result<()> {
    let grid = Grid::of(values, bits)?;
    for x in values {
        *x = grid.code(*x) as f32 * grid.scale;
    }
    Ok(())
}

/// Signal-to-quantization-noise ratio between an original tensor and its
/// quantized reconstruction, as a plain power ratio (not dB):
/// `sqnr = var(x) / var(x - x̂)` (paper Algorithm 6, line 8).
///
/// Returns `f32::INFINITY` when the reconstruction is exact (zero noise
/// variance), matching the intuition that lossless quantization has
/// unbounded SQNR.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
pub fn sqnr(original: &Tensor, reconstructed: &Tensor) -> Result<f32> {
    let noise = original.sub(reconstructed)?;
    let noise_var = noise.variance();
    let signal_var = original.variance();
    if noise_var == 0.0 {
        return Ok(f32::INFINITY);
    }
    Ok(signal_var / noise_var)
}

/// Converts a plain SQNR power ratio to decibels.
///
/// ```
/// let db = upaq_tensor::quant::sqnr_db(100.0);
/// assert!((db - 20.0).abs() < 1e-5);
/// ```
pub fn sqnr_db(ratio: f32) -> f32 {
    if ratio <= 0.0 {
        f32::NEG_INFINITY
    } else {
        10.0 * ratio.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Shape;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_tensor(seed: u64, n: usize) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::uniform(Shape::vector(n), -1.0, 1.0, &mut rng)
    }

    fn fake_quantized(t: &Tensor, bits: u8) -> Tensor {
        let mut q = t.clone();
        fake_quantize(q.as_mut_slice(), bits).unwrap();
        q
    }

    fn fake_sqnr(t: &Tensor, bits: u8) -> f32 {
        sqnr(t, &fake_quantized(t, bits)).unwrap()
    }

    #[test]
    fn rejects_bad_bitwidths() {
        let t = sample_tensor(0, 16);
        assert!(quantize(t.as_slice(), 1).is_err());
        assert!(quantize(t.as_slice(), 17).is_err());
        assert!(quantize(t.as_slice(), 8).is_ok());
        let mut q = t.clone();
        assert!(fake_quantize(q.as_mut_slice(), 1).is_err());
        assert_eq!(q, t, "a refused bitwidth leaves the values untouched");
    }

    #[test]
    fn zero_tensor_quantizes_exactly() {
        let t = Tensor::zeros(Shape::vector(8));
        assert_eq!(fake_quantized(&t, 4), t);
        let (scale, codes) = quantize(t.as_slice(), 4).unwrap();
        assert_eq!(scale, 1.0);
        assert!(codes.iter().all(|&c| c == 0));
    }

    #[test]
    fn reconstruction_error_bounded_by_half_scale() {
        let t = sample_tensor(1, 256);
        for bits in [4u8, 8, 16] {
            let (scale, _) = quantize(t.as_slice(), bits).unwrap();
            let recon = fake_quantized(&t, bits);
            let err = t.max_abs_diff(&recon).unwrap();
            assert!(
                err <= scale * 0.5 + 1e-6,
                "bits={bits}: err {err} > half scale {}",
                scale * 0.5
            );
        }
    }

    #[test]
    fn more_bits_means_higher_sqnr() {
        let t = sample_tensor(2, 512);
        let s4 = fake_sqnr(&t, 4);
        let s8 = fake_sqnr(&t, 8);
        let s16 = fake_sqnr(&t, 16);
        assert!(s4 < s8, "4-bit SQNR {s4} should be below 8-bit {s8}");
        assert!(s8 < s16, "8-bit SQNR {s8} should be below 16-bit {s16}");
    }

    #[test]
    fn sqnr_rule_of_thumb_6db_per_bit() {
        // Uniform data: SQNR grows ≈6.02 dB per extra bit. Allow slack.
        let t = sample_tensor(3, 8192);
        let s6 = fake_sqnr(&t, 6);
        let s10 = fake_sqnr(&t, 10);
        let gain_db = sqnr_db(s10) - sqnr_db(s6);
        assert!(
            (gain_db - 24.0).abs() < 4.0,
            "gain {gain_db} dB far from 24 dB"
        );
    }

    #[test]
    fn zero_stays_zero() {
        // Symmetric quantization must keep pruned (zero) weights exactly zero.
        let mut data = [0.0, 0.9, 0.0, -0.7];
        fake_quantize(&mut data, 4).unwrap();
        assert_eq!(data[0], 0.0);
        assert_eq!(data[2], 0.0);
    }

    #[test]
    fn exact_reconstruction_gives_infinite_sqnr() {
        let t = Tensor::from_vec(Shape::vector(2), vec![1.0, -1.0]).unwrap();
        assert_eq!(sqnr(&t, &t).unwrap(), f32::INFINITY);
    }

    #[test]
    fn codes_respect_range() {
        let t = sample_tensor(5, 1000);
        let (_, codes) = quantize(t.as_slice(), 4).unwrap();
        assert!(codes.iter().all(|&c| (-7..=7).contains(&c)));
    }

    #[test]
    fn sqnr_db_conversion() {
        assert!(sqnr_db(0.0).is_infinite());
        assert!((sqnr_db(1000.0) - 30.0).abs() < 1e-4);
    }
}
