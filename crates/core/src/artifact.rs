//! Packed compressed-model artifacts: the actual bytes a deployment ships.
//!
//! The compression ratios in Table 2 are statements about *stored size*.
//! [`crate::compress::CompressionReport`] estimates them analytically; this
//! module validates the claim end-to-end by genuinely serializing a
//! compressed model — bit-packed integer codes, one f32 scale per (virtual)
//! kernel, per-kernel pattern masks — and deserializing it back to
//! bit-exact weights.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "UPAQ"  u32 version  u32 layer_count
//! per weighted layer:
//!   u32 layer_id   u8 kind   u8 bits   u32 weight_len
//!   payload:
//!     kind 0 dense-fp32:      weight_len × f32
//!     kind 1 dense-quant:     f32 scale, packed codes (weight_len × bits)
//!     kind 2 pattern-kernels: per 9-weight kernel: u16 mask, f32 scale,
//!                             packed codes for the mask's survivors
//!     kind 3 sparse-coo:      u32 nnz, then nnz × (u32 index, f32 value)
//! ```
//!
//! The bias vectors and unweighted layers travel with the model
//! architecture, which the unpacker receives as a template — exactly how a
//! deployment pairs an engine definition with a weight blob.

use crate::error::ensure_finite;
use crate::{Result, UpaqError};
use std::collections::{HashMap, HashSet};
use upaq_hwmodel::exec::{BitAllocation, SparsityKind};
use upaq_nn::{LayerId, Model};
use upaq_tensor::quant::{quantize, MAX_BITS, MIN_BITS};
use upaq_tensor::Tensor;

const MAGIC: &[u8; 4] = b"UPAQ";
const VERSION: u32 = 1;
/// Kernel granule for pattern-packed layers (the 3×3 virtual kernel of
/// Algorithms 4/5).
const GRANULE: usize = 9;
/// Bitwidths of integer-coded payloads: the quantizer's.
const CODED_BITS: std::ops::RangeInclusive<u8> = MIN_BITS..=MAX_BITS;
/// The bits byte of a raw-f32 payload.
const RAW_BITS: u8 = 32;

/// A serialized compressed model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedModel {
    bytes: Vec<u8>,
}

impl PackedModel {
    /// The raw artifact bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Artifact size in bytes — the number the compression ratio is about.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// `true` for an empty artifact (never produced by [`pack`]).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Little-endian byte writer with a bit-packing lane.
struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Writer { bytes: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }
    /// Packs signed codes at `bits` bits each (two's complement), padded to
    /// a byte boundary.
    fn codes(&mut self, codes: &[i32], bits: u8) {
        let bits = bits as u32;
        let mut acc: u64 = 0;
        let mut filled: u32 = 0;
        for &c in codes {
            let mask = (1u64 << bits) - 1;
            acc |= ((c as u64) & mask) << filled;
            filled += bits;
            while filled >= 8 {
                self.bytes.push((acc & 0xFF) as u8);
                acc >>= 8;
                filled -= 8;
            }
        }
        if filled > 0 {
            self.bytes.push((acc & 0xFF) as u8);
        }
    }
}

/// Little-endian byte reader mirroring [`Writer`].
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(UpaqError::BadConfig("artifact truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    /// Unpacks `count` signed codes at `bits` bits each.
    fn codes(&mut self, count: usize, bits: u8) -> Result<Vec<i32>> {
        let total_bits = count * bits as usize;
        let bytes = self.take(total_bits.div_ceil(8))?;
        let mut out = Vec::with_capacity(count);
        let mut acc: u64 = 0;
        let mut filled: u32 = 0;
        let mut idx = 0usize;
        let bits_u = bits as u32;
        for _ in 0..count {
            while filled < bits_u {
                acc |= (bytes[idx] as u64) << filled;
                idx += 1;
                filled += 8;
            }
            let raw = (acc & ((1u64 << bits_u) - 1)) as u32;
            acc >>= bits_u;
            filled -= bits_u;
            // Sign-extend.
            let sign_bit = 1u32 << (bits_u - 1);
            let value = if raw & sign_bit != 0 {
                (raw | !((1u32 << bits_u) - 1)) as i32
            } else {
                raw as i32
            };
            out.push(value);
        }
        Ok(out)
    }
}

/// Serializes a compressed model's weights under the given allocations.
///
/// # Errors
///
/// Returns [`UpaqError::BadConfig`] for unsupported bitwidths, and
/// [`UpaqError::Tensor`] with [`TensorError::NonFiniteWeight`] for a NaN
/// or infinite weight, which [`unpack`] would refuse.
///
/// [`TensorError::NonFiniteWeight`]: upaq_tensor::TensorError::NonFiniteWeight
pub fn pack(
    model: &Model,
    bits: &BitAllocation,
    kinds: &HashMap<LayerId, SparsityKind>,
) -> Result<PackedModel> {
    let mut w = Writer::new();
    w.bytes.extend_from_slice(MAGIC);
    w.u32(VERSION);
    let weighted = model.weighted_layers();
    w.u32(weighted.len() as u32);

    for id in weighted {
        let layer = model.layer(id)?;
        let weights = layer.weights().expect("weighted layer");
        ensure_finite(weights)?;
        let layer_bits = bits.get(&id).copied().unwrap_or(32);
        let kind = kinds.get(&id).copied().unwrap_or(SparsityKind::Dense);
        if layer_bits != RAW_BITS && !CODED_BITS.contains(&layer_bits) {
            return Err(UpaqError::BadConfig(format!(
                "unsupported bits {layer_bits}"
            )));
        }

        w.u32(id as u32);
        let data = weights.as_slice();
        match (kind, layer_bits) {
            (SparsityKind::SemiStructured, b) if b < 32 => {
                w.u8(2);
                w.u8(b);
                w.u32(data.len() as u32);
                for kernel in data.chunks(GRANULE) {
                    let mut mask: u16 = 0;
                    let mut kept = Vec::new();
                    for (i, &v) in kernel.iter().enumerate() {
                        if v != 0.0 {
                            mask |= 1 << i;
                            kept.push(v);
                        }
                    }
                    w.u16(mask);
                    let (scale, codes) = quantize(&kept, b)?;
                    w.f32(scale);
                    w.codes(&codes, b);
                }
            }
            (
                SparsityKind::Unstructured
                | SparsityKind::SemiStructured
                | SparsityKind::Structured,
                32,
            ) => {
                // fp32 sparse: coordinate list.
                w.u8(3);
                w.u8(32);
                w.u32(data.len() as u32);
                let nnz = data.iter().filter(|&&v| v != 0.0).count();
                w.u32(nnz as u32);
                for (i, &v) in data.iter().enumerate() {
                    if v != 0.0 {
                        w.u32(i as u32);
                        w.f32(v);
                    }
                }
            }
            (SparsityKind::Unstructured, b) => {
                // Quantized sparse: indices + per-layer scale + codes.
                w.u8(3);
                w.u8(b);
                w.u32(data.len() as u32);
                let entries: Vec<(usize, f32)> = data
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(i, &v)| (i, v))
                    .collect();
                w.u32(entries.len() as u32);
                for &(i, _) in &entries {
                    w.u32(i as u32);
                }
                let values: Vec<f32> = entries.iter().map(|&(_, v)| v).collect();
                let (scale, codes) = quantize(&values, b)?;
                w.f32(scale);
                w.codes(&codes, b);
            }
            (SparsityKind::Dense | SparsityKind::Structured, b) if b < 32 => {
                w.u8(1);
                w.u8(b);
                w.u32(data.len() as u32);
                let (scale, codes) = quantize(data, b)?;
                w.f32(scale);
                w.codes(&codes, b);
            }
            _ => {
                w.u8(0);
                w.u8(32);
                w.u32(data.len() as u32);
                for &v in data {
                    w.f32(v);
                }
            }
        }
    }
    Ok(PackedModel { bytes: w.bytes })
}

/// Restores the packed weights into a copy of `template` (which must share
/// the packed model's architecture).
///
/// # Errors
///
/// Returns [`UpaqError::BadConfig`] for corrupt artifacts — truncated
/// input, bytes after the last layer record, a bits byte [`pack`] never
/// writes for the layer's kind, or a decoded weight that is NaN or
/// infinite — and for artifacts that do not match the template: a layer
/// count other than the template's weighted-layer count, a record that
/// does not name a distinct weighted layer, or a layer-shape mismatch.
pub fn unpack(packed: &PackedModel, template: &Model) -> Result<Model> {
    let mut r = Reader::new(&packed.bytes);
    if r.take(4)? != MAGIC {
        return Err(UpaqError::BadConfig("bad artifact magic".into()));
    }
    if r.u32()? != VERSION {
        return Err(UpaqError::BadConfig("unsupported artifact version".into()));
    }
    // `pack` writes every weighted layer exactly once and nothing after
    // the last record: any other shape would leave template weights the
    // artifact does not carry in the returned model.
    let weighted = template.weighted_layers();
    let layer_count = r.u32()? as usize;
    if layer_count != weighted.len() {
        return Err(UpaqError::BadConfig(format!(
            "artifact has {layer_count} layer records, template {} weighted layers",
            weighted.len()
        )));
    }
    let mut seen = HashSet::with_capacity(layer_count);
    let mut model = template.deep_copy();
    for _ in 0..layer_count {
        let id = r.u32()? as usize;
        if !weighted.contains(&id) || !seen.insert(id) {
            return Err(UpaqError::BadConfig(format!(
                "layer record {id} is not a distinct weighted layer of the template"
            )));
        }
        let kind = r.u8()?;
        let bits = r.u8()?;
        let bits_ok = match kind {
            0 => bits == RAW_BITS,
            1 | 2 => CODED_BITS.contains(&bits),
            _ => bits == RAW_BITS || CODED_BITS.contains(&bits),
        };
        if !bits_ok {
            return Err(UpaqError::BadConfig(format!(
                "layer {id}: kind {kind} has no {bits}-bit encoding"
            )));
        }
        let len = r.u32()? as usize;
        let current_shape = {
            let layer = model.layer(id)?;
            let w = layer
                .weights()
                .ok_or_else(|| UpaqError::BadConfig(format!("layer {id} has no weights")))?;
            if w.len() != len {
                return Err(UpaqError::BadConfig(format!(
                    "layer {id}: artifact has {len} weights, template {}",
                    w.len()
                )));
            }
            w.shape().clone()
        };
        let mut data = vec![0.0f32; len];
        match kind {
            0 => {
                for v in &mut data {
                    *v = r.f32()?;
                }
            }
            1 => {
                let scale = r.f32()?;
                let codes = r.codes(len, bits)?;
                for (v, c) in data.iter_mut().zip(codes) {
                    *v = c as f32 * scale;
                }
            }
            2 => {
                for kernel in data.chunks_mut(GRANULE) {
                    let mask = r.u16()?;
                    let scale = r.f32()?;
                    let nnz = mask.count_ones() as usize;
                    let codes = r.codes(nnz, bits)?;
                    let mut ci = 0;
                    for (i, v) in kernel.iter_mut().enumerate() {
                        if mask & (1 << i) != 0 {
                            *v = codes[ci] as f32 * scale;
                            ci += 1;
                        }
                    }
                }
            }
            3 => {
                let nnz = r.u32()? as usize;
                if bits == 32 {
                    for _ in 0..nnz {
                        let i = r.u32()? as usize;
                        let v = r.f32()?;
                        *data
                            .get_mut(i)
                            .ok_or_else(|| UpaqError::BadConfig("index out of range".into()))? = v;
                    }
                } else {
                    let indices: Vec<usize> = (0..nnz)
                        .map(|_| r.u32().map(|v| v as usize))
                        .collect::<Result<_>>()?;
                    let scale = r.f32()?;
                    let codes = r.codes(nnz, bits)?;
                    for (&i, c) in indices.iter().zip(codes) {
                        *data
                            .get_mut(i)
                            .ok_or_else(|| UpaqError::BadConfig("index out of range".into()))? =
                            c as f32 * scale;
                    }
                }
            }
            other => return Err(UpaqError::BadConfig(format!("unknown layer kind {other}"))),
        }
        // A corrupt scale or raw value would hand the model weights no
        // compression produced (`0 × inf` even revives pruned taps as NaN).
        if let Some(i) = data.iter().position(|v| !v.is_finite()) {
            return Err(UpaqError::BadConfig(format!(
                "layer {id}: weight {i} decodes to {}",
                data[i]
            )));
        }
        let tensor = Tensor::from_vec(current_shape, data)?;
        model.layer_mut(id)?.set_weights(tensor);
    }
    if r.pos != r.bytes.len() {
        return Err(UpaqError::BadConfig(format!(
            "{} trailing bytes after the last layer record",
            r.bytes.len() - r.pos
        )));
    }
    Ok(model)
}

/// Size in bytes of the dense fp32 artifact of the same model — the
/// denominator of a *measured* compression ratio.
pub fn dense_size_bytes(model: &Model) -> usize {
    let header = 4 + 4 + 4;
    let per_layer = 4 + 1 + 1 + 4;
    model
        .weighted_layers()
        .iter()
        .map(|&id| {
            let w = model
                .layer(id)
                .expect("valid id")
                .weights()
                .expect("weighted");
            per_layer + w.len() * 4
        })
        .sum::<usize>()
        + header
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{CompressionContext, Compressor, Upaq};
    use crate::config::UpaqConfig;
    use upaq_hwmodel::DeviceProfile;
    use upaq_nn::Layer;
    use upaq_tensor::Shape;

    fn model() -> (Model, CompressionContext) {
        let mut m = Model::new("m");
        let input = m.add_input("in", 9);
        let p = m
            .add_layer(Layer::conv2d("pfn", 9, 8, 1, 1, 0, 1), &[input])
            .unwrap();
        let c1 = m
            .add_layer(Layer::conv2d("c1", 8, 8, 3, 1, 1, 2), &[p])
            .unwrap();
        m.add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 3), &[c1])
            .unwrap();
        let mut shapes = HashMap::new();
        shapes.insert("in".to_string(), Shape::nchw(1, 9, 8, 8));
        (
            m,
            CompressionContext::new(DeviceProfile::jetson_orin_nano(), shapes, 5),
        )
    }

    #[test]
    fn dense_roundtrip_bit_exact() {
        let (m, _) = model();
        let packed = pack(&m, &BitAllocation::new(), &HashMap::new()).unwrap();
        let restored = unpack(&packed, &m).unwrap();
        assert_eq!(restored, m);
    }

    #[test]
    fn upaq_compressed_roundtrip_bit_exact() {
        let (m, ctx) = model();
        let outcome = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        let packed = pack(&outcome.model, &outcome.bits, &outcome.kinds).unwrap();
        let restored = unpack(&packed, &outcome.model).unwrap();
        for id in outcome.model.weighted_layers() {
            let a = outcome.model.layer(id).unwrap().weights().unwrap();
            let b = restored.layer(id).unwrap().weights().unwrap();
            // Values sit on the per-kernel quantization grid → the packed
            // codes reproduce them up to one rounding step of f32 math.
            assert!(
                a.max_abs_diff(b).unwrap() <= a.abs_max() * 1e-3 + 1e-6,
                "layer {id} drifted"
            );
        }
    }

    #[test]
    fn measured_ratio_matches_headline_claim() {
        // The real-bytes check behind Table 2: HCK's packed artifact must be
        // several times smaller than the dense artifact.
        let (m, ctx) = model();
        let outcome = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        let packed = pack(&outcome.model, &outcome.bits, &outcome.kinds).unwrap();
        let dense = dense_size_bytes(&m);
        let measured_ratio = dense as f64 / packed.len() as f64;
        assert!(measured_ratio > 3.0, "measured ratio {measured_ratio}");
        // And it should agree with the analytic estimate within ~40 %.
        let analytic = outcome.report.compression_ratio;
        let rel = (measured_ratio - analytic).abs() / analytic;
        assert!(
            rel < 0.4,
            "measured {measured_ratio} vs analytic {analytic}"
        );
    }

    #[test]
    fn bit_packing_roundtrip() {
        let mut w = Writer::new();
        let codes = vec![-7i32, 7, 0, -1, 3, -4, 2, 1, -6];
        w.codes(&codes, 4);
        let mut r = Reader::new(&w.bytes);
        assert_eq!(r.codes(9, 4).unwrap(), codes);
        // Odd widths too.
        let mut w = Writer::new();
        let codes5 = vec![-15i32, 15, -8, 7, 0];
        w.codes(&codes5, 5);
        let mut r = Reader::new(&w.bytes);
        assert_eq!(r.codes(5, 5).unwrap(), codes5);
    }

    #[test]
    fn corrupt_artifacts_rejected() {
        let (m, _) = model();
        let packed = pack(&m, &BitAllocation::new(), &HashMap::new()).unwrap();
        // Bad magic.
        let mut bad = packed.clone();
        bad.bytes[0] = b'X';
        assert!(unpack(&bad, &m).is_err());
        // Truncated.
        let mut short = packed.clone();
        short.bytes.truncate(packed.len() / 2);
        assert!(unpack(&short, &m).is_err());
    }

    /// Offset of the first layer record's bits byte: magic, version and
    /// layer count, then its id and kind.
    const FIRST_BITS: usize = 12 + 4 + 1;
    /// Offset of the first layer's payload.
    const FIRST_PAYLOAD: usize = 12 + 4 + 1 + 1 + 4;

    /// `m` packed with every layer at `bits` under `kind`.
    fn packed_as(m: &Model, bits: u8, kind: SparsityKind) -> PackedModel {
        let ids = m.weighted_layers();
        let alloc: BitAllocation = ids.iter().map(|&id| (id, bits)).collect();
        let kinds = ids.iter().map(|&id| (id, kind)).collect();
        pack(m, &alloc, &kinds).unwrap()
    }

    fn set_f32(packed: &mut PackedModel, at: usize, v: f32) {
        packed.bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    #[test]
    fn bits_byte_pack_never_writes_is_rejected() {
        let (m, _) = model();
        let coded = packed_as(&m, 8, SparsityKind::Dense);
        assert_eq!(coded.bytes[FIRST_BITS - 1], 1, "dense-quant layer");
        for bits in [0u8, 1, 17, 31, 32, 40, 200] {
            let mut bad = coded.clone();
            bad.bytes[FIRST_BITS] = bits;
            assert!(unpack(&bad, &m).is_err(), "coded layer with {bits} bits");
        }
        let raw = pack(&m, &BitAllocation::new(), &HashMap::new()).unwrap();
        assert_eq!(raw.bytes[FIRST_BITS - 1], 0, "dense fp32 layer");
        for bits in [0u8, 8, 16, 200] {
            let mut bad = raw.clone();
            bad.bytes[FIRST_BITS] = bits;
            assert!(unpack(&bad, &m).is_err(), "raw layer with {bits} bits");
        }
    }

    #[test]
    fn non_finite_scale_is_rejected() {
        let (m, _) = model();
        // The first kernel's scale of a pattern-packed layer (after its
        // u16 mask), and the per-layer scale of a dense-quant one, where
        // an infinite scale turns zero codes into NaN.
        for (kind, at) in [
            (SparsityKind::SemiStructured, FIRST_PAYLOAD + 2),
            (SparsityKind::Dense, FIRST_PAYLOAD),
        ] {
            let packed = packed_as(&m, 8, kind);
            assert!(unpack(&packed, &m).is_ok());
            for scale in [f32::INFINITY, f32::NAN] {
                let mut bad = packed.clone();
                set_f32(&mut bad, at, scale);
                assert!(unpack(&bad, &m).is_err(), "{kind:?} scale {scale}");
            }
        }
    }

    #[test]
    fn non_finite_weight_is_not_packed() {
        let (m, _) = model();
        let c1 = 2;
        for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut bad = m.deep_copy();
            let mut w = bad.layer(c1).unwrap().weights().unwrap().clone();
            w.as_mut_slice()[7] = value;
            bad.layer_mut(c1).unwrap().set_weights(w);
            for (bits, kind) in [
                (32, SparsityKind::Dense),
                (8, SparsityKind::Dense),
                (8, SparsityKind::SemiStructured),
                (32, SparsityKind::Unstructured),
                (8, SparsityKind::Unstructured),
            ] {
                let alloc = BitAllocation::from([(c1, bits)]);
                let kinds = HashMap::from([(c1, kind)]);
                match pack(&bad, &alloc, &kinds) {
                    Err(UpaqError::Tensor(upaq_tensor::TensorError::NonFiniteWeight {
                        index: 7,
                        value: v,
                    })) if v.to_bits() == value.to_bits() => {}
                    other => panic!(
                        "{value} at {bits} bits, {kind:?}: got {:?}",
                        other.map(|packed| packed.len())
                    ),
                }
            }
        }
    }

    #[test]
    fn non_finite_raw_weight_is_rejected() {
        let (m, _) = model();
        let packed = pack(&m, &BitAllocation::new(), &HashMap::new()).unwrap();
        for v in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut bad = packed.clone();
            set_f32(&mut bad, FIRST_PAYLOAD, v);
            assert!(unpack(&bad, &m).is_err(), "raw weight {v}");
        }
    }

    /// The dense artifact's first layer record: id, kind, bits and weight
    /// count (10 bytes), then its raw f32 weights.
    fn first_record(packed: &PackedModel) -> &[u8] {
        let len = u32::from_le_bytes(packed.bytes[18..22].try_into().unwrap()) as usize;
        &packed.bytes[12..22 + 4 * len]
    }

    #[test]
    fn zero_layer_count_is_rejected() {
        let (m, _) = model();
        let mut bad = pack(&m, &BitAllocation::new(), &HashMap::new()).unwrap();
        bad.bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(unpack(&bad, &m).is_err());
    }

    #[test]
    fn repeated_layer_record_is_rejected() {
        let (m, _) = model();
        let packed = pack(&m, &BitAllocation::new(), &HashMap::new()).unwrap();
        assert_eq!(packed.bytes[8..12], 3u32.to_le_bytes(), "three convs");
        // The header, then the first layer's record three times: a count
        // that matches, with two weighted layers the artifact never sets.
        let mut bytes = packed.bytes[..12].to_vec();
        for _ in 0..3 {
            bytes.extend_from_slice(first_record(&packed));
        }
        assert!(unpack(&PackedModel { bytes }, &m).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (m, _) = model();
        let mut bad = pack(&m, &BitAllocation::new(), &HashMap::new()).unwrap();
        bad.bytes.extend_from_slice(&[0; 4]);
        assert!(unpack(&bad, &m).is_err());
    }

    /// Unpacks every prefix and every single-bit flip of `packed` against
    /// `template`: each must give a model or `BadConfig`, never a panic.
    fn assert_corruption_fails_cleanly(packed: &PackedModel, template: &Model, what: &str) {
        let check = |bad: &PackedModel, how: String| match unpack(bad, template) {
            Ok(_) | Err(UpaqError::BadConfig(_)) => {}
            Err(e) => panic!("{what}, {how}: {e:?}"),
        };
        for end in 0..packed.len() {
            let prefix = PackedModel {
                bytes: packed.bytes[..end].to_vec(),
            };
            check(&prefix, format!("{end}-byte prefix"));
        }
        let mut bad = packed.clone();
        for i in 0..packed.len() {
            for bit in 0..8 {
                bad.bytes[i] ^= 1 << bit;
                check(&bad, format!("bit {bit} of byte {i} flipped"));
                bad.bytes[i] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn truncated_and_bit_flipped_artifacts_fail_cleanly() {
        let (m, ctx) = model();
        let hck = Upaq::new(UpaqConfig::hck()).compress(&m, &ctx).unwrap();
        let raw = pack(&m, &BitAllocation::new(), &HashMap::new()).unwrap();
        let patterned = pack(&hck.model, &hck.bits, &hck.kinds).unwrap();
        // One artifact per record kind. `pack` writes coordinate lists for
        // pruned layers, so those carry the HCK-pruned weights.
        let pruned = &hck.model;
        let artifacts = [
            (0, raw, &m),
            (1, packed_as(&m, 8, SparsityKind::Dense), &m),
            (2, patterned, pruned),
            (
                3,
                packed_as(pruned, 32, SparsityKind::SemiStructured),
                pruned,
            ),
            (3, packed_as(pruned, 6, SparsityKind::Unstructured), pruned),
        ];
        // About 100k unpacks in all: one thread per artifact.
        std::thread::scope(|s| {
            for (kind, packed, template) in &artifacts {
                s.spawn(move || {
                    let what = format!("kind {kind}, {} bits", packed.bytes[FIRST_BITS]);
                    assert_eq!(packed.bytes[FIRST_BITS - 1], *kind, "{what}");
                    assert!(unpack(packed, template).is_ok(), "{what}");
                    assert_corruption_fails_cleanly(packed, template, &what);
                });
            }
        });
    }

    #[test]
    fn wrong_template_rejected() {
        let (m, ctx) = model();
        let outcome = Upaq::new(UpaqConfig::lck()).compress(&m, &ctx).unwrap();
        let packed = pack(&outcome.model, &outcome.bits, &outcome.kinds).unwrap();
        let mut other = Model::new("other");
        let input = other.add_input("in", 9);
        other
            .add_layer(Layer::conv2d("pfn", 9, 4, 1, 1, 0, 1), &[input])
            .unwrap();
        assert!(unpack(&packed, &other).is_err());
    }

    #[test]
    fn unstructured_quantized_path() {
        // Ps&Qs-style: unstructured sparsity + 16-bit codes.
        let (m, _) = model();
        let mut pruned = m.deep_copy();
        {
            let l = pruned.layer_mut(2).unwrap();
            let mut w = l.weights().unwrap().clone();
            for (i, v) in w.as_mut_slice().iter_mut().enumerate() {
                if i % 2 == 0 {
                    *v = 0.0;
                }
            }
            l.set_weights(w);
        }
        let mut bits = BitAllocation::new();
        let mut kinds = HashMap::new();
        for id in pruned.weighted_layers() {
            bits.insert(id, 16);
            kinds.insert(id, SparsityKind::Unstructured);
        }
        let packed = pack(&pruned, &bits, &kinds).unwrap();
        let restored = unpack(&packed, &pruned).unwrap();
        for id in pruned.weighted_layers() {
            let a = pruned.layer(id).unwrap().weights().unwrap();
            let b = restored.layer(id).unwrap().weights().unwrap();
            assert!(a.max_abs_diff(b).unwrap() <= a.abs_max() * 1e-3);
        }
    }
}
