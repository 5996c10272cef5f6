//! Dynamic-energy model.

use crate::device::DeviceProfile;
use crate::exec::LayerExecution;

/// Dynamic energy of one layer: executed MACs at the layer's precision plus
/// memory traffic. Idle/static energy is accounted at the whole-inference
/// level in [`crate::latency::estimate`].
pub fn layer_energy(device: &DeviceProfile, layer: &LayerExecution) -> f64 {
    let mac_energy = layer.executed_macs() * device.energy_per_mac(layer.weight_bits);
    let traffic_energy = (layer.weight_bytes() + layer.activation_bytes()) * device.energy_per_byte;
    mac_energy + traffic_energy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SparsityKind;

    fn layer(bits: u8, sparsity: f64) -> LayerExecution {
        LayerExecution {
            name: "l".into(),
            dense_macs: 100_000_000,
            weight_count: 1_000_000,
            weight_sparsity: sparsity,
            sparsity_kind: SparsityKind::SemiStructured,
            weight_bits: bits,
            activation_elems: 100_000,
            activation_bits: 32,
        }
    }

    #[test]
    fn lower_bits_cost_less_energy() {
        let d = DeviceProfile::jetson_orin_nano();
        assert!(layer_energy(&d, &layer(8, 0.0)) < layer_energy(&d, &layer(32, 0.0)));
    }

    #[test]
    fn pruning_saves_energy() {
        let d = DeviceProfile::jetson_orin_nano();
        assert!(layer_energy(&d, &layer(32, 0.7)) < layer_energy(&d, &layer(32, 0.0)));
    }
}
