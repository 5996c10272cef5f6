use crate::{Graph, Layer, LayerId, LayerKind, NnError, Result};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// A named DAG of layers — the `M` every algorithm in the paper receives.
///
/// Layers are appended in construction order; wiring is recorded as explicit
/// edges so [`Model::compute_graph`] can recover the computation graph
/// (Algorithm 1, line 1). [`Model::deep_copy`] mirrors the paper's
/// `deepcopy(M)` (Algorithm 3, line 1): compression always operates on an
/// independent copy so the baseline model stays intact for comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Model {
    name: String,
    layers: Vec<Layer>,
    edges: Vec<(LayerId, LayerId)>,
    names: HashSet<String>,
}

impl Model {
    /// Creates an empty model.
    pub fn new(name: impl Into<String>) -> Self {
        Model {
            name: name.into(),
            layers: Vec::new(),
            edges: Vec::new(),
            names: HashSet::new(),
        }
    }

    /// The model's name (e.g. `"pointpillars"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds an external input node and returns its id.
    ///
    /// # Panics
    ///
    /// Panics on duplicate layer names (construction-time programming error).
    pub fn add_input(&mut self, name: impl Into<String>, channels: usize) -> LayerId {
        let layer = Layer::input(name, channels);
        assert!(
            self.names.insert(layer.name().to_string()),
            "duplicate layer name `{}`",
            layer.name()
        );
        self.layers.push(layer);
        self.layers.len() - 1
    }

    /// Adds a layer fed by `inputs` (in argument order) and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::DuplicateName`] for name collisions,
    /// [`NnError::UnknownLayer`] for dangling input ids, and
    /// [`NnError::BadWiring`] when the input count does not suit the
    /// operator (e.g. `Add` needs exactly two inputs).
    pub fn add_layer(&mut self, layer: Layer, inputs: &[LayerId]) -> Result<LayerId> {
        if self.names.contains(layer.name()) {
            return Err(NnError::DuplicateName(layer.name().to_string()));
        }
        for &src in inputs {
            if src >= self.layers.len() {
                return Err(NnError::UnknownLayer(src));
            }
        }
        let arity_ok = match layer.kind() {
            LayerKind::Input { .. } => inputs.is_empty(),
            LayerKind::Add => inputs.len() == 2,
            LayerKind::Concat => inputs.len() >= 2,
            _ => inputs.len() == 1,
        };
        if !arity_ok {
            return Err(NnError::BadWiring(format!(
                "layer `{}` ({}) got {} inputs",
                layer.name(),
                layer.kind().op_name(),
                inputs.len()
            )));
        }
        self.names.insert(layer.name().to_string());
        self.layers.push(layer);
        let id = self.layers.len() - 1;
        for &src in inputs {
            self.edges.push((src, id));
        }
        Ok(id)
    }

    /// Number of layers, counting input nodes.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// `true` when the model has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The layer with id `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayer`] for out-of-range ids.
    pub fn layer(&self, id: LayerId) -> Result<&Layer> {
        self.layers.get(id).ok_or(NnError::UnknownLayer(id))
    }

    /// Mutable access to the layer with id `id`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayer`] for out-of-range ids.
    pub fn layer_mut(&mut self, id: LayerId) -> Result<&mut Layer> {
        self.layers.get_mut(id).ok_or(NnError::UnknownLayer(id))
    }

    /// Looks a layer up by name.
    pub fn layer_by_name(&self, name: &str) -> Option<(LayerId, &Layer)> {
        self.layers
            .iter()
            .enumerate()
            .find(|(_, l)| l.name() == name)
    }

    /// Iterator over `(id, layer)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &Layer)> {
        self.layers.iter().enumerate()
    }

    /// Ids of all weighted (prunable/quantizable) layers.
    pub fn weighted_layers(&self) -> Vec<LayerId> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind().is_weighted())
            .map(|(i, _)| i)
            .collect()
    }

    /// Derives the computation graph — Algorithm 1, line 1.
    pub fn compute_graph(&self) -> Graph {
        Graph::from_edges(self.layers.len(), &self.edges)
            .expect("model edges are validated at construction")
    }

    /// FNV-1a hash of the wiring (layer count plus the ordered edge list).
    ///
    /// Execution workspaces key their cached [`Graph`] and topological
    /// order on this value: layers and edges are append-only, so any two
    /// models with the same fingerprint execute in the same order even
    /// when their weights differ.
    pub fn wiring_fingerprint(&self) -> u64 {
        let prime: u64 = 0x100_0000_01b3;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        h = (h ^ self.layers.len() as u64).wrapping_mul(prime);
        for &(src, dst) in &self.edges {
            h = (h ^ src as u64).wrapping_mul(prime);
            h = (h ^ dst as u64).wrapping_mul(prime);
        }
        h
    }

    /// Packs every convolution layer's weights into the sparse-tap form
    /// the conv kernel consumes (see [`Layer::pack`]). Call once after
    /// compression finalizes weights; forward execution then skips the
    /// per-call packing.
    pub fn pack_weights(&mut self) {
        for layer in &mut self.layers {
            layer.pack();
        }
    }

    /// Total parameter count across all layers.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Total non-zero parameters (the paper's `W_n` summed over layers).
    pub fn nonzero_param_count(&self) -> usize {
        self.layers.iter().map(Layer::nonzero_params).sum()
    }

    /// Overall weight sparsity in `[0, 1]`.
    pub fn sparsity(&self) -> f32 {
        let total = self.param_count();
        if total == 0 {
            0.0
        } else {
            1.0 - self.nonzero_param_count() as f32 / total as f32
        }
    }

    /// An independent deep copy — the paper's `deepcopy(M)`.
    ///
    /// `Model` owns all its tensors, so `clone` already copies deeply; this
    /// method exists to make call sites read like the paper's Algorithm 3.
    pub fn deep_copy(&self) -> Model {
        self.clone()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Model `{}`: {} layers, {} params ({:.1}% sparse)",
            self.name,
            self.layers.len(),
            self.param_count(),
            self.sparsity() * 100.0
        )?;
        for (i, layer) in self.layers.iter().enumerate() {
            writeln!(f, "  #{i:<3} {layer}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upaq_tensor::{Shape, Tensor};

    fn tiny_model() -> Model {
        let mut m = Model::new("tiny");
        let input = m.add_input("in", 1);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 1, 2, 3, 1, 1, 0), &[input])
            .unwrap();
        let r1 = m.add_layer(Layer::relu("r1"), &[c1]).unwrap();
        m.add_layer(Layer::conv2d("c2", 2, 2, 3, 1, 1, 1), &[r1])
            .unwrap();
        m
    }

    #[test]
    fn construction_and_counts() {
        let m = tiny_model();
        assert_eq!(m.len(), 4);
        assert_eq!(m.param_count(), (2 * 9 + 2) + (2 * 2 * 9 + 2));
        assert_eq!(m.weighted_layers(), vec![1, 3]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut m = Model::new("m");
        let i = m.add_input("in", 1);
        m.add_layer(Layer::relu("x"), &[i]).unwrap();
        assert_eq!(
            m.add_layer(Layer::relu("x"), &[i]),
            Err(NnError::DuplicateName("x".into()))
        );
    }

    #[test]
    fn dangling_inputs_rejected() {
        let mut m = Model::new("m");
        let _ = m.add_input("in", 1);
        assert!(m.add_layer(Layer::relu("r"), &[99]).is_err());
    }

    #[test]
    fn arity_checked() {
        let mut m = Model::new("m");
        let a = m.add_input("a", 1);
        let b = m.add_input("b", 1);
        assert!(m.add_layer(Layer::add("bad"), &[a]).is_err());
        assert!(m.add_layer(Layer::add("ok"), &[a, b]).is_ok());
        assert!(m.add_layer(Layer::relu("two_in"), &[a, b]).is_err());
    }

    #[test]
    fn compute_graph_matches_wiring() {
        let m = tiny_model();
        let g = m.compute_graph();
        assert_eq!(g.inputs_of(1), &[0]);
        assert_eq!(g.inputs_of(3), &[2]);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
    }

    #[test]
    fn deep_copy_is_independent() {
        let m = tiny_model();
        let mut c = m.deep_copy();
        let w = Tensor::zeros(Shape::nchw(2, 1, 3, 3));
        c.layer_mut(1).unwrap().set_weights(w);
        // Original is untouched.
        assert_ne!(m.layer(1).unwrap().weights(), c.layer(1).unwrap().weights());
        assert!(m.layer(1).unwrap().weights().unwrap().count_nonzero() > 0);
    }

    #[test]
    fn sparsity_reflects_zeroed_weights() {
        let mut m = tiny_model();
        let shape = m.layer(1).unwrap().weights().unwrap().shape().clone();
        m.layer_mut(1).unwrap().set_weights(Tensor::zeros(shape));
        assert!(m.sparsity() > 0.0);
    }

    #[test]
    fn wiring_fingerprint_tracks_structure_not_weights() {
        let a = tiny_model();
        let mut b = tiny_model();
        let shape = b.layer(1).unwrap().weights().unwrap().shape().clone();
        b.layer_mut(1).unwrap().set_weights(Tensor::zeros(shape));
        assert_eq!(a.wiring_fingerprint(), b.wiring_fingerprint());

        let mut c = tiny_model();
        c.add_layer(Layer::relu("extra"), &[3]).unwrap();
        assert_ne!(a.wiring_fingerprint(), c.wiring_fingerprint());
    }

    #[test]
    fn pack_weights_packs_every_conv() {
        let mut m = tiny_model();
        m.pack_weights();
        for id in m.weighted_layers() {
            let l = m.layer(id).unwrap();
            if l.kernel_size().is_some() {
                assert!(l.packed().is_some(), "conv `{}` unpacked", l.name());
            }
        }
    }

    #[test]
    fn layer_by_name_found() {
        let m = tiny_model();
        let (id, l) = m.layer_by_name("c2").unwrap();
        assert_eq!(id, 3);
        assert_eq!(l.name(), "c2");
        assert!(m.layer_by_name("nope").is_none());
    }

    #[test]
    fn display_lists_layers() {
        let s = tiny_model().to_string();
        assert!(s.contains("tiny"));
        assert!(s.contains("c1"));
    }
}
