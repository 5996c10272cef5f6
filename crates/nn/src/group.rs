//! Preprocessing stage — **Algorithm 1** of the paper.
//!
//! UPAQ lowers compression cost by grouping layers under shared *root*
//! layers: DFS over the computation graph assigns each weighted layer to the
//! nearest ancestor whose kernels share the same properties (operator and
//! spatial kernel size). The compression stage then only searches patterns
//! for the roots, replicating the winning pattern onto every leaf in the
//! group.

use crate::{Graph, LayerId, LayerKind, Model};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Kernel signature two layers must share to live in one root group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KernelSignature {
    /// Convolution with the given spatial kernel size.
    Conv {
        /// Square kernel side length.
        kernel: usize,
    },
    /// Fully connected layer.
    Linear,
}

impl KernelSignature {
    /// Extracts the signature of a layer, if it is weighted.
    pub fn of(kind: &LayerKind) -> Option<Self> {
        match kind {
            LayerKind::Conv2d { kernel, .. } => Some(KernelSignature::Conv { kernel: *kernel }),
            LayerKind::Linear { .. } => Some(KernelSignature::Linear),
            _ => None,
        }
    }
}

/// The output of the preprocessing stage: a partition of the weighted layers
/// into root→members groups (`groups_int` in the paper's pseudocode).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootGroups {
    groups: BTreeMap<LayerId, Vec<LayerId>>,
    root_of: BTreeMap<LayerId, LayerId>,
}

impl RootGroups {
    /// The root layer ids, in ascending order.
    pub fn roots(&self) -> Vec<LayerId> {
        self.groups.keys().copied().collect()
    }

    /// Members of the group rooted at `root`, including the root itself.
    pub fn members(&self, root: LayerId) -> Option<&[LayerId]> {
        self.groups.get(&root).map(Vec::as_slice)
    }

    /// Leaf members of the group rooted at `root` (members minus the root).
    pub fn leaves(&self, root: LayerId) -> Vec<LayerId> {
        self.groups
            .get(&root)
            .map(|m| m.iter().copied().filter(|&id| id != root).collect())
            .unwrap_or_default()
    }

    /// The root a weighted layer belongs to.
    pub fn root_of(&self, layer: LayerId) -> Option<LayerId> {
        self.root_of.get(&layer).copied()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when there are no weighted layers.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Iterator over `(root, members)` pairs in ascending root order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &[LayerId])> {
        self.groups.iter().map(|(&r, m)| (r, m.as_slice()))
    }
}

/// `find_root(G, l)` — Algorithm 1, line 4.
///
/// Walks the DFS ancestor chain of `layer` and returns the id of the
/// earliest weighted ancestor with the same [`KernelSignature`] that is
/// reachable through a chain of same-signature weighted layers (interleaved
/// non-weighted layers such as ReLU/BatchNorm are transparent). A layer with
/// no such ancestor is its own root.
pub fn find_root(model: &Model, graph: &Graph, layer: LayerId) -> LayerId {
    let sig = match KernelSignature::of(model.layer(layer).expect("valid id").kind()) {
        Some(s) => s,
        None => return layer,
    };
    let mut current = layer;
    // Follow single-predecessor chains backwards; a join (Add/Concat) or a
    // signature change breaks the chain.
    'outer: loop {
        let mut probe = current;
        loop {
            let preds = graph.inputs_of(probe);
            if preds.len() != 1 {
                break 'outer; // join or source: chain ends
            }
            let pred = preds[0];
            let kind = model.layer(pred).expect("valid id").kind();
            match KernelSignature::of(kind) {
                Some(s) if s == sig => {
                    current = pred;
                    continue 'outer;
                }
                Some(_) => break 'outer, // different kernel family: stop
                None => {
                    if matches!(kind, LayerKind::Input { .. }) {
                        break 'outer;
                    }
                    probe = pred; // transparent layer: keep walking
                }
            }
        }
    }
    current
}

/// Runs the full preprocessing stage (Algorithm 1): groups every weighted
/// layer of `model` under its root.
pub fn preprocess(model: &Model) -> RootGroups {
    let graph = model.compute_graph();
    let mut groups: BTreeMap<LayerId, Vec<LayerId>> = BTreeMap::new();
    let mut root_of = BTreeMap::new();
    for id in model.weighted_layers() {
        let root = find_root(model, &graph, id);
        groups.entry(root).or_default().push(id);
        root_of.insert(id, root);
    }
    RootGroups { groups, root_of }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Layer;

    /// in → c1(3×3) → relu → c2(3×3) → c3(1×1) → relu → c4(1×1)
    fn chain_model() -> Model {
        let mut m = Model::new("chain");
        let input = m.add_input("in", 4);
        let c1 = m
            .add_layer(Layer::conv2d("c1", 4, 8, 3, 1, 1, 1), &[input])
            .unwrap();
        let r1 = m.add_layer(Layer::relu("r1"), &[c1]).unwrap();
        let c2 = m
            .add_layer(Layer::conv2d("c2", 8, 8, 3, 1, 1, 2), &[r1])
            .unwrap();
        let c3 = m
            .add_layer(Layer::conv2d("c3", 8, 8, 1, 1, 0, 3), &[c2])
            .unwrap();
        let r2 = m.add_layer(Layer::relu("r2"), &[c3]).unwrap();
        m.add_layer(Layer::conv2d("c4", 8, 8, 1, 1, 0, 4), &[r2])
            .unwrap();
        m
    }

    #[test]
    fn same_kernel_chain_shares_root() {
        let m = chain_model();
        let groups = preprocess(&m);
        // c1 (id 1) roots c2 (id 3); c3 (id 4) roots c4 (id 6).
        assert_eq!(groups.root_of(3), Some(1));
        assert_eq!(groups.root_of(1), Some(1));
        assert_eq!(groups.root_of(6), Some(4));
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn transparent_layers_do_not_break_chains() {
        let m = chain_model();
        let g = m.compute_graph();
        // c2 reaches c1 through relu.
        assert_eq!(find_root(&m, &g, 3), 1);
        // c4 reaches c3 through relu.
        assert_eq!(find_root(&m, &g, 6), 4);
    }

    #[test]
    fn kernel_size_change_starts_new_group() {
        let m = chain_model();
        let g = m.compute_graph();
        // c3 is 1×1 after a 3×3: it must be its own root.
        assert_eq!(find_root(&m, &g, 4), 4);
    }

    #[test]
    fn joins_break_chains() {
        let mut m = Model::new("join");
        let input = m.add_input("in", 4);
        let a = m
            .add_layer(Layer::conv2d("a", 4, 8, 3, 1, 1, 1), &[input])
            .unwrap();
        let b = m
            .add_layer(Layer::conv2d("b", 4, 8, 3, 1, 1, 2), &[input])
            .unwrap();
        let j = m.add_layer(Layer::add("j"), &[a, b]).unwrap();
        let c = m
            .add_layer(Layer::conv2d("c", 8, 8, 3, 1, 1, 3), &[j])
            .unwrap();
        let groups = preprocess(&m);
        // `c` sits after a join: it roots itself even though a/b are 3×3.
        assert_eq!(groups.root_of(c), Some(c));
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn every_weighted_layer_covered_exactly_once() {
        let m = chain_model();
        let groups = preprocess(&m);
        let mut all: Vec<LayerId> = groups
            .iter()
            .flat_map(|(_, members)| members.to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(all, m.weighted_layers());
    }

    #[test]
    fn leaves_exclude_root() {
        let m = chain_model();
        let groups = preprocess(&m);
        assert_eq!(groups.leaves(1), vec![3]);
        assert_eq!(groups.members(1).unwrap(), &[1, 3]);
    }

    #[test]
    fn linear_layers_group_separately_from_convs() {
        let mut m = Model::new("mixed");
        let input = m.add_input("in", 4);
        let c = m
            .add_layer(Layer::conv2d("c", 4, 4, 3, 1, 1, 1), &[input])
            .unwrap();
        let l = m.add_layer(Layer::linear("fc", 4, 2, 2), &[c]).unwrap();
        let groups = preprocess(&m);
        assert_eq!(groups.root_of(l), Some(l));
        assert_eq!(groups.root_of(c), Some(c));
    }

    #[test]
    fn empty_model_has_no_groups() {
        let m = Model::new("empty");
        assert!(preprocess(&m).is_empty());
    }
}
