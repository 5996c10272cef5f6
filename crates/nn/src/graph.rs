use crate::{LayerId, NnError, Result};
use serde::{Deserialize, Serialize};

/// The computation graph of a [`crate::Model`]: which layers feed which.
///
/// This is the `G ← compute_graph(M)` of the paper's Algorithm 1. Edges
/// point from producer to consumer; `inputs[i]` lists the producers feeding
/// layer `i` in argument order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    inputs: Vec<Vec<LayerId>>,
    outputs: Vec<Vec<LayerId>>,
}

impl Graph {
    /// Builds a graph over `n` layers from `(producer, consumer)` edges.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::UnknownLayer`] for edges referencing layers `>= n`.
    pub fn from_edges(n: usize, edges: &[(LayerId, LayerId)]) -> Result<Self> {
        let mut inputs = vec![Vec::new(); n];
        let mut outputs = vec![Vec::new(); n];
        for &(src, dst) in edges {
            if src >= n {
                return Err(NnError::UnknownLayer(src));
            }
            if dst >= n {
                return Err(NnError::UnknownLayer(dst));
            }
            inputs[dst].push(src);
            outputs[src].push(dst);
        }
        Ok(Graph { inputs, outputs })
    }

    /// Number of layers in the graph.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// `true` when the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }

    /// Producers feeding layer `id`, in argument order.
    pub fn inputs_of(&self, id: LayerId) -> &[LayerId] {
        &self.inputs[id]
    }

    /// Consumers reading layer `id`.
    pub fn outputs_of(&self, id: LayerId) -> &[LayerId] {
        &self.outputs[id]
    }

    /// Layers with no producers (the model's inputs).
    pub fn sources(&self) -> Vec<LayerId> {
        (0..self.len())
            .filter(|&i| self.inputs[i].is_empty())
            .collect()
    }

    /// Layers with no consumers (the model's outputs).
    pub fn sinks(&self) -> Vec<LayerId> {
        (0..self.len())
            .filter(|&i| self.outputs[i].is_empty())
            .collect()
    }

    /// Kahn topological sort.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::CyclicGraph`] when the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<LayerId>> {
        let n = self.len();
        let mut indegree: Vec<usize> = self.inputs.iter().map(Vec::len).collect();
        let mut queue: Vec<LayerId> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop() {
            order.push(id);
            for &next in &self.outputs[id] {
                indegree[next] -= 1;
                if indegree[next] == 0 {
                    queue.push(next);
                }
            }
        }
        if order.len() != n {
            return Err(NnError::CyclicGraph);
        }
        Ok(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Graph {
        let edges: Vec<_> = (0..n - 1).map(|i| (i, i + 1)).collect();
        Graph::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn sources_and_sinks() {
        let g = chain(4);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
    }

    #[test]
    fn topo_order_respects_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let order = g.topo_order().unwrap();
        let pos = |id: usize| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
    }

    #[test]
    fn cycle_detected() {
        let g = Graph::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(g.topo_order(), Err(NnError::CyclicGraph));
    }

    #[test]
    fn rejects_out_of_range_edges() {
        assert!(Graph::from_edges(2, &[(0, 2)]).is_err());
        assert!(Graph::from_edges(2, &[(3, 0)]).is_err());
    }
}
