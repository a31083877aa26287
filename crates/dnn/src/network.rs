//! The network DAG: ModelHub's conceptual DNN data model (§III-A).
//!
//! Nodes are layers (unit operators); edges are dataflow dependencies. The
//! graph is stored as `Node` / `Edge` collections exactly as the paper's
//! relational mapping describes, and supports the structural operations DQL
//! needs: selector matching, 1-hop `prev`/`next` traversal, slicing and
//! mutation (insert/delete).

use crate::layer::LayerKind;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Stable node identifier within a network.
pub type NodeId = usize;

/// One layer instance in the DAG.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub id: NodeId,
    pub name: String,
    pub kind: LayerKind,
}

/// Errors from structural operations or shape inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetworkError {
    /// Node id not present.
    NoSuchNode(NodeId),
    /// Node name not present.
    NoSuchName(String),
    /// Duplicate layer name on insert.
    DuplicateName(String),
    /// The graph has a cycle.
    Cyclic,
    /// A layer received an incompatible input shape.
    ShapeMismatch { node: String },
    /// Evaluation requires a single-input chain but found a join/fork.
    NotAChain { node: String },
    /// The graph has no input node or more than one.
    BadInput,
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoSuchNode(id) => write!(f, "no such node id {id}"),
            Self::NoSuchName(n) => write!(f, "no such layer '{n}'"),
            Self::DuplicateName(n) => write!(f, "duplicate layer name '{n}'"),
            Self::Cyclic => write!(f, "network graph is cyclic"),
            Self::ShapeMismatch { node } => write!(f, "shape mismatch at layer '{node}'"),
            Self::NotAChain { node } => write!(f, "layer '{node}' has multiple inputs"),
            Self::BadInput => write!(f, "network must have exactly one INPUT layer"),
        }
    }
}

impl std::error::Error for NetworkError {}

/// A 3-D activation shape `(channels, height, width)`.
pub type Shape3 = (usize, usize, usize);
/// Per-node `(input shape, output shape)` map from shape inference.
pub type ShapeMap = BTreeMap<NodeId, (Shape3, Shape3)>;

/// A DNN as a DAG of named layers.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Network {
    nodes: BTreeMap<NodeId, Node>,
    /// Directed edges `from -> to`.
    edges: BTreeSet<(NodeId, NodeId)>,
    next_id: NodeId,
}

impl Network {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a layer, returning its id. Names must be unique.
    pub fn add_layer(&mut self, name: &str, kind: LayerKind) -> Result<NodeId, NetworkError> {
        if self.nodes.values().any(|n| n.name == name) {
            return Err(NetworkError::DuplicateName(name.to_string()));
        }
        let id = self.next_id;
        self.next_id += 1;
        self.nodes.insert(
            id,
            Node {
                id,
                name: name.to_string(),
                kind,
            },
        );
        Ok(id)
    }

    /// Add a dataflow edge.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> Result<(), NetworkError> {
        if !self.nodes.contains_key(&from) {
            return Err(NetworkError::NoSuchNode(from));
        }
        if !self.nodes.contains_key(&to) {
            return Err(NetworkError::NoSuchNode(to));
        }
        self.edges.insert((from, to));
        Ok(())
    }

    /// Remove a dataflow edge; returns whether it existed.
    pub fn remove_edge(&mut self, from: NodeId, to: NodeId) -> bool {
        self.edges.remove(&(from, to))
    }

    /// Convenience: append a layer after the current chain tail.
    pub fn append(&mut self, name: &str, kind: LayerKind) -> Result<NodeId, NetworkError> {
        let tail = self.sinks().into_iter().next();
        let id = self.add_layer(name, kind)?;
        if let Some(t) = tail {
            if t != id {
                self.connect(t, id)?;
            }
        }
        Ok(id)
    }

    pub fn node(&self, id: NodeId) -> Result<&Node, NetworkError> {
        self.nodes.get(&id).ok_or(NetworkError::NoSuchNode(id))
    }

    pub fn node_by_name(&self, name: &str) -> Result<&Node, NetworkError> {
        self.nodes
            .values()
            .find(|n| n.name == name)
            .ok_or_else(|| NetworkError::NoSuchName(name.to_string()))
    }

    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.edges.iter().copied()
    }

    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Direct successors (the DQL `next` attribute).
    pub fn next(&self, id: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|(f, _)| *f == id)
            .map(|(_, t)| *t)
            .collect()
    }

    /// Direct predecessors (the DQL `prev` attribute).
    pub fn prev(&self, id: NodeId) -> Vec<NodeId> {
        self.edges
            .iter()
            .filter(|(_, t)| *t == id)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Nodes with no incoming edges.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes
            .keys()
            .filter(|id| self.prev(**id).is_empty())
            .copied()
            .collect()
    }

    /// Nodes with no outgoing edges.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes
            .keys()
            .filter(|id| self.next(**id).is_empty())
            .copied()
            .collect()
    }

    /// Topological order, or `Cyclic` if none exists.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, NetworkError> {
        let mut indeg: BTreeMap<NodeId, usize> = self.nodes.keys().map(|&id| (id, 0)).collect();
        for &(_, t) in &self.edges {
            *indeg
                .get_mut(&t)
                .expect("edge endpoints validated on insert") += 1;
        }
        let mut q: VecDeque<NodeId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&id, _)| id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(id) = q.pop_front() {
            order.push(id);
            for t in self.next(id) {
                let d = indeg
                    .get_mut(&t)
                    .expect("edge target has an indegree entry");
                *d -= 1;
                if *d == 0 {
                    q.push_back(t);
                }
            }
        }
        if order.len() == self.nodes.len() {
            Ok(order)
        } else {
            Err(NetworkError::Cyclic)
        }
    }

    /// The single INPUT node, if the network is well-formed.
    pub fn input_node(&self) -> Result<NodeId, NetworkError> {
        let inputs: Vec<NodeId> = self
            .nodes
            .values()
            .filter(|n| matches!(n.kind, LayerKind::Input { .. }))
            .map(|n| n.id)
            .collect();
        if inputs.len() == 1 {
            Ok(inputs[0])
        } else {
            Err(NetworkError::BadInput)
        }
    }

    /// Infer the input shape of every node by propagating from the INPUT
    /// layer in topological order. Requires a single-predecessor graph for
    /// compute layers.
    pub fn infer_shapes(&self) -> Result<ShapeMap, NetworkError> {
        let order = self.topo_order()?;
        let input = self.input_node()?;
        let mut shapes = BTreeMap::new();
        for id in order {
            let node = &self.nodes[&id];
            let in_shape = if id == input {
                (0, 0, 0) // ignored by Input::output_shape
            } else {
                let prev = self.prev(id);
                if prev.len() != 1 {
                    return Err(NetworkError::NotAChain {
                        node: node.name.clone(),
                    });
                }
                let (_, out) = *shapes
                    .get(&prev[0])
                    .ok_or(NetworkError::NoSuchNode(prev[0]))?;
                out
            };
            let out_shape =
                node.kind
                    .output_shape(in_shape)
                    .ok_or(NetworkError::ShapeMismatch {
                        node: node.name.clone(),
                    })?;
            shapes.insert(id, (in_shape, out_shape));
        }
        Ok(shapes)
    }

    /// Total learned parameter count across all layers.
    pub fn param_count(&self) -> Result<usize, NetworkError> {
        let shapes = self.infer_shapes()?;
        Ok(self
            .nodes
            .values()
            .map(|n| {
                let (in_shape, _) = shapes[&n.id];
                n.kind.param_count(in_shape)
            })
            .sum())
    }

    /// Names of parametric layers in topological order.
    pub fn parametric_layers(&self) -> Result<Vec<String>, NetworkError> {
        let order = self.topo_order()?;
        Ok(order
            .into_iter()
            .filter(|id| self.nodes[id].kind.is_parametric())
            .map(|id| self.nodes[&id].name.clone())
            .collect())
    }

    /// Insert a new layer after `after`, rerouting all of `after`'s outgoing
    /// edges through it.
    pub fn insert_after(
        &mut self,
        after: NodeId,
        name: &str,
        kind: LayerKind,
    ) -> Result<NodeId, NetworkError> {
        self.node(after)?;
        let outs = self.next(after);
        let id = self.add_layer(name, kind)?;
        for t in outs {
            self.edges.remove(&(after, t));
            self.edges.insert((id, t));
        }
        self.edges.insert((after, id));
        Ok(id)
    }

    /// Delete a node, reconnecting its predecessors to its successors (the
    /// DQL `delete` mutation).
    pub fn delete_node(&mut self, id: NodeId) -> Result<(), NetworkError> {
        self.node(id)?;
        let prev = self.prev(id);
        let next = self.next(id);
        self.edges.retain(|&(f, t)| f != id && t != id);
        for &p in &prev {
            for &n in &next {
                self.edges.insert((p, n));
            }
        }
        self.nodes.remove(&id);
        Ok(())
    }

    /// All nodes on any path from `start` to `end`, inclusive — the DQL
    /// `slice` operator. Returns a new network containing exactly those
    /// nodes and the edges among them.
    pub fn slice(&self, start: NodeId, end: NodeId) -> Result<Network, NetworkError> {
        self.node(start)?;
        self.node(end)?;
        // Forward-reachable from start.
        let fwd = self.reachable(start, true);
        // Backward-reachable from end.
        let bwd = self.reachable(end, false);
        let keep: BTreeSet<NodeId> = fwd.intersection(&bwd).copied().collect();
        let mut out = Network::new();
        // Preserve original ids for weight-name stability.
        for (&id, node) in &self.nodes {
            if keep.contains(&id) {
                out.nodes.insert(id, node.clone());
                out.next_id = out.next_id.max(id + 1);
            }
        }
        for &(f, t) in &self.edges {
            if keep.contains(&f) && keep.contains(&t) {
                out.edges.insert((f, t));
            }
        }
        Ok(out)
    }

    fn reachable(&self, from: NodeId, forward: bool) -> BTreeSet<NodeId> {
        let mut seen = BTreeSet::new();
        let mut q = VecDeque::from([from]);
        while let Some(id) = q.pop_front() {
            if !seen.insert(id) {
                continue;
            }
            let nbrs = if forward {
                self.next(id)
            } else {
                self.prev(id)
            };
            q.extend(nbrs);
        }
        seen
    }

    /// Regular-expression-style architecture summary (Table I), e.g.
    /// `(LconvLpool){2}Lip{2}`.
    pub fn architecture_string(&self) -> String {
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => return "<cyclic>".into(),
        };
        let mut tokens: Vec<String> = Vec::new();
        for id in order {
            let t = match &self.nodes[&id].kind {
                LayerKind::Conv { .. } => "Lconv",
                LayerKind::Pool { .. } => "Lpool",
                LayerKind::Full { .. } => "Lip",
                _ => continue,
            };
            tokens.push(t.to_string());
        }
        // Collapse consecutive repeats.
        let mut out = String::new();
        let mut i = 0;
        while i < tokens.len() {
            let mut j = i;
            while j < tokens.len() && tokens[j] == tokens[i] {
                j += 1;
            }
            let count = j - i;
            if count > 1 {
                out.push_str(&format!("{}{{{}}}", tokens[i], count));
            } else {
                out.push_str(&tokens[i]);
            }
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Activation, PoolKind};

    fn tiny_chain() -> Network {
        let mut n = Network::new();
        n.append(
            "data",
            LayerKind::Input {
                channels: 1,
                height: 8,
                width: 8,
            },
        )
        .unwrap();
        n.append(
            "conv1",
            LayerKind::Conv {
                out_channels: 4,
                kernel: 3,
                stride: 1,
                pad: 0,
            },
        )
        .unwrap();
        n.append("relu1", LayerKind::Act(Activation::ReLU)).unwrap();
        n.append(
            "pool1",
            LayerKind::Pool {
                kind: PoolKind::Max,
                size: 2,
                stride: 2,
            },
        )
        .unwrap();
        n.append("fc1", LayerKind::Full { out: 10 }).unwrap();
        n.append("prob", LayerKind::Softmax).unwrap();
        n
    }

    #[test]
    fn chain_construction_and_shapes() {
        let n = tiny_chain();
        assert_eq!(n.num_nodes(), 6);
        assert_eq!(n.num_edges(), 5);
        let shapes = n.infer_shapes().unwrap();
        let fc = n.node_by_name("fc1").unwrap().id;
        assert_eq!(shapes[&fc].0, (4, 3, 3));
        assert_eq!(shapes[&fc].1, (10, 1, 1));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut n = tiny_chain();
        assert!(matches!(
            n.add_layer("conv1", LayerKind::Softmax),
            Err(NetworkError::DuplicateName(_))
        ));
    }

    #[test]
    fn param_count() {
        let n = tiny_chain();
        // conv1: 4*(1*9+1)=40 ; fc1: 10*(4*3*3+1)=370
        assert_eq!(n.param_count().unwrap(), 410);
        assert_eq!(n.parametric_layers().unwrap(), vec!["conv1", "fc1"]);
    }

    #[test]
    fn cyclic_detected() {
        let mut n = tiny_chain();
        let a = n.node_by_name("conv1").unwrap().id;
        let b = n.node_by_name("fc1").unwrap().id;
        n.connect(b, a).unwrap();
        assert_eq!(n.topo_order(), Err(NetworkError::Cyclic));
    }

    #[test]
    fn insert_after_rewires() {
        let mut n = tiny_chain();
        let conv = n.node_by_name("conv1").unwrap().id;
        let id = n
            .insert_after(conv, "bnorm", LayerKind::Act(Activation::Tanh))
            .unwrap();
        assert_eq!(n.next(conv), vec![id]);
        let relu = n.node_by_name("relu1").unwrap().id;
        assert_eq!(n.next(id), vec![relu]);
        // Shapes still propagate.
        assert!(n.infer_shapes().is_ok());
    }

    #[test]
    fn delete_reconnects() {
        let mut n = tiny_chain();
        let relu = n.node_by_name("relu1").unwrap().id;
        let conv = n.node_by_name("conv1").unwrap().id;
        let pool = n.node_by_name("pool1").unwrap().id;
        n.delete_node(relu).unwrap();
        assert_eq!(n.next(conv), vec![pool]);
        assert_eq!(n.num_nodes(), 5);
    }

    #[test]
    fn slice_extracts_middle() {
        let n = tiny_chain();
        let conv = n.node_by_name("conv1").unwrap().id;
        let pool = n.node_by_name("pool1").unwrap().id;
        let sub = n.slice(conv, pool).unwrap();
        let names: Vec<&str> = sub.nodes().map(|x| x.name.as_str()).collect();
        assert_eq!(names, vec!["conv1", "relu1", "pool1"]);
        assert_eq!(sub.num_edges(), 2);
    }

    #[test]
    fn architecture_string_collapses_repeats() {
        let mut n = Network::new();
        n.append(
            "data",
            LayerKind::Input {
                channels: 1,
                height: 28,
                width: 28,
            },
        )
        .unwrap();
        for i in 0..2 {
            n.append(
                &format!("conv{i}"),
                LayerKind::Conv {
                    out_channels: 8,
                    kernel: 5,
                    stride: 1,
                    pad: 0,
                },
            )
            .unwrap();
            n.append(
                &format!("pool{i}"),
                LayerKind::Pool {
                    kind: PoolKind::Max,
                    size: 2,
                    stride: 2,
                },
            )
            .unwrap();
        }
        n.append("ip1", LayerKind::Full { out: 100 }).unwrap();
        n.append("ip2", LayerKind::Full { out: 10 }).unwrap();
        assert_eq!(n.architecture_string(), "LconvLpoolLconvLpoolLip{2}");
    }

    #[test]
    fn input_node_validation() {
        let mut n = Network::new();
        n.append("fc", LayerKind::Full { out: 2 }).unwrap();
        assert_eq!(n.input_node(), Err(NetworkError::BadInput));
    }
}
