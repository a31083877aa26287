//! Lock-order tracking: a directed graph of "held A while acquiring B"
//! edges with cycle detection. A cycle means two code paths acquire the
//! same locks in opposite orders — a latent deadlock even if no schedule
//! explored so far actually deadlocked (finding code `M003`). The model
//! checker keeps one [`Graph`] per execution, keyed by lock address.

use std::collections::HashMap;
use std::hash::Hash;

/// A small directed graph with incremental cycle detection.
pub struct Graph<K: Eq + Hash + Clone> {
    edges: HashMap<K, Vec<K>>,
}

impl<K: Eq + Hash + Clone> Default for Graph<K> {
    fn default() -> Self {
        Graph::new()
    }
}

impl<K: Eq + Hash + Clone> Graph<K> {
    pub fn new() -> Self {
        Graph {
            edges: HashMap::new(),
        }
    }

    /// Add the edge `from -> to`. If this closes a cycle, return the
    /// cycle as a node path starting and ending at `from` (the edge is
    /// still recorded). Duplicate edges are ignored.
    pub fn add_edge(&mut self, from: K, to: K) -> Option<Vec<K>> {
        if from == to {
            // Self-edges are the double-lock case, reported separately.
            return None;
        }
        let out = self.edges.entry(from.clone()).or_default();
        if out.contains(&to) {
            return None;
        }
        out.push(to.clone());
        // A cycle through the new edge exists iff `from` is reachable
        // from `to`.
        let path = self.find_path(&to, &from)?;
        let mut cycle = Vec::with_capacity(path.len() + 2);
        cycle.push(from.clone());
        cycle.extend(path);
        cycle.push(from);
        Some(cycle)
    }

    /// DFS for a path `start ⇝ goal`; returns the node sequence from
    /// `start` to `goal` inclusive.
    fn find_path(&self, start: &K, goal: &K) -> Option<Vec<K>> {
        let mut stack = vec![(start.clone(), vec![start.clone()])];
        let mut seen = std::collections::HashSet::new();
        seen.insert(start.clone());
        while let Some((node, path)) = stack.pop() {
            if &node == goal {
                return Some(path);
            }
            if let Some(next) = self.edges.get(&node) {
                for n in next {
                    if seen.insert(n.clone()) {
                        let mut p = path.clone();
                        p.push(n.clone());
                        stack.push((n.clone(), p));
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_cycle_on_consistent_order() {
        let mut g: Graph<u32> = Graph::new();
        assert!(g.add_edge(1, 2).is_none());
        assert!(g.add_edge(2, 3).is_none());
        assert!(g.add_edge(1, 3).is_none());
        // Duplicate edges are fine.
        assert!(g.add_edge(1, 2).is_none());
    }

    #[test]
    fn two_cycle_detected_with_path() {
        let mut g: Graph<u32> = Graph::new();
        assert!(g.add_edge(1, 2).is_none());
        let cycle = g.add_edge(2, 1).expect("A/B-B/A must cycle");
        assert_eq!(cycle.first(), Some(&2));
        assert_eq!(cycle.last(), Some(&2));
        assert!(cycle.contains(&1));
    }

    #[test]
    fn three_cycle_detected() {
        let mut g: Graph<u32> = Graph::new();
        assert!(g.add_edge(1, 2).is_none());
        assert!(g.add_edge(2, 3).is_none());
        assert!(g.add_edge(3, 1).is_some());
    }

    #[test]
    fn self_edge_ignored() {
        let mut g: Graph<u32> = Graph::new();
        assert!(g.add_edge(1, 1).is_none());
        assert!(g.add_edge(1, 1).is_none());
    }
}
