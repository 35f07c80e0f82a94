//! Multi-relational graphs — the paper's closing direction (slide 74,
//! Barceló–Galkin–Morris–Orth, *Weisfeiler and Leman Go Relational*):
//! knowledge-graph-style structures with several edge relations over
//! one vertex set.
//!
//! A [`TypedGraph`] stores one CSR [`Graph`] per relation, all sharing
//! the vertex set and labels; `gel-wl`'s relational colour refinement
//! consumes the per-relation views directly.

use crate::graph::{Graph, GraphBuilder, Vertex};

/// A graph with `r` edge relations over a common labelled vertex set.
#[derive(Debug, Clone, PartialEq)]
pub struct TypedGraph {
    relations: Vec<Graph>,
}

impl TypedGraph {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.relations[0].num_vertices()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Label dimension.
    pub fn label_dim(&self) -> usize {
        self.relations[0].label_dim()
    }

    /// The label of `v`.
    pub fn label(&self, v: Vertex) -> &[f64] {
        self.relations[0].label(v)
    }

    /// The single-relation view of relation `r` (same vertices/labels).
    pub fn relation(&self, r: usize) -> &Graph {
        &self.relations[r]
    }

    /// All relation views.
    pub fn relations(&self) -> &[Graph] {
        &self.relations
    }

    /// Forgets the relation types: the union single-relation graph.
    /// The relational experiments compare refinement before and after
    /// this projection.
    pub fn forget_relations(&self) -> Graph {
        let n = self.num_vertices();
        let mut b = GraphBuilder::with_label_dim(n, self.label_dim());
        for v in self.relations[0].vertices() {
            b.set_label(v, self.label(v));
        }
        for rel in &self.relations {
            for (u, v) in rel.arcs() {
                b.add_arc(u, v);
            }
        }
        b.build()
    }

    /// Applies a vertex permutation to every relation simultaneously.
    pub fn permute(&self, perm: &[Vertex]) -> TypedGraph {
        TypedGraph { relations: self.relations.iter().map(|g| g.permute(perm)).collect() }
    }
}

/// Builder for [`TypedGraph`].
#[derive(Debug, Clone)]
pub struct TypedGraphBuilder {
    n: usize,
    label_dim: usize,
    labels: Vec<f64>,
    arcs: Vec<Vec<(Vertex, Vertex)>>,
}

impl TypedGraphBuilder {
    /// `n` vertices, `num_relations` relations, `label_dim`-dim labels.
    pub fn new(n: usize, num_relations: usize, label_dim: usize) -> Self {
        assert!(num_relations >= 1, "need at least one relation");
        assert!(label_dim >= 1);
        let labels = if label_dim == 1 { vec![1.0; n] } else { vec![0.0; n * label_dim] };
        Self { n, label_dim, labels, arcs: vec![Vec::new(); num_relations] }
    }

    /// Adds a directed arc in relation `r`.
    pub fn add_arc(&mut self, r: usize, u: Vertex, v: Vertex) -> &mut Self {
        assert!(r < self.arcs.len(), "relation out of range");
        assert!((u as usize) < self.n && (v as usize) < self.n);
        self.arcs[r].push((u, v));
        self
    }

    /// Adds an undirected edge (both arcs) in relation `r`.
    pub fn add_edge(&mut self, r: usize, u: Vertex, v: Vertex) -> &mut Self {
        self.add_arc(r, u, v);
        if u != v {
            self.add_arc(r, v, u);
        }
        self
    }

    /// Sets the label of `v`.
    pub fn set_label(&mut self, v: Vertex, label: &[f64]) -> &mut Self {
        assert_eq!(label.len(), self.label_dim);
        let v = v as usize;
        self.labels[v * self.label_dim..(v + 1) * self.label_dim].copy_from_slice(label);
        self
    }

    /// Builds the typed graph.
    pub fn build(self) -> TypedGraph {
        let relations = self
            .arcs
            .into_iter()
            .map(|arcs| {
                let mut b = GraphBuilder::with_label_dim(self.n, self.label_dim);
                for v in 0..self.n {
                    b.set_label(
                        v as Vertex,
                        &self.labels[v * self.label_dim..(v + 1) * self.label_dim],
                    );
                }
                for (u, v) in arcs {
                    b.add_arc(u, v);
                }
                b.build()
            })
            .collect();
        TypedGraph { relations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4-cycle where opposite edges carry different relations.
    fn striped_square() -> TypedGraph {
        let mut b = TypedGraphBuilder::new(4, 2, 1);
        b.add_edge(0, 0, 1).add_edge(0, 2, 3); // relation 0: horizontal
        b.add_edge(1, 1, 2).add_edge(1, 3, 0); // relation 1: vertical
        b.build()
    }

    #[test]
    fn relations_are_separate() {
        let t = striped_square();
        assert_eq!(t.num_relations(), 2);
        assert!(t.relation(0).has_edge(0, 1));
        assert!(!t.relation(0).has_edge(1, 2));
        assert!(t.relation(1).has_edge(1, 2));
    }

    #[test]
    fn forget_unions_the_relations() {
        let g = striped_square().forget_relations();
        assert_eq!(g.num_edges_undirected(), 4);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn permute_moves_all_relations() {
        let t = striped_square();
        let p = t.permute(&[1, 2, 3, 0]);
        assert!(p.relation(0).has_edge(1, 2)); // old (0,1)
        assert!(p.relation(1).has_edge(2, 3)); // old (1,2)
    }

    #[test]
    fn shared_vertex_set_and_labels() {
        let mut b = TypedGraphBuilder::new(2, 3, 2);
        b.set_label(0, &[1.0, 0.0]);
        b.set_label(1, &[0.0, 1.0]);
        b.add_arc(2, 0, 1);
        let t = b.build();
        assert_eq!(t.num_vertices(), 2);
        for r in 0..3 {
            assert_eq!(t.relation(r).label(0), &[1.0, 0.0]);
        }
        assert!(t.relation(2).has_edge(0, 1));
        assert!(!t.relation(0).has_edge(0, 1));
    }
}
