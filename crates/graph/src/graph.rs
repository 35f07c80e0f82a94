//! The labelled graph type `G = (V_G, E_G, L_G)` of the paper
//! (slide 6): a finite vertex set identified with `0..n`, a directed
//! edge set `E ⊆ V × V`, and a vertex labelling `L : V → ℝ^d`.
//!
//! Undirected graphs are represented by storing both arcs; the builder
//! keeps this invariant for you. Adjacency is stored in CSR form so
//! that neighbourhood iteration — the inner loop of every WL test, GEL
//! aggregation and GNN layer in the workspace — is a contiguous slice
//! scan.

/// Vertex identifier; vertices of an `n`-vertex graph are `0..n`.
pub type Vertex = u32;

/// A finite directed graph with dense `ℝ^d` vertex labels, stored in
/// CSR (compressed sparse row) form.
///
/// Construct via [`GraphBuilder`] or the generator functions in this
/// crate. The struct is immutable after construction: every algorithm
/// in the workspace treats graphs as values.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    n: usize,
    label_dim: usize,
    /// CSR offsets for out-neighbours: `out_adj[out_off[v]..out_off[v+1]]`.
    out_off: Vec<u32>,
    out_adj: Vec<Vertex>,
    /// CSR offsets for in-neighbours.
    in_off: Vec<u32>,
    in_adj: Vec<Vertex>,
    /// Row-major `n × label_dim` labels.
    labels: Vec<f64>,
    /// True when the edge relation is symmetric (tracked by the builder).
    symmetric: bool,
}

impl Graph {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of directed arcs `|E|` (an undirected edge counts twice).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of undirected edges, assuming a symmetric graph.
    #[inline]
    pub fn num_edges_undirected(&self) -> usize {
        debug_assert!(self.symmetric);
        self.out_adj.len() / 2
    }

    /// Dimension `d` of the vertex labels.
    #[inline]
    pub fn label_dim(&self) -> usize {
        self.label_dim
    }

    /// True when the edge relation is symmetric.
    #[inline]
    pub fn is_symmetric(&self) -> bool {
        self.symmetric
    }

    /// Iterator over all vertices.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        (0..self.n as u32).map(|v| v as Vertex)
    }

    /// Out-neighbours of `v` (sorted, deduplicated).
    #[inline]
    pub fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        debug_assert!(v < self.n);
        &self.out_adj[self.out_off[v] as usize..self.out_off[v + 1] as usize]
    }

    /// In-neighbours of `v` (sorted, deduplicated).
    #[inline]
    pub fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        debug_assert!(v < self.n);
        &self.in_adj[self.in_off[v] as usize..self.in_off[v + 1] as usize]
    }

    /// Neighbours of `v` in the undirected sense. For symmetric graphs
    /// this equals `out_neighbors`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        self.out_neighbors(v)
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: Vertex) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: Vertex) -> usize {
        self.in_neighbors(v).len()
    }

    /// Degree in the undirected sense (out-degree of a symmetric graph).
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.out_degree(v)
    }

    /// True when the arc `(u, v)` exists. `O(log deg(u))`.
    #[inline]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.out_neighbors(u).binary_search(&v).is_ok()
    }

    /// The `ℝ^d` label of `v`.
    #[inline]
    pub fn label(&self, v: Vertex) -> &[f64] {
        let v = v as usize;
        debug_assert!(v < self.n);
        &self.labels[v * self.label_dim..(v + 1) * self.label_dim]
    }

    /// All labels as a flat row-major `n × d` slice.
    #[inline]
    pub fn labels_flat(&self) -> &[f64] {
        &self.labels
    }

    /// Raw out-CSR view `(offsets, adjacency)` — `n + 1` offsets over
    /// a flat neighbour array. This is the layout the on-disk segment
    /// format of `gel-store` persists verbatim, so round-trips are
    /// byte-exact by construction.
    #[inline]
    pub fn csr_out(&self) -> (&[u32], &[Vertex]) {
        (&self.out_off, &self.out_adj)
    }

    /// Raw in-CSR view `(offsets, adjacency)` (the transpose of
    /// [`Graph::csr_out`]).
    #[inline]
    pub fn csr_in(&self) -> (&[u32], &[Vertex]) {
        (&self.in_off, &self.in_adj)
    }

    /// Reassembles a graph from raw CSR parts — the inverse of reading
    /// [`Graph::csr_out`]/[`Graph::csr_in`]/[`Graph::labels_flat`] back
    /// from a `gel-store` segment. Cheap structural invariants
    /// (monotone offsets, in-range sorted neighbour lists, matching
    /// lengths) are always checked so a corrupted segment cannot build
    /// a graph that later violates slice bounds; the full
    /// transpose-consistency check runs in debug builds only (gel-store
    /// checks it when it opens a segment, the one untrusted source).
    ///
    /// # Panics
    /// Panics when any invariant fails.
    #[allow(clippy::too_many_arguments)]
    pub fn from_raw_parts(
        n: usize,
        label_dim: usize,
        out_off: Vec<u32>,
        out_adj: Vec<Vertex>,
        in_off: Vec<u32>,
        in_adj: Vec<Vertex>,
        labels: Vec<f64>,
        symmetric: bool,
    ) -> Graph {
        assert!(label_dim >= 1, "label dimension must be at least 1");
        assert_eq!(labels.len(), n * label_dim, "label buffer size mismatch");
        let check_csr = |off: &[u32], adj: &[Vertex], what: &str| {
            assert_eq!(off.len(), n + 1, "{what} offset table must have n + 1 entries");
            assert_eq!(off[0], 0, "{what} offsets must start at 0");
            assert!(off.windows(2).all(|w| w[0] <= w[1]), "{what} offsets must be monotone");
            assert_eq!(off[n] as usize, adj.len(), "{what} offsets must cover the adjacency");
            for v in 0..n {
                let row = &adj[off[v] as usize..off[v + 1] as usize];
                assert!(
                    row.windows(2).all(|w| w[0] < w[1]),
                    "{what} neighbour lists must be sorted and deduplicated"
                );
                assert!(row.iter().all(|&u| (u as usize) < n), "{what} neighbour out of range");
            }
        };
        check_csr(&out_off, &out_adj, "out");
        check_csr(&in_off, &in_adj, "in");
        assert_eq!(out_adj.len(), in_adj.len(), "in/out arc counts must match");
        let g = Graph { n, label_dim, out_off, out_adj, in_off, in_adj, labels, symmetric };
        debug_assert!(
            g.arcs().all(|(u, v)| g.in_adj
                [g.in_off[v as usize] as usize..g.in_off[v as usize + 1] as usize]
                .binary_search(&u)
                .is_ok()),
            "in-CSR must be the transpose of out-CSR"
        );
        debug_assert!(
            !symmetric || g.arcs().all(|(u, v)| g.has_edge(v, u)),
            "symmetric flag requires a symmetric arc set"
        );
        g
    }

    /// Iterator over all arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        (0..self.n).flat_map(move |u| {
            self.out_neighbors(u as Vertex).iter().map(move |&v| (u as Vertex, v))
        })
    }

    /// Iterator over undirected edges `(u, v)` with `u ≤ v` (symmetric
    /// graphs; self-loops reported once).
    pub fn edges_undirected(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.arcs().filter(|&(u, v)| u <= v)
    }

    /// Degree sequence sorted descending — a cheap graph invariant.
    pub fn degree_sequence(&self) -> Vec<usize> {
        let mut d: Vec<usize> = self.vertices().map(|v| self.degree(v)).collect();
        d.sort_unstable_by(|a, b| b.cmp(a));
        d
    }

    /// Returns a copy with all labels replaced by the constant `1.0`
    /// scalar label (forgetting vertex features; useful when comparing
    /// structure-only invariants).
    pub fn forget_labels(&self) -> Graph {
        let mut g = self.clone();
        g.label_dim = 1;
        g.labels = vec![1.0; g.n];
        g
    }

    /// Returns a copy with labels replaced by `new_labels` (row-major
    /// `n × d`).
    pub fn with_labels(&self, new_labels: Vec<f64>, dim: usize) -> Graph {
        assert_eq!(new_labels.len(), self.n * dim, "label buffer size mismatch");
        let mut g = self.clone();
        g.label_dim = dim;
        g.labels = new_labels;
        g
    }

    /// Applies a vertex permutation `π` (`π[v]` is the new id of `v`),
    /// producing the isomorphic graph `π(G)`. Used by invariance tests
    /// (slide 11).
    ///
    /// # Panics
    /// Panics if `perm` is not a permutation of `0..n`.
    pub fn permute(&self, perm: &[Vertex]) -> Graph {
        assert_eq!(perm.len(), self.n, "permutation length mismatch");
        let mut seen = vec![false; self.n];
        for &p in perm {
            assert!((p as usize) < self.n && !seen[p as usize], "not a permutation");
            seen[p as usize] = true;
        }
        let mut b = GraphBuilder::with_label_dim(self.n, self.label_dim);
        for v in self.vertices() {
            b.set_label(perm[v as usize], self.label(v));
        }
        for (u, v) in self.arcs() {
            b.add_arc(perm[u as usize], perm[v as usize]);
        }
        let mut g = b.build();
        g.symmetric = self.symmetric;
        g
    }

    /// Disjoint union `G ⊎ H` (vertices of `H` shifted by `|V_G|`).
    /// Labels are padded with zeros to the larger label dimension.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let dim = self.label_dim.max(other.label_dim);
        let n = self.n + other.n;
        let mut b = GraphBuilder::with_label_dim(n, dim);
        let mut buf = vec![0.0; dim];
        for v in self.vertices() {
            buf.fill(0.0);
            buf[..self.label_dim].copy_from_slice(self.label(v));
            b.set_label(v, &buf);
        }
        for v in other.vertices() {
            buf.fill(0.0);
            buf[..other.label_dim].copy_from_slice(other.label(v));
            b.set_label(v + self.n as u32, &buf);
        }
        for (u, v) in self.arcs() {
            b.add_arc(u, v);
        }
        for (u, v) in other.arcs() {
            b.add_arc(u + self.n as u32, v + self.n as u32);
        }
        let mut g = b.build();
        g.symmetric = self.symmetric && other.symmetric;
        g
    }

    /// The complement graph (no self-loops), keeping labels.
    pub fn complement(&self) -> Graph {
        let mut b = GraphBuilder::with_label_dim(self.n, self.label_dim);
        for v in self.vertices() {
            b.set_label(v, self.label(v));
        }
        for u in self.vertices() {
            for v in self.vertices() {
                if u != v && !self.has_edge(u, v) {
                    b.add_arc(u, v);
                }
            }
        }
        let mut g = b.build();
        g.symmetric = self.symmetric;
        g
    }

    /// Counts triangles (unordered, symmetric graphs).
    pub fn triangle_count(&self) -> usize {
        let mut count = 0usize;
        for u in self.vertices() {
            for &v in self.neighbors(u) {
                if v <= u {
                    continue;
                }
                for &w in self.neighbors(v) {
                    if w <= v {
                        continue;
                    }
                    if self.has_edge(u, w) {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Connected components (undirected sense); returns `comp[v]`.
    pub fn connected_components(&self) -> (usize, Vec<usize>) {
        let mut comp = vec![usize::MAX; self.n];
        let mut next = 0;
        let mut stack = Vec::new();
        for s in 0..self.n {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = next;
            stack.push(s as Vertex);
            while let Some(u) = stack.pop() {
                for &w in self.out_neighbors(u).iter().chain(self.in_neighbors(u)) {
                    if comp[w as usize] == usize::MAX {
                        comp[w as usize] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        (next, comp)
    }
}

/// Incremental builder for [`Graph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    label_dim: usize,
    arcs: Vec<(Vertex, Vertex)>,
    labels: Vec<f64>,
}

impl GraphBuilder {
    /// A builder for `n` vertices with scalar labels initialized to 1.
    pub fn new(n: usize) -> Self {
        Self::with_label_dim(n, 1)
    }

    /// A builder for `n` vertices with `dim`-dimensional zero labels
    /// (scalar builders default to the constant-1 labelling so that
    /// unlabelled graphs behave like the paper's `Σ = {•}` case).
    pub fn with_label_dim(n: usize, dim: usize) -> Self {
        assert!(dim >= 1, "label dimension must be at least 1");
        let labels = if dim == 1 { vec![1.0; n] } else { vec![0.0; n * dim] };
        Self { n, label_dim: dim, arcs: Vec::new(), labels }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Label dimension.
    pub fn label_dim(&self) -> usize {
        self.label_dim
    }

    /// Adds a directed arc `u → v`.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    pub fn add_arc(&mut self, u: Vertex, v: Vertex) -> &mut Self {
        assert!((u as usize) < self.n && (v as usize) < self.n, "arc endpoint out of range");
        self.arcs.push((u, v));
        self
    }

    /// Adds the undirected edge `{u, v}` (both arcs).
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> &mut Self {
        assert!((u as usize) < self.n && (v as usize) < self.n, "edge endpoint out of range");
        self.arcs.push((u, v));
        if u != v {
            self.arcs.push((v, u));
        }
        self
    }

    /// Sets the label of `v`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn set_label(&mut self, v: Vertex, label: &[f64]) -> &mut Self {
        assert_eq!(label.len(), self.label_dim, "label dimension mismatch");
        let v = v as usize;
        assert!(v < self.n, "vertex out of range");
        self.labels[v * self.label_dim..(v + 1) * self.label_dim].copy_from_slice(label);
        self
    }

    /// Sets a one-hot label of width `self.label_dim` with `1.0` at
    /// position `class`.
    pub fn set_one_hot(&mut self, v: Vertex, class: usize) -> &mut Self {
        assert!(class < self.label_dim, "class out of range for one-hot label");
        let dim = self.label_dim;
        let v = v as usize;
        let row = &mut self.labels[v * dim..(v + 1) * dim];
        row.fill(0.0);
        row[class] = 1.0;
        self
    }

    /// Finalizes into an immutable CSR [`Graph`], deduplicating
    /// parallel arcs.
    pub fn build(self) -> Graph {
        let n = self.n;
        let mut arcs = self.arcs;
        arcs.sort_unstable();
        arcs.dedup();

        let mut out_off = vec![0u32; n + 1];
        for &(u, _) in &arcs {
            out_off[u as usize + 1] += 1;
        }
        for i in 0..n {
            out_off[i + 1] += out_off[i];
        }
        let out_adj: Vec<Vertex> = arcs.iter().map(|&(_, v)| v).collect();

        // Build the reverse CSR.
        let mut in_off = vec![0u32; n + 1];
        for &(_, v) in &arcs {
            in_off[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_off[i + 1] += in_off[i];
        }
        let mut cursor = in_off.clone();
        let mut in_adj = vec![0 as Vertex; arcs.len()];
        for &(u, v) in &arcs {
            let c = &mut cursor[v as usize];
            in_adj[*c as usize] = u;
            *c += 1;
        }
        // Sort each in-neighbour list (arcs are sorted by (u,v), so the
        // fill order above already yields sorted in-lists; keep a debug
        // check rather than a re-sort).
        debug_assert!((0..n).all(|v| {
            in_adj[in_off[v] as usize..in_off[v + 1] as usize].windows(2).all(|w| w[0] <= w[1])
        }));

        let symmetric = {
            let g = |u: Vertex| {
                &out_adj[out_off[u as usize] as usize..out_off[u as usize + 1] as usize]
            };
            arcs.iter().all(|&(u, v)| g(v).binary_search(&u).is_ok())
        };

        Graph {
            n,
            label_dim: self.label_dim,
            out_off,
            out_adj,
            in_off,
            in_adj,
            labels: self.labels,
            symmetric,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).add_edge(1, 2);
        b.build()
    }

    #[test]
    fn csr_adjacency() {
        let g = path3();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_arcs(), 4);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.neighbors(0), &[1]);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0) && !g.has_edge(0, 2));
        assert!(g.is_symmetric());
    }

    #[test]
    fn directed_graph_in_out() {
        let mut b = GraphBuilder::new(3);
        b.add_arc(0, 1).add_arc(0, 2).add_arc(1, 2);
        let g = b.build();
        assert!(!g.is_symmetric());
        assert_eq!(g.out_neighbors(0), &[1, 2]);
        assert_eq!(g.in_neighbors(2), &[0, 1]);
        assert_eq!(g.in_degree(2), 2);
        assert_eq!(g.out_degree(2), 0);
    }

    #[test]
    fn duplicate_arcs_are_deduped() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1).add_edge(0, 1).add_edge(1, 0);
        let g = b.build();
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn labels_default_and_set() {
        let mut b = GraphBuilder::with_label_dim(2, 3);
        b.set_label(0, &[1.0, 2.0, 3.0]);
        b.set_one_hot(1, 2);
        let g = b.build();
        assert_eq!(g.label(0), &[1.0, 2.0, 3.0]);
        assert_eq!(g.label(1), &[0.0, 0.0, 1.0]);
        assert_eq!(g.label_dim(), 3);
        // Scalar builders default to constant 1.
        assert_eq!(path3().label(2), &[1.0]);
    }

    #[test]
    fn permute_is_isomorphic() {
        let g = path3();
        let h = g.permute(&[2, 0, 1]);
        // Old edge {0,1} becomes {2,0}; {1,2} becomes {0,1}.
        assert!(h.has_edge(2, 0) && h.has_edge(0, 1));
        assert_eq!(h.degree_sequence(), g.degree_sequence());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_non_permutation() {
        let _ = path3().permute(&[0, 0, 1]);
    }

    #[test]
    fn disjoint_union_counts() {
        let g = path3();
        let u = g.disjoint_union(&g);
        assert_eq!(u.num_vertices(), 6);
        assert_eq!(u.num_arcs(), 8);
        assert!(u.has_edge(3, 4) && !u.has_edge(2, 3));
        let (ncomp, _) = u.connected_components();
        assert_eq!(ncomp, 2);
    }

    #[test]
    fn triangle_count_small() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2).add_edge(2, 3);
        let g = b.build();
        assert_eq!(g.triangle_count(), 1);
        assert_eq!(path3().triangle_count(), 0);
    }

    #[test]
    fn complement_of_path() {
        let g = path3().complement();
        assert!(g.has_edge(0, 2) && !g.has_edge(0, 1));
        assert_eq!(g.num_arcs(), 2);
    }

    #[test]
    fn forget_and_with_labels() {
        let g = path3().with_labels(vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0], 2);
        assert_eq!(g.label_dim(), 2);
        let f = g.forget_labels();
        assert_eq!(f.label_dim(), 1);
        assert_eq!(f.label(0), &[1.0]);
    }

    #[test]
    fn edge_list_roundtrip() {
        // Textual round-trip through the native edge-list format.
        let g = path3();
        let s = crate::io::to_edge_list(&g);
        let g2 = crate::io::parse_edge_list(&s).unwrap();
        assert_eq!(g, g2);
    }
}
