//! Sparse embedding tables: sorted coordinate lists, the sorted
//! merge-join / contraction kernels behind the compiled evaluator's
//! sparse execution paths (`crate::plan`), and the worst-case-optimal
//! join that runs over a graph's CSR instead of any list ([`CsrJoin`]).
//!
//! A [`CoordList`] stores the nonzero cells of a table over variables
//! `vars` (strictly ascending, as everywhere) as flat row-major cell
//! ids — exactly the indices of [`crate::table::EmbeddingTable`]'s
//! dense layout, so a coordinate list is the dense slab with the zero
//! cells elided and the survivors kept in the same (lexicographic)
//! order. Keeping the dense order is load-bearing: `plan.rs` scatters
//! a list into its dense slab and probes or joins lists by cell id
//! without re-sorting, and a sparse result table lists its cells in
//! the dense table's order.
//!
//! **Invariants** (checked by [`CoordList::is_strictly_sorted`] and
//! property-tested below): coordinates strictly ascending — sorted and
//! duplicate-free. Values may contain explicit zeros (a sparse product
//! with a zero dense operand stores the zero); "nnz" in counters means
//! entry count.
//!
//! [`join_multiply`] and [`contract_sum`] are the two moves of the
//! FAQ-style variable elimination pass (scalar factors only): a sorted
//! merge-join on the shared variables in time
//! `O((|A| + |B|)·log + |A ⋈ B|·log)` and a sum-contraction of one
//! variable. Both are restricted by `plan.rs` to integer-valued
//! indicator factors, where reassociating the sum is exact — see
//! DESIGN.md §6. [`CsrJoin`] is the other sum-product strategy: it
//! intersects the sorted neighbour slices of `Graph::out_neighbors` /
//! `Graph::in_neighbors` per variable and counts at the last level,
//! under the same exactness contract (DESIGN.md §12).

use gel_graph::{Graph, Vertex};

use crate::table::Var;

/// Integer power `n^e` with overflow panic (table sizes are checked the
/// same way in `plan.rs`).
#[inline]
fn npow(n: usize, e: usize) -> usize {
    n.checked_pow(e as u32).expect("sparse table too large")
}

/// A sparse table over some variable set: strictly ascending flat cell
/// ids plus `dim` values per entry, in the same order.
#[derive(Debug, Clone, Default)]
pub struct CoordList {
    dim: usize,
    coords: Vec<usize>,
    values: Vec<f64>,
}

impl CoordList {
    /// An empty list with the given cell width.
    pub fn new(dim: usize) -> Self {
        Self { dim, coords: Vec::new(), values: Vec::new() }
    }

    /// Clears the list and resets its cell width, keeping capacity.
    pub fn reset(&mut self, dim: usize) {
        self.dim = dim;
        self.coords.clear();
        self.values.clear();
    }

    /// An empty list adopting recycled buffers (their contents are
    /// discarded, their capacity kept) — how the evaluation engine's
    /// pools hand storage to plan nodes.
    pub fn with_buffers(dim: usize, mut coords: Vec<usize>, mut values: Vec<f64>) -> Self {
        coords.clear();
        values.clear();
        Self { dim, coords, values }
    }

    /// Dismantles the list into its buffers for pool recycling.
    pub fn into_parts(self) -> (Vec<usize>, Vec<f64>) {
        (self.coords, self.values)
    }

    /// Cell width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.coords.len()
    }

    /// Whether the list has no entries.
    pub fn is_empty(&self) -> bool {
        self.coords.is_empty()
    }

    /// The stored cell ids.
    pub fn coords(&self) -> &[usize] {
        &self.coords
    }

    /// The stored values (`len() * dim()` floats).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable view of the stored values (coordinates stay fixed — for
    /// in-place scaling, e.g. the `n^free_over` multiplier).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Appends an entry. Callers may push out of order as long as they
    /// finish with [`Self::sort_entries`].
    pub fn push(&mut self, coord: usize, value: &[f64]) {
        debug_assert_eq!(value.len(), self.dim);
        self.coords.push(coord);
        self.values.extend_from_slice(value);
    }

    /// Appends a scalar entry (`dim == 1`).
    pub fn push1(&mut self, coord: usize, value: f64) {
        debug_assert_eq!(self.dim, 1);
        self.coords.push(coord);
        self.values.push(value);
    }

    /// The value row of entry `i`.
    pub fn value(&self, i: usize) -> &[f64] {
        &self.values[i * self.dim..(i + 1) * self.dim]
    }

    /// Binary-searches for `coord`, returning its value row.
    pub fn get(&self, coord: usize) -> Option<&[f64]> {
        self.coords.binary_search(&coord).ok().map(|i| self.value(i))
    }

    /// [`Self::get`] for scalar lists, with 0.0 for absent cells.
    pub fn probe1(&self, coord: usize) -> f64 {
        debug_assert_eq!(self.dim, 1);
        match self.coords.binary_search(&coord) {
            Ok(i) => self.values[i],
            Err(_) => 0.0,
        }
    }

    /// Clones `src`'s entries into `self`, reusing `self`'s buffers —
    /// how the elimination kernel seeds its factor arena without
    /// touching the allocator once warmed.
    pub fn copy_from_list(&mut self, src: &CoordList) {
        self.dim = src.dim;
        self.coords.clear();
        self.coords.extend_from_slice(&src.coords);
        self.values.clear();
        self.values.extend_from_slice(&src.values);
    }

    /// The representation invariant: coordinates strictly ascending
    /// (sorted, duplicate-free) and one value row per coordinate.
    pub fn is_strictly_sorted(&self) -> bool {
        self.values.len() == self.coords.len() * self.dim
            && self.coords.windows(2).all(|w| w[0] < w[1])
    }

    /// Restores the sorted invariant after out-of-order pushes
    /// (coordinates must be distinct). Scalar lists sort in place;
    /// wider lists gather their value rows through `scratch`.
    pub fn sort_entries(&mut self, scratch: &mut JoinScratch) {
        if self.coords.windows(2).all(|w| w[0] < w[1]) {
            return;
        }
        if self.dim == 1 {
            scratch.pairs.clear();
            scratch
                .pairs
                .extend(self.coords.iter().zip(&self.values).map(|(&c, &v)| (c, v.to_bits())));
            scratch.pairs.sort_unstable_by_key(|&(c, _)| c);
            for (i, &(c, bits)) in scratch.pairs.iter().enumerate() {
                self.coords[i] = c;
                self.values[i] = f64::from_bits(bits);
            }
        } else {
            scratch.keys.clear();
            scratch.keys.extend(self.coords.iter().map(|&c| (c, 0u32)));
            for (i, k) in scratch.keys.iter_mut().enumerate() {
                k.1 = i as u32;
            }
            scratch.keys.sort_unstable_by_key(|&(c, _)| c);
            scratch.vals.clear();
            scratch.vals.extend_from_slice(&self.values);
            for (i, &(c, src)) in scratch.keys.iter().enumerate() {
                self.coords[i] = c;
                let s = src as usize * self.dim;
                self.values[i * self.dim..(i + 1) * self.dim]
                    .copy_from_slice(&scratch.vals[s..s + self.dim]);
            }
        }
        debug_assert!(self.is_strictly_sorted());
    }
}

/// Reusable buffers for [`join_multiply`] / [`contract_sum`] /
/// [`CoordList::sort_entries`] / [`CsrJoin::run`] — owned by the
/// engine's scratch so the warmed sparse path stays allocation-free.
#[derive(Debug, Default)]
pub struct JoinScratch {
    /// `(key, original index)` pairs for re-keying one operand.
    keys: Vec<(usize, u32)>,
    /// Same, for the second operand of a join.
    keys_b: Vec<(usize, u32)>,
    /// `(coord, value bits)` pairs for scalar in-place sorts.
    pairs: Vec<(usize, u64)>,
    /// Gather buffer for wide value rows.
    vals: Vec<f64>,
    /// Per-run `(out contribution, value)` cache of the second operand.
    run_b: Vec<(usize, f64)>,
    /// Variable-block partitions of a join (shared / a-only / b-only).
    vars_shared: Vec<Var>,
    vars_a: Vec<Var>,
    vars_b: Vec<Var>,
    /// Re-key strides of each operand.
    strides_a: Vec<usize>,
    strides_b: Vec<usize>,
    /// Output-coordinate contribution strides per block digit.
    out_shared: Vec<usize>,
    out_a: Vec<usize>,
    out_b: Vec<usize>,
    /// The vertex bound at each depth of a [`CsrJoin`] …
    bound: Vec<Vertex>,
    /// … and each depth's candidates, when they are an intersection.
    cands: Vec<Vec<Vertex>>,
}

/// Writes the base-`n` digits of `cell`, most significant first.
#[inline]
fn digits_of(mut cell: usize, n: usize, out: &mut [usize]) {
    for d in out.iter_mut().rev() {
        *d = cell % n;
        cell /= n;
    }
    debug_assert_eq!(cell, 0);
}

/// Most variables one table may have in the join and re-key kernels,
/// matching their stack-local digit arrays. Their cell ids must also
/// fit `usize`; `plan.rs` checks both before choosing elimination.
pub const MAX_JOIN_VARS: usize = 16;

/// Re-keys the coordinates of `src` into a permuted mixed radix given
/// per-position key strides, as `(key, entry index)` pairs sorted by
/// key. Skips the sort when the remap is the identity (keys already
/// ascend with the coords). The per-entry digit decompose is cheap: the
/// number of positions is bounded by expression arity.
fn rekey_into(
    src: &CoordList,
    n: usize,
    key_strides: &[usize],
    identity: bool,
    out: &mut Vec<(usize, u32)>,
) {
    out.clear();
    let p = key_strides.len();
    let mut digits = [0usize; MAX_JOIN_VARS];
    assert!(p <= digits.len(), "too many variables in sparse join");
    for (i, &c) in src.coords.iter().enumerate() {
        let key = if identity {
            c
        } else {
            digits_of(c, n, &mut digits[..p]);
            digits[..p].iter().zip(key_strides).map(|(d, s)| d * s).sum()
        };
        out.push((key, i as u32));
    }
    if !identity {
        out.sort_unstable();
    }
}

/// Sorted merge-join of two scalar factors: multiplies matching
/// entries on their shared variables and emits the product factor over
/// the variable union, sorted. `out_vars` receives the union.
///
/// Each operand is re-keyed to `(shared vars, own-only vars)` mixed
/// radix (a no-op when the shared variables already lead), runs with
/// equal shared prefixes are matched two-pointer style, and the run
/// product is emitted. Output coordinates are unique — `(shared, a
/// rest, b rest)` determines the cell — so the final
/// [`CoordList::sort_entries`] restores the invariant without any
/// dedup pass.
#[allow(clippy::too_many_arguments)]
pub fn join_multiply(
    a: &CoordList,
    a_vars: &[Var],
    b: &CoordList,
    b_vars: &[Var],
    n: usize,
    s: &mut JoinScratch,
    out: &mut CoordList,
    out_vars: &mut Vec<Var>,
) {
    assert_eq!(a.dim, 1, "join_multiply is scalar");
    assert_eq!(b.dim, 1, "join_multiply is scalar");
    debug_assert!(a_vars.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(b_vars.windows(2).all(|w| w[0] < w[1]));
    out.reset(1);
    out_vars.clear();
    out_vars.extend_from_slice(a_vars);
    out_vars.extend_from_slice(b_vars);
    out_vars.sort_unstable();
    out_vars.dedup();
    if a.is_empty() || b.is_empty() {
        return;
    }

    // Variable blocks and stride tables live in the scratch: the warmed
    // elimination loop re-joins the same shapes without allocating.
    s.vars_shared.clear();
    s.vars_shared.extend(a_vars.iter().copied().filter(|v| b_vars.contains(v)));
    s.vars_a.clear();
    s.vars_a.extend(a_vars.iter().copied().filter(|v| !s.vars_shared.contains(v)));
    s.vars_b.clear();
    s.vars_b.extend(b_vars.iter().copied().filter(|v| !s.vars_shared.contains(v)));
    let (qs, qa, qb) = (s.vars_shared.len(), s.vars_a.len(), s.vars_b.len());
    let (pow_a, pow_b) = (npow(n, qa), npow(n, qb));

    // Key strides: key = (shared digits, own-only digits) mixed radix.
    let a_id = fill_key_strides(a_vars, &s.vars_shared, &s.vars_a, pow_a, n, &mut s.strides_a);
    let b_id = fill_key_strides(b_vars, &s.vars_shared, &s.vars_b, pow_b, n, &mut s.strides_b);
    rekey_into(a, n, &s.strides_a, a_id, &mut s.keys);
    rekey_into(b, n, &s.strides_b, b_id, &mut s.keys_b);

    // Output contribution strides per block digit.
    fill_out_strides(&s.vars_shared, out_vars, n, &mut s.out_shared);
    fill_out_strides(&s.vars_a, out_vars, n, &mut s.out_a);
    fill_out_strides(&s.vars_b, out_vars, n, &mut s.out_b);

    let mut sdig = [0usize; MAX_JOIN_VARS];
    let contrib =
        |rest: usize, q: usize, strides: &[usize], dig: &mut [usize; MAX_JOIN_VARS]| -> usize {
            digits_of(rest, n, &mut dig[..q]);
            dig[..q].iter().zip(strides).map(|(d, s)| d * s).sum()
        };

    let (keys_a, keys_b) = (&s.keys, &s.keys_b);
    let (mut i, mut j) = (0usize, 0usize);
    while i < keys_a.len() && j < keys_b.len() {
        let sa = keys_a[i].0 / pow_a;
        let sb = keys_b[j].0 / pow_b;
        if sa < sb {
            i += 1;
            continue;
        }
        if sb < sa {
            j += 1;
            continue;
        }
        let i2 = keys_a[i..].iter().take_while(|&&(k, _)| k / pow_a == sa).count() + i;
        let j2 = keys_b[j..].iter().take_while(|&&(k, _)| k / pow_b == sb).count() + j;
        let c_shared = contrib(sa, qs, &s.out_shared, &mut sdig);
        s.run_b.clear();
        for &(kb, yb) in &keys_b[j..j2] {
            s.run_b.push((contrib(kb % pow_b, qb, &s.out_b, &mut sdig), b.values[yb as usize]));
        }
        for &(kak, xa) in &keys_a[i..i2] {
            let c_a = c_shared + contrib(kak % pow_a, qa, &s.out_a, &mut sdig);
            let va = a.values[xa as usize];
            for &(c_b, vb) in &s.run_b {
                out.push1(c_a + c_b, va * vb);
            }
        }
        i = i2;
        j = j2;
    }
    out.sort_entries(s);
}

/// Fills `out` with the `(shared block, own-only block)` key stride of
/// each variable of `vars`; returns whether the remap is the identity.
fn fill_key_strides(
    vars: &[Var],
    shared: &[Var],
    own: &[Var],
    own_pow: usize,
    n: usize,
    out: &mut Vec<usize>,
) -> bool {
    out.clear();
    let qs = shared.len();
    for v in vars {
        let ks = if let Some(r) = shared.iter().position(|sv| sv == v) {
            npow(n, qs - 1 - r) * own_pow
        } else {
            let r = own.iter().position(|ov| ov == v).expect("var in own block");
            npow(n, own.len() - 1 - r)
        };
        out.push(ks);
    }
    out.iter().enumerate().all(|(i, &ks)| ks == npow(n, vars.len() - 1 - i))
}

/// Fills `out` with the output-coordinate stride of each variable of
/// `block` within `out_vars`' row-major layout.
fn fill_out_strides(block: &[Var], out_vars: &[Var], n: usize, out: &mut Vec<usize>) {
    out.clear();
    let p_out = out_vars.len();
    out.extend(
        block.iter().map(|v| npow(n, p_out - 1 - out_vars.iter().position(|o| o == v).unwrap())),
    );
}

/// Factor-count cap of a [`CsrJoin`], matching its stack-local slice
/// arrays (expression arity bounds the factor count long before this).
pub const MAX_WCO_FACTORS: usize = 32;

/// A 0/1 factor of a [`CsrJoin`] over two distinct variables: the arc
/// relation `E(from, to)` or the equality `a = b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAtom {
    /// `E(from, to)`.
    Arc {
        /// Tail variable.
        from: Var,
        /// Head variable.
        to: Var,
    },
    /// `a = b`.
    Eq(Var, Var),
}

/// The trie a factor offers a join level once its other variable is
/// bound to `u`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `out_neighbors(u)`: the level binds the arc's head.
    Out,
    /// `in_neighbors(u)`: the level binds the arc's tail.
    In,
    /// The identity trie: the one-vertex slice `[u]`.
    Same,
}

/// One depth of a [`CsrJoin`].
#[derive(Debug, Clone, Default)]
struct Level {
    /// The level starts from its parent's candidates: the parent's
    /// probes are a subset of this level's, so their intersection is
    /// already made (the 4-clique's `x4` intersects `x3`'s candidates
    /// with one more slice). Those probes are then left out of
    /// `probes`.
    reuse: bool,
    /// Factors whose other variable is bound: the slice each offers,
    /// and the depth that binds its other variable.
    probes: Vec<(Step, usize)>,
    /// Arc factors opening at this depth (other variable bound deeper):
    /// the level's vertex needs an out- (`Out`) or in-neighbour (`In`).
    opens: Vec<Step>,
}

/// The worst-case-optimal join of 0/1 edge and equality atoms, run
/// directly over a graph's CSR (Ngo–Porat–Ré–Rudra's generic join,
/// specialised to binary relations stored as adjacency). It sums the
/// product of the atoms over `order[n_free..]` into a scalar output
/// over the free prefix `order[..n_free]`, which must be the output
/// variables in ascending order.
///
/// `E(a, b)` is the two-level trie `csr_out` when the order binds `a`
/// first and `csr_in` when it binds `b` first; `a = b` is the identity
/// trie. At each depth, every factor whose other variable is already
/// bound offers its sorted neighbour slice (found in O(1) through the
/// offsets), and the candidates are the intersection of those slices,
/// led by the shortest and binary-searched through the rest (merged,
/// when two long lists are of like length). A factor opening
/// at the depth filters by degree > 0, and a variable with no bound
/// partner scans `0..n`. Total work is bounded by the AGM
/// fractional-cover bound of the factor hypergraph
/// (`gel_graph::elim::agm_cover_log_bound` computes the planning-side
/// estimate), which for cyclic joins is asymptotically below any binary
/// join plan. No factor list is built, re-keyed or sorted.
///
/// Determinism: the free prefix is enumerated in lexicographic order,
/// so output entries emerge in dense layout order. The deepest
/// aggregated depth adds its candidate count to the current entry as
/// one `f64`: every factor is `1.0`, so each partial sum is an integer
/// below 2^53 and the float is the same as adding `1.0` per assignment.
#[derive(Debug, Clone)]
pub struct CsrJoin {
    levels: Vec<Level>,
    n_free: usize,
}

impl CsrJoin {
    /// Plans the join of `atoms` in `order` (every atom variable in
    /// `order`, at most [`MAX_WCO_FACTORS`] atoms). The plan depends
    /// only on the atoms and the order, never on a graph.
    pub fn new(atoms: &[JoinAtom], order: &[Var], n_free: usize) -> Self {
        assert!(atoms.len() <= MAX_WCO_FACTORS, "too many factors in a CSR join");
        assert!(n_free <= order.len(), "free prefix within order");
        debug_assert!(order[..n_free].windows(2).all(|w| w[0] < w[1]), "free prefix ascending");
        let depth = |v: Var| order.iter().position(|&o| o == v).expect("atom variable in order");
        let mut levels = vec![Level::default(); order.len()];
        for &atom in atoms {
            let (a, b) = match atom {
                JoinAtom::Arc { from, to } => (from, to),
                JoinAtom::Eq(a, b) => (a, b),
            };
            assert_ne!(a, b, "join atoms are over two distinct variables");
            let (da, db) = (depth(a), depth(b));
            // (depth binding second, depth binding first, slice, filter)
            let (late, early, step, open) = match atom {
                JoinAtom::Arc { .. } if da < db => (db, da, Step::Out, Some(Step::Out)),
                JoinAtom::Arc { .. } => (da, db, Step::In, Some(Step::In)),
                JoinAtom::Eq(..) => (da.max(db), da.min(db), Step::Same, None),
            };
            // A repeated factor offers the same slice twice: 0/1 factors
            // are idempotent, so it is read once.
            if !levels[late].probes.contains(&(step, early)) {
                levels[late].probes.push((step, early));
            }
            if let Some(open) = open.filter(|o| !levels[early].opens.contains(o)) {
                levels[early].opens.push(open);
            }
        }
        for d in (1..levels.len()).rev() {
            let (head, tail) = levels.split_at_mut(d);
            let (parent, lv) = (&head[d - 1], &mut tail[0]);
            if !parent.probes.is_empty() && parent.probes.iter().all(|p| lv.probes.contains(p)) {
                lv.reuse = true;
                lv.probes.retain(|p| !parent.probes.contains(p));
            }
        }
        Self { levels, n_free }
    }

    /// Runs the join on `g` into `out`, returning the number of
    /// neighbour-slice intersections (one per slice a candidate set is
    /// intersected with; the `eval.wco.seeks` counter). Stops with the
    /// entry count once `out` holds more than `cap` entries. The warmed
    /// path allocates nothing.
    pub fn run(
        &self,
        g: &Graph,
        cap: usize,
        s: &mut JoinScratch,
        out: &mut CoordList,
    ) -> Result<u64, usize> {
        out.reset(1);
        s.bound.clear();
        s.bound.resize(self.levels.len(), 0);
        if s.cands.len() < self.levels.len() {
            s.cands.resize_with(self.levels.len(), Vec::new);
        }
        let mut walk = Walk {
            g,
            levels: &self.levels,
            n_free: self.n_free,
            cap,
            bound: &mut s.bound,
            cands: &mut s.cands,
            out,
            intersections: 0,
        };
        if !self.levels.is_empty() {
            walk.level(0, 0, &[])?;
        }
        let intersections = walk.intersections;
        debug_assert!(out.is_strictly_sorted());
        Ok(intersections)
    }
}

/// Recursion state of [`CsrJoin::run`].
struct Walk<'a> {
    g: &'a Graph,
    levels: &'a [Level],
    n_free: usize,
    cap: usize,
    bound: &'a mut [Vertex],
    /// Per-depth candidate buffers, taken out while their depth runs.
    cands: &'a mut [Vec<Vertex>],
    out: &'a mut CoordList,
    intersections: u64,
}

impl Walk<'_> {
    /// Adds the exact integer `count` to the entry at `coord`: the
    /// free prefix ascends, so that is the last entry or a new one.
    #[inline]
    fn emit(&mut self, coord: usize, count: usize) -> Result<(), usize> {
        if self.out.coords.last() == Some(&coord) {
            *self.out.values.last_mut().expect("entry exists") += count as f64;
            return Ok(());
        }
        self.out.push1(coord, count as f64);
        if self.out.len() > self.cap {
            return Err(self.out.len());
        }
        Ok(())
    }

    /// Binds depth `d` to each candidate vertex in ascending order.
    /// `coord` is the output cell of the bound free prefix, `parent`
    /// the candidates of depth `d - 1` before its degree filters.
    fn level(&mut self, d: usize, coord: usize, parent: &[Vertex]) -> Result<(), usize> {
        let (g, lv) = (self.g, &self.levels[d]);
        let mut pin = None;
        for &(step, p) in &lv.probes {
            let u = self.bound[p];
            if step == Step::Same {
                if pin.is_some_and(|w| w != u) {
                    return Ok(());
                }
                pin = Some(u);
            }
        }
        let pinned = pin.unwrap_or(0);
        // The slices to intersect, the shortest first.
        let mut sl: [&[Vertex]; MAX_WCO_FACTORS + 1] = [&[]; MAX_WCO_FACTORS + 1];
        let mut k = usize::from(lv.reuse);
        sl[0] = parent;
        for &(step, p) in &lv.probes {
            sl[k] = match step {
                Step::Out => g.out_neighbors(self.bound[p]),
                Step::In => g.in_neighbors(self.bound[p]),
                Step::Same => std::slice::from_ref(&pinned),
            };
            k += 1;
        }
        let sl = &mut sl[..k];
        if let Some(i) = (0..k).min_by_key(|&i| sl[i].len()) {
            sl.swap(0, i);
        }
        self.intersections += k.saturating_sub(1) as u64;
        let last = d + 1 == self.levels.len();
        let free = d < self.n_free;
        // The deepest aggregated level counts instead of binding: every
        // partner is bound, so nothing opens there.
        if last && !free && lv.opens.is_empty() && k <= 2 {
            let count = match sl {
                [] => g.num_vertices(),
                [one] => one.len(),
                [a, b] => count_common(a, b),
                _ => unreachable!("at most two slices"),
            };
            return if count > 0 { self.emit(coord, count) } else { Ok(()) };
        }
        let mut buf = std::mem::take(&mut self.cands[d]);
        let raw: Option<&[Vertex]> = match sl {
            [] => None,
            [one] => Some(one),
            [a, b, rest @ ..] => {
                intersect_into(a, b, &mut buf);
                for r in rest {
                    retain_common(&mut buf, r);
                }
                Some(&buf)
            }
        };
        let n = g.num_vertices();
        let mut count = 0;
        let mut visit = |w: &mut Self, v: Vertex, raw: &[Vertex]| {
            let open = |o: &Step| match o {
                Step::Out => g.out_degree(v) > 0,
                _ => g.in_degree(v) > 0,
            };
            if !lv.opens.iter().all(open) {
                return Ok(());
            }
            let c = if free { coord * n + v as usize } else { coord };
            match (last, free) {
                (true, false) => {
                    count += 1;
                    Ok(())
                }
                (true, true) => w.emit(c, 1),
                _ => {
                    w.bound[d] = v;
                    w.level(d + 1, c, raw)
                }
            }
        };
        let res = match raw {
            Some(raw) => raw.iter().try_for_each(|&v| visit(self, v, raw)),
            None => (0..n as Vertex).try_for_each(|v| visit(self, v, &[])),
        };
        self.cands[d] = buf;
        res?;
        if count > 0 {
            self.emit(coord, count)?;
        }
        Ok(())
    }
}

/// Calls `hit` on every vertex of sorted `a` also in sorted `b`, in
/// order. A short or much shorter `a` binary-searches `b` once per
/// vertex — independent searches, which the processor overlaps; two
/// long lists of like length merge without branches.
#[inline]
fn for_common(a: &[Vertex], b: &[Vertex], mut hit: impl FnMut(Vertex)) {
    if a.len() <= 16 || b.len() > 8 * a.len() {
        for &v in a {
            if b.binary_search(&v).is_ok() {
                hit(v);
            }
        }
        return;
    }
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        if x == y {
            hit(x);
        }
    }
}

/// `|a ∩ b|` of two sorted slices.
fn count_common(a: &[Vertex], b: &[Vertex]) -> usize {
    let mut c = 0;
    for_common(a, b, |_| c += 1);
    c
}

/// `out = a ∩ b` of two sorted slices.
fn intersect_into(a: &[Vertex], b: &[Vertex], out: &mut Vec<Vertex>) {
    out.clear();
    for_common(a, b, |v| out.push(v));
}

/// Keeps the vertices of sorted `buf` that sorted `b` also holds.
fn retain_common(buf: &mut Vec<Vertex>, b: &[Vertex]) {
    buf.retain(|v| b.binary_search(v).is_ok());
}

/// Sums variable `var` out of a scalar factor: entries sharing all
/// other digits fold into one. Output is over `src_vars` minus `var`,
/// sorted. When `var` is the fastest digit the input order already
/// groups the runs; otherwise entries are re-keyed and sorted first
/// (ties between equal keys break by entry index, so the fold order is
/// deterministic — `plan.rs` only contracts integer factors, where
/// the order is immaterial anyway).
pub fn contract_sum(
    src: &CoordList,
    src_vars: &[Var],
    var: Var,
    n: usize,
    s: &mut JoinScratch,
    out: &mut CoordList,
) {
    assert_eq!(src.dim, 1, "contract_sum is scalar");
    let p = src_vars.len();
    let pos = src_vars.iter().position(|&v| v == var).expect("contracted var present");
    out.reset(1);
    if src.is_empty() {
        return;
    }
    let below = npow(n, p - 1 - pos);
    if pos == p - 1 {
        // Fastest digit: removing it keeps the coordinate order.
        let mut key = src.coords[0] / n;
        let mut acc = src.values[0];
        for (&c, &v) in src.coords[1..].iter().zip(&src.values[1..]) {
            let k = c / n;
            if k == key {
                acc += v;
            } else {
                out.push1(key, acc);
                key = k;
                acc = v;
            }
        }
        out.push1(key, acc);
    } else {
        s.keys.clear();
        for (i, &c) in src.coords.iter().enumerate() {
            let high = c / (below * n);
            let low = c % below;
            s.keys.push((high * below + low, i as u32));
        }
        s.keys.sort_unstable();
        let mut key = s.keys[0].0;
        let mut acc = src.values[s.keys[0].1 as usize];
        for &(k, idx) in &s.keys[1..] {
            if k == key {
                acc += src.values[idx as usize];
            } else {
                out.push1(key, acc);
                key = k;
                acc = src.values[idx as usize];
            }
        }
        out.push1(key, acc);
    }
    debug_assert!(out.is_strictly_sorted());
}

#[cfg(test)]
// Coordinates in expected values are written as explicit mixed-radix
// sums (`0 * 9 + 1 * 3 + 0`) so each digit is visible.
#[allow(clippy::erasing_op, clippy::identity_op)]
mod tests {
    use super::*;
    use gel_graph::GraphBuilder;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random scalar factor over `vars` with the given entry
    /// probability, plus its dense reference table.
    fn random_factor(
        vars: &[Var],
        n: usize,
        density: f64,
        rng: &mut StdRng,
    ) -> (CoordList, Vec<f64>) {
        let cells = npow(n, vars.len());
        let mut cl = CoordList::new(1);
        let mut dense = vec![0.0; cells];
        for (c, cell) in dense.iter_mut().enumerate() {
            if rng.gen_bool(density) {
                let v = f64::from(rng.gen_range(1..=3_i32));
                cl.push1(c, v);
                *cell = v;
            }
        }
        (cl, dense)
    }

    /// Dense reference of a join: pointwise product over the union
    /// variable space.
    fn dense_join(
        da: &[f64],
        a_vars: &[Var],
        db: &[f64],
        b_vars: &[Var],
        u_vars: &[Var],
        n: usize,
    ) -> Vec<f64> {
        let p = u_vars.len();
        let cells = npow(n, p);
        let proj = |digits: &[usize], vars: &[Var]| -> usize {
            vars.iter().fold(0, |acc, v| {
                let pos = u_vars.iter().position(|u| u == v).unwrap();
                acc * n + digits[pos]
            })
        };
        let mut out = vec![0.0; cells];
        let mut digits = vec![0usize; p];
        for (c, o) in out.iter_mut().enumerate() {
            digits_of(c, n, &mut digits);
            *o = da[proj(&digits, a_vars)] * db[proj(&digits, b_vars)];
        }
        out
    }

    fn to_dense(cl: &CoordList, cells: usize) -> Vec<f64> {
        let mut out = vec![0.0; cells];
        for (i, &c) in cl.coords().iter().enumerate() {
            out[c] = cl.values[i];
        }
        out
    }

    #[test]
    fn push_get_and_invariant() {
        let mut cl = CoordList::new(2);
        cl.push(3, &[1.0, 2.0]);
        cl.push(7, &[3.0, 4.0]);
        assert!(cl.is_strictly_sorted());
        assert_eq!(cl.get(7), Some(&[3.0, 4.0][..]));
        assert_eq!(cl.get(5), None);
        cl.push(5, &[9.0, 9.0]);
        assert!(!cl.is_strictly_sorted());
        cl.sort_entries(&mut JoinScratch::default());
        assert!(cl.is_strictly_sorted());
        assert_eq!(cl.coords(), &[3, 5, 7]);
        assert_eq!(cl.value(1), &[9.0, 9.0]);
    }

    #[test]
    fn join_on_shared_variable_is_matrix_product_support() {
        // A(1,2) ⋈ B(2,3) over a 3-vertex space.
        let n = 3;
        let mut a = CoordList::new(1);
        a.push1(0 * n + 1, 2.0); // (x1=0, x2=1)
        a.push1(2 * n + 1, 5.0); // (x1=2, x2=1)
        let mut b = CoordList::new(1);
        b.push1(1 * n + 0, 7.0); // (x2=1, x3=0)
        b.push1(2 * n + 2, 1.0); // (x2=2, x3=2) — no partner in A
        let mut out = CoordList::new(1);
        let mut out_vars = Vec::new();
        join_multiply(
            &a,
            &[1, 2],
            &b,
            &[2, 3],
            n,
            &mut JoinScratch::default(),
            &mut out,
            &mut out_vars,
        );
        assert_eq!(out_vars, vec![1, 2, 3]);
        // Matches: (0,1,0) = 14, (2,1,0) = 35.
        assert_eq!(out.coords(), &[0 * 9 + 1 * 3 + 0, 2 * 9 + 1 * 3 + 0]);
        assert_eq!(out.values(), &[14.0, 35.0]);
        assert!(out.is_strictly_sorted());
    }

    #[test]
    fn contract_fastest_and_middle_variable() {
        let n = 3;
        let mut f = CoordList::new(1);
        // Entries over vars (1,2,3): coords (a,b,c) → a·9 + b·3 + c.
        for (a, b, c, v) in [(0, 0, 1, 1.0), (0, 1, 1, 2.0), (0, 2, 1, 4.0), (1, 0, 0, 8.0)] {
            f.push1(a * 9 + b * 3 + c, v);
        }
        let mut s = JoinScratch::default();
        let mut out = CoordList::new(1);
        // Sum out x3 (fastest digit).
        contract_sum(&f, &[1, 2, 3], 3, n, &mut s, &mut out);
        assert_eq!(out.coords(), &[0 * 3 + 0, 0 * 3 + 1, 0 * 3 + 2, 1 * 3 + 0]);
        assert_eq!(out.values(), &[1.0, 2.0, 4.0, 8.0]);
        // Sum out x2 (middle digit): (0,·,1) entries fold.
        contract_sum(&f, &[1, 2, 3], 2, n, &mut s, &mut out);
        assert_eq!(out.coords(), &[0 * 3 + 1, 1 * 3 + 0]);
        assert_eq!(out.values(), &[7.0, 8.0]);
    }

    /// A random directed graph: asymmetric arcs and self-loops, and at
    /// low densities isolated vertices.
    fn random_digraph(n: usize, density: f64, rng: &mut StdRng) -> Graph {
        let mut b = GraphBuilder::new(n);
        for u in 0..n as Vertex {
            for v in 0..n as Vertex {
                if rng.gen_bool(density) {
                    b.add_arc(u, v);
                }
            }
        }
        b.build()
    }

    fn arcs(pairs: &[(Var, Var)]) -> Vec<JoinAtom> {
        pairs.iter().map(|&(from, to)| JoinAtom::Arc { from, to }).collect()
    }

    /// Dense reference of a [`CsrJoin`]: enumerate every assignment of
    /// `order`, test each atom on the graph, and count the assignments
    /// satisfying all of them per free-prefix coordinate.
    fn dense_multiway(g: &Graph, atoms: &[JoinAtom], order: &[Var], n_free: usize) -> Vec<f64> {
        let n = g.num_vertices();
        let mut out = vec![0.0; npow(n, n_free)];
        let mut assign = vec![0usize; order.len()];
        for cell in 0..npow(n, order.len()) {
            digits_of(cell, n, &mut assign);
            let at = |v: Var| assign[order.iter().position(|&o| o == v).unwrap()];
            let hit = atoms.iter().all(|atom| match *atom {
                JoinAtom::Arc { from, to } => g.has_edge(at(from) as Vertex, at(to) as Vertex),
                JoinAtom::Eq(a, b) => at(a) == at(b),
            });
            if hit {
                out[(0..n_free).fold(0, |acc, d| acc * n + assign[d])] += 1.0;
            }
        }
        out
    }

    fn run_join(g: &Graph, atoms: &[JoinAtom], order: &[Var], n_free: usize) -> CoordList {
        let mut out = CoordList::new(1);
        let join = CsrJoin::new(atoms, order, n_free);
        join.run(g, usize::MAX, &mut JoinScratch::default(), &mut out).expect("uncapped");
        out
    }

    #[test]
    fn multiway_triangle_count_matches_dense() {
        let g = random_digraph(5, 0.5, &mut StdRng::seed_from_u64(7));
        let atoms = arcs(&[(1, 2), (2, 3), (1, 3)]);
        // Fully aggregated: n_free = 0, scalar count at coordinate 0.
        let out = run_join(&g, &atoms, &[1, 2, 3], 0);
        assert_eq!(to_dense(&out, 1), dense_multiway(&g, &atoms, &[1, 2, 3], 0));
        assert!(out.is_strictly_sorted());
    }

    #[test]
    fn multiway_free_prefix_emits_sorted_per_vertex_counts() {
        let g = random_digraph(4, 0.5, &mut StdRng::seed_from_u64(11));
        let atoms = arcs(&[(1, 2), (2, 3), (1, 3)]);
        // x1 free: per-vertex triangle counts, eliminated vars ordered
        // 3 before 2, so `E(2, 3)` reads the in-CSR.
        let out = run_join(&g, &atoms, &[1, 3, 2], 1);
        assert!(out.is_strictly_sorted());
        assert_eq!(to_dense(&out, 4), dense_multiway(&g, &atoms, &[1, 3, 2], 1));
    }

    #[test]
    fn multiway_empty_factor_short_circuits() {
        // No arcs: the degree filter empties the first level, so no
        // slice is ever intersected.
        let g = GraphBuilder::new(3).build();
        let mut out = CoordList::new(1);
        let join = CsrJoin::new(&arcs(&[(1, 2), (2, 3), (1, 3)]), &[1, 2, 3], 0);
        let seeks = join.run(&g, usize::MAX, &mut JoinScratch::default(), &mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(seeks, 0);
    }

    /// The 3-star `E(x1,x4)·E(x2,x4)·E(x3,x4)` summed over x4 emits one
    /// entry per in-neighbour triple: past the cap the join stops with
    /// the entry count, and the same scratch then answers an uncapped
    /// run in full.
    #[test]
    fn csr_join_stops_past_the_cap() {
        let g = random_digraph(12, 0.4, &mut StdRng::seed_from_u64(5));
        let atoms = arcs(&[(1, 4), (2, 4), (3, 4)]);
        let join = CsrJoin::new(&atoms, &[1, 2, 3, 4], 3);
        let (mut s, mut out) = (JoinScratch::default(), CoordList::new(1));
        assert_eq!(join.run(&g, 50, &mut s, &mut out), Err(51));
        join.run(&g, usize::MAX, &mut s, &mut out).unwrap();
        assert!(out.len() > 50);
        assert_eq!(to_dense(&out, 12 * 12 * 12), dense_multiway(&g, &atoms, &[1, 2, 3, 4], 3));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The CSR join matches the dense reference on random cyclic
        /// atom sets with random arc directions, an optional equality
        /// atom, random orders and free prefixes, on random digraphs.
        #[test]
        fn multiway_matches_dense_reference(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 2 + (seed % 4) as usize;
            // Cyclic hypergraphs: triangle, 4-cycle, 4-clique, and a
            // triangle sharing an edge with a path.
            let pairs: Vec<(Var, Var)> = match seed % 4 {
                0 => vec![(1, 2), (2, 3), (1, 3)],
                1 => vec![(1, 2), (2, 3), (3, 4), (1, 4)],
                2 => vec![(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
                _ => vec![(1, 2), (2, 3), (1, 3), (3, 4)],
            };
            let mut atoms: Vec<JoinAtom> = pairs
                .iter()
                .map(|&(a, b)| if rng.gen_bool(0.5) {
                    JoinAtom::Arc { from: a, to: b }
                } else {
                    JoinAtom::Arc { from: b, to: a }
                })
                .collect();
            if rng.gen_bool(0.3) {
                atoms.push(JoinAtom::Eq(2, 1));
            }
            let all: Vec<Var> = { let mut a: Vec<Var> =
                pairs.iter().flat_map(|&(a, b)| [a, b]).collect(); a.sort_unstable(); a.dedup(); a };
            let n_free = (seed / 4) as usize % (all.len() + 1);
            // order = free prefix (ascending) + a rotation of the rest.
            let mut order: Vec<Var> = all[..n_free].to_vec();
            let mut rest: Vec<Var> = all[n_free..].to_vec();
            let rot = (seed % 7) as usize % rest.len().max(1);
            rest.rotate_left(rot);
            order.append(&mut rest);
            let g = random_digraph(n, 0.45, &mut rng);
            let out = run_join(&g, &atoms, &order, n_free);
            prop_assert!(out.is_strictly_sorted());
            let want = dense_multiway(&g, &atoms, &order, n_free);
            prop_assert_eq!(to_dense(&out, want.len()), want);
        }

        /// Join result matches the dense product and satisfies the
        /// sorted/dedup invariant, across overlapping variable sets.
        #[test]
        fn join_matches_dense_reference(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 2 + (seed % 4) as usize;
            // Variable sets with varying overlap: {1,2}/{2,3}, {1,3}/{1,3},
            // {1,2,3}/{3,4}, {2}/{1,2}.
            let (av, bv): (Vec<Var>, Vec<Var>) = match seed % 4 {
                0 => (vec![1, 2], vec![2, 3]),
                1 => (vec![1, 3], vec![1, 3]),
                2 => (vec![1, 2, 3], vec![3, 4]),
                _ => (vec![2], vec![1, 2]),
            };
            let (a, da) = random_factor(&av, n, 0.4, &mut rng);
            let (b, db) = random_factor(&bv, n, 0.4, &mut rng);
            let mut out = CoordList::new(1);
            let mut uv = Vec::new();
            join_multiply(&a, &av, &b, &bv, n, &mut JoinScratch::default(), &mut out, &mut uv);
            prop_assert!(out.is_strictly_sorted(), "join output must be sorted + deduped");
            let want = dense_join(&da, &av, &db, &bv, &uv, n);
            // The sparse join stores exactly the support intersection;
            // explicit zeros cannot arise from positive integer values.
            prop_assert_eq!(to_dense(&out, want.len()), want);
        }

        /// Contraction matches the dense marginal and keeps the
        /// invariant, for every digit position.
        #[test]
        fn contract_matches_dense_reference(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 2 + (seed % 4) as usize;
            let vars: Vec<Var> = vec![1, 2, 3];
            let (f, df) = random_factor(&vars, n, 0.4, &mut rng);
            if f.is_empty() { return; }
            let var = vars[(seed % 3) as usize];
            let mut out = CoordList::new(1);
            contract_sum(&f, &vars, var, n, &mut JoinScratch::default(), &mut out);
            prop_assert!(out.is_strictly_sorted());
            // Dense marginal.
            let keep: Vec<Var> = vars.iter().copied().filter(|&v| v != var).collect();
            let mut want = vec![0.0; npow(n, keep.len())];
            let mut digits = vec![0usize; vars.len()];
            for (c, &v) in df.iter().enumerate() {
                digits_of(c, n, &mut digits);
                let k = keep.iter().fold(0, |acc, kv| {
                    acc * n + digits[vars.iter().position(|v2| v2 == kv).unwrap()]
                });
                want[k] += v;
            }
            let got = to_dense(&out, want.len());
            // Entries that fold to zero are absent sparse-side; values
            // here are positive integers so that cannot happen.
            prop_assert_eq!(got, want);
        }

        /// Out-of-order pushes + sort restore the invariant and lose
        /// nothing.
        #[test]
        fn sort_entries_restores_invariant(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let dim = 1 + (seed % 3) as usize;
            let mut coords: Vec<usize> = (0..40).collect();
            // Shuffle.
            for i in (1..coords.len()).rev() {
                coords.swap(i, rng.gen_range(0..=i));
            }
            let mut cl = CoordList::new(dim);
            for &c in coords.iter().take(17) {
                let row: Vec<f64> = (0..dim).map(|j| (c * dim + j) as f64).collect();
                cl.push(c, &row);
            }
            cl.sort_entries(&mut JoinScratch::default());
            prop_assert!(cl.is_strictly_sorted());
            // Every entry still carries its own row.
            for (i, &c) in cl.coords().iter().enumerate() {
                let want: Vec<f64> = (0..dim).map(|j| (c * dim + j) as f64).collect();
                prop_assert_eq!(cl.value(i), &want[..]);
            }
        }
    }
}
