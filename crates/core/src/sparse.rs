//! Sparse embedding tables: sorted coordinate lists and the sorted
//! merge-join / contraction kernels behind the compiled evaluator's
//! sparse execution paths (`crate::plan`).
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
//! DESIGN.md §6.

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
/// [`CoordList::sort_entries`] — owned by the engine's scratch so the
/// warmed sparse path stays allocation-free.
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
    /// Worst-case-optimal join state ([`join_multiway`]): per-factor
    /// per-trie-level digit strides …
    wco_strides: Vec<Vec<usize>>,
    /// … the `(factor, trie level)` pairs active at each order depth …
    wco_active: Vec<Vec<(u32, u32)>>,
    /// … per-factor stacks of trie ranges (one frame per bound level) …
    wco_ranges: Vec<Vec<(usize, usize)>>,
    /// … per-depth leapfrog iterator blocks (reused across the
    /// recursion so a `descend` call never zero-initialises scratch) …
    wco_iters: Vec<Vec<LfIter>>,
    /// … the key radix of each factor (`n.next_power_of_two()` on the
    /// shift/mask fast path, `n` on the division fallback) …
    wco_radix: Vec<usize>,
    /// … and the output-coordinate stride of each free-prefix depth.
    wco_out_strides: Vec<usize>,
}

/// One factor's leapfrog iterator at one join depth: a cursor into the
/// factor's trie-ordered coordinate array, restricted to the subtree
/// `cur..hi` selected by the already-bound prefix. `base` is the packed
/// key of that prefix, so the entries binding vertex `v` at this level
/// occupy the half-open raw-key range `[base + v*below, base +
/// (v+1)*below)` — every seek is a `partition_point` over plain
/// `usize` keys with no division in the probe. `dig` caches the vertex
/// bound by the entry at `cur` (one division per seek, not per probe).
#[derive(Debug, Clone, Copy)]
struct LfIter {
    /// Factor index.
    f: u32,
    /// Digit shift of this trie level (shift/mask radix only).
    shift: u32,
    /// Current entry, end of the matched run, and subtree end.
    cur: usize,
    end: usize,
    hi: usize,
    /// Key stride of this trie level (`radix^(q-1-level)`).
    below: usize,
    /// Packed key of the bound prefix (digits above this level).
    base: usize,
    /// Vertex bound by the entry at `cur`.
    dig: usize,
    /// Digit mask (`radix - 1`); zero selects the division fallback.
    mask: usize,
}

impl LfIter {
    /// The vertex bound by raw key `key` at this iterator's level.
    #[inline]
    fn dig_of(&self, key: usize) -> usize {
        if self.mask != 0 {
            (key >> self.shift) & self.mask
        } else {
            (key - self.base) / self.below
        }
    }
}

/// First index in `coords[lo..hi]` whose key is `>= target`, assuming
/// `coords[lo] < target`: exponential probe forward from `lo`, then a
/// binary search of the last doubling window. Leapfrog seeks usually
/// land a handful of entries ahead, so this is `O(log distance)`
/// instead of `O(log (hi - lo))`.
#[inline]
fn gallop(coords: &[usize], lo: usize, hi: usize, target: usize) -> usize {
    debug_assert!(lo < hi && coords[lo] < target);
    let mut step = 1usize;
    let mut base = lo;
    while base + step < hi && coords[base + step] < target {
        base += step;
        step <<= 1;
    }
    let end = (base + step + 1).min(hi);
    base + coords[base..end].partition_point(|&k| k < target)
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

/// Factor-count cap of [`join_multiway`], matching its stack-local
/// iterator arrays (expression arity bounds the factor count long
/// before this).
pub const MAX_WCO_FACTORS: usize = 32;

/// Worst-case-optimal multiway join (leapfrog-triejoin style): joins
/// all scalar `factors` at once by intersecting, variable by variable
/// in the shared `order`, the candidate vertices of every factor
/// containing that variable — then sums the per-assignment products
/// over `order[n_free..]` into a scalar output over the free prefix
/// `order[..n_free]` (which must be the output variables in ascending
/// order, so results emerge in dense layout order without a final
/// sort; `n_free == 0` folds everything into coordinate 0).
///
/// Each factor is viewed as a *trie*: its sorted coordinate array,
/// re-keyed in place so the mixed-radix digits follow the factor's
/// variables in global-order position ("trie order" — a no-op for
/// factors whose variables already ascend with the order). Level `l`
/// of the trie is then digit `l` of the key, and a subtree is a
/// contiguous key range, so the per-variable intersection is a
/// leapfrog over `partition_point` range splits — no hashing, no
/// materialized intermediates. Total work is bounded by the AGM
/// fractional-cover bound of the factor hypergraph (Ngo–Porat–Ré–Rudra;
/// `gel_graph::elim::agm_cover_log_bound` computes the planning-side
/// estimate), which for cyclic joins is asymptotically below any
/// binary join plan.
///
/// Requirements: scalar factors (`dim == 1`), every variable of every
/// factor present in `order`, every `order` variable present in at
/// least one factor, at most [`MAX_WCO_FACTORS`] factors. All state
/// lives in `s`, so the warmed path allocates nothing.
///
/// Determinism: assignments are enumerated in lexicographic `order`;
/// the callers (`plan.rs`) restrict the kernel to integer-valued
/// indicator factors, where re-associating the eliminated sums is
/// exact — the same contract as [`join_multiply`] / [`contract_sum`].
///
/// Returns the number of leapfrog seeks performed (an obs metric).
pub fn join_multiway(
    factors: &mut [CoordList],
    factor_vars: &[Vec<Var>],
    order: &[Var],
    n_free: usize,
    n: usize,
    s: &mut JoinScratch,
    out: &mut CoordList,
) -> u64 {
    let nf = factors.len();
    assert_eq!(factor_vars.len(), nf, "one variable list per factor");
    assert!(nf <= MAX_WCO_FACTORS, "too many factors in multiway join");
    assert!(n_free <= order.len(), "free prefix within order");
    debug_assert!(order[..n_free].windows(2).all(|w| w[0] < w[1]), "free prefix ascending");
    out.reset(1);
    if nf == 0 {
        return 0;
    }

    // Per-depth active lists and per-factor range stacks.
    while s.wco_active.len() < order.len() {
        s.wco_active.push(Vec::new());
    }
    for a in s.wco_active[..order.len()].iter_mut() {
        a.clear();
    }
    while s.wco_strides.len() < nf {
        s.wco_strides.push(Vec::new());
    }
    while s.wco_ranges.len() < nf {
        s.wco_ranges.push(Vec::new());
    }
    while s.wco_iters.len() < order.len() {
        s.wco_iters.push(Vec::new());
    }

    // Digit radix per factor: rounding `n` up to a power of two makes
    // every hot-loop digit extraction a shift/mask instead of a
    // div/mod. When `n` is itself a power of two (the common bench and
    // partition sizes) the packed keys are numerically unchanged, so
    // identity-order factors skip the repack entirely; otherwise the
    // repack rides the same decode pass as the trie re-key. Factors
    // whose widened key would overflow 63 bits keep base-`n` keys and
    // the division path.
    let nb = n.next_power_of_two();
    let shift = nb.trailing_zeros() as usize;
    s.wco_radix.clear();

    let mut empty = false;
    for (f, vars) in factor_vars.iter().enumerate() {
        assert_eq!(factors[f].dim, 1, "join_multiway is scalar");
        debug_assert!(vars.windows(2).all(|w| w[0] < w[1]));
        let q = vars.len();
        assert!(q <= MAX_JOIN_VARS, "too many variables in sparse join");
        let radix = if q * shift <= 63 { nb } else { n };
        s.wco_radix.push(radix);
        // Global order position of each variable, and its trie level
        // (rank of that position among the factor's own variables).
        let mut pos = [0usize; MAX_JOIN_VARS];
        for (i, v) in vars.iter().enumerate() {
            pos[i] = order.iter().position(|o| o == v).expect("factor variable in order");
        }
        let mut kstr = [0usize; MAX_JOIN_VARS];
        let mut identity = true;
        for i in 0..q {
            let level = (0..q).filter(|&j| pos[j] < pos[i]).count();
            if level != i {
                identity = false;
            }
            kstr[i] = npow(radix, q - 1 - level);
            s.wco_active[pos[i]].push((f as u32, level as u32));
        }
        // Trie view: re-key the sorted coordinates to trie order (and
        // into the widened radix when it differs from `n`).
        if !identity || radix != n {
            let mut digits = [0usize; MAX_JOIN_VARS];
            for c in factors[f].coords.iter_mut() {
                digits_of(*c, n, &mut digits[..q]);
                *c = digits[..q].iter().zip(&kstr[..q]).map(|(d, st)| d * st).sum();
            }
            if !identity {
                factors[f].sort_entries(s);
            }
            debug_assert!(factors[f].is_strictly_sorted());
        }
        let st = &mut s.wco_strides[f];
        st.clear();
        st.extend((0..q).map(|l| npow(radix, q - 1 - l)));
        let r = &mut s.wco_ranges[f];
        r.clear();
        r.push((0, factors[f].len()));
        empty |= factors[f].is_empty();
    }
    if empty {
        return 0;
    }
    assert!(
        s.wco_active[..order.len()].iter().all(|a| !a.is_empty()),
        "every order variable must appear in a factor"
    );
    s.wco_out_strides.clear();
    s.wco_out_strides.extend((0..n_free).map(|d| npow(n, n_free - 1 - d)));

    let mut ctx = WcoCtx {
        factors,
        strides: &s.wco_strides,
        radix: &s.wco_radix,
        active: &s.wco_active,
        out_strides: &s.wco_out_strides,
        ranges: &mut s.wco_ranges,
        iters: &mut s.wco_iters,
        out,
        order_len: order.len(),
        n_free,
        nf,
        seeks: 0,
    };
    ctx.descend(0, 0);
    let seeks = ctx.seeks;
    debug_assert!(out.is_strictly_sorted());
    seeks
}

/// Recursion state of [`join_multiway`]. Shared-reference fields are
/// copied out of `self` before recursing, so only `ranges`/`out`/
/// `seeks` are touched through `&mut self`.
struct WcoCtx<'a> {
    factors: &'a [CoordList],
    strides: &'a [Vec<usize>],
    radix: &'a [usize],
    active: &'a [Vec<(u32, u32)>],
    out_strides: &'a [usize],
    ranges: &'a mut [Vec<(usize, usize)>],
    iters: &'a mut [Vec<LfIter>],
    out: &'a mut CoordList,
    order_len: usize,
    n_free: usize,
    nf: usize,
    seeks: u64,
}

impl WcoCtx<'_> {
    fn descend(&mut self, d: usize, out_coord: usize) {
        if d == self.order_len {
            // Full assignment: every factor's range is one entry.
            let mut prod = 1.0;
            for f in 0..self.nf {
                let &(lo, hi) = self.ranges[f].last().expect("range per bound level");
                debug_assert_eq!(hi, lo + 1, "full trie key is unique");
                prod *= self.factors[f].values[lo];
            }
            // The free prefix is enumerated lexicographically, so the
            // output coordinate is non-decreasing: accumulate into the
            // last entry or append.
            if self.out.coords.last() == Some(&out_coord) {
                *self.out.values.last_mut().expect("entry exists") += prod;
            } else {
                debug_assert!(self.out.coords.last().is_none_or(|&c| c < out_coord));
                self.out.push1(out_coord, prod);
            }
            return;
        }
        let factors = self.factors;
        let free_stride = if d < self.n_free { self.out_strides[d] } else { 0 };

        // Leapfrog iterators over the active factors' current ranges.
        // The per-depth block is taken out of the scratch for the
        // duration of this call (deeper recursion uses deeper blocks)
        // and restored on every exit path.
        let mut its = std::mem::take(&mut self.iters[d]);
        its.clear();
        for &(f, l) in &self.active[d] {
            let fu = f as usize;
            let &(lo, hi) = self.ranges[fu].last().expect("range per bound level");
            if lo == hi {
                self.iters[d] = its;
                return;
            }
            let below = self.strides[fu][l as usize];
            let radix = self.radix[fu];
            let key = factors[fu].coords[lo];
            let (base, shift, mask) = if radix.is_power_of_two() {
                let shift = below.trailing_zeros();
                (key & !(below * radix - 1), shift, radix - 1)
            } else {
                (key - key % (below * radix), 0, 0)
            };
            let mut it = LfIter { f, shift, cur: lo, end: lo, hi, below, base, dig: 0, mask };
            it.dig = it.dig_of(key);
            its.push(it);
        }
        'outer: loop {
            // The largest current candidate vertex across factors.
            let mut vmax = 0usize;
            for it in its.iter() {
                if it.dig > vmax {
                    vmax = it.dig;
                }
            }
            // Leapfrog everyone up to it; an overshoot raises the bar
            // and restarts the pass. Seek targets are raw packed keys
            // (`base + v*below`), so the gallop compares plain
            // integers; the cached `dig` recompute per landed seek is a
            // shift/mask (or one division on the wide-key fallback).
            let mut matched = true;
            for it in its.iter_mut() {
                if it.dig < vmax {
                    let coords = &factors[it.f as usize].coords;
                    let target = it.base + vmax * it.below;
                    it.cur = gallop(coords, it.cur, it.hi, target);
                    self.seeks += 1;
                    if it.cur == it.hi {
                        break 'outer;
                    }
                    it.dig = it.dig_of(coords[it.cur]);
                    if it.dig > vmax {
                        matched = false;
                    }
                }
            }
            if !matched {
                continue;
            }
            // All factors agree on vertex `vmax`: bind it, recurse into
            // the matching subtries, then advance past them.
            for it in its.iter_mut() {
                let coords = &factors[it.f as usize].coords;
                let stop = it.base + (vmax + 1) * it.below;
                it.end = gallop(coords, it.cur, it.hi, stop);
                self.ranges[it.f as usize].push((it.cur, it.end));
            }
            self.descend(d + 1, out_coord + vmax * free_stride);
            let mut exhausted = false;
            for it in its.iter_mut() {
                self.ranges[it.f as usize].pop();
                it.cur = it.end;
                if it.cur == it.hi {
                    exhausted = true;
                } else {
                    it.dig = it.dig_of(factors[it.f as usize].coords[it.cur]);
                }
            }
            if exhausted {
                break 'outer;
            }
        }
        self.iters[d] = its;
    }
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

    /// Dense reference of [`join_multiway`]'s semantics: enumerate all
    /// assignments of `order`, probe each factor at the coordinate of
    /// its own (ascending) variables, and fold products over the
    /// eliminated suffix into the free-prefix coordinate.
    fn dense_multiway(
        dense: &[Vec<f64>],
        factor_vars: &[Vec<Var>],
        order: &[Var],
        n_free: usize,
        n: usize,
    ) -> Vec<f64> {
        let p = order.len();
        let mut out = vec![0.0; npow(n, n_free)];
        let mut assign = vec![0usize; p];
        for cell in 0..npow(n, p) {
            digits_of(cell, n, &mut assign);
            let mut prod = 1.0;
            for (df, vars) in dense.iter().zip(factor_vars) {
                let c = vars
                    .iter()
                    .fold(0, |acc, v| acc * n + assign[order.iter().position(|o| o == v).unwrap()]);
                prod *= df[c];
            }
            let oc = (0..n_free).fold(0, |acc, d| acc * n + assign[d]);
            out[oc] += prod;
        }
        out
    }

    #[test]
    fn multiway_triangle_count_matches_dense() {
        let n = 5;
        let mut rng = StdRng::seed_from_u64(7);
        let vars: Vec<Vec<Var>> = vec![vec![1, 2], vec![2, 3], vec![1, 3]];
        let (mut factors, dense): (Vec<CoordList>, Vec<Vec<f64>>) =
            vars.iter().map(|v| random_factor(v, n, 0.5, &mut rng)).unzip();
        let mut out = CoordList::new(1);
        let mut s = JoinScratch::default();
        // Fully aggregated: n_free = 0, scalar count at coordinate 0.
        join_multiway(&mut factors, &vars, &[1, 2, 3], 0, n, &mut s, &mut out);
        let want = dense_multiway(&dense, &vars, &[1, 2, 3], 0, n);
        assert_eq!(to_dense(&out, 1), want);
        assert!(out.is_strictly_sorted());
    }

    #[test]
    fn multiway_free_prefix_emits_sorted_per_vertex_counts() {
        let n = 4;
        let mut rng = StdRng::seed_from_u64(11);
        let vars: Vec<Vec<Var>> = vec![vec![1, 2], vec![2, 3], vec![1, 3]];
        let (mut factors, dense): (Vec<CoordList>, Vec<Vec<f64>>) =
            vars.iter().map(|v| random_factor(v, n, 0.5, &mut rng)).unzip();
        let mut out = CoordList::new(1);
        let mut s = JoinScratch::default();
        // x1 free: per-vertex incident-triangle weights, eliminated
        // vars ordered 3 before 2 to exercise a non-ascending suffix.
        join_multiway(&mut factors, &vars, &[1, 3, 2], 1, n, &mut s, &mut out);
        assert!(out.is_strictly_sorted());
        let want = dense_multiway(&dense, &vars, &[1, 3, 2], 1, n);
        assert_eq!(to_dense(&out, n), want);
    }

    #[test]
    fn multiway_empty_factor_short_circuits() {
        let n = 3;
        let mut a = CoordList::new(1);
        a.push1(1, 1.0);
        let b = CoordList::new(1);
        let mut factors = vec![a, b];
        let vars: Vec<Vec<Var>> = vec![vec![1, 2], vec![2, 3]];
        let mut out = CoordList::new(1);
        let seeks = join_multiway(
            &mut factors,
            &vars,
            &[1, 2, 3],
            0,
            n,
            &mut JoinScratch::default(),
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(seeks, 0);
    }

    #[test]
    fn trie_rekey_preserves_entry_multiset() {
        let n = 4;
        let mut rng = StdRng::seed_from_u64(23);
        let vars: Vec<Vec<Var>> = vec![vec![1, 2], vec![2, 3], vec![1, 3]];
        let (mut factors, _): (Vec<CoordList>, Vec<Vec<f64>>) =
            vars.iter().map(|v| random_factor(v, n, 0.6, &mut rng)).unzip();
        let before: Vec<(usize, Vec<f64>)> = factors
            .iter()
            .map(|f| {
                let mut vals = f.values().to_vec();
                vals.sort_by(f64::total_cmp);
                (f.len(), vals)
            })
            .collect();
        let mut out = CoordList::new(1);
        // Order [3, 1, 2] forces a non-identity re-key of every factor.
        join_multiway(&mut factors, &vars, &[3, 1, 2], 0, n, &mut JoinScratch::default(), &mut out);
        for (f, (len, vals)) in factors.iter().zip(&before) {
            assert_eq!(f.len(), *len, "re-key must not add or drop entries");
            assert!(f.is_strictly_sorted());
            let mut got = f.values().to_vec();
            got.sort_by(f64::total_cmp);
            assert_eq!(&got, vals, "re-key must permute, not rewrite, values");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Multiway join matches the dense reference on random cyclic
        /// factor sets, orders, and free prefixes, and the trie re-key
        /// keeps every factor strictly sorted.
        #[test]
        fn multiway_matches_dense_reference(seed in 0u64..10_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 2 + (seed % 3) as usize;
            // Cyclic hypergraphs: triangle, 4-cycle, 4-clique, and a
            // triangle sharing an edge with a path.
            let vars: Vec<Vec<Var>> = match seed % 4 {
                0 => vec![vec![1, 2], vec![2, 3], vec![1, 3]],
                1 => vec![vec![1, 2], vec![2, 3], vec![3, 4], vec![1, 4]],
                2 => vec![
                    vec![1, 2], vec![1, 3], vec![1, 4], vec![2, 3], vec![2, 4], vec![3, 4],
                ],
                _ => vec![vec![1, 2], vec![2, 3], vec![1, 3], vec![3, 4]],
            };
            let all: Vec<Var> = { let mut a: Vec<Var> =
                vars.iter().flatten().copied().collect(); a.sort_unstable(); a.dedup(); a };
            let n_free = (seed / 4 % 3) as usize % all.len();
            // order = free prefix (ascending) + a rotation of the rest.
            let mut order: Vec<Var> = all[..n_free].to_vec();
            let mut rest: Vec<Var> = all[n_free..].to_vec();
            let rot = (seed % 7) as usize % rest.len().max(1);
            rest.rotate_left(rot);
            order.append(&mut rest);
            let (mut factors, dense): (Vec<CoordList>, Vec<Vec<f64>>) =
                vars.iter().map(|v| random_factor(v, n, 0.4, &mut rng)).unzip();
            let mut out = CoordList::new(1);
            join_multiway(&mut factors, &vars, &order, n_free, n,
                          &mut JoinScratch::default(), &mut out);
            prop_assert!(out.is_strictly_sorted());
            for f in &factors {
                prop_assert!(f.is_strictly_sorted(), "trie re-key must keep factors sorted");
            }
            let want = dense_multiway(&dense, &vars, &order, n_free, n);
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
