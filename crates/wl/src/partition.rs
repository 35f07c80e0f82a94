//! Colourings and partitions shared by every refinement algorithm in
//! this crate.
//!
//! A *colouring* assigns a small-integer colour to every element
//! (vertex or k-tuple). Refinement rounds build a *signature* per
//! element and then canonically rename signatures to fresh colour ids
//! by **sorted order**, not hash order — this makes colour ids
//! deterministic and comparable across graphs refined jointly, which is
//! how the experiment harness decides `ρ`-equivalence of two graphs
//! without running the algorithm on their disjoint union.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use rayon::prelude::*;

/// A colour id. Ids are dense (`0..num_colors`) after each renaming.
pub type Color = u32;

/// Elements per renaming below this stay serial; above it (and with
/// more than one thread configured) the signature sort fans out into
/// per-thread sorted runs merged serially.
const RENAME_PAR_THRESHOLD: usize = 1 << 12;

/// *Regrowth* events of the reusable refinement scratch (arenas, rename
/// tables, colour vectors): a buffer that already held something had to
/// grow. The first couple of rounds legitimately bump this while the
/// partition is still splitting (signatures widen as colours multiply);
/// rounds past that sizing phase must not — the
/// `gel-bench --bench wl -- --smoke` gate diffs this counter around
/// refinement calls to assert it.
///
/// First-use sizing of a fresh buffer (capacity 0 → sized) is counted
/// separately in [`SCRATCH_INIT_ALLOCS`]. Before that split, every
/// per-call warm-up allocation landed here, and the suite-level
/// `wl_allocs_per_round` metric reported 3.4 allocations per round for
/// refinement that was genuinely allocation-free in the steady state —
/// the suite runs hundreds of short fresh-scratch refinements, so
/// first-use sizing dominated the numerator.
pub static SCRATCH_ALLOCS: gel_obs::Counter = gel_obs::Counter::new("wl.scratch.allocs");

/// First-use sizing events of refinement scratch: a fresh (capacity 0)
/// buffer got its initial allocation. Proportional to the number of
/// refinement *calls*, not rounds, since every call constructs its own
/// scratch.
pub static SCRATCH_INIT_ALLOCS: gel_obs::Counter = gel_obs::Counter::new("wl.scratch.init_allocs");

/// Refinement rounds executed (colour refinement, k-WL and relational
/// CR all count here; reported as `kwl_rounds` in the bench JSON).
pub static REFINE_ROUNDS: gel_obs::Counter = gel_obs::Counter::new("wl.refine.rounds");

/// Ensures `v` can hold `cap` items without reallocating, counting
/// first-use sizing through [`SCRATCH_INIT_ALLOCS`] and growth of an
/// in-use buffer through [`SCRATCH_ALLOCS`], so the zero-allocation
/// smoke gate can observe steady-state behaviour without per-call
/// warm-up noise.
pub(crate) fn reserve_tracked<T>(v: &mut Vec<T>, cap: usize) {
    if v.capacity() < cap {
        if v.capacity() == 0 {
            SCRATCH_INIT_ALLOCS.incr();
        } else {
            SCRATCH_ALLOCS.incr();
        }
        v.reserve(cap - v.len());
    }
}

/// Canonically renames arbitrary signatures to dense colour ids.
///
/// Signatures are renamed by sorted order so that the resulting ids are
/// canonical: two elements (possibly in different graphs) receive the
/// same colour iff their signatures are equal.
pub fn canonical_rename<S: Ord>(signatures: Vec<S>) -> (Vec<Color>, usize) {
    let mut sorted: Vec<&S> = signatures.iter().collect();
    sorted.sort();
    let mut ids: BTreeMap<&S, Color> = BTreeMap::new();
    for s in sorted {
        let next = ids.len() as Color;
        ids.entry(s).or_insert(next);
    }
    let n = ids.len();
    (signatures.iter().map(|s| ids[s]).collect(), n)
}

/// A stable colouring of the vertices (or tuples) of several graphs
/// refined jointly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coloring {
    /// Per-graph colour vectors; `colors[g][v]` is the colour of
    /// element `v` of graph `g`.
    pub colors: Vec<Vec<Color>>,
    /// Total number of distinct colours across all graphs.
    pub num_colors: usize,
    /// Number of refinement rounds executed until stabilization.
    pub rounds: usize,
}

impl Coloring {
    /// The colour histogram of graph `g`: `hist[c]` = how many elements
    /// of graph `g` have colour `c`.
    pub fn histogram(&self, g: usize) -> Vec<usize> {
        let mut h = vec![0usize; self.num_colors];
        for &c in &self.colors[g] {
            h[c as usize] += 1;
        }
        h
    }

    /// Two graphs are indistinguishable at the *graph level* iff their
    /// colour histograms agree (same multiset of stable colours) — the
    /// graph-level `ρ` of the paper (slide 50: "a graph will get a
    /// color based on the multiset of colors of all its vertices").
    pub fn graphs_equivalent(&self, g1: usize, g2: usize) -> bool {
        self.histogram(g1) == self.histogram(g2)
    }

    /// Number of colour classes within graph `g`.
    pub fn classes_in(&self, g: usize) -> usize {
        let mut present = vec![false; self.num_colors];
        for &c in &self.colors[g] {
            present[c as usize] = true;
        }
        present.iter().filter(|&&b| b).count()
    }
}

/// A flat arena of packed, per-element signatures.
///
/// Every element owns a contiguous run of words in `data`; element `i`
/// spans `data[starts[i]..starts[i + 1]]`. All elements of one arena
/// have the same number of *sections* (e.g. a CR signature is three
/// sections: own colour, out-neighbour multiset, in-neighbour
/// multiset).
///
/// Two encodings are used by the refinement engines:
///
/// * **Key arenas** (`SigArena<u64>`): round-0 signatures (atomic
///   types, label keys). One section per element, compared as plain
///   slices — identical to the `Vec<u64>` ordering of the naive path.
/// * **Digit arenas** (`SigArena<u32>`): round signatures over dense
///   colour ids. Each colour `c` is stored as the digit `c + 1` and
///   every section is closed by a `0` sentinel. Because the sentinel
///   is smaller than any digit, *flat* lexicographic comparison of two
///   digit streams reproduces the section-wise tuple ordering of the
///   naive signatures exactly (a shorter section that is a prefix of a
///   longer one compares smaller), so colour ids come out bit-identical
///   to the `BTreeMap`-based renaming this replaces.
///
/// All buffers are reused across rounds: [`SigArena::set_layout`] and
/// the fill only allocate when the arena grows (tracked by
/// [`SCRATCH_ALLOCS`]), so steady-state refinement rounds are
/// allocation-free.
#[derive(Debug, Default)]
pub struct SigArena<T = u32> {
    data: Vec<T>,
    starts: Vec<u32>,
    /// Parallel-fill part boundaries (element index / word offset),
    /// kept here so repeated fills do not reallocate.
    part_elems: Vec<usize>,
    part_words: Vec<usize>,
}

impl<T: Copy + Default + Send> SigArena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Self {
            data: Vec::new(),
            starts: Vec::new(),
            part_elems: Vec::new(),
            part_words: Vec::new(),
        }
    }

    /// Number of elements in the current layout.
    pub fn len(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// True when the arena holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element start offsets (`len() + 1` entries).
    pub fn starts(&self) -> &[u32] {
        &self.starts
    }

    /// The packed words of element `i`.
    pub fn elem(&self, i: usize) -> &[T] {
        &self.data[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Rebuilds the element layout from per-element widths and sizes
    /// the data buffer to match. Widths are fixed for a whole
    /// refinement run (they depend only on degrees / tuple-space
    /// shape), so engines call this once and refill in place each
    /// round.
    pub fn set_layout(&mut self, widths: impl Iterator<Item = usize>) {
        let (lo, _) = widths.size_hint();
        reserve_tracked(&mut self.starts, lo + 1);
        self.starts.clear();
        self.starts.push(0);
        let mut total = 0usize;
        for w in widths {
            total += w;
            assert!(total <= u32::MAX as usize, "signature arena exceeds u32 offsets");
            self.starts.push(total as u32);
        }
        reserve_tracked(&mut self.data, total);
        self.data.resize(total, T::default());
    }

    /// Fills every element in place: `f(i, slice)` receives element
    /// `i`'s mutable words. With `parallel` set (and more than one
    /// thread configured) elements are split into per-thread contiguous
    /// parts aligned to element boundaries; content is written by
    /// position, so the result is bit-identical at any thread count.
    pub fn fill(&mut self, parallel: bool, f: impl Fn(usize, &mut [T]) + Sync) {
        let n = self.len();
        if n == 0 {
            return;
        }
        let threads = if parallel { rayon::current_num_threads().min(n) } else { 1 };
        let Self { data, starts, part_elems, part_words } = self;
        if threads <= 1 {
            for e in 0..n {
                f(e, &mut data[starts[e] as usize..starts[e + 1] as usize]);
            }
            return;
        }
        reserve_tracked(part_elems, threads + 1);
        reserve_tracked(part_words, threads + 1);
        part_elems.clear();
        part_words.clear();
        for t in 0..=threads {
            let e = n * t / threads;
            part_elems.push(e);
            part_words.push(starts[e] as usize);
        }
        let starts = &starts[..];
        let part_elems = &part_elems[..];
        rayon::par_parts_mut(data, part_words, |t, part| {
            let base = starts[part_elems[t]] as usize;
            for e in part_elems[t]..part_elems[t + 1] {
                let lo = starts[e] as usize - base;
                let hi = starts[e + 1] as usize - base;
                f(e, &mut part[lo..hi]);
            }
        });
    }
}

/// Sorts `buf`, viewed as consecutive chunks of `k` words, into
/// lexicographically ascending chunk order — the in-place multiset
/// sort of the folklore k-WL signature. Small fixed `k` reinterprets
/// the buffer as `[u32; K]` arrays (same layout, alignment and
/// ordering) so `sort_unstable` runs without any indirection.
pub(crate) fn sort_chunks(buf: &mut [u32], k: usize) {
    debug_assert_eq!(buf.len() % k.max(1), 0);
    fn cast_sort<const K: usize>(buf: &mut [u32]) {
        let n = buf.len() / K;
        // SAFETY: `[u32; K]` has u32 alignment and size `4K`; the
        // length is an exact multiple of `K`.
        let arr = unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<[u32; K]>(), n) };
        arr.sort_unstable();
    }
    match k {
        0 | 1 => buf.sort_unstable(),
        2 => cast_sort::<2>(buf),
        3 => cast_sort::<3>(buf),
        4 => cast_sort::<4>(buf),
        5 => cast_sort::<5>(buf),
        6 => cast_sort::<6>(buf),
        _ => {
            // Rare (k > 6 tuple spaces are out of reach anyway):
            // insertion sort over chunks, swapping word blocks.
            let n = buf.len() / k;
            for i in 1..n {
                let mut j = i;
                while j > 0 && buf[(j - 1) * k..j * k] > buf[j * k..(j + 1) * k] {
                    for w in 0..k {
                        buf.swap((j - 1) * k + w, j * k + w);
                    }
                    j -= 1;
                }
            }
        }
    }
}

#[inline]
fn cmp_elems<T: Ord>(data: &[T], starts: &[u32], a: u32, b: u32) -> Ordering {
    let sa = &data[starts[a as usize] as usize..starts[a as usize + 1] as usize];
    let sb = &data[starts[b as usize] as usize..starts[b as usize + 1] as usize];
    sa.cmp(sb)
}

/// Canonical renaming engine over [`SigArena`]s: assigns dense colour
/// ids in sorted signature order, exactly as [`canonical_rename`] does,
/// but allocation-free in the steady state and without any tree map —
/// a counting-sort pass over the leading digit (colours are dense, so
/// it is a perfect bucket key) followed by per-bucket unstable sorts of
/// integer slices; large element spaces instead sort per-thread runs in
/// parallel and merge them serially, which yields the same ids at any
/// thread count (ids depend only on signature *values*, never on the
/// order of equal elements).
#[derive(Debug, Default)]
pub struct Renamer {
    order: Vec<u32>,
    tmp: Vec<u32>,
    counts: Vec<u32>,
    run_heads: Vec<(usize, usize)>,
}

impl Renamer {
    /// A fresh renamer; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Renames a key arena (round-0 signatures, one section per
    /// element) by comparison sort. Returns the number of distinct
    /// colours; `out[i]` is element `i`'s colour.
    pub fn rename_keys<T: Copy + Default + Ord + Send + Sync>(
        &mut self,
        arena: &SigArena<T>,
        out: &mut Vec<Color>,
    ) -> usize {
        let _t = gel_obs::span("wl.rename");
        let n = arena.len();
        reserve_tracked(out, n);
        out.resize(n, 0);
        if n == 0 {
            return 0;
        }
        reserve_tracked(&mut self.order, n);
        self.order.clear();
        self.order.extend(0..n as u32);
        let (data, starts) = (&arena.data[..], &arena.starts[..]);
        if n >= RENAME_PAR_THRESHOLD && rayon::current_num_threads() > 1 {
            self.par_sort(data, starts);
        } else {
            self.order.sort_unstable_by(|&a, &b| cmp_elems(data, starts, a, b));
        }
        assign_ids(data, starts, &self.order, out)
    }

    /// Renames a digit arena (hot rounds). `first_digit_bound` is an
    /// exclusive upper bound on the leading digit (own colour + 1, so
    /// `num_colors + 1` suffices); it sizes the counting-sort buckets.
    pub fn rename_digits(
        &mut self,
        arena: &SigArena<u32>,
        first_digit_bound: usize,
        out: &mut Vec<Color>,
    ) -> usize {
        let _t = gel_obs::span("wl.rename");
        let n = arena.len();
        reserve_tracked(out, n);
        out.resize(n, 0);
        if n == 0 {
            return 0;
        }
        let (data, starts) = (&arena.data[..], &arena.starts[..]);
        reserve_tracked(&mut self.order, n);
        if n >= RENAME_PAR_THRESHOLD && rayon::current_num_threads() > 1 {
            self.order.clear();
            self.order.extend(0..n as u32);
            self.par_sort(data, starts);
        } else {
            // Counting sort on the leading digit (stable scatter) …
            // The bucket table is sized once for the worst case
            // (`num_colors` ≤ element count, so the bound never exceeds
            // `n + 1`) rather than to this round's bound, which grows
            // as the partition refines — resizing per round would leak
            // allocations into the steady state.
            let bound = first_digit_bound;
            reserve_tracked(&mut self.counts, bound.max(n + 1));
            self.counts.clear();
            self.counts.resize(bound, 0);
            for e in 0..n {
                self.counts[data[starts[e] as usize] as usize] += 1;
            }
            let mut acc = 0u32;
            for c in self.counts.iter_mut() {
                let start = acc;
                acc += *c;
                *c = start;
            }
            self.order.resize(n, 0);
            for e in 0..n {
                let d = data[starts[e] as usize] as usize;
                self.order[self.counts[d] as usize] = e as u32;
                self.counts[d] += 1;
            }
            // … then per-bucket unstable sorts on the remaining words.
            // After the scatter, counts[d] is the *end* of bucket d.
            let mut lo = 0usize;
            for d in 0..bound {
                let hi = self.counts[d] as usize;
                if hi - lo > 1 {
                    self.order[lo..hi].sort_unstable_by(|&a, &b| cmp_elems(data, starts, a, b));
                }
                lo = hi;
            }
        }
        assign_ids(data, starts, &self.order, out)
    }

    /// Parallel sort of `self.order`: per-thread contiguous runs sorted
    /// concurrently, then a serial multiway merge into `self.tmp`.
    fn par_sort<T: Ord + Send + Sync>(&mut self, data: &[T], starts: &[u32]) {
        let n = self.order.len();
        let threads = rayon::current_num_threads().min(n);
        let chunk = n.div_ceil(threads);
        self.order
            .par_chunks_mut(chunk)
            .for_each(|run| run.sort_unstable_by(|&a, &b| cmp_elems(data, starts, a, b)));
        reserve_tracked(&mut self.tmp, n);
        self.tmp.clear();
        reserve_tracked(&mut self.run_heads, threads);
        self.run_heads.clear();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + chunk).min(n);
            self.run_heads.push((lo, hi));
            lo = hi;
        }
        while self.tmp.len() < n {
            let mut best: Option<usize> = None;
            for (r, &(head, end)) in self.run_heads.iter().enumerate() {
                if head == end {
                    continue;
                }
                best = match best {
                    None => Some(r),
                    Some(b)
                        if cmp_elems(
                            data,
                            starts,
                            self.order[head],
                            self.order[self.run_heads[b].0],
                        ) == Ordering::Less =>
                    {
                        Some(r)
                    }
                    keep => keep,
                };
            }
            let r = best.expect("a non-empty run remains");
            self.tmp.push(self.order[self.run_heads[r].0]);
            self.run_heads[r].0 += 1;
        }
        std::mem::swap(&mut self.order, &mut self.tmp);
    }
}

/// Walks `order` (element indices in ascending signature order) and
/// assigns dense ids: equal signatures — which are adjacent after the
/// sort — share an id, ids increase in signature order. Returns the
/// number of distinct ids.
fn assign_ids<T: PartialEq>(data: &[T], starts: &[u32], order: &[u32], out: &mut [Color]) -> usize {
    let mut id: Color = 0;
    let mut prev = order[0] as usize;
    out[prev] = 0;
    for &oi in &order[1..] {
        let e = oi as usize;
        if data[starts[e] as usize..starts[e + 1] as usize]
            != data[starts[prev] as usize..starts[prev + 1] as usize]
        {
            id += 1;
        }
        out[e] = id;
        prev = e;
    }
    id as usize + 1
}

/// Quantizes an `ℝ^d` label into an exact, hashable/orderable key.
/// Labels in this workspace come from one-hot encodings or shared
/// generators, so bit-level equality is the intended semantics.
pub fn label_key(label: &[f64]) -> Vec<u64> {
    label.iter().map(|x| x.to_bits()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_is_canonical_in_sorted_order() {
        let (ids, n) = canonical_rename(vec!["b", "a", "b", "c"]);
        assert_eq!(n, 3);
        // "a" < "b" < "c" so ids are a=0, b=1, c=2.
        assert_eq!(ids, vec![1, 0, 1, 2]);
    }

    #[test]
    fn rename_equal_signatures_equal_ids() {
        let (ids, n) = canonical_rename(vec![vec![1u64, 2], vec![1, 2], vec![0, 9]]);
        assert_eq!(n, 2);
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[0], ids[2]);
    }

    #[test]
    fn histogram_and_equivalence() {
        let c = Coloring {
            colors: vec![vec![0, 1, 1], vec![1, 0, 1], vec![0, 0, 1]],
            num_colors: 2,
            rounds: 1,
        };
        assert_eq!(c.histogram(0), vec![1, 2]);
        assert!(c.graphs_equivalent(0, 1));
        assert!(!c.graphs_equivalent(0, 2));
        assert_eq!(c.classes_in(2), 2);
    }

    #[test]
    fn label_key_distinguishes_sign_of_zero() {
        // Exact bit semantics: -0.0 and 0.0 differ, which is fine for
        // our generated labels (never produce -0.0).
        assert_ne!(label_key(&[0.0]), label_key(&[-0.0]));
        assert_eq!(label_key(&[1.5, 2.0]), label_key(&[1.5, 2.0]));
    }
}
