//! Incremental colour refinement: a stable colouring maintained as a
//! live index under edge insertions and deletions.
//!
//! ## Why naive repair is wrong
//!
//! The tempting shortcut — re-refine from the *old stable partition*
//! with the edit endpoints split off — computes the coarsest stable
//! refinement of the wrong base partition and overshoots. Insert the
//! chord `{0, 3}` into a 6-cycle: the true stable partition is
//! `{0,3} | {1,2,4,5}`, but refining from the old (monochromatic)
//! partition with the endpoints split yields the strictly finer
//! `{0} | {3} | {1,5} | {2,4}`. Deletions can even *coarsen* the
//! stable partition, so no refinement of the old one can be right.
//!
//! ## The patched round trace
//!
//! What a fresh run actually produces is a *sequence* of rounds
//! `P_0, P_1, …, P_S` where `P_t` refines `P_{t−1}` and `P_S = P_{S−1}`
//! is the stable point. This engine stores that whole trace and, on an
//! edit, repairs it round by round with a worklist:
//!
//! * Round 0 depends only on labels — never dirty for edge edits.
//! * Round `t`'s colour of `v` depends on `v`'s round-`t−1` colour,
//!   its neighbours' round-`t−1` colours, and its adjacency. So the
//!   candidates at round `t` are the vertices whose round-`t−1`
//!   colour just changed, *their* in/out-neighbours, and the edit
//!   endpoints (whose adjacency changed at every round).
//! * Each round keeps a persistent signature table (`digest → colour
//!   id`, ids never reused) and its inverse (`id → digest`).
//!   Candidates recompute their digest against the patched previous
//!   round; then each group of equal new digest takes the id filed
//!   under it, or — when the digest is new and the group is all that
//!   carries some id — keeps that id and re-files it under the new
//!   digest (a *rename*), or else gets a fresh id (`Round::patch`).
//!   Only vertices whose id actually changes propagate to the next
//!   round.
//!
//! Renames are what keep repairs local. A digest hashes the
//! neighbours' *ids*, so a propagated id change reaches every
//! neighbour's next-round digest even when the class it names is
//! unchanged as a set. Round `t+1`'s partition depends only on round
//! `t`'s partition, not on its names: a singleton whose signature moved
//! is still the same singleton, and renaming it in place stops the
//! wave there. On an R-MAT graph of scale 19, each of 18 stream-edit
//! repairs changed the class membership of at most 31 vertices per
//! round (none after round 2), while propagating every id change
//! touched 18k–233k vertices in each of rounds 3–5.
//!
//! By induction, the repaired round `t` induces exactly the partition
//! a fresh run would compute — persistent ids just name the classes
//! differently, which the canonical dense renaming at the output
//! erases. That is the determinism contract: the stable colouring is
//! **bit-identical to a from-scratch recolouring at any thread
//! count** (repairs are serial; the fresh build parallelises only
//! position-independent digest fills).
//!
//! The trace ends at the first round whose class count equals its
//! predecessor's — refinement is monotone, so equal counts mean equal
//! partitions. Repairs recheck that stopping point: the trace is
//! truncated when stability now happens earlier and extended by full
//! rounds when an edit pushed it later.
//!
//! ## The global-cascade fallback
//!
//! Locality is a property of the *partition change*, not of the
//! edit's degree: a hub is usually a singleton class before and after
//! its edit, so it is renamed and its neighbours see nothing. Some
//! edits really do change the partition globally. In a random
//! 3-regular graph every vertex shares one class at every round; an
//! edit there splits that class a little further each round until the
//! whole regular part is refined, and a long path beside it keeps the
//! trace long, so every remaining round re-reads the whole part. No
//! repair scheme beats that honestly. Before each round the repair
//! adds the arcs its candidates will read to the arcs it has read so
//! far; once that exceeds one rebuild's `rounds × (n + arcs)` at the
//! serial repair's price per arc (`FALLBACK_COST`), the worklist is
//! abandoned and the trace rebuilt with the parallel fresh build
//! ([`INCR_FALLBACKS`] counts these). A global cascade thus costs
//! about one rebuild's worth of repair plus the rebuild, and local
//! ones never come near the budget.
//!
//! Signatures are 128-bit digests with commutative two-lane multiset
//! accumulation over neighbour colours (no per-vertex sorting), the
//! same collision posture as the WL cache fingerprints: a collision
//! could merge two classes, with probability ≈ 2⁻¹²⁸ per comparison —
//! negligible against any realistic workload.

use std::collections::HashMap;

use gel_graph::dynamic::DynGraph;
use gel_graph::{Graph, Vertex};
use rayon::prelude::*;

use crate::partition::{Color, Coloring};

/// Fresh trace builds (initial + explicit rebuilds).
pub static INCR_BUILDS: gel_obs::Counter = gel_obs::Counter::new("wl.incr.builds");
/// Edit repairs applied to a trace.
pub static INCR_REPAIRS: gel_obs::Counter = gel_obs::Counter::new("wl.incr.repairs");
/// Vertex ids that really changed across all repairs (the true work
/// metric — the incremental-vs-full speedup comes from this staying
/// near the edit's partition change instead of `n × rounds`).
pub static INCR_RECOLORED: gel_obs::Counter = gel_obs::Counter::new("wl.incr.recolored");
/// Classes re-keyed in place by a repair: their digest moved but their
/// membership did not, so their id (and every neighbour) stays put.
pub static INCR_RENAMES: gel_obs::Counter = gel_obs::Counter::new("wl.incr.renames");
/// Full refinement rounds run to extend a trace whose stable point
/// moved later.
pub static INCR_EXTENSIONS: gel_obs::Counter = gel_obs::Counter::new("wl.incr.extensions");
/// Repairs that cascaded past the fallback threshold and were finished
/// as parallel rebuilds instead.
pub static INCR_FALLBACKS: gel_obs::Counter = gel_obs::Counter::new("wl.incr.fallbacks");

/// Vertex counts below this keep the fresh-build digest fill serial.
const INCR_PAR_THRESHOLD: usize = 256;

/// Price of one arc read by the serial repair, in units of one arc read
/// by the parallel rebuild. A repair (on graphs of at least
/// [`INCR_PAR_THRESHOLD`] vertices) falls back to a rebuild once the
/// arcs it has read plus those its next round's candidates will read,
/// at this price, exceed the rebuild's `rounds × (n + arcs)`. Set at
/// the measured crossover on random 3-regular ⊎ path graphs, where it
/// ranged from 1.7 to 6.9 as the graphs grew (DESIGN §11).
const FALLBACK_COST: usize = 4;

const OUT_SALT: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xd1b5_4a32_d192_ed03];
const IN_SALT: [u64; 2] = [0x8cb9_2ba7_2f3d_8dd7, 0xaef1_7502_108e_f2d9];

#[inline]
fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer.
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Commutative multiset digest of one vertex's refinement signature at
/// round `t`, computed from the round-`t−1` colours.
fn refine_digest(g: &DynGraph, prev: &[Color], v: Vertex) -> u128 {
    let mut lanes = [0u64; 4];
    for &u in g.out_neighbors(v) {
        let c = prev[u as usize] as u64;
        lanes[0] = lanes[0].wrapping_add(mix64(c ^ OUT_SALT[0]));
        lanes[1] = lanes[1].wrapping_add(mix64(c ^ OUT_SALT[1]));
    }
    for &u in g.in_neighbors(v) {
        let c = prev[u as usize] as u64;
        lanes[2] = lanes[2].wrapping_add(mix64(c ^ IN_SALT[0]));
        lanes[3] = lanes[3].wrapping_add(mix64(c ^ IN_SALT[1]));
    }
    let own = prev[v as usize] as u64;
    let hi = mix64(own ^ mix64(lanes[0] ^ mix64(lanes[2])));
    let lo = mix64(own.wrapping_add(OUT_SALT[0]) ^ mix64(lanes[1] ^ mix64(lanes[3])));
    ((hi as u128) << 64) | lo as u128
}

/// Digest of a vertex's initial (label) signature.
fn label_digest(label: &[f64]) -> u128 {
    let mut hi = 0x6a09_e667_f3bc_c908u64;
    let mut lo = 0xbb67_ae85_84ca_a73bu64;
    for &x in label {
        let b = x.to_bits();
        hi = mix64(hi ^ b);
        lo = mix64(lo.wrapping_add(b).rotate_left(17));
    }
    ((hi as u128) << 64) | lo as u128
}

/// One stored refinement round: persistent colour ids plus the
/// signature table that assigned them.
struct Round {
    /// Per-vertex colour id (persistent, *not* dense).
    colors: Vec<Color>,
    /// Signature table. Ids are never reused, and a class whose
    /// digest moves while it stays the same set keeps its id (see
    /// [`Round::patch`]).
    table: HashMap<u128, Color>,
    /// The table's inverse: the digest each id is filed under, so a
    /// re-keyed class retires its old entry and the table stays a
    /// bijection.
    digest_of: Vec<u128>,
    /// Population per id (indexed by id; stale ids simply sit at 0).
    pops: Vec<u32>,
    /// Ids with non-zero population = classes in this round's
    /// partition.
    classes: usize,
}

impl Round {
    fn with_capacity(n: usize) -> Round {
        Round {
            colors: vec![0; n],
            table: HashMap::new(),
            digest_of: Vec::new(),
            pops: Vec::new(),
            classes: 0,
        }
    }

    /// Id for `digest`, allocating the next fresh id on first sight.
    fn assign(&mut self, digest: u128) -> Color {
        let next = self.pops.len() as Color;
        let id = *self.table.entry(digest).or_insert(next);
        if id == next {
            self.pops.push(0);
            self.digest_of.push(digest);
        }
        id
    }

    /// Population bookkeeping for the *initial* assignment of `v`
    /// (fresh build: every vertex set exactly once).
    fn init_color(&mut self, v: usize, id: Color) {
        self.colors[v] = id;
        let p = &mut self.pops[id as usize];
        *p += 1;
        if *p == 1 {
            self.classes += 1;
        }
    }

    /// Moves `v` to `id`, updating populations; returns true when the
    /// colour actually changed.
    fn recolor(&mut self, v: usize, id: Color) -> bool {
        let old = self.colors[v];
        if old == id {
            return false;
        }
        let po = &mut self.pops[old as usize];
        *po -= 1;
        if *po == 0 {
            self.classes -= 1;
        }
        let pn = &mut self.pops[id as usize];
        *pn += 1;
        if *pn == 1 {
            self.classes += 1;
        }
        self.colors[v] = id;
        true
    }

    /// Patches this round from the candidates' new digests, `sigs`
    /// sorted by `(digest, vertex)`, one group of equal digest at a
    /// time:
    ///
    /// * a digest in the table takes the id filed under it;
    /// * a new digest whose group holds every vertex that still
    ///   carries some id `c` is a rename: that class did not change as
    ///   a set, so `c`'s entry moves to the new digest in place and
    ///   nobody changes id;
    /// * any other new digest gets a fresh id.
    ///
    /// Invariant before each group: every vertex's id is the one filed
    /// under its current digest (new for processed candidates and for
    /// non-candidates, whose digests did not move; old for candidates
    /// still waiting). A renamed class's members are the only vertices
    /// filed under its old digest, so retiring that entry strands
    /// nobody, and a later group whose new digest it was finds it gone
    /// and is treated as new. After the last group, equal new digests
    /// mean equal ids and the table is still a bijection. Pushes the
    /// vertices whose id changed onto `changed` and returns the number
    /// of renames.
    fn patch(&mut self, sigs: &[(u128, Vertex)], changed: &mut Vec<Vertex>) -> u64 {
        let mut renames = 0;
        let mut rest = sigs;
        while let Some(&(d, first)) = rest.first() {
            let (group, tail) = rest.split_at(rest.partition_point(|&(e, _)| e == d));
            rest = tail;
            let c = self.colors[first as usize];
            let id = if let Some(&id) = self.table.get(&d) {
                id
            } else if self.pops[c as usize] as usize == group.len()
                && group.iter().all(|&(_, v)| self.colors[v as usize] == c)
            {
                self.table.remove(&self.digest_of[c as usize]);
                self.table.insert(d, c);
                self.digest_of[c as usize] = d;
                renames += 1;
                c
            } else {
                self.assign(d)
            };
            for &(_, v) in group {
                if self.recolor(v as usize, id) {
                    changed.push(v);
                }
            }
        }
        renames
    }
}

/// A stable colouring maintained incrementally under edge edits. See
/// the module docs for the algorithm and the determinism contract.
pub struct IncrementalColoring {
    g: DynGraph,
    rounds: Vec<Round>,
    digests: Vec<u128>,
    repaired_vertices: u64,
    full_fallbacks: u64,
}

/// Work counters of one [`IncrementalColoring`] instance (process-wide
/// totals live in the obs registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Stored rounds (including round 0 and the stable fixpoint).
    pub rounds: usize,
    /// Classes of the stable partition.
    pub num_colors: usize,
    /// Cumulative vertex id changes across repairs on this instance
    /// (renamed classes keep their ids and do not count).
    pub repaired_vertices: u64,
    /// Total signature-table entries across rounds (memory proxy;
    /// grows with edit history until [`IncrementalColoring::rebuild`]).
    pub table_entries: usize,
    /// Repairs on this instance that cascaded globally and were
    /// finished as parallel rebuilds (see the fallback note in the
    /// module docs).
    pub full_fallbacks: u64,
}

impl IncrementalColoring {
    /// Builds the full refinement trace of `g` from scratch.
    pub fn new(g: &Graph) -> IncrementalColoring {
        Self::from_dyn(DynGraph::from_graph(g))
    }

    /// Builds the trace taking ownership of a mutable graph.
    pub fn from_dyn(g: DynGraph) -> IncrementalColoring {
        let n = g.num_vertices();
        let mut me = IncrementalColoring {
            g,
            rounds: Vec::new(),
            digests: vec![0u128; n],
            repaired_vertices: 0,
            full_fallbacks: 0,
        };
        me.build();
        me
    }

    /// The graph being maintained.
    pub fn graph(&self) -> &DynGraph {
        &self.g
    }

    fn fill_digests(&mut self, from_labels: bool) {
        let IncrementalColoring { g, rounds, digests, .. } = self;
        let n = g.num_vertices();
        let prev = rounds.last().map(|r| r.colors.as_slice()).unwrap_or(&[]);
        let fill = |lo: usize, part: &mut [u128]| {
            for (i, slot) in part.iter_mut().enumerate() {
                let v = (lo + i) as Vertex;
                *slot =
                    if from_labels { label_digest(g.label(v)) } else { refine_digest(g, prev, v) };
            }
        };
        if n >= INCR_PAR_THRESHOLD {
            // Position-independent writes: bit-identical at any thread
            // count, like the SigArena fills in `color_refinement`.
            let chunk = n.div_ceil(rayon::current_num_threads().max(1)).max(1);
            digests.par_chunks_mut(chunk).enumerate().for_each(|(ci, part)| {
                fill(ci * chunk, part);
            });
        } else {
            fill(0, digests);
        }
    }

    /// Appends one full refinement round (digests for every vertex, id
    /// assignment in ascending vertex order). Returns true when the
    /// new round's partition equals its predecessor's.
    fn push_full_round(&mut self, from_labels: bool) -> bool {
        self.fill_digests(from_labels);
        let n = self.g.num_vertices();
        let mut round = Round::with_capacity(n);
        for v in 0..n {
            let id = round.assign(self.digests[v]);
            round.init_color(v, id);
        }
        // Drop the doubling slack: a scale-19 trace holds ~715k ids.
        round.digest_of.shrink_to_fit();
        round.pops.shrink_to_fit();
        let stable = self.rounds.last().map(|p| p.classes == round.classes).unwrap_or(false);
        self.rounds.push(round);
        stable
    }

    fn build(&mut self) {
        INCR_BUILDS.incr();
        let _span = gel_obs::span("wl.incr.build");
        self.rounds.clear();
        self.push_full_round(true);
        if self.g.num_vertices() == 0 {
            return;
        }
        // At most n rounds can strictly refine; the loop always exits
        // via the equal-count fixpoint.
        while !self.push_full_round(false) {}
    }

    /// Discards the trace (and its accumulated stale table entries)
    /// and rebuilds from the current graph. Colour output is unchanged
    /// — this is purely a memory compaction.
    pub fn rebuild(&mut self) {
        self.build();
    }

    /// Inserts the undirected edge `{u, v}` and repairs the trace.
    /// Returns false (and leaves everything untouched) when the edge
    /// was already present.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        if self.g.insert_edge(u, v) == 0 {
            return false;
        }
        self.repair(&[u, v]);
        true
    }

    /// Removes the undirected edge `{u, v}` and repairs the trace.
    pub fn remove_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        if self.g.remove_edge(u, v) == 0 {
            return false;
        }
        self.repair(&[u, v]);
        true
    }

    /// Inserts the directed arc `(u, v)` and repairs the trace.
    pub fn insert_arc(&mut self, u: Vertex, v: Vertex) -> bool {
        if !self.g.insert_arc(u, v) {
            return false;
        }
        self.repair(&[u, v]);
        true
    }

    /// Removes the directed arc `(u, v)` and repairs the trace.
    pub fn remove_arc(&mut self, u: Vertex, v: Vertex) -> bool {
        if !self.g.remove_arc(u, v) {
            return false;
        }
        self.repair(&[u, v]);
        true
    }

    /// Worklist repair after an edit touching `touched` (see module
    /// docs). Serial by design — determinism costs nothing here
    /// because the worklists track partition changes, which stay
    /// small for most edits. When the cascade turns out to be global
    /// (the arcs read so far plus the next round's would cost more
    /// than a rebuild, see [`FALLBACK_COST`]), the worklist is
    /// abandoned and the trace rebuilt with the parallel fresh build,
    /// which computes the identical output for less wall clock.
    fn repair(&mut self, touched: &[Vertex]) {
        INCR_REPAIRS.incr();
        let _span = gel_obs::span("wl.incr.repair");
        let n = self.g.num_vertices();
        let rounds = self.rounds.len();
        // One rebuild reads every vertex and both arc lists per round.
        let rebuild = rounds * (n + 2 * self.g.num_arcs());
        let mut spent = 0;
        let mut cand: Vec<Vertex> = touched.to_vec();
        cand.sort_unstable();
        cand.dedup();
        let mut sigs: Vec<(u128, Vertex)> = Vec::new();
        // Vertices whose id at the round just patched changed.
        let mut changed: Vec<Vertex> = Vec::new();
        for t in 1..rounds {
            spent += cand
                .iter()
                .map(|&v| 1 + self.g.out_neighbors(v).len() + self.g.in_neighbors(v).len())
                .sum::<usize>();
            if n >= INCR_PAR_THRESHOLD && spent * FALLBACK_COST > rebuild {
                INCR_FALLBACKS.incr();
                self.full_fallbacks += 1;
                self.build();
                return;
            }
            let (before, after) = self.rounds.split_at_mut(t);
            let prev = &before[t - 1].colors;
            sigs.clear();
            sigs.extend(cand.iter().map(|&v| (refine_digest(&self.g, prev, v), v)));
            sigs.sort_unstable();
            changed.clear();
            INCR_RENAMES.add(after[0].patch(&sigs, &mut changed));
            self.repaired_vertices += changed.len() as u64;
            INCR_RECOLORED.add(changed.len() as u64);
            cand.clear();
            cand.extend_from_slice(touched);
            for &w in &changed {
                cand.push(w);
                cand.extend_from_slice(self.g.out_neighbors(w));
                cand.extend_from_slice(self.g.in_neighbors(w));
            }
            cand.sort_unstable();
            cand.dedup();
        }
        // Re-find the stable point: truncate if stability now happens
        // earlier, extend with full rounds if it happens later.
        let stable_at =
            (1..self.rounds.len()).find(|&t| self.rounds[t].classes == self.rounds[t - 1].classes);
        match stable_at {
            Some(t) => self.rounds.truncate(t + 1),
            None => {
                while !self.push_full_round(false) {
                    INCR_EXTENSIONS.incr();
                }
                INCR_EXTENSIONS.incr();
            }
        }
    }

    /// Number of stored rounds (round 0 plus each refinement round up
    /// to and including the stable fixpoint).
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The stable colouring, canonicalised to dense colour ids by
    /// first occurrence in ascending vertex order. This is the
    /// bit-identity surface: equal graphs give equal outputs whether
    /// reached by edits or built fresh, at any thread count.
    pub fn stable_coloring(&self) -> Coloring {
        let last = self.rounds.last().expect("trace always has round 0");
        let mut rename: HashMap<Color, Color> = HashMap::with_capacity(last.classes);
        let mut dense: Vec<Color> = Vec::with_capacity(last.colors.len());
        for &c in &last.colors {
            let next = rename.len() as Color;
            dense.push(*rename.entry(c).or_insert(next));
        }
        Coloring {
            colors: vec![dense],
            num_colors: last.classes,
            rounds: self.rounds.len().saturating_sub(1),
        }
    }

    /// Instance-level work counters.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            rounds: self.rounds.len(),
            num_colors: self.rounds.last().map(|r| r.classes).unwrap_or(0),
            repaired_vertices: self.repaired_vertices,
            table_entries: self.rounds.iter().map(|r| r.table.len()).sum(),
            full_fallbacks: self.full_fallbacks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gel_graph::families::{cycle, path, petersen, star};
    use gel_graph::random::{erdos_renyi, random_regular, rmat_edges};
    use gel_graph::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fresh(g: &DynGraph) -> Coloring {
        IncrementalColoring::from_dyn(g.clone()).stable_coloring()
    }

    #[test]
    fn matches_color_refinement_partition() {
        for g in [petersen(), cycle(7), path(6)] {
            let inc = IncrementalColoring::new(&g).stable_coloring();
            let cr = crate::color_refinement_single(&g);
            assert_eq!(inc.num_colors, cr.num_colors, "class counts must agree");
            // Same partition: equal colours in one ⟺ equal in the other.
            let n = g.num_vertices();
            for a in 0..n {
                for b in (a + 1)..n {
                    assert_eq!(
                        inc.colors[0][a] == inc.colors[0][b],
                        cr.colors[0][a] == cr.colors[0][b],
                        "partition mismatch at ({a}, {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn chord_insert_matches_fresh() {
        // The counterexample from the module docs: C6 + chord {0,3}.
        let mut inc = IncrementalColoring::new(&cycle(6));
        assert!(inc.insert_edge(0, 3));
        assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
        assert_eq!(inc.stable_coloring().num_colors, 2, "{{0,3}} | {{1,2,4,5}}");
    }

    #[test]
    fn deletion_can_coarsen_and_still_matches() {
        let mut inc = IncrementalColoring::new(&path(3));
        // Deleting {1,2} leaves an edge plus an isolated vertex.
        assert!(inc.remove_edge(1, 2));
        assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
    }

    #[test]
    fn no_op_edits_change_nothing() {
        let mut inc = IncrementalColoring::new(&cycle(5));
        let before = inc.stable_coloring();
        assert!(!inc.remove_edge(0, 2), "absent edge");
        assert!(!inc.insert_edge(0, 1), "present edge");
        assert_eq!(inc.stable_coloring(), before);
        assert_eq!(inc.stats().repaired_vertices, 0);
    }

    #[test]
    fn random_edit_sequences_match_fresh() {
        let mut rng = StdRng::seed_from_u64(1234);
        for seed in 0..5u64 {
            let g = erdos_renyi(18, 0.25, &mut StdRng::seed_from_u64(seed));
            let mut inc = IncrementalColoring::new(&g);
            for _ in 0..30 {
                let u = rng.gen_range(0..18u32);
                let v = rng.gen_range(0..18u32);
                if u == v {
                    continue;
                }
                if rng.gen_bool(0.5) {
                    inc.insert_edge(u, v);
                } else {
                    inc.remove_edge(u, v);
                }
                assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
            }
        }
    }

    #[test]
    fn directed_arc_edits_match_fresh() {
        let mut inc = IncrementalColoring::from_dyn(DynGraph::new(5));
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 2), (0, 3)] {
            assert!(inc.insert_arc(u, v));
            assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
        }
        assert!(inc.remove_arc(2, 0));
        assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
    }

    #[test]
    fn dense_er_edits_repair_without_fallback() {
        // Every edit's two-hop neighbourhood is most of the graph, but
        // the stable partition is discrete and an edit moves only a few
        // vertices between classes: the rest are renames, so nothing
        // cascades and no repair falls back.
        let g = erdos_renyi(400, 0.05, &mut StdRng::seed_from_u64(42));
        let mut inc = IncrementalColoring::new(&g);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..6 {
            let u = rng.gen_range(0..400u32);
            let v = rng.gen_range(0..400u32);
            if u == v {
                continue;
            }
            if !inc.insert_edge(u, v) {
                inc.remove_edge(u, v);
            }
            assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
        }
        assert_eq!(inc.stats().full_fallbacks, 0, "stats: {:?}", inc.stats());
    }

    #[test]
    fn global_cascade_falls_back_to_rebuild() {
        // A random 3-regular graph beside a long path: the path keeps
        // the trace long, and one edit in the regular part splits its
        // single class a little further each round, across the whole
        // part.
        let g = random_regular(400, 3, &mut StdRng::seed_from_u64(11)).disjoint_union(&path(64));
        let mut inc = IncrementalColoring::new(&g);
        let baseline = inc.stable_coloring();
        let (u, v) = (0..400u32)
            .flat_map(|u| (u + 1..400).map(move |v| (u, v)))
            .find(|&(u, v)| !g.has_edge(u, v))
            .expect("a 3-regular graph has non-edges");
        assert!(inc.insert_edge(u, v));
        assert_eq!(inc.stats().full_fallbacks, 1, "a real global cascade must fall back");
        assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
        assert!(inc.remove_edge(u, v));
        assert_eq!(inc.stable_coloring(), baseline, "remove must undo insert");
    }

    #[test]
    fn split_moving_the_larger_part_matches_fresh() {
        // Two 7-leaf stars and an isolated vertex z = 16. Joining z to
        // the first centre splits the centres at round 1, and at round 2
        // the first star's leaves plus z (8 vertices) leave the 14-leaf
        // class, whose other 7 stay: the moved part is the larger one.
        let g = star(7).disjoint_union(&star(7)).disjoint_union(&DynGraph::new(1).snapshot());
        let mut inc = IncrementalColoring::new(&g);
        let baseline = inc.stable_coloring();
        assert!(inc.insert_edge(0, 16));
        assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
        // The deletion coarsens every split class back.
        assert!(inc.remove_edge(0, 16));
        assert_eq!(inc.stable_coloring(), baseline);
        assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
    }

    #[test]
    fn deletions_that_coarsen_match_fresh() {
        // Two diameters of C12 split its single class by distance to
        // their endpoints; deleting them merges those classes again,
        // back to the bare cycle's one.
        let mut inc = IncrementalColoring::new(&cycle(12));
        for (u, v) in [(0, 6), (3, 9)] {
            assert!(inc.insert_edge(u, v));
            assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
        }
        for (u, v) in [(0, 6), (3, 9)] {
            assert!(inc.remove_edge(u, v));
            assert_eq!(inc.stable_coloring(), fresh(inc.graph()));
        }
        assert_eq!(inc.stable_coloring().num_colors, 1);
    }

    #[test]
    fn rmat_edit_stream_repairs_without_fallback() {
        // The skewed traffic the index serves: each edit continues the
        // R-MAT stream, is checked against a fresh build, and undone.
        let mut b = GraphBuilder::new(1 << 12);
        for (u, v) in rmat_edges(12, 1 << 14, 12) {
            b.add_edge(u, v);
        }
        let g = b.build();
        let mut inc = IncrementalColoring::new(&g);
        let baseline = inc.stable_coloring();
        let edits: Vec<(u32, u32)> = rmat_edges(12, u64::MAX, 13)
            .filter(|&(u, v)| u != v && !g.has_edge(u, v))
            .take(12)
            .collect();
        for &(u, v) in &edits {
            assert!(inc.insert_edge(u, v));
            assert_eq!(inc.stable_coloring(), fresh(inc.graph()), "after inserting ({u},{v})");
        }
        for &(u, v) in &edits {
            assert!(inc.remove_edge(u, v));
            assert_eq!(inc.stable_coloring(), fresh(inc.graph()), "after removing ({u},{v})");
        }
        assert_eq!(inc.stable_coloring(), baseline);
        assert_eq!(inc.stats().full_fallbacks, 0, "stats: {:?}", inc.stats());
    }

    /// A round whose classes are the equal-digest groups of `digests`
    /// (vertex `v` filed under `digests[v]`).
    fn round_of(digests: &[u128]) -> Round {
        let mut r = Round::with_capacity(digests.len());
        for (v, &d) in digests.iter().enumerate() {
            let id = r.assign(d);
            r.init_color(v, id);
        }
        r
    }

    /// Patches `r` with the candidates' new digests and checks the
    /// result: equal digests ⟺ equal ids, and the table is still the
    /// bijection its inverse records. Returns (changed, renames).
    fn patch_and_check(r: &mut Round, old: &[u128], new: &[(Vertex, u128)]) -> (Vec<Vertex>, u64) {
        let mut sigs: Vec<(u128, Vertex)> = new.iter().map(|&(v, d)| (d, v)).collect();
        sigs.sort_unstable();
        let mut changed = Vec::new();
        let renames = r.patch(&sigs, &mut changed);
        let mut digests = old.to_vec();
        for &(v, d) in new {
            digests[v as usize] = d;
        }
        for a in 0..digests.len() {
            assert_eq!(r.table[&digests[a]], r.colors[a], "vertex {a} filed under its digest");
            for b in 0..digests.len() {
                assert_eq!(digests[a] == digests[b], r.colors[a] == r.colors[b], "({a}, {b})");
            }
        }
        assert_eq!(r.table.len(), r.digest_of.len(), "one table entry per id");
        for (id, d) in r.digest_of.iter().enumerate() {
            assert_eq!(r.table[d] as usize, id, "inverse of id {id}");
        }
        let classes = r.pops.iter().filter(|&&p| p > 0).count();
        assert_eq!(r.classes, classes);
        changed.sort_unstable();
        (changed, renames)
    }

    #[test]
    fn classes_swapping_digests_keep_apart() {
        // {0,1} and {2,3} trade digests: each group's new digest is
        // still held by the other class, so neither may be taken by a
        // rename — both groups move to the id filed under it.
        let old = [10, 10, 20, 20, 30];
        let mut r = round_of(&old);
        let (changed, renames) =
            patch_and_check(&mut r, &old, &[(0, 20), (1, 20), (2, 10), (3, 10)]);
        assert_eq!((changed, renames), (vec![0, 1, 2, 3], 0));
        // A chain: {0,1} leaves digest 20 for a new one while {2,3}
        // takes 20 over. Groups run in digest order: when the new digest
        // sorts first, {0,1} is renamed, its old entry retired, and {2,3}
        // is renamed onto it; when 20 sorts first, {2,3} joins the id
        // filed under 20 and {0,1}, no longer all of that id, moves on.
        for (new_digest, moved, renamed) in [(5, vec![], 2), (25, vec![0, 1, 2, 3], 0)] {
            let old = [20, 20, 10, 10, 30];
            let mut r = round_of(&old);
            let edits = [(0, new_digest), (1, new_digest), (2, 20), (3, 20)];
            assert_eq!(patch_and_check(&mut r, &old, &edits), (moved, renamed));
        }
    }

    #[test]
    fn whole_class_with_a_new_digest_is_renamed_in_place() {
        let old = [10, 10, 20, 20, 30];
        let mut r = round_of(&old);
        let ids = r.colors.clone();
        let (changed, renames) = patch_and_check(&mut r, &old, &[(0, 40), (1, 40), (4, 50)]);
        assert_eq!((changed, renames), (vec![], 2));
        assert_eq!(r.colors, ids, "renames keep every id");
        // A part of a class is not a rename: the non-candidate 3 keeps
        // 20, and 2 moves to a fresh id.
        let (changed, renames) = patch_and_check(&mut r, &[40, 40, 20, 20, 50], &[(2, 60)]);
        assert_eq!((changed, renames), (vec![2], 0));
        // Nor is a group as large as its first member's class that
        // mixes in another class: 0 comes from {0,3}, 1 from {1}, and 3
        // keeps 10.
        let old = [10, 20, 30, 10];
        let mut r = round_of(&old);
        let (changed, renames) = patch_and_check(&mut r, &old, &[(0, 40), (1, 40)]);
        assert_eq!((changed, renames), (vec![0, 1], 0));
    }

    #[test]
    fn rebuild_compacts_without_changing_colors() {
        let mut inc = IncrementalColoring::new(&cycle(8));
        for (u, v) in [(0, 4), (1, 5), (0, 4)] {
            inc.insert_edge(u, v);
        }
        inc.remove_edge(1, 5);
        let before = inc.stable_coloring();
        let tables_before = inc.stats().table_entries;
        inc.rebuild();
        assert_eq!(inc.stable_coloring(), before);
        assert!(inc.stats().table_entries <= tables_before);
    }

    #[test]
    fn empty_graph_is_handled() {
        let inc = IncrementalColoring::from_dyn(DynGraph::new(0));
        let c = inc.stable_coloring();
        assert_eq!(c.num_colors, 0);
        assert!(c.colors[0].is_empty());
    }
}
