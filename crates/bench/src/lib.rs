//! # gel-bench — benchmark harness (system S9)
//!
//! Plain-`main` benchmarks (`harness = false`), each with a `--smoke`
//! mode that shrinks the inputs and asserts the regression gates CI
//! runs on both feature legs:
//!
//! * `benches/kernels.rs` — blocked SIMD matmul vs the ikj oracle, the
//!   fused CSR gather (gate: `simd_speedup >= 2` at 256³);
//! * `benches/layers.rs` — allocating vs `_into` training steps,
//!   per-graph vs batched epochs, per-aggregator GNN-101
//!   forward/backward (gate: zero steady-state buffer allocations);
//! * `benches/wl.rs` — CR and folklore/oblivious k-WL on the hard
//!   pairs, tree-hom profiles and hom counts through the GEL engine
//!   (gates: zero steady-state refinement scratch growth,
//!   `hom(C_k, G) = tr(A^k)`);
//! * `benches/eval.rs` — the E4/E9 kernels through `EvalEngine`, the
//!   guard ablation, the density and wco sweeps (gates: zero
//!   steady-state slab allocations, hub wco speedup >= 5);
//! * `benches/serve.rs` — loopback load against `gel-serve` (gate: one
//!   plan per expression cold, zero warm);
//! * `benches/ingest.rs` — R-MAT ingest through the WAL and the
//!   incremental recolour (gate: frontier repair >= 5x).
//!
//! The density sweep, wco sweep, kernel timings, serve load and ingest
//! are written once, in `gel_experiments::bench`, and also feed
//! `all --bench-json` (`BENCH_parallel.json`), which additionally
//! records every experiment's `wall_s`.
//!
//! Run: `cargo bench -p gel-bench --bench <name> [-- --smoke]`.

#![warn(missing_docs)]

/// A fixed seed shared by the benchmarks whose inputs are not shared
/// with `all --bench-json`, so numbers are comparable across runs.
pub const BENCH_SEED: u64 = 0xBE;
