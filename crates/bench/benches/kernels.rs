//! Tensor-kernel microbenchmarks: the register-blocked, cache-tiled
//! cores in `gel_tensor::kernels` against the ikj reference oracle
//! (`matmul_ikj_into`), plus the fused CSR gather against the
//! per-neighbour axpy loop it replaced.
//!
//! Run with `cargo bench -p gel-bench --bench kernels [-- --smoke]`.
//! Reports GFLOP/s per kernel and a `simd_speedup` ratio (oracle time
//! over blocked time, 1 thread). The fused gather is checked
//! bit-identical to the loop it replaced. `--smoke` shrinks the
//! iteration counts for CI and *asserts* `simd_speedup >= 2.0` on the
//! 256³ matmul — the regression gate for the blocked kernel path.

use gel_experiments::bench;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rounds, iters) = if smoke { (2, 2) } else { (5, 20) };

    // All single-kernel numbers are taken at one thread: the blocked
    // cores are a serial-throughput claim; the parallel split is the
    // same code over row blocks.
    rayon::set_num_threads(1);
    let mut speedup_256 = 0.0;
    for size in [64usize, 128, 256] {
        let mm = bench::matmul(size, rounds, iters);
        println!(
            "matmul_{size:<4} threads=1   blocked {:>7.2} GFLOP/s   oracle {:>7.2} GFLOP/s   simd_speedup {:>5.2}x",
            mm.blocked_gflops(),
            mm.oracle_gflops(),
            mm.simd_speedup()
        );
        speedup_256 = mm.simd_speedup();
    }
    let (t, tt, fused) = bench::matmul_variants(128, rounds, iters);
    println!(
        "variants_128 threads=1   t_matmul {t:>7.2}   matmul_t {tt:>7.2}   bias_act {fused:>7.2}  (GFLOP/s)"
    );
    let gather = bench::gather(4096, 8.0, 32, rounds, iters);
    println!(
        "gather_er4096_d32        fused {:>8.2} µs   per-neighbour {:>8.2} µs   speedup {:>5.2}x",
        gather.fused_s * 1e6,
        gather.naive_s * 1e6,
        gather.speedup()
    );

    // One full-width leg so thread scaling stays visible in the log.
    let width = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if width > 1 && !smoke {
        rayon::set_num_threads(width);
        let mm = bench::matmul(256, rounds, iters);
        println!("matmul_256  threads={width}   blocked {:>7.2} GFLOP/s", mm.blocked_gflops());
    }
    rayon::set_num_threads(0);

    if smoke {
        assert!(
            speedup_256 >= 2.0,
            "blocked matmul regressed: simd_speedup {speedup_256:.2}x < 2.0x vs ikj oracle at 256³"
        );
        println!("smoke OK: blocked matmul ≥2x over the ikj oracle (got {speedup_256:.2}x)");
    }
}
