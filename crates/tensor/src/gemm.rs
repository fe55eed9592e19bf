//! Cache-blocked, register-tiled `f32` GEMM — the single compute kernel
//! behind [`crate::tensor::Tensor::matmul`], [`crate::linear::Linear`] and
//! the im2col-lowered [`crate::conv::Conv1d`].
//!
//! The design follows the classic BLIS/GotoBLAS decomposition:
//!
//! - the operand matrices are tiled into `MC × KC` blocks of `A` and
//!   `KC × NC` blocks of `B`;
//! - each block is repacked into contiguous micro-panels (`MR`-row panels of
//!   `A`, `NR`-column panels of `B`) so the inner kernel streams over
//!   contiguous, cache-resident memory;
//! - an `MR × NR` register-tile microkernel accumulates
//!   `C[i, j] += A[i, p] * B[p, j]` with the `p` loop innermost-sequential,
//!   which LLVM auto-vectorizes across the `NR` lanes.
//!
//! Row-blocks of `C` are independent, so large multiplies are parallelized
//! over `MC`-row blocks through the (worker-pool) `rayon` stand-in.
//!
//! ## Exactness contract
//!
//! Every output element is the strict left-to-right sum
//! `((c0 + t_0) + t_1) + ... + t_{k-1}` over the inner dimension: the
//! microkernel loads the current `C` tile into its accumulators at the start
//! of every `KC` step and adds the `k`-terms one at a time, and row/column
//! blocking never reorders the `k` chain. Naive triple-loop code with the
//! same per-element chain therefore produces **bit-identical** results —
//! this is what lets the property tests in `tests/conv_gemm_equivalence.rs`
//! assert exact equality between the GEMM-lowered convolution and the
//! shifted-axpy reference path.
//!
//! ## Microkernel
//!
//! Which microkernel runs is a property of the host, not of a backend:
//! [`host_kernel_mode`] picks the explicit SIMD kernels exactly when they
//! are available and bit-identical to the portable chain, and every GEMM
//! ([`gemm`], [`gemm_seq`], the lowered convolution) runs that choice.

use rayon::prelude::*;
use std::sync::OnceLock;

/// Fused (or fused-style) multiply-add: compiles to a single FMA
/// instruction when the target has one, and to separate multiply + add
/// otherwise (where `mul_add` would fall back to a slow libm call).
///
/// Both convolution backends route every multiply-accumulate through this
/// helper, so their arithmetic is the same instruction sequence under
/// either compilation mode and the bit-exactness contract holds regardless
/// of the target ISA.
#[inline(always)]
pub fn fmadd(a: f32, b: f32, c: f32) -> f32 {
    #[cfg(any(target_feature = "fma", all(target_arch = "aarch64", target_feature = "neon")))]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(any(
        target_feature = "fma",
        all(target_arch = "aarch64", target_feature = "neon")
    )))]
    {
        a * b + c
    }
}

/// Which inner kernel a GEMM runs: the portable scalar microkernel or the
/// explicit `std::arch` SIMD kernels in [`crate::simd`] (which also enable
/// the no-packing skinny fast path for `m ≤ simd::SKINNY_MAX_M`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelMode {
    /// Portable microkernel (auto-vectorized by the compiler).
    Scalar,
    /// Explicit AVX2/FMA or NEON microkernels + skinny specialization.
    Simd,
}

/// The microkernel this host runs, decided once per process:
/// [`KernelMode::Simd`] when the SIMD kernels are available (not masked by
/// `NILM_SIMD=off`) **and** bit-identical to the portable chain
/// ([`crate::simd::simd_exact`]), [`KernelMode::Scalar`] otherwise. Either
/// way every GEMM reproduces the naive reference bit for bit.
pub fn host_kernel_mode() -> KernelMode {
    static MODE: OnceLock<KernelMode> = OnceLock::new();
    *MODE.get_or_init(|| {
        if crate::simd::simd_available() && crate::simd::simd_exact() {
            KernelMode::Simd
        } else {
            KernelMode::Scalar
        }
    })
}

/// Rows of the register microtile.
pub const MR: usize = 4;
/// Columns of the register microtile (two AVX2 lanes / one AVX-512 lane per
/// accumulator row; measured fastest on both baseline x86-64 and
/// `target-cpu=native` builds).
pub const NR: usize = 16;
/// Row-block size: `MC × KC` panel of `A` stays L2-resident.
pub const MC: usize = 64;
/// Inner-dimension block size.
pub const KC: usize = 512;
/// Column-block size: `KC × NC` panel of `B` stays L2/L3-resident.
pub const NC: usize = 512;

/// Minimum multiply-accumulate count before a `gemm` call fans out over
/// row-blocks. Below it, handing row-blocks to a `rayon` pool worker
/// (waking it) costs more than the work it takes off the caller.
const PAR_MACS: usize = 1 << 21;

// A row block must cover a whole number of `MR` panels so a block's packed
// A is one contiguous run.
const _: () = assert!(MC % MR == 0);

/// How an operand slice is laid out relative to the logical GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// The slice is the operand itself, row-major.
    Normal,
    /// The slice is the *transpose* of the operand, row-major (i.e. the
    /// logical `[r, c]` element lives at `slice[c * rows + r]`).
    Transposed,
}

/// `C = A · B` (or `C += A · B` when `accumulate`), with `A` logically
/// `[m, k]`, `B` logically `[k, n]`, and `C` `[m, n]` row-major.
///
/// `a_layout`/`b_layout` describe how the slices store the logical
/// operands, so `A^T · B`, `A · B^T` and `A^T · B^T` products never
/// materialize a transposed copy. Parallelizes over row-blocks when the
/// problem is large enough and more than one worker thread is configured.
/// Runs the [`host_kernel_mode`] microkernel.
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    accumulate: bool,
) {
    let parallel = m * n * k >= PAR_MACS && crate::dispatch::kernel_threads() > 1 && m > MC;
    gemm_with(m, n, k, a, a_layout, b, b_layout, c, accumulate, parallel, host_kernel_mode())
}

/// [`gemm`] forced sequential — used by callers that already parallelize at
/// a coarser grain (e.g. the batch axis of a convolution).
#[allow(clippy::too_many_arguments)]
pub fn gemm_seq(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    accumulate: bool,
) {
    gemm_with(m, n, k, a, a_layout, b, b_layout, c, accumulate, false, host_kernel_mode())
}

#[allow(clippy::too_many_arguments)]
fn gemm_with(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    accumulate: bool,
    parallel: bool,
    mode: KernelMode,
) {
    assert_eq!(a.len(), m * k, "A length != m*k");
    assert_eq!(b.len(), k * n, "B length != k*n");
    assert_eq!(c.len(), m * n, "C length != m*n");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.iter_mut().for_each(|v| *v = 0.0);
        }
        return;
    }

    // Skinny fast path: for the M ≤ 16 products small-batch inference emits,
    // panel packing costs more than it saves — stream B directly through the
    // SIMD kernel with A broadcast from registers. Preserves the per-element
    // k chain, so it stays on the same accumulation tree as the packed path.
    if mode == KernelMode::Simd
        && m <= crate::simd::SKINNY_MAX_M
        && a_layout == Layout::Normal
        && b_layout == Layout::Normal
    {
        crate::simd::skinny_gemm(m, n, k, a, b, c, accumulate);
        return;
    }

    // Loop nest: k blocks (outer) → pack all of A once per k block →
    // column blocks of B → row blocks of C. Pack buffers are thread-local
    // so the multi-megabyte panels are mapped once per thread, not once
    // per call. Interchanging the jc/pc loops relative to the classic
    // ordering lets one A packing serve every column block; it does not
    // touch any per-element accumulation chain (each element still sees
    // its k-terms exactly once, in increasing-pc order).
    BPACK.with_borrow_mut(|bpack| {
        APACK.with_borrow_mut(|apack| {
            bpack.resize(KC * NC.min(n).next_multiple_of(NR), 0.0);
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                // The microkernel reloads C at the start of each k block,
                // so splitting k never reorders the accumulation chain.
                let first = pc == 0 && !accumulate;
                apack.resize(kc * m.next_multiple_of(MR), 0.0);
                pack_a(apack, a, a_layout, m, k, 0, m, pc, kc);
                // Panels per MC row block; MC is a multiple of MR, so a
                // block's panels are a contiguous run of the packed A.
                let block_panels = MC / MR;
                for jc in (0..n).step_by(NC) {
                    let nc = NC.min(n - jc);
                    pack_b(bpack, b, b_layout, k, n, pc, kc, jc, nc);
                    // Row blocks of A / C are independent: parallelize
                    // here. The parallel path requires the C row-chunks to
                    // be contiguous, i.e. a single column block.
                    if parallel && nc == n {
                        let (aref, bref) = (&*apack, &*bpack);
                        c.par_chunks_mut(MC * n).enumerate().for_each(|(blk, cblk)| {
                            let mc = MC.min(m - blk * MC);
                            let ap = &aref[blk * block_panels * kc * MR..];
                            block_kernel(mc, nc, kc, ap, bref, cblk, n, 0, first, mode);
                        });
                    } else {
                        for ic in (0..m).step_by(MC) {
                            let mc = MC.min(m - ic);
                            let ap = &apack[(ic / MR) * kc * MR..];
                            block_kernel(
                                mc,
                                nc,
                                kc,
                                ap,
                                bpack,
                                &mut c[ic * n..],
                                n,
                                jc,
                                first,
                                mode,
                            );
                        }
                    }
                }
            }
        });
    });
}

thread_local! {
    /// Reused packed-panel buffers (see `gemm_with`). Entered by at most
    /// one `gemm` activation per thread: the parallel fan-out allocates
    /// per-closure `apack`s and only reads `bpack` through a shared borrow
    /// that ends before the next pack.
    static BPACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
    static APACK: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Packs the `kc × nc` block of `B` at `(pc, jc)` into `NR`-column panels:
/// panel `j0` holds `bpack[panel][p * NR + j] = B[pc + p, jc + j0 + j]`,
/// zero-padded to a full `NR` columns.
#[allow(clippy::too_many_arguments)]
fn pack_b(
    bpack: &mut [f32],
    b: &[f32],
    layout: Layout,
    k: usize,
    n: usize,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
) {
    let mut dst = 0;
    for j0 in (0..nc).step_by(NR) {
        let nr = NR.min(nc - j0);
        match layout {
            Layout::Normal => {
                for p in 0..kc {
                    let row = &b[(pc + p) * n + jc + j0..];
                    let panel = &mut bpack[dst + p * NR..dst + p * NR + NR];
                    panel[..nr].copy_from_slice(&row[..nr]);
                    panel[nr..].iter_mut().for_each(|v| *v = 0.0);
                }
            }
            Layout::Transposed => {
                // b is [n, k] row-major: B[p, j] = b[j * k + p].
                for p in 0..kc {
                    let panel = &mut bpack[dst + p * NR..dst + p * NR + NR];
                    for (j, v) in panel[..nr].iter_mut().enumerate() {
                        *v = b[(jc + j0 + j) * k + pc + p];
                    }
                    panel[nr..].iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }
        dst += kc * NR;
    }
}

/// Packs the `mc × kc` block of `A` at `(ic, pc)` into `MR`-row panels:
/// panel `i0` holds `apack[panel][p * MR + i] = A[ic + i0 + i, pc + p]`,
/// zero-padded to a full `MR` rows.
#[allow(clippy::too_many_arguments)]
fn pack_a(
    apack: &mut [f32],
    a: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
) {
    let mut dst = 0;
    for i0 in (0..mc).step_by(MR) {
        let mr = MR.min(mc - i0);
        match layout {
            Layout::Normal => {
                for p in 0..kc {
                    let panel = &mut apack[dst + p * MR..dst + p * MR + MR];
                    for (i, v) in panel[..mr].iter_mut().enumerate() {
                        *v = a[(ic + i0 + i) * k + pc + p];
                    }
                    panel[mr..].iter_mut().for_each(|v| *v = 0.0);
                }
            }
            Layout::Transposed => {
                // a is [k, m] row-major: A[i, p] = a[p * m + i].
                for p in 0..kc {
                    let row = &a[(pc + p) * m + ic + i0..];
                    let panel = &mut apack[dst + p * MR..dst + p * MR + MR];
                    panel[..mr].copy_from_slice(&row[..mr]);
                    panel[mr..].iter_mut().for_each(|v| *v = 0.0);
                }
            }
        }
        dst += kc * MR;
    }
}

/// Runs the microkernel over every `MR × NR` tile of an `mc × nc` block.
/// `c` starts at row `ic` of the output (row stride `ldc`, column offset
/// `jc`).
#[allow(clippy::too_many_arguments)]
fn block_kernel(
    mc: usize,
    nc: usize,
    kc: usize,
    apack: &[f32],
    bpack: &[f32],
    c: &mut [f32],
    ldc: usize,
    jc: usize,
    first: bool,
    mode: KernelMode,
) {
    for (jp, j0) in (0..nc).step_by(NR).enumerate() {
        let nr = NR.min(nc - j0);
        let bpanel = &bpack[jp * kc * NR..(jp + 1) * kc * NR];
        for (ip, i0) in (0..mc).step_by(MR).enumerate() {
            let mr = MR.min(mc - i0);
            let apanel = &apack[ip * kc * MR..(ip + 1) * kc * MR];
            match mode {
                KernelMode::Scalar => {
                    scalar_microkernel(kc, apanel, bpanel, c, i0, jc + j0, ldc, mr, nr, first)
                }
                KernelMode::Simd => crate::simd::packed_microkernel(
                    kc,
                    apanel,
                    bpanel,
                    c,
                    i0,
                    jc + j0,
                    ldc,
                    mr,
                    nr,
                    first,
                ),
            }
        }
    }
}

/// The `MR × NR` register-tile kernel: loads the current `C` tile (or zeros
/// when `first`), adds `kc` rank-1 updates with a strictly sequential `p`
/// loop, and stores the tile back. The `j` loop over `NR` lanes is what the
/// compiler vectorizes.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn scalar_microkernel(
    kc: usize,
    apanel: &[f32],
    bpanel: &[f32],
    c: &mut [f32],
    row: usize,
    col: usize,
    ldc: usize,
    mr: usize,
    nr: usize,
    first: bool,
) {
    let mut acc = [[0.0f32; NR]; MR];
    if !first {
        for i in 0..mr {
            let crow = &c[(row + i) * ldc + col..];
            acc[i][..nr].copy_from_slice(&crow[..nr]);
        }
    }
    for (ap, bp) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        for i in 0..MR {
            let av = ap[i];
            let row = &mut acc[i];
            for j in 0..NR {
                row[j] = fmadd(av, bp[j], row[j]);
            }
        }
    }
    for i in 0..mr {
        let crow = &mut c[(row + i) * ldc + col..];
        crow[..nr].copy_from_slice(&acc[i][..nr]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triple-loop reference with the same per-element left-to-right k
    /// chain as the blocked kernel.
    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    c[i * n + j] = fmadd(av, b[kk * n + j], c[i * n + j]);
                }
            }
        }
        c
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        // Simple LCG so the test needs no RNG dependency.
        let mut state = seed as u64 * 2654435761 + 1;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn matches_reference_across_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 8),
            (5, 17, 9),
            (MR, NR, KC.min(33)),
            (MC + 3, NR + 1, 19),
            (70, 40, 12),
        ] {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, &a, Layout::Normal, &b, Layout::Normal, &mut c, false);
            assert_eq!(c, reference(m, n, k, &a, &b), "shape ({m},{n},{k})");
        }
    }

    #[test]
    fn accumulate_adds_on_top() {
        let (m, n, k) = (6, 10, 4);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let mut c = fill(m * n, 5);
        let base = c.clone();
        gemm(m, n, k, &a, Layout::Normal, &b, Layout::Normal, &mut c, true);
        let prod = reference(m, n, k, &a, &b);
        for ((cv, b0), p) in c.iter().zip(&base).zip(&prod) {
            assert!((cv - (b0 + p)).abs() < 1e-5);
        }
    }

    #[test]
    fn transposed_layouts_match_normal() {
        let (m, n, k) = (7, 11, 13);
        let a = fill(m * k, 6);
        let b = fill(k * n, 7);
        // Materialize transposes to feed the layout variants.
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut bt = vec![0.0f32; k * n];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c0 = vec![0.0f32; m * n];
        gemm(m, n, k, &a, Layout::Normal, &b, Layout::Normal, &mut c0, false);
        for (al, bl, aa, bb) in [
            (Layout::Transposed, Layout::Normal, &at, &b),
            (Layout::Normal, Layout::Transposed, &a, &bt),
            (Layout::Transposed, Layout::Transposed, &at, &bt),
        ] {
            let mut c = vec![0.0f32; m * n];
            gemm(m, n, k, aa, al, bb, bl, &mut c, false);
            assert_eq!(c, c0, "layouts ({al:?},{bl:?})");
        }
    }

    #[test]
    fn k_zero_clears_or_keeps_c() {
        let mut c = vec![1.0f32; 6];
        gemm(2, 3, 0, &[], Layout::Normal, &[], Layout::Normal, &mut c, true);
        assert_eq!(c, vec![1.0; 6]);
        gemm(2, 3, 0, &[], Layout::Normal, &[], Layout::Normal, &mut c, false);
        assert_eq!(c, vec![0.0; 6]);
    }

    #[test]
    fn forced_parallel_matches_sequential_bitwise() {
        // Row-block fan-out must not change any accumulation chain.
        let (m, n, k) = (MC * 2 + 5, 33, 40);
        let a = fill(m * k, 10);
        let b = fill(k * n, 11);
        let mut c_par = vec![0.0f32; m * n];
        let mut c_seq = vec![0.0f32; m * n];
        let mode = KernelMode::Scalar;
        gemm_with(m, n, k, &a, Layout::Normal, &b, Layout::Normal, &mut c_par, false, true, mode);
        gemm_with(m, n, k, &a, Layout::Normal, &b, Layout::Normal, &mut c_seq, false, false, mode);
        assert_eq!(c_par, c_seq);
        assert_eq!(c_seq, reference(m, n, k, &a, &b));
    }

    /// Shapes covering the skinny fast path (m ≤ 16), partial tiles and the
    /// packed SIMD microkernel (m > 16).
    const SIMD_SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (4, 2048, 20),
        (8, 130, 40),
        (16, 33, 7),
        (17, 33, 7),
        (70, 40, 12),
        (MC + 3, NR + 1, 19),
        (3, NR + 3, KC + 37),
    ];

    /// Runs one sequential GEMM (row-major `B`, `C` starting from `c0`) on
    /// each microkernel and checks they agree: bit for bit when
    /// `simd_exact()`; on a build whose scalar chain is unfused they may
    /// differ by one rounding per multiply-add, bounded here loosely.
    #[allow(clippy::too_many_arguments)]
    fn assert_modes_agree(
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        a_layout: Layout,
        b: &[f32],
        c0: &[f32],
        accumulate: bool,
    ) {
        let [c_scalar, c_simd] = [KernelMode::Scalar, KernelMode::Simd].map(|mode| {
            let mut c = c0.to_vec();
            gemm_with(m, n, k, a, a_layout, b, Layout::Normal, &mut c, accumulate, false, mode);
            c
        });
        if crate::simd::simd_exact() {
            assert_eq!(c_scalar, c_simd, "shape ({m},{n},{k})");
        } else {
            for (x, y) in c_scalar.iter().zip(&c_simd) {
                assert!((x - y).abs() <= 1e-4, "shape ({m},{n},{k})");
            }
        }
    }

    #[test]
    fn simd_mode_matches_scalar_mode() {
        for &(m, n, k) in SIMD_SHAPES {
            let (a, b) = (fill(m * k, 20), fill(k * n, 21));
            assert_modes_agree(m, n, k, &a, Layout::Normal, &b, &vec![0.0; m * n], false);
        }
    }

    #[test]
    fn simd_mode_transposed_layouts_match_scalar() {
        // Transposed operands skip the skinny path but still hit the packed
        // SIMD microkernel.
        let (m, n, k) = (21, 19, 23);
        let a = fill(m * k, 22);
        let b = fill(k * n, 23);
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        assert_modes_agree(m, n, k, &at, Layout::Transposed, &b, &vec![0.0; m * n], false);
    }

    #[test]
    fn simd_accumulate_matches_scalar_accumulate() {
        let (m, n, k) = (8, 50, 11);
        let (a, b) = (fill(m * k, 24), fill(k * n, 25));
        assert_modes_agree(m, n, k, &a, Layout::Normal, &b, &fill(m * n, 26), true);
    }

    #[test]
    fn kc_blocking_preserves_the_accumulation_chain() {
        // k > KC exercises the C-reload path; the reference chain must
        // still match bit-for-bit.
        let (m, n, k) = (3, NR + 3, KC + 37);
        let a = fill(m * k, 8);
        let b = fill(k * n, 9);
        let mut c = vec![0.0f32; m * n];
        gemm(m, n, k, &a, Layout::Normal, &b, Layout::Normal, &mut c, false);
        assert_eq!(c, reference(m, n, k, &a, &b));
    }
}
