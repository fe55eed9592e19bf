//! Explicit `std::arch` SIMD microkernels for the inference hot path.
//!
//! Two kernels live here, both consumers of the same data the portable GEMM
//! in [`crate::gemm`] operates on:
//!
//! - [`packed_microkernel`] — a drop-in replacement for the scalar
//!   `MR × NR` register-tile microkernel, operating on the same packed
//!   `A`/`B` panels (AVX2+FMA: 4 rows × 2 `ymm` accumulators; NEON: 4 rows
//!   × 4 `q` accumulators).
//! - [`skinny_gemm`] — a no-packing specialization for `M ≤`
//!   [`SKINNY_MAX_M`] row-major products, the shape small-batch inference
//!   emits (a bench-width detector's conv layers are `m ∈ {4, 8}` GEMMs
//!   where panel packing costs more than it saves). `A` rows stay
//!   register-resident as broadcasts; `B` rows stream contiguously through
//!   FMA lanes in 16-column strips, six output rows at a time.
//!
//! ## Feature detection and exactness
//!
//! [`simd_available`] gates every entry point: AVX2+FMA detected at runtime
//! on x86-64, NEON (baseline) on aarch64, `false` elsewhere, and `false`
//! everywhere when `NILM_SIMD=off` — that environment override is how CI
//! exercises the portable-scalar fallback on machines that do have the ISA.
//! When unavailable, every kernel falls back to scalar code with the exact
//! per-element accumulation chain of the portable path.
//!
//! Every kernel preserves the crate's left-to-right `k`-chain contract (see
//! [`crate::gemm`]): lane `j` of an accumulator register carries exactly the
//! chain `((c0 + t_0) + t_1) + …` that the scalar kernel computes for that
//! output element. Whether the *results* are bit-identical therefore only
//! depends on whether each multiply-add step contracts to a fused operation
//! on both paths:
//!
//! - the SIMD step is always fused (`vfmadd231ps` / `fmla`);
//! - the scalar step ([`crate::gemm::fmadd`]) is fused exactly when the
//!   crate is compiled with the `fma` target feature (x86-64; the default
//!   `.cargo/config.toml` builds with `target-cpu=native`, so any machine
//!   whose CPU has FMA gets it) or NEON (aarch64 baseline).
//!
//! [`simd_exact`] reports that condition. When it is `false` (e.g. a
//! portable x86-64 build without `-C target-feature=+fma` running on an
//! AVX2 machine), SIMD results would differ from scalar by one rounding per
//! multiply-add, so [`crate::gemm::host_kernel_mode`] never selects these
//! kernels there: such a host runs the portable microkernel, and every
//! backend stays bit-identical to the naive reference on every build.

use crate::gemm::{fmadd, MR, NR};
use std::sync::OnceLock;

/// Maximum `m` (output rows) handled by [`skinny_gemm`]; taller products go
/// through the packed path, where panel reuse wins.
pub const SKINNY_MAX_M: usize = 16;

/// Rows processed per strip pass of the skinny kernel: 6 rows × 2 lanes of
/// accumulators + 2 `B` loads + 1 broadcast = 15 of 16 `ymm` registers.
const SKINNY_RB: usize = 6;

/// Whether the explicit SIMD kernels are usable on this machine: requires
/// AVX2+FMA (x86-64, runtime-detected) or NEON (aarch64 baseline), and not
/// having been disabled via `NILM_SIMD=off|0|false` (read once).
pub fn simd_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        if matches!(
            std::env::var("NILM_SIMD").ok().as_deref(),
            Some("off") | Some("0") | Some("false")
        ) {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(target_arch = "aarch64")]
        {
            true
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            false
        }
    })
}

/// Whether the SIMD kernels produce **bit-identical** results to the
/// scalar path. True when SIMD is unavailable (the fallback *is* the scalar
/// path) or when the scalar path's multiply-adds are themselves fused (see
/// the module docs). When false, the host runs the portable microkernel
/// ([`crate::gemm::host_kernel_mode`]).
pub fn simd_exact() -> bool {
    if !simd_available() {
        return true;
    }
    cfg!(any(target_feature = "fma", all(target_arch = "aarch64", target_feature = "neon")))
}

// ---- skinny GEMM --------------------------------------------------------

/// `C = A · B` (or `C += A · B` when `accumulate`) for row-major operands
/// with `m ≤` [`SKINNY_MAX_M`], without packing: `A` is `[m, k]`, `B` is
/// `[k, n]`, `C` is `[m, n]`. Falls back to an identical-chain scalar loop
/// when SIMD is unavailable.
pub fn skinny_gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    accumulate: bool,
) {
    debug_assert_eq!(b.len(), k * n);
    let rows: Vec<&[f32]> =
        if n == 0 { (0..k).map(|_| &b[0..0]).collect() } else { b.chunks_exact(n).collect() };
    skinny_gemm_rows(m, n, k, a, &rows, c, accumulate);
}

/// [`skinny_gemm`] with the `B` operand given as `k` independent row slices
/// (each at least `n` long) instead of one contiguous `[k, n]` matrix.
///
/// This is the kernel behind the direct (im2col-free) convolution path: a
/// stride-1 convolution's lowered `B` rows are plain shifted windows of a
/// zero-padded input, so handing the kernel those windows as slices skips
/// materializing the column matrix entirely. The per-element accumulation
/// chain is row order, left to right — identical to the contiguous form.
pub fn skinny_gemm_rows(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rows: &[&[f32]],
    c: &mut [f32],
    accumulate: bool,
) {
    debug_assert!(m <= SKINNY_MAX_M);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(rows.len(), k);
    debug_assert!(rows.iter().all(|r| r.len() >= n));
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // Safety: simd_available() verified avx2+fma at runtime.
        unsafe { skinny_avx2(m, n, k, a, rows, c, accumulate) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if simd_available() {
        // Safety: NEON is an aarch64 baseline feature.
        unsafe { skinny_neon(m, n, k, a, rows, c, accumulate) };
        return;
    }
    skinny_scalar(m, n, k, a, rows, c, accumulate);
}

/// Portable fallback with the reference accumulation chain (`i`, then `p`,
/// then `j` — each output element sees its k-terms left to right).
fn skinny_scalar(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rows: &[&[f32]],
    c: &mut [f32],
    accumulate: bool,
) {
    for i in 0..m {
        let crow = &mut c[i * n..(i + 1) * n];
        if !accumulate {
            crow.iter_mut().for_each(|v| *v = 0.0);
        }
        for p in 0..k {
            let av = a[i * k + p];
            let brow = &rows[p][..n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv = fmadd(av, bv, *cv);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn skinny_avx2(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rows: &[&[f32]],
    c: &mut [f32],
    accumulate: bool,
) {
    let mut i = 0;
    while i < m {
        let rb = (m - i).min(SKINNY_RB);
        let ab = &a[i * k..(i + rb) * k];
        let cb = &mut c[i * n..(i + rb) * n];
        match rb {
            6 => skinny_rows_avx2::<6>(n, k, ab, rows, cb, accumulate),
            5 => skinny_rows_avx2::<5>(n, k, ab, rows, cb, accumulate),
            4 => skinny_rows_avx2::<4>(n, k, ab, rows, cb, accumulate),
            3 => skinny_rows_avx2::<3>(n, k, ab, rows, cb, accumulate),
            2 => skinny_rows_avx2::<2>(n, k, ab, rows, cb, accumulate),
            _ => skinny_rows_avx2::<1>(n, k, ab, rows, cb, accumulate),
        }
        i += rb;
    }
}

/// `RB` rows of the skinny product: each `B` row element is loaded once per
/// 16-column strip and fused against `RB` broadcast `A` scalars, so `B`
/// bandwidth is amortized `RB`-fold. Accumulators never leave registers
/// across the whole `k` loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn skinny_rows_avx2<const RB: usize>(
    n: usize,
    k: usize,
    a: &[f32],       // [RB, k]
    rows: &[&[f32]], // k rows, each at least n long
    c: &mut [f32],   // [RB, n]
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    let mut j = 0;
    // 16-column strips: 2 ymm accumulators per row.
    while j + 2 * 8 <= n {
        let mut acc = [[_mm256_setzero_ps(); 2]; RB];
        if accumulate {
            for r in 0..RB {
                let base = c.as_ptr().add(r * n + j);
                acc[r][0] = _mm256_loadu_ps(base);
                acc[r][1] = _mm256_loadu_ps(base.add(8));
            }
        }
        for p in 0..k {
            let bp = rows.get_unchecked(p).as_ptr().add(j);
            let b0 = _mm256_loadu_ps(bp);
            let b1 = _mm256_loadu_ps(bp.add(8));
            for r in 0..RB {
                let av = _mm256_set1_ps(*a.get_unchecked(r * k + p));
                acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
                acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
            }
        }
        for r in 0..RB {
            let base = c.as_mut_ptr().add(r * n + j);
            _mm256_storeu_ps(base, acc[r][0]);
            _mm256_storeu_ps(base.add(8), acc[r][1]);
        }
        j += 2 * 8;
    }
    // One 8-column strip.
    if j + 8 <= n {
        let mut acc = [_mm256_setzero_ps(); RB];
        if accumulate {
            for r in 0..RB {
                acc[r] = _mm256_loadu_ps(c.as_ptr().add(r * n + j));
            }
        }
        for p in 0..k {
            let b0 = _mm256_loadu_ps(rows.get_unchecked(p).as_ptr().add(j));
            for r in 0..RB {
                let av = _mm256_set1_ps(*a.get_unchecked(r * k + p));
                acc[r] = _mm256_fmadd_ps(av, b0, acc[r]);
            }
        }
        for r in 0..RB {
            _mm256_storeu_ps(c.as_mut_ptr().add(r * n + j), acc[r]);
        }
        j += 8;
    }
    // Scalar tail: `mul_add` contracts to a fused op here (the enclosing
    // function is compiled with `fma`), matching the vector lanes' chains.
    for jj in j..n {
        for r in 0..RB {
            let mut s = if accumulate { c[r * n + jj] } else { 0.0 };
            for p in 0..k {
                s = a[r * k + p].mul_add(rows[p][jj], s);
            }
            c[r * n + jj] = s;
        }
    }
}

#[cfg(target_arch = "aarch64")]
unsafe fn skinny_neon(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    rows: &[&[f32]],
    c: &mut [f32],
    accumulate: bool,
) {
    let mut i = 0;
    while i < m {
        let rb = (m - i).min(SKINNY_RB);
        let ab = &a[i * k..(i + rb) * k];
        let cb = &mut c[i * n..(i + rb) * n];
        match rb {
            6 => skinny_rows_neon::<6>(n, k, ab, rows, cb, accumulate),
            5 => skinny_rows_neon::<5>(n, k, ab, rows, cb, accumulate),
            4 => skinny_rows_neon::<4>(n, k, ab, rows, cb, accumulate),
            3 => skinny_rows_neon::<3>(n, k, ab, rows, cb, accumulate),
            2 => skinny_rows_neon::<2>(n, k, ab, rows, cb, accumulate),
            _ => skinny_rows_neon::<1>(n, k, ab, rows, cb, accumulate),
        }
        i += rb;
    }
}

#[cfg(target_arch = "aarch64")]
unsafe fn skinny_rows_neon<const RB: usize>(
    n: usize,
    k: usize,
    a: &[f32],       // [RB, k]
    rows: &[&[f32]], // k rows, each at least n long
    c: &mut [f32],   // [RB, n]
    accumulate: bool,
) {
    use std::arch::aarch64::*;
    let mut j = 0;
    // 8-column strips: 2 q accumulators per row (RB=6 → 12 of 32 v-regs).
    while j + 2 * 4 <= n {
        let mut acc = [[vdupq_n_f32(0.0); 2]; RB];
        if accumulate {
            for r in 0..RB {
                let base = c.as_ptr().add(r * n + j);
                acc[r][0] = vld1q_f32(base);
                acc[r][1] = vld1q_f32(base.add(4));
            }
        }
        for p in 0..k {
            let bp = rows.get_unchecked(p).as_ptr().add(j);
            let b0 = vld1q_f32(bp);
            let b1 = vld1q_f32(bp.add(4));
            for r in 0..RB {
                let av = *a.get_unchecked(r * k + p);
                acc[r][0] = vfmaq_n_f32(acc[r][0], b0, av);
                acc[r][1] = vfmaq_n_f32(acc[r][1], b1, av);
            }
        }
        for r in 0..RB {
            let base = c.as_mut_ptr().add(r * n + j);
            vst1q_f32(base, acc[r][0]);
            vst1q_f32(base.add(4), acc[r][1]);
        }
        j += 2 * 4;
    }
    if j + 4 <= n {
        let mut acc = [vdupq_n_f32(0.0); RB];
        if accumulate {
            for r in 0..RB {
                acc[r] = vld1q_f32(c.as_ptr().add(r * n + j));
            }
        }
        for p in 0..k {
            let b0 = vld1q_f32(rows.get_unchecked(p).as_ptr().add(j));
            for r in 0..RB {
                acc[r] = vfmaq_n_f32(acc[r], b0, *a.get_unchecked(r * k + p));
            }
        }
        for r in 0..RB {
            vst1q_f32(c.as_mut_ptr().add(r * n + j), acc[r]);
        }
        j += 4;
    }
    for jj in j..n {
        for r in 0..RB {
            let mut s = if accumulate { c[r * n + jj] } else { 0.0 };
            for p in 0..k {
                // NEON scalar fmadd: fused on aarch64 (mul_add → fmadd).
                s = a[r * k + p].mul_add(rows[p][jj], s);
            }
            c[r * n + jj] = s;
        }
    }
}

// ---- packed microkernel --------------------------------------------------

/// SIMD twin of the scalar `MR × NR` microkernel in [`crate::gemm`]: same
/// packed-panel inputs, same `first` semantics, same per-lane accumulation
/// chain. Falls back to the scalar microkernel when SIMD is unavailable.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn packed_microkernel(
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
    #[cfg(target_arch = "x86_64")]
    if simd_available() {
        // Safety: simd_available() verified avx2+fma at runtime.
        unsafe { packed_microkernel_avx2(kc, apanel, bpanel, c, row, col, ldc, mr, nr, first) };
        return;
    }
    #[cfg(target_arch = "aarch64")]
    if simd_available() {
        // Safety: NEON is an aarch64 baseline feature.
        unsafe { packed_microkernel_neon(kc, apanel, bpanel, c, row, col, ldc, mr, nr, first) };
        return;
    }
    crate::gemm::scalar_microkernel(kc, apanel, bpanel, c, row, col, ldc, mr, nr, first);
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn packed_microkernel_avx2(
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
    use std::arch::x86_64::*;
    // MR = 4 rows × 2 ymm (NR = 16 lanes) of accumulators; panels are
    // zero-padded to full tiles, so lanes past `nr` compute pure-zero chains
    // that are simply not stored back.
    let mut acc = [[_mm256_setzero_ps(); 2]; MR];
    if !first {
        for i in 0..mr {
            let crow = &c[(row + i) * ldc + col..];
            if nr == NR {
                acc[i][0] = _mm256_loadu_ps(crow.as_ptr());
                acc[i][1] = _mm256_loadu_ps(crow.as_ptr().add(8));
            } else {
                let mut tmp = [0.0f32; NR];
                tmp[..nr].copy_from_slice(&crow[..nr]);
                acc[i][0] = _mm256_loadu_ps(tmp.as_ptr());
                acc[i][1] = _mm256_loadu_ps(tmp.as_ptr().add(8));
            }
        }
    }
    for (ap, bp) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        let b0 = _mm256_loadu_ps(bp.as_ptr());
        let b1 = _mm256_loadu_ps(bp.as_ptr().add(8));
        for i in 0..MR {
            let av = _mm256_set1_ps(ap[i]);
            acc[i][0] = _mm256_fmadd_ps(av, b0, acc[i][0]);
            acc[i][1] = _mm256_fmadd_ps(av, b1, acc[i][1]);
        }
    }
    for i in 0..mr {
        let crow = &mut c[(row + i) * ldc + col..];
        if nr == NR {
            _mm256_storeu_ps(crow.as_mut_ptr(), acc[i][0]);
            _mm256_storeu_ps(crow.as_mut_ptr().add(8), acc[i][1]);
        } else {
            let mut tmp = [0.0f32; NR];
            _mm256_storeu_ps(tmp.as_mut_ptr(), acc[i][0]);
            _mm256_storeu_ps(tmp.as_mut_ptr().add(8), acc[i][1]);
            crow[..nr].copy_from_slice(&tmp[..nr]);
        }
    }
}

#[cfg(target_arch = "aarch64")]
#[allow(clippy::too_many_arguments)]
unsafe fn packed_microkernel_neon(
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
    use std::arch::aarch64::*;
    // MR = 4 rows × 4 q (NR = 16 lanes) of accumulators = 16 of 32 v-regs.
    let mut acc = [[vdupq_n_f32(0.0); 4]; MR];
    if !first {
        for i in 0..mr {
            let crow = &c[(row + i) * ldc + col..];
            if nr == NR {
                for l in 0..4 {
                    acc[i][l] = vld1q_f32(crow.as_ptr().add(l * 4));
                }
            } else {
                let mut tmp = [0.0f32; NR];
                tmp[..nr].copy_from_slice(&crow[..nr]);
                for l in 0..4 {
                    acc[i][l] = vld1q_f32(tmp.as_ptr().add(l * 4));
                }
            }
        }
    }
    for (ap, bp) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        let b = [
            vld1q_f32(bp.as_ptr()),
            vld1q_f32(bp.as_ptr().add(4)),
            vld1q_f32(bp.as_ptr().add(8)),
            vld1q_f32(bp.as_ptr().add(12)),
        ];
        for i in 0..MR {
            let av = ap[i];
            for l in 0..4 {
                acc[i][l] = vfmaq_n_f32(acc[i][l], b[l], av);
            }
        }
    }
    for i in 0..mr {
        let crow = &mut c[(row + i) * ldc + col..];
        if nr == NR {
            for l in 0..4 {
                vst1q_f32(crow.as_mut_ptr().add(l * 4), acc[i][l]);
            }
        } else {
            let mut tmp = [0.0f32; NR];
            for l in 0..4 {
                vst1q_f32(tmp.as_mut_ptr().add(l * 4), acc[i][l]);
            }
            crow[..nr].copy_from_slice(&tmp[..nr]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triple-loop reference with the crate's left-to-right k chain.
    fn reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c0: &[f32]) -> Vec<f32> {
        let mut c = c0.to_vec();
        for i in 0..m {
            for p in 0..k {
                let av = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] = fmadd(av, b[p * n + j], c[i * n + j]);
                }
            }
        }
        c
    }

    fn fill(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed as u64 * 2654435761 + 99;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn skinny_matches_reference_across_shapes_and_tails() {
        // n values hit the 16-strip, 8-strip and scalar-tail paths; m values
        // hit every row-block residue.
        for &m in &[1usize, 2, 3, 5, 6, 7, 11, 16] {
            for &n in &[1usize, 7, 8, 15, 16, 17, 24, 33, 100] {
                for &k in &[1usize, 2, 5, 13, 40] {
                    let a = fill(m * k, 1);
                    let b = fill(k * n, 2);
                    let mut c = vec![0.0f32; m * n];
                    skinny_gemm(m, n, k, &a, &b, &mut c, false);
                    let want = reference(m, n, k, &a, &b, &vec![0.0; m * n]);
                    if simd_exact() {
                        assert_eq!(c, want, "shape ({m},{n},{k})");
                    } else {
                        for (x, y) in c.iter().zip(&want) {
                            assert!((x - y).abs() <= 1e-4, "shape ({m},{n},{k})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn skinny_rows_matches_contiguous_on_overlapping_windows() {
        // The direct-convolution usage: B rows are k overlapping windows of
        // one longer buffer (shift 1, conv-style), not a packed matrix.
        // Materializing the same windows contiguously must give bit-equal
        // output — the row form is the same kernel with indirect row bases.
        for &(m, n, k) in &[(4usize, 128usize, 40usize), (6, 33, 9), (16, 17, 5), (1, 1, 1)] {
            let buf = fill(n + k - 1, 7);
            let rows: Vec<&[f32]> = (0..k).map(|p| &buf[p..p + n]).collect();
            let packed: Vec<f32> = rows.iter().flat_map(|r| r.iter().copied()).collect();
            let a = fill(m * k, 8);
            let mut c_rows = vec![0.0f32; m * n];
            let mut c_packed = vec![0.0f32; m * n];
            skinny_gemm_rows(m, n, k, &a, &rows, &mut c_rows, false);
            skinny_gemm(m, n, k, &a, &packed, &mut c_packed, false);
            assert_eq!(c_rows, c_packed, "shape ({m},{n},{k})");
        }
    }

    #[test]
    fn skinny_accumulate_adds_onto_existing_c() {
        let (m, n, k) = (6, 33, 9);
        let a = fill(m * k, 3);
        let b = fill(k * n, 4);
        let base = fill(m * n, 5);
        let mut c = base.clone();
        skinny_gemm(m, n, k, &a, &b, &mut c, true);
        let want = reference(m, n, k, &a, &b, &base);
        if simd_exact() {
            assert_eq!(c, want);
        } else {
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() <= 1e-4);
            }
        }
    }

    #[test]
    fn skinny_scalar_fallback_is_bit_exact_vs_reference() {
        // The fallback must preserve the chain regardless of ISA.
        let (m, n, k) = (5, 19, 12);
        let a = fill(m * k, 6);
        let b = fill(k * n, 7);
        let rows: Vec<&[f32]> = b.chunks_exact(n).collect();
        let mut c = vec![0.0f32; m * n];
        skinny_scalar(m, n, k, &a, &rows, &mut c, false);
        assert_eq!(c, reference(m, n, k, &a, &b, &vec![0.0; m * n]));
    }
}
