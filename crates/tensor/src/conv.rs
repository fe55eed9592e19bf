//! 1-D convolution over `[batch, channels, time]` tensors.
//!
//! Two interchangeable compute backends:
//!
//! - **Naive**: the decomposition into K shifted scaled-row (axpy/dot)
//!   operations. The correctness oracle the lowered path is property-tested
//!   against (`tests/conv_gemm_equivalence.rs`, `tests/kernel_oracle.rs`),
//!   and the fastest option for very skinny shapes where im2col overhead
//!   dominates.
//! - **Simd** (lowered): the input is lowered with [`crate::im2col`] and
//!   the forward pass, the weight gradient and the input gradient each
//!   become one [`crate::gemm`] call per batch group, with groups fanned
//!   out over worker threads when the per-item work is large enough. The
//!   GEMMs run the host's microkernel ([`host_kernel_mode`]). With the
//!   explicit SIMD kernels, stride-1, dilation-1 convolutions with
//!   `out_c ≤ 16` (the entire CamAL trunk) skip im2col entirely: each
//!   lowered row is a shifted window of a once-padded input, fed to the
//!   skinny kernel as a slice (`Conv1d::forward_simd_direct`).
//!
//! Both paths accumulate every output element over `(c_in, tap)` — and the
//! weight gradient over `(batch, t)` — in the same left-to-right order, and
//! the host microkernel fuses each multiply-add exactly as the naive path
//! does, so the two are bit-identical on every build.
//!
//! Backend selection, strongest first: the per-layer override
//! ([`Conv1d::set_backend`]), then the process-wide forced backend
//! ([`crate::dispatch::set_forced_backend`] or `NILM_BACKEND`), then the
//! [`crate::dispatch`] autotuner: the first call on a given
//! `(out_c, batch·t_out, in_c·k, threads)` key races both backends on the
//! real workload and caches the winner for the process lifetime (shapes
//! too small to be worth a race run naive). The race can never perturb
//! results.
//!
//! Inference finishes every output in one more memory pass, the epilogue
//! of [`Conv1d::infer_with`]: bias add, an optional batch-norm eval map
//! ([`ChannelAffine`]) and an optional ReLU, per element in the order of
//! the unfused `Conv1d` → `BatchNorm1d` → `ReLU` chain, so fusing never
//! changes a bit. [`ConvBn`] is the block that uses it.

use crate::activation::{relu, ReLU};
use crate::dispatch::{self, Backend, ShapeKey};
use crate::gemm::{fmadd, gemm, gemm_seq, host_kernel_mode, KernelMode, Layout};
use crate::im2col::{grad2col, im2col, weight_for_input_grad, ConvGeometry};
use crate::init;
use crate::layer::{Layer, Mode, Param};
use crate::norm::{BatchNorm1d, ChannelAffine};
use crate::simd;
use crate::tensor::Tensor;
use rand::Rng;
use rayon::prelude::*;
use std::cell::RefCell;

/// Padding policy for [`Conv1d`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Padding {
    /// Output length equals `ceil(T / stride)`; zero-pads both sides
    /// (asymmetric by one on the right for even effective kernels).
    Same,
    /// No padding; output shrinks by the receptive field.
    Valid,
    /// Explicit symmetric padding of `n` zeros on each side.
    Explicit(usize),
}

/// Minimum total multiply-accumulate count (whole batch) before an
/// unpinned layer bothers autotuning; below this the shifted-axpy path wins
/// outright and even the one-time tuning race would outweigh any possible
/// gain.
const GEMM_MIN_MACS: usize = 4096;

/// Total multiply-accumulate count above which the batch splits into one
/// GEMM group per thread (the caller and the `rayon` pool's workers)
/// instead of a single wide GEMM. Below it, handing a group to a pool
/// worker (waking it; see `camal::fleet`'s `SHARD_MIN_MACS`) costs more
/// than the group's share of the work saves.
const PAR_CONV_MACS: usize = 1 << 20;

/// Reusable lowering scratch (column matrix or padded input, wide product,
/// gradient column matrix, weight-gradient product): grown once per
/// thread, then stable across calls. Per thread rather than per layer, so
/// inference through `&self` needs no lock and a model shared by several
/// threads never contends on its buffers.
#[derive(Default)]
struct Scratch {
    col: Vec<f32>,
    wide: Vec<f32>,
    gcol: Vec<f32>,
    dw: Vec<f32>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// A 1-D convolution layer with optional dilation and stride.
pub struct Conv1d {
    in_c: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    dilation: usize,
    padding: Padding,
    backend: Option<Backend>,
    weight: Param,
    bias: Option<Param>,
    cached_input: Option<Tensor>,
}

impl Conv1d {
    /// Creates a stride-1, dilation-1 convolution with He initialization.
    pub fn new(rng: &mut impl Rng, in_c: usize, out_c: usize, k: usize, padding: Padding) -> Self {
        Self::with_options(rng, in_c, out_c, k, padding, 1, 1, true)
    }

    /// Full constructor.
    #[allow(clippy::too_many_arguments)]
    pub fn with_options(
        rng: &mut impl Rng,
        in_c: usize,
        out_c: usize,
        k: usize,
        padding: Padding,
        stride: usize,
        dilation: usize,
        bias: bool,
    ) -> Self {
        assert!(in_c > 0 && out_c > 0 && k > 0 && stride > 0 && dilation > 0);
        let weight = Param::new(init::he_normal(rng, &[out_c, in_c, k], in_c * k));
        let bias = bias.then(|| Param::new(Tensor::zeros(&[out_c])));
        Conv1d {
            in_c,
            out_c,
            k,
            stride,
            dilation,
            padding,
            backend: None,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Overrides the backend for this layer. `None` follows the forced
    /// backend ([`dispatch::forced_backend`]) and, when nothing is forced,
    /// the autotuner.
    pub fn set_backend(&mut self, backend: Option<Backend>) {
        self.backend = backend;
    }

    /// Effective kernel extent `(k - 1) * dilation + 1`.
    fn effective_k(&self) -> usize {
        (self.k - 1) * self.dilation + 1
    }

    /// `(pad_left, pad_right)` for an input of length `t`.
    fn pads(&self, t: usize) -> (usize, usize) {
        match self.padding {
            Padding::Valid => (0, 0),
            Padding::Explicit(p) => (p, p),
            Padding::Same => {
                // Match the common "same" definition: out = ceil(t / stride).
                let out = t.div_ceil(self.stride);
                let needed = ((out - 1) * self.stride + self.effective_k()).saturating_sub(t);
                let left = needed / 2;
                (left, needed - left)
            }
        }
    }

    /// Output length for an input of length `t`.
    pub fn out_len(&self, t: usize) -> usize {
        let (pl, pr) = self.pads(t);
        let span = t + pl + pr;
        assert!(
            span >= self.effective_k(),
            "input ({t}) shorter than kernel ({})",
            self.effective_k()
        );
        (span - self.effective_k()) / self.stride + 1
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Kernel size.
    pub fn kernel(&self) -> usize {
        self.k
    }

    /// Index geometry for an input of length `t_in`.
    fn geometry(&self, t_in: usize) -> ConvGeometry {
        ConvGeometry {
            in_c: self.in_c,
            out_c: self.out_c,
            k: self.k,
            stride: self.stride,
            dilation: self.dilation,
            pad_left: self.pads(t_in).0,
            t_in,
            t_out: self.out_len(t_in),
        }
    }

    /// The backend this call runs without a tuning race: the per-layer
    /// override, then the forced backend, then naive for shapes too small to
    /// tune. `None` means autotune.
    fn fixed_backend(&self, geo: &ConvGeometry, batch: usize) -> Option<Backend> {
        self.backend
            .or_else(dispatch::forced_backend)
            .or_else(|| (!Self::auto_tunes(geo, batch)).then_some(Backend::Naive))
    }

    /// Whether an unpinned dispatch at this geometry is worth autotuning at
    /// all (tiny shapes go straight to the naive path).
    fn auto_tunes(geo: &ConvGeometry, batch: usize) -> bool {
        batch * geo.out_c * geo.col_rows() * geo.t_out >= GEMM_MIN_MACS
    }

    /// Autotune key of the forward pass at this geometry/batch: the lowered
    /// GEMM shape plus the worker-pool width (see [`ShapeKey`]).
    fn forward_key(geo: &ConvGeometry, batch: usize) -> ShapeKey {
        ShapeKey::with_current_threads("conv_fwd", geo.out_c, batch * geo.t_out, geo.col_rows())
    }

    /// Finishes fully accumulated outputs in one pass over each row: the
    /// bias (when present), then `bn`'s eval map, then ReLU.
    fn epilogue(&self, out: &mut Tensor, bn: Option<&BatchNorm1d>, relu: bool) {
        if self.bias.is_none() && bn.is_none() && !relu {
            return;
        }
        let channels: Vec<(Option<f32>, Option<ChannelAffine>)> = (0..self.out_c)
            .map(|co| {
                (self.bias.as_ref().map(|p| p.value.data()[co]), bn.map(|bn| bn.eval_affine(co)))
            })
            .collect();
        let t = out.dims3().2;
        for (row, &(bias, affine)) in out.data_mut().chunks_mut(t).zip(channels.iter().cycle()) {
            finish_row(row, bias, affine, relu);
        }
    }

    /// The forward pass under `backend`, into a zeroed `out` (the naive
    /// path accumulates onto it; the lowered paths overwrite it).
    fn forward_with(&self, backend: Backend, x: &Tensor, geo: &ConvGeometry, out: &mut Tensor) {
        match backend {
            Backend::Naive => self.forward_naive(x, geo, out),
            Backend::Simd if Self::direct_simd_eligible(geo) => {
                self.forward_simd_direct(x, geo, out)
            }
            Backend::Simd => self.forward_gemm(x, geo, out),
        }
    }

    /// Stateless inference with a fused epilogue: the dispatched kernel
    /// (the same `observe` / `autotune` accounting as every forward), then
    /// one pass over each output row that adds the bias, applies `bn`'s
    /// eval map ([`BatchNorm1d::eval_affine`]) and, when `relu`, clamps at
    /// zero. Per element that is
    /// `o += bias; o = g * ((o - mean) * inv_std) + be; o = o.max(0.0)`,
    /// the unfused chain's exact operation order, so the result is
    /// bit-identical to `Conv1d::infer` → `BatchNorm1d::infer` →
    /// `ReLU::infer`, without their two extra output-sized tensors.
    pub fn infer_with(&self, x: &Tensor, bn: Option<&BatchNorm1d>, relu: bool) -> Tensor {
        let (b, c_in, t_in) = x.dims3();
        assert_eq!(c_in, self.in_c, "Conv1d expected {} input channels, got {}", self.in_c, c_in);
        let geo = self.geometry(t_in);
        let mut out = Tensor::zeros(&[b, self.out_c, geo.t_out]);
        // A fixed backend runs under `dispatch::observe`, which feeds the
        // cumulative per-(op, shape, backend) kernel table and, inside a
        // traced request, records the "kernel" child span;
        // `dispatch::autotune` does the same for the race's winner.
        let key = Self::forward_key(&geo, b);
        match self.fixed_backend(&geo, b) {
            Some(backend) => {
                dispatch::observe(key, backend, || self.forward_with(backend, x, &geo, &mut out))
            }
            None => {
                dispatch::autotune(key, &Backend::all(), |backend| {
                    // Tuning re-runs must re-zero between candidates.
                    out.data_mut().iter_mut().for_each(|v| *v = 0.0);
                    self.forward_with(backend, x, &geo, &mut out)
                });
            }
        }
        self.epilogue(&mut out, bn, relu);
        out
    }

    // ---- naive (shifted-axpy) backend -----------------------------------

    fn forward_naive(&self, x: &Tensor, geo: &ConvGeometry, out: &mut Tensor) {
        let (b, _, _) = x.dims3();
        for bi in 0..b {
            for co in 0..self.out_c {
                for ci in 0..self.in_c {
                    let xr = x.row(bi, ci);
                    let wbase = (co * self.in_c + ci) * self.k;
                    let w = &self.weight.value.data()[wbase..wbase + self.k];
                    let or = out.row_mut(bi, co);
                    for (kk, &wv) in w.iter().enumerate() {
                        let (lo, hi, offset) = geo.valid_out_range(kk);
                        if lo >= hi {
                            // Tap never overlaps the input (deep padding);
                            // lo + offset may be negative here, so the
                            // shifted slice below must not be formed.
                            continue;
                        }
                        if self.stride == 1 {
                            let xs = &xr
                                [(lo as isize + offset) as usize..(hi as isize + offset) as usize];
                            for (o, &xv) in or[lo..hi].iter_mut().zip(xs) {
                                *o = fmadd(wv, xv, *o);
                            }
                        } else {
                            for to in lo..hi {
                                let ti = (to * self.stride) as isize + offset;
                                or[to] = fmadd(wv, xr[ti as usize], or[to]);
                            }
                        }
                    }
                }
            }
        }
    }

    fn backward_naive(&mut self, x: &Tensor, grad: &Tensor, geo: &ConvGeometry, dx: &mut Tensor) {
        let (b, _, _) = x.dims3();
        // The weight gradient accumulates into a scratch as one continuous
        // per-element chain over (batch, t) and lands on the stored gradient
        // in a single add — the same summation tree as the batched GEMM
        // backend, so the two stay bit-identical.
        let mut dw_scratch = vec![0.0f32; self.weight.grad.len()];
        for bi in 0..b {
            for co in 0..self.out_c {
                let gr = grad.row(bi, co);
                for ci in 0..self.in_c {
                    let xr = x.row(bi, ci);
                    let wbase = (co * self.in_c + ci) * self.k;
                    for kk in 0..self.k {
                        let (lo, hi, offset) = geo.valid_out_range(kk);
                        if lo >= hi {
                            continue;
                        }
                        let wv = self.weight.value.data()[wbase + kk];
                        let mut dw = dw_scratch[wbase + kk];
                        if self.stride == 1 {
                            let ilo = (lo as isize + offset) as usize;
                            let ihi = (hi as isize + offset) as usize;
                            // dW: correlation of grad with input.
                            for (&g, &xv) in gr[lo..hi].iter().zip(&xr[ilo..ihi]) {
                                dw = fmadd(g, xv, dw);
                            }
                            // dX: scatter grad back, shifted.
                            let dxr = dx.row_mut(bi, ci);
                            for (d, &g) in dxr[ilo..ihi].iter_mut().zip(&gr[lo..hi]) {
                                *d = fmadd(wv, g, *d);
                            }
                        } else {
                            let dxr = dx.row_mut(bi, ci);
                            for to in lo..hi {
                                let ti = ((to * self.stride) as isize + offset) as usize;
                                dw = fmadd(gr[to], xr[ti], dw);
                                dxr[ti] = fmadd(wv, gr[to], dxr[ti]);
                            }
                        }
                        dw_scratch[wbase + kk] = dw;
                    }
                }
            }
        }
        for (g, &d) in self.weight.grad.data_mut().iter_mut().zip(&dw_scratch) {
            *g += d;
        }
    }

    // ---- im2col + GEMM backend ------------------------------------------
    //
    // The batch is processed in contiguous groups of items; each group
    // unfolds its items side by side into one wide column matrix (`n =
    // group * T`), runs a single GEMM, and scatters the `[C_out, group * T]`
    // product back into the batch-major output. One group per worker thread
    // (a single group when sequential): wide GEMMs amortize packing far
    // better than per-item ones, and groups are embarrassingly parallel.
    // Column partitioning never touches the per-element accumulation chain,
    // so grouping cannot perturb bit-exactness.

    /// Contiguous batch ranges, one per worker when the work justifies it.
    fn batch_groups(b: usize, macs_per_item: usize) -> usize {
        let threads = dispatch::kernel_threads();
        if threads > 1 && b > 1 && b * macs_per_item >= PAR_CONV_MACS {
            b.div_ceil(threads)
        } else {
            b
        }
    }

    /// One group's worth of forward work: unfold `gb` items starting at
    /// `b0` into `col`, multiply, scatter into the batch-major output block.
    #[allow(clippy::too_many_arguments)]
    fn forward_gemm_group(
        w: &[f32],
        x: &Tensor,
        geo: &ConvGeometry,
        b0: usize,
        oblk: &mut [f32],
        col: &mut Vec<f32>,
        prod: &mut Vec<f32>,
    ) {
        let (m, t, kdim) = (geo.out_c, geo.t_out, geo.col_rows());
        let gb = oblk.len() / (m * t);
        let n = gb * t;
        col.resize(kdim * n, 0.0);
        prod.resize(m * n, 0.0);
        for local in 0..gb {
            im2col(geo, x.batch_slice(b0 + local), col, n, local * t);
        }
        gemm_seq(m, n, kdim, w, Layout::Normal, col, Layout::Normal, prod, false);
        // Scatter [C_out, gb * T] back to batch-major [gb, C_out, T].
        for local in 0..gb {
            for co in 0..m {
                let src = &prod[co * n + local * t..co * n + local * t + t];
                oblk[(local * m + co) * t..(local * m + co) * t + t].copy_from_slice(src);
            }
        }
    }

    /// Whether [`Self::forward_simd_direct`] applies: the host runs the
    /// SIMD microkernel and the convolution is stride-1, dilation-1 with
    /// output channels that fit the skinny kernel (`out_c ≤ SKINNY_MAX_M`).
    /// Under those constraints every lowered `(c_in, tap)` row of the
    /// im2col matrix is a plain shifted window of the zero-padded input, so
    /// the column matrix never needs to exist.
    fn direct_simd_eligible(geo: &ConvGeometry) -> bool {
        host_kernel_mode() == KernelMode::Simd
            && geo.stride == 1
            && geo.dilation == 1
            && geo.out_c <= simd::SKINNY_MAX_M
    }

    /// Direct (im2col-free) SIMD convolution: zero-pad each batch item once
    /// (`in_c · pad_len` floats instead of `in_c · k · t_out`), hand the
    /// skinny kernel the `k · in_c` shifted windows as row slices, and write
    /// straight into the batch-major output block. Same `(c_in, tap)`
    /// left-to-right accumulation chain as the lowered path, so results are
    /// bit-identical to [`Self::forward_gemm`] under `KernelMode::Simd`.
    fn forward_simd_direct(&self, x: &Tensor, geo: &ConvGeometry, out: &mut Tensor) {
        let (b, _, _) = x.dims3();
        let (m, t, kdim, kw) = (geo.out_c, geo.t_out, geo.col_rows(), geo.k);
        // Long enough that every window `[tap, tap + t_out)` is in bounds
        // and the real samples land at `pad_left + [0, t_in)`.
        let pad_len = (t + kw - 1).max(geo.pad_left + geo.t_in);
        let item = geo.in_c * pad_len;
        SCRATCH.with_borrow_mut(|scratch| {
            let xp = &mut scratch.col;
            xp.clear();
            xp.resize(b * item, 0.0);
            for bi in 0..b {
                let xi = x.batch_slice(bi);
                for ci in 0..geo.in_c {
                    let dst = bi * item + ci * pad_len + geo.pad_left;
                    xp[dst..dst + geo.t_in]
                        .copy_from_slice(&xi[ci * geo.t_in..(ci + 1) * geo.t_in]);
                }
            }
            let xp = &*xp;
            let w = self.weight.value.data();
            let run_item = |bi: usize, oblk: &mut [f32]| {
                let base = bi * item;
                let rows: Vec<&[f32]> = (0..kdim)
                    .map(|p| {
                        let start = base + (p / kw) * pad_len + (p % kw);
                        &xp[start..start + t]
                    })
                    .collect();
                simd::skinny_gemm_rows(m, t, kdim, w, &rows, oblk, false);
            };
            if Self::batch_groups(b, m * t * kdim) >= b {
                for (bi, oblk) in out.data_mut().chunks_mut(m * t).enumerate() {
                    run_item(bi, oblk);
                }
            } else {
                out.data_mut().par_chunks_mut(m * t).enumerate().for_each(|(bi, oblk)| {
                    run_item(bi, oblk);
                });
            }
        });
    }

    fn forward_gemm(&self, x: &Tensor, geo: &ConvGeometry, out: &mut Tensor) {
        let (b, _, _) = x.dims3();
        let w = self.weight.value.data();
        let (m, t, kdim) = (geo.out_c, geo.t_out, geo.col_rows());
        let group = Self::batch_groups(b, m * t * kdim);
        if group >= b {
            // Single group: run in place with the thread's reusable scratch.
            SCRATCH.with_borrow_mut(|s| {
                Self::forward_gemm_group(w, x, geo, 0, out.data_mut(), &mut s.col, &mut s.wide)
            });
        } else {
            out.data_mut().par_chunks_mut(group * m * t).enumerate().for_each(|(gi, oblk)| {
                let (mut col, mut prod) = (Vec::new(), Vec::new());
                Self::forward_gemm_group(w, x, geo, gi * group, oblk, &mut col, &mut prod);
            });
        }
    }

    /// One group's worth of input-gradient work: the transposed
    /// convolution `dx = Ŵ · grad2col(grad)` as a wide GEMM plus scatter.
    #[allow(clippy::too_many_arguments)]
    fn backward_gemm_dx_group(
        what: &[f32],
        grad: &Tensor,
        geo: &ConvGeometry,
        b0: usize,
        dblk: &mut [f32],
        gcol: &mut Vec<f32>,
        prod: &mut Vec<f32>,
    ) {
        let (in_c, t_in, gk) = (geo.in_c, geo.t_in, geo.gcol_rows());
        let gb = dblk.len() / (in_c * t_in);
        let n = gb * t_in;
        gcol.resize(gk * n, 0.0);
        prod.resize(in_c * n, 0.0);
        for local in 0..gb {
            grad2col(geo, grad.batch_slice(b0 + local), gcol, n, local * t_in);
        }
        gemm_seq(in_c, n, gk, what, Layout::Normal, gcol, Layout::Normal, prod, false);
        for local in 0..gb {
            for ci in 0..in_c {
                let src = &prod[ci * n + local * t_in..ci * n + local * t_in + t_in];
                dblk[(local * in_c + ci) * t_in..(local * in_c + ci) * t_in + t_in]
                    .copy_from_slice(src);
            }
        }
    }

    fn backward_gemm(&mut self, x: &Tensor, grad: &Tensor, geo: &ConvGeometry, dx: &mut Tensor) {
        let (b, _, _) = x.dims3();
        let kdim = geo.col_rows();
        let (out_c, t_out, in_c, t_in) = (geo.out_c, geo.t_out, geo.in_c, geo.t_in);
        let n_out = b * t_out;
        SCRATCH.with_borrow_mut(|scratch| {
            let Scratch { col: col_big, wide, gcol, dw } = scratch;

            // dW = grad_big · col_bigᵀ over the whole batch at once: the
            // inner dimension (batch, t) accumulates in exactly the naive
            // path's continuous chain, and lands on the stored gradient in
            // one add.
            col_big.resize(kdim * n_out, 0.0);
            let grad_big = &mut *wide;
            grad_big.resize(out_c * n_out, 0.0);
            for bi in 0..b {
                im2col(geo, x.batch_slice(bi), col_big, n_out, bi * t_out);
                for co in 0..out_c {
                    let dst = co * n_out + bi * t_out;
                    grad_big[dst..dst + t_out].copy_from_slice(grad.row(bi, co));
                }
            }
            dw.clear();
            dw.resize(out_c * kdim, 0.0);
            gemm(
                out_c,
                kdim,
                n_out,
                grad_big,
                Layout::Normal,
                col_big,
                Layout::Transposed,
                dw,
                false,
            );
            for (g, &d) in self.weight.grad.data_mut().iter_mut().zip(dw.iter()) {
                *g += d;
            }

            // dX = Ŵ · grad2col(grad): the transposed convolution, again one
            // wide GEMM per batch group. The permuted weight reuses the dW
            // scratch (the dW product has already been folded into the
            // stored gradient above).
            let gk = geo.gcol_rows();
            dw.clear();
            dw.resize(in_c * gk, 0.0);
            weight_for_input_grad(geo, self.weight.value.data(), dw);
            let group = Self::batch_groups(b, in_c * t_in * gk);
            if group >= b {
                Self::backward_gemm_dx_group(dw, grad, geo, 0, dx.data_mut(), gcol, wide);
            } else {
                // Parallel groups need per-worker buffers; the allocations
                // are amortized by the fan-out.
                let wref = &*dw;
                dx.data_mut().par_chunks_mut(group * in_c * t_in).enumerate().for_each(
                    |(gi, dblk)| {
                        let (mut gcol, mut prod) = (Vec::new(), Vec::new());
                        Self::backward_gemm_dx_group(
                            wref,
                            grad,
                            geo,
                            gi * group,
                            dblk,
                            &mut gcol,
                            &mut prod,
                        );
                    },
                );
            }
        });
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let out = self.infer(x);
        if mode.caches_for_backward() {
            // Cache the input for backward, reusing the previous cache's
            // allocation.
            let mut cache = self.cached_input.take().unwrap_or_else(|| Tensor::zeros(&[0]));
            cache.resize(x.shape());
            cache.data_mut().copy_from_slice(x.data());
            self.cached_input = Some(cache);
        } else {
            // Inference: drop any stale cache so a later backward cannot
            // silently differentiate against the wrong input.
            self.cached_input = None;
        }
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.infer_with(x, None, false)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let x = self.cached_input.take().expect("Conv1d backward before forward");
        let (b, _, t_in) = x.dims3();
        let (gb, gc, t_out) = grad.dims3();
        assert_eq!(gb, b);
        assert_eq!(gc, self.out_c);
        let geo = self.geometry(t_in);
        assert_eq!(geo.t_out, t_out, "grad length mismatch");
        let mut dx = Tensor::zeros(&[b, self.in_c, t_in]);

        // Bias gradient: identical on both backends.
        if let Some(bias) = &mut self.bias {
            for bi in 0..b {
                for co in 0..self.out_c {
                    bias.grad.data_mut()[co] += grad.row(bi, co).iter().sum::<f32>();
                }
            }
        }

        let backend = self.fixed_backend(&geo, b).unwrap_or_else(|| {
            // Reuse the forward pass's tuned winner: backward shares its
            // arithmetic-intensity profile, and re-racing here would
            // double-accumulate the parameter gradients.
            dispatch::cached_choice(Self::forward_key(&geo, b)).unwrap_or(Backend::Simd)
        });
        match backend {
            Backend::Naive => self.backward_naive(&x, grad, &geo, &mut dx),
            Backend::Simd => self.backward_gemm(&x, grad, &geo, &mut dx),
        }
        self.cached_input = Some(x);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        if let Some(b) = &mut self.bias {
            f(b);
        }
    }
}

/// One epilogue row, in place: `o += bias`, then the batch-norm map, then
/// ReLU, each step only when present. Matching on the options once per row
/// keeps the per-element loop branch-free.
#[inline(always)]
fn finish_row(row: &mut [f32], bias: Option<f32>, affine: Option<ChannelAffine>, relu: bool) {
    match (bias, affine) {
        (Some(b), Some(a)) => map_row(row, relu, |v| a.apply(v + b)),
        (Some(b), None) => map_row(row, relu, |v| v + b),
        (None, Some(a)) => map_row(row, relu, |v| a.apply(v)),
        (None, None) => map_row(row, relu, |v| v),
    }
}

#[inline(always)]
fn map_row(row: &mut [f32], with_relu: bool, f: impl Fn(f32) -> f32) {
    if with_relu {
        row.iter_mut().for_each(|o| *o = relu(f(*o)));
    } else {
        row.iter_mut().for_each(|o| *o = f(*o));
    }
}

/// Convolution, batch normalization and an optional ReLU: the conv block of
/// the paper's ResNet.
///
/// Every path is bit-identical to a `Sequential` of `Conv1d`,
/// `BatchNorm1d` and `ReLU`, with fewer memory passes:
///
/// - Inference — [`Layer::infer`] and `forward(.., Mode::Infer)` — runs
///   [`Conv1d::infer_with`]: one kernel plus one epilogue pass per output.
/// - Train and eval forwards run the convolution's own forward, then batch
///   norm and ReLU in place over its output: one statistics read (train
///   mode) and one pass per row that writes x̂, the output and the ReLU mask.
/// - Backward applies the ReLU mask inside batch norm's gradient reduction,
///   writes the batch-norm input gradient in a second pass, and hands it to
///   the convolution's backward.
///
/// State is visited conv first, then batch norm, and the constructor draws
/// from the RNG exactly as `Conv1d::new` alone does, so checkpoints and
/// trained weights match the unfused `Sequential` layout.
pub struct ConvBn {
    conv: Conv1d,
    bn: BatchNorm1d,
    relu: Option<ReLU>,
}

impl ConvBn {
    /// A stride-1, dilation-1 convolution with bias (He initialization),
    /// batch norm over its `out_c` channels, and a ReLU when `relu`.
    pub fn new(
        rng: &mut impl Rng,
        in_c: usize,
        out_c: usize,
        k: usize,
        padding: Padding,
        relu: bool,
    ) -> Self {
        Self::from_parts(Conv1d::new(rng, in_c, out_c, k, padding), BatchNorm1d::new(out_c), relu)
    }

    /// The block over an existing convolution and a batch norm over its
    /// output channels.
    pub fn from_parts(conv: Conv1d, bn: BatchNorm1d, relu: bool) -> Self {
        assert_eq!(bn.channels, conv.out_c, "ConvBn: batch norm must span the conv's outputs");
        ConvBn { conv, bn, relu: relu.then(ReLU::default) }
    }
}

impl Layer for ConvBn {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        if !mode.caches_for_backward() {
            // Drop every stale backward cache, as the unfused layers' own
            // `Infer` forwards would, so a later backward panics.
            self.conv.cached_input = None;
            self.bn.xhat = None;
            if let Some(r) = &mut self.relu {
                r.mask.clear();
            }
            return self.infer(x);
        }
        let mut y = self.conv.forward(x, mode);
        self.bn.forward_in_place(&mut y, mode, self.relu.as_mut().map(|r| &mut r.mask));
        y
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.conv.infer_with(x, Some(&self.bn), self.relu.is_some())
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.bn.backward_masked(grad, self.relu.as_ref().map(|r| r.mask.as_slice()));
        self.conv.backward(&g)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv.visit_params(f);
        self.bn.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.conv.visit_state(f);
        self.bn.visit_state(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::rng;

    /// A conv whose weights we set by hand for exact-output tests.
    fn manual_conv(
        in_c: usize,
        out_c: usize,
        k: usize,
        padding: Padding,
        w: &[f32],
        b: Option<&[f32]>,
    ) -> Conv1d {
        let mut r = rng(0);
        let mut conv = Conv1d::new(&mut r, in_c, out_c, k, padding);
        conv.weight.value = Tensor::from_vec(w.to_vec(), &[out_c, in_c, k]);
        match (b, &mut conv.bias) {
            (Some(bv), Some(p)) => p.value = Tensor::from_vec(bv.to_vec(), &[out_c]),
            (None, bias) => *bias = None,
            _ => {}
        }
        conv
    }

    #[test]
    fn identity_kernel_passes_signal_through() {
        // k=1, weight=1 is the identity.
        let mut conv = manual_conv(1, 1, 1, Padding::Same, &[1.0], None);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn valid_padding_shrinks_output() {
        let mut conv = manual_conv(1, 1, 3, Padding::Valid, &[1.0, 1.0, 1.0], None);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0], &[1, 1, 5]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 3]);
        assert_eq!(y.data(), &[6.0, 9.0, 12.0]); // moving window sums
    }

    #[test]
    fn same_padding_preserves_length_odd_kernel() {
        let mut conv = manual_conv(1, 1, 3, Padding::Same, &[0.0, 1.0, 0.0], None);
        let x = Tensor::from_vec(vec![5.0, 6.0, 7.0], &[1, 1, 3]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 3]);
        assert_eq!(y.data(), &[5.0, 6.0, 7.0]); // center tap = identity
    }

    #[test]
    fn same_padding_even_kernel_and_long_kernels() {
        let mut r = rng(1);
        for k in [2, 4, 5, 7, 9, 15, 25] {
            let conv = Conv1d::new(&mut r, 1, 1, k, Padding::Same);
            assert_eq!(conv.out_len(510), 510, "k={k}");
        }
    }

    #[test]
    fn stride_two_halves_output() {
        let mut r = rng(2);
        let conv = Conv1d::with_options(&mut r, 1, 4, 3, Padding::Same, 2, 1, true);
        assert_eq!(conv.out_len(10), 5);
        assert_eq!(conv.out_len(9), 5);
    }

    #[test]
    fn dilation_expands_receptive_field() {
        // k=2, dilation=2 spans 3 inputs: y[t] = x[t] + x[t+2] (valid).
        let mut conv = manual_conv(1, 1, 2, Padding::Valid, &[1.0, 1.0], None);
        conv.dilation = 2;
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 2]);
        assert_eq!(y.data(), &[4.0, 6.0]);
    }

    #[test]
    fn bias_shifts_output() {
        let mut conv = manual_conv(1, 1, 1, Padding::Same, &[1.0], Some(&[10.0]));
        let x = Tensor::from_vec(vec![1.0, 2.0], &[1, 1, 2]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[11.0, 12.0]);
    }

    #[test]
    fn multi_channel_sums_contributions() {
        // 2 in-channels, k=1: y = 2*x0 + 3*x1.
        let mut conv = manual_conv(2, 1, 1, Padding::Same, &[2.0, 3.0], None);
        let x = Tensor::from_vec(vec![1.0, 1.0, 10.0, 10.0], &[1, 2, 2]);
        let y = conv.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[32.0, 32.0]);
    }

    #[test]
    fn backward_bias_grad_is_sum_of_upstream() {
        let mut conv = manual_conv(1, 1, 1, Padding::Same, &[1.0], Some(&[0.0]));
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 1, 3]);
        let _ = conv.forward(&x, Mode::Train);
        let _ = conv.backward(&Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 1, 3]));
        let mut bias_grad = 0.0;
        conv.visit_params(&mut |p| {
            if p.value.shape() == [1] {
                bias_grad = p.grad.data()[0];
            }
        });
        assert_eq!(bias_grad, 6.0);
    }

    #[test]
    fn param_count_matches_formula() {
        let mut r = rng(3);
        let mut conv = Conv1d::new(&mut r, 16, 32, 5, Padding::Same);
        assert_eq!(conv.num_params(), 32 * 16 * 5 + 32);
    }

    #[test]
    fn backends_agree_bitwise_on_a_nontrivial_shape() {
        let mut r = rng(7);
        let mut conv = Conv1d::with_options(&mut r, 3, 5, 7, Padding::Same, 1, 1, true);
        let x = init::randn_tensor(&mut r, &[2, 3, 40], 1.0);
        let g = init::randn_tensor(&mut r, &[2, 5, 40], 1.0);

        conv.set_backend(Some(Backend::Naive));
        let y_n = conv.forward(&x, Mode::Train);
        conv.zero_grad();
        let dx_n = conv.backward(&g);
        let mut grads_n = Vec::new();
        conv.visit_params(&mut |p| grads_n.push(p.grad.clone()));

        conv.set_backend(Some(Backend::Simd));
        let y_s = conv.forward(&x, Mode::Train);
        conv.zero_grad();
        let dx_s = conv.backward(&g);
        let mut grads_s = Vec::new();
        conv.visit_params(&mut |p| grads_s.push(p.grad.clone()));

        assert_eq!(y_n.data(), y_s.data());
        assert_eq!(dx_n.data(), dx_s.data());
        for (a, b) in grads_n.iter().zip(&grads_s) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn auto_skips_tuning_for_tiny_shapes_and_tunes_large_ones() {
        let mut r = rng(8);
        let tiny = Conv1d::new(&mut r, 1, 1, 3, Padding::Same);
        assert!(!Conv1d::auto_tunes(&tiny.geometry(8), 1));
        let big = Conv1d::new(&mut r, 32, 64, 5, Padding::Same);
        assert!(Conv1d::auto_tunes(&big.geometry(128), 1));
    }

    #[test]
    fn auto_dispatch_output_matches_forced_naive_bitwise() {
        // Whatever the autotuner picks, the result must equal the oracle
        // bit for bit (only bit-identical candidates are raced).
        let _unforced = dispatch::lock_forced_backend();
        if dispatch::env_backend().is_some() {
            return; // `NILM_BACKEND` pins every unpinned layer: no tuning
        }
        let mut r = rng(21);
        let mut conv = Conv1d::new(&mut r, 4, 8, 5, Padding::Same);
        let x = init::randn_tensor(&mut r, &[3, 4, 64], 1.0);
        conv.set_backend(None);
        let y_auto = conv.forward(&x, Mode::Eval);
        let key = Conv1d::forward_key(&conv.geometry(64), 3);
        assert!(dispatch::cached_choice(key).is_some(), "the unpinned layer never autotuned");
        conv.set_backend(Some(Backend::Naive));
        let y_naive = conv.forward(&x, Mode::Eval);
        assert_eq!(y_auto.data(), y_naive.data());
    }

    #[test]
    fn forced_backend_reaches_convs_and_a_layer_override_beats_it() {
        let _forced = dispatch::lock_forced_backend();
        let mut r = rng(31);
        // A shape no other test runs, so only this test's calls land on its
        // kernel-table rows.
        let mut conv = Conv1d::new(&mut r, 3, 7, 3, Padding::Same);
        let x = init::randn_tensor(&mut r, &[2, 3, 50], 1.0);
        let calls = |backend: Backend| -> u64 {
            nilm_obs::kernel::stats()
                .into_iter()
                .filter(|(k, _)| k.op == "conv_fwd" && (k.m, k.n, k.k) == (7, 2 * 50, 3 * 3))
                .filter(|(k, _)| k.backend == backend.as_str())
                .map(|(_, stat)| stat.calls)
                .sum()
        };
        dispatch::set_forced_backend(Some(Backend::Simd));
        let _ = conv.infer(&x);
        assert_eq!((calls(Backend::Simd), calls(Backend::Naive)), (1, 0));
        conv.set_backend(Some(Backend::Naive));
        let _ = conv.infer(&x);
        assert_eq!((calls(Backend::Simd), calls(Backend::Naive)), (1, 1));
    }
}
