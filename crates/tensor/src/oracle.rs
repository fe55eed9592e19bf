//! Kernel-oracle test harness: every compute backend is checked against the
//! naive reference path across randomized shapes, bit for bit.
//!
//! This is the gradcheck of the dispatch layer (compare
//! [`crate::gradcheck`], which plays the same role for backward passes):
//! any new backend — the SIMD kernels today, int8 or transformer-fused ops
//! tomorrow — lands by implementing the same operations and passing the same
//! specs. The harness lives in the library (not a test file) so integration
//! tests, property tests and downstream crates all drive one implementation.
//!
//! ## Exactness
//!
//! Backends are held to **bitwise equality**. Every kernel keeps the
//! reference's left-to-right accumulation chain, and the host microkernel
//! ([`crate::gemm::host_kernel_mode`]) fuses each multiply-add exactly as
//! the reference does, so any deviation is an indexing bug, not
//! floating-point noise. The ULP distance is reported only to make a
//! failure legible.

use crate::conv::{Conv1d, Padding};
use crate::dispatch::Backend;
use crate::gemm::{fmadd, gemm_seq, Layout};
use crate::init::{randn_tensor, rng};
use crate::layer::{Layer, Mode};
use crate::tensor::Tensor;

/// Distance between two floats in units of last place, via the monotone
/// integer mapping of IEEE-754 bit patterns (adjacent representable floats
/// are 1 apart; `+0` and `-0` are 0 apart; any NaN is `u64::MAX` from
/// everything, including itself).
pub fn ulp_distance(a: f32, b: f32) -> u64 {
    if a == b {
        return 0;
    }
    if a.is_nan() || b.is_nan() {
        return u64::MAX;
    }
    fn monotone(x: f32) -> i64 {
        let bits = x.to_bits();
        if bits & 0x8000_0000 != 0 {
            -((bits & 0x7fff_ffff) as i64)
        } else {
            bits as i64
        }
    }
    monotone(a).abs_diff(monotone(b))
}

/// Worst-case deviation between two buffers.
#[derive(Clone, Copy, Debug, Default)]
pub struct UlpReport {
    /// Largest per-element ULP distance.
    pub max_ulp: u64,
    /// Largest per-element absolute difference.
    pub max_abs: f32,
    /// Index of the worst (by ULP) element, with its two values.
    pub worst: Option<(usize, f32, f32)>,
}

/// Compares `got` against `want` element-wise. Panics on length mismatch —
/// that is a shape bug, not a numeric one.
pub fn compare(got: &[f32], want: &[f32]) -> UlpReport {
    assert_eq!(got.len(), want.len(), "oracle compared buffers of different lengths");
    let mut report = UlpReport::default();
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let ulp = ulp_distance(g, w);
        report.max_abs = report.max_abs.max((g - w).abs());
        if ulp > report.max_ulp || report.worst.is_none() {
            report.max_ulp = ulp;
            report.worst = Some((i, g, w));
        }
    }
    report
}

/// Asserts `got` equals `want` bit for bit, with a diagnostic naming the
/// worst element.
pub fn assert_exact(label: &str, got: &[f32], want: &[f32]) {
    let report = compare(got, want);
    assert!(
        report.max_ulp == 0,
        "{label}: max {} ULP (abs {:.3e}) from the reference; worst at {:?}",
        report.max_ulp,
        report.max_abs,
        report.worst,
    );
}

// ---- GEMM specs ----------------------------------------------------------

/// One reproducible GEMM problem; the oracle is a triple loop with the
/// crate's left-to-right k chain.
#[derive(Clone, Copy, Debug)]
pub struct GemmSpec {
    /// Output rows.
    pub m: usize,
    /// Output columns.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// How the `A` operand slice is laid out.
    pub a_layout: Layout,
    /// How the `B` operand slice is laid out.
    pub b_layout: Layout,
    /// `C += A·B` instead of `C = A·B`.
    pub accumulate: bool,
    /// Seed for the operand data.
    pub seed: u64,
}

impl GemmSpec {
    fn operands(&self) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let mut r = rng(self.seed);
        // Logical row-major A [m,k] and B [k,n]; layout variants below store
        // their transposes, so results are comparable across layouts.
        let a = randn_tensor(&mut r, &[self.m.max(1), self.k.max(1)], 1.0);
        let b = randn_tensor(&mut r, &[self.k.max(1), self.n.max(1)], 1.0);
        let c0 = randn_tensor(&mut r, &[self.m.max(1), self.n.max(1)], 1.0);
        let a = a.data()[..self.m * self.k].to_vec();
        let b = b.data()[..self.k * self.n].to_vec();
        let c0 = if self.accumulate {
            c0.data()[..self.m * self.n].to_vec()
        } else {
            vec![0.0; self.m * self.n]
        };
        (a, b, c0)
    }

    fn transpose(src: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; src.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = src[r * cols + c];
            }
        }
        t
    }

    /// The reference result: triple loop, k-terms strictly left to right —
    /// the chain every backend is contractually bound to.
    pub fn reference(&self) -> Vec<f32> {
        let (a, b, mut c) = self.operands();
        for i in 0..self.m {
            for p in 0..self.k {
                let av = a[i * self.k + p];
                for j in 0..self.n {
                    c[i * self.n + j] = fmadd(av, b[p * self.n + j], c[i * self.n + j]);
                }
            }
        }
        c
    }

    /// Runs the spec under `backend` ([`Backend::Naive`] = the reference)
    /// without touching any process-global state.
    pub fn run(&self, backend: Backend) -> Vec<f32> {
        if backend == Backend::Naive {
            return self.reference();
        }
        let (a, b, mut c) = self.operands();
        let a_stored = match self.a_layout {
            Layout::Normal => a,
            Layout::Transposed => Self::transpose(&a, self.m, self.k),
        };
        let b_stored = match self.b_layout {
            Layout::Normal => b,
            Layout::Transposed => Self::transpose(&b, self.k, self.n),
        };
        gemm_seq(
            self.m,
            self.n,
            self.k,
            &a_stored,
            self.a_layout,
            &b_stored,
            self.b_layout,
            &mut c,
            self.accumulate,
        );
        c
    }

    /// Asserts `backend` reproduces the reference bit for bit.
    pub fn check(&self, backend: Backend) {
        let got = self.run(backend);
        let want = self.reference();
        assert_exact(
            &format!(
                "gemm[{backend}] m={} n={} k={} a={:?} b={:?} acc={} seed={}",
                self.m, self.n, self.k, self.a_layout, self.b_layout, self.accumulate, self.seed
            ),
            &got,
            &want,
        );
    }
}

// ---- conv specs ----------------------------------------------------------

/// Forward output, input gradient and parameter gradients of one conv pass.
pub struct ConvOutputs {
    /// Forward output `[batch, out_c, t_out]`.
    pub y: Tensor,
    /// Input gradient `[batch, in_c, t_in]`.
    pub dx: Tensor,
    /// Parameter gradients in `visit_params` order (weight, then bias).
    pub grads: Vec<Tensor>,
}

/// One reproducible convolution problem (forward + backward), exercised
/// through [`Conv1d`]'s per-layer backend override so concurrently running
/// tests never race on process-global dispatch state.
#[derive(Clone, Copy, Debug)]
pub struct ConvSpec {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel taps.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Dilation.
    pub dilation: usize,
    /// Padding policy.
    pub padding: Padding,
    /// Batch size.
    pub batch: usize,
    /// Input length.
    pub t_in: usize,
    /// Whether the layer has a bias.
    pub bias: bool,
    /// Seed for weights, input and upstream gradient.
    pub seed: u64,
}

impl ConvSpec {
    /// Runs forward + backward under `backend`, returning all outputs.
    pub fn run(&self, backend: Backend) -> ConvOutputs {
        let mut r = rng(self.seed);
        let mut conv = Conv1d::with_options(
            &mut r,
            self.in_c,
            self.out_c,
            self.k,
            self.padding,
            self.stride,
            self.dilation,
            self.bias,
        );
        conv.set_backend(Some(backend));
        let x = randn_tensor(&mut r, &[self.batch, self.in_c, self.t_in], 1.0);
        let t_out = conv.out_len(self.t_in);
        let upstream = randn_tensor(&mut r, &[self.batch, self.out_c, t_out], 1.0);
        let y = conv.forward(&x, Mode::Train);
        conv.zero_grad();
        let dx = conv.backward(&upstream);
        let mut grads = Vec::new();
        conv.visit_params(&mut |p| grads.push(p.grad.clone()));
        ConvOutputs { y, dx, grads }
    }

    /// Asserts `backend` reproduces [`Backend::Naive`] bit for bit on the
    /// forward output and every gradient.
    pub fn check(&self, backend: Backend) {
        let want = self.run(Backend::Naive);
        let got = self.run(backend);
        let label = format!(
            "conv[{backend:?}] in={} out={} k={} s={} d={} pad={:?} b={} t={} bias={} seed={}",
            self.in_c,
            self.out_c,
            self.k,
            self.stride,
            self.dilation,
            self.padding,
            self.batch,
            self.t_in,
            self.bias,
            self.seed,
        );
        assert_exact(&format!("{label} forward"), got.y.data(), want.y.data());
        assert_exact(&format!("{label} dX"), got.dx.data(), want.dx.data());
        assert_eq!(got.grads.len(), want.grads.len());
        for (i, (g, w)) in got.grads.iter().zip(&want.grads).enumerate() {
            assert_exact(&format!("{label} grad[{i}]"), g.data(), w.data());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(1.0, 1.0), 0);
        assert_eq!(ulp_distance(0.0, -0.0), 0);
        assert_eq!(ulp_distance(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_distance(-1.0, f32::from_bits((-1.0f32).to_bits() + 1)), 1);
        // Straddling zero: distance is the sum of the two sides' offsets.
        let tiny_pos = f32::from_bits(1);
        let tiny_neg = -tiny_pos;
        assert_eq!(ulp_distance(tiny_pos, tiny_neg), 2);
        assert_eq!(ulp_distance(f32::NAN, 1.0), u64::MAX);
    }

    #[test]
    fn compare_finds_the_worst_element() {
        let want = [1.0f32, 2.0, 3.0];
        let got = [1.0f32, f32::from_bits(2.0f32.to_bits() + 3), 3.0];
        let report = compare(&got, &want);
        assert_eq!(report.max_ulp, 3);
        assert_eq!(report.worst.unwrap().0, 1);
    }

    #[test]
    fn gemm_spec_simd_backend_is_bit_exact() {
        // The host microkernel preserves the reference chain exactly on
        // every build.
        for seed in 0..4 {
            let spec = GemmSpec {
                m: 7,
                n: 33,
                k: 19,
                a_layout: Layout::Normal,
                b_layout: Layout::Normal,
                accumulate: seed % 2 == 0,
                seed,
            };
            spec.check(Backend::Simd);
        }
    }

    #[test]
    fn conv_spec_simd_backend_is_bit_exact() {
        let spec = ConvSpec {
            in_c: 3,
            out_c: 5,
            k: 5,
            stride: 1,
            dilation: 1,
            padding: Padding::Same,
            batch: 2,
            t_in: 30,
            bias: true,
            seed: 12,
        };
        spec.check(Backend::Simd);
    }
}
