//! InceptionTime (Fawaz et al., paper ref. \[37\]): multi-scale inception
//! blocks for time-series classification. The paper's §IV-A discusses it as
//! a deeper, general-purpose alternative to the ResNet backbone; we provide
//! it for the backbone ablation. Ends in GAP + linear so CAM still applies.

use crate::detector::{cached_cam, Detector, DetectorOutput};
use crate::unet_util::concat_channels;
use nilm_tensor::prelude::*;
use rand::Rng;

/// Width configuration for InceptionTime.
#[derive(Clone, Copy, Debug)]
pub struct InceptionConfig {
    /// Filters per branch (4 branches concat to `4 * filters` channels).
    pub filters: usize,
    /// Bottleneck width before the multi-scale convs.
    pub bottleneck: usize,
    /// Number of inception blocks (residual link every third block).
    pub blocks: usize,
    /// The three branch kernel sizes (classic: 10, 20, 40).
    pub kernels: [usize; 3],
}

impl InceptionConfig {
    /// Paper-scale configuration.
    pub fn paper() -> Self {
        InceptionConfig { filters: 32, bottleneck: 32, blocks: 6, kernels: [10, 20, 40] }
    }

    /// Width-reduced configuration for laptop-scale experiments.
    pub fn scaled(div: usize) -> Self {
        let d = div.max(1);
        InceptionConfig {
            filters: (32 / d).max(4),
            bottleneck: (32 / d).max(4),
            blocks: 3,
            kernels: [5, 11, 23],
        }
    }
}

/// One inception block: bottleneck 1x1 → three parallel convs + a
/// maxpool→1x1 branch, concatenated, then BN + ReLU.
struct InceptionBlock {
    bottleneck: Option<Conv1d>,
    branches: Vec<Conv1d>,
    pool: MaxPoolSame,
    pool_proj: Conv1d,
    bn: BatchNorm1d,
    relu: ReLU,
}

/// Stride-1 max pooling with same padding (window 3), used inside inception
/// blocks. Implemented directly since [`MaxPool1d`] is stride = kernel.
struct MaxPoolSame {
    argmax: Vec<usize>,
    in_shape: Vec<usize>,
}

impl MaxPoolSame {
    fn new() -> Self {
        MaxPoolSame { argmax: Vec::new(), in_shape: Vec::new() }
    }
}

impl MaxPoolSame {
    /// Pools `x`, recording each output's source index into `argmax` when
    /// given (the backward routing table).
    fn pool(&self, x: &Tensor, mut argmax: Option<&mut Vec<usize>>) -> Tensor {
        let (b, c, t) = x.dims3();
        if let Some(am) = &mut argmax {
            am.clear();
            am.resize(b * c * t, 0);
        }
        let mut out = Tensor::zeros(&[b, c, t]);
        for bi in 0..b {
            for ci in 0..c {
                let xr = x.row(bi, ci);
                let or = out.row_mut(bi, ci);
                for ti in 0..t {
                    let lo = ti.saturating_sub(1);
                    let hi = (ti + 2).min(t);
                    let (mut best_i, mut best) = (lo, f32::NEG_INFINITY);
                    for (j, &v) in xr[lo..hi].iter().enumerate() {
                        if v > best {
                            best = v;
                            best_i = lo + j;
                        }
                    }
                    or[ti] = best;
                    if let Some(am) = &mut argmax {
                        am[(bi * c + ci) * t + ti] = best_i;
                    }
                }
            }
        }
        out
    }
}

impl Layer for MaxPoolSame {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        self.in_shape = x.shape().to_vec();
        let mut argmax = std::mem::take(&mut self.argmax);
        let out = self.pool(x, Some(&mut argmax));
        self.argmax = argmax;
        out
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.pool(x, None)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (b, c, t) = grad.dims3();
        let mut dx = Tensor::zeros(&self.in_shape);
        for bi in 0..b {
            for ci in 0..c {
                for ti in 0..t {
                    let src = self.argmax[(bi * c + ci) * t + ti];
                    dx.row_mut(bi, ci)[src] += grad.at3(bi, ci, ti);
                }
            }
        }
        dx
    }
}

impl InceptionBlock {
    fn new(rng: &mut impl Rng, in_c: usize, cfg: &InceptionConfig) -> Self {
        let use_bottleneck = in_c > 1;
        let branch_in = if use_bottleneck { cfg.bottleneck } else { in_c };
        let bottleneck = use_bottleneck.then(|| {
            Conv1d::with_options(rng, in_c, cfg.bottleneck, 1, Padding::Same, 1, 1, false)
        });
        let branches = cfg
            .kernels
            .iter()
            .map(|&k| {
                Conv1d::with_options(rng, branch_in, cfg.filters, k, Padding::Same, 1, 1, false)
            })
            .collect();
        let pool_proj = Conv1d::with_options(rng, in_c, cfg.filters, 1, Padding::Same, 1, 1, false);
        InceptionBlock {
            bottleneck,
            branches,
            pool: MaxPoolSame::new(),
            pool_proj,
            bn: BatchNorm1d::new(4 * cfg.filters),
            relu: ReLU::default(),
        }
    }

    fn out_channels(&self) -> usize {
        // 3 conv branches + pool branch, each `filters` wide.
        4 * self.branches[0].out_channels()
    }
}

impl Layer for InceptionBlock {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let trunk = match &mut self.bottleneck {
            Some(bn) => bn.forward(x, mode),
            None => x.clone(),
        };
        let mut cat: Option<Tensor> = None;
        for branch in &mut self.branches {
            let y = branch.forward(&trunk, mode);
            cat = Some(match cat {
                Some(c) => concat_channels(&c, &y),
                None => y,
            });
        }
        let pooled = self.pool.forward(x, mode);
        let pooled = self.pool_proj.forward(&pooled, mode);
        let cat = concat_channels(&cat.expect("at least one branch"), &pooled);
        let y = self.bn.forward(&cat, mode);
        self.relu.forward(&y, mode)
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let trunk = match &self.bottleneck {
            Some(bn) => bn.infer(x),
            None => x.clone(),
        };
        let mut cat: Option<Tensor> = None;
        for branch in &self.branches {
            let y = branch.infer(&trunk);
            cat = Some(match cat {
                Some(c) => concat_channels(&c, &y),
                None => y,
            });
        }
        let pooled = self.pool_proj.infer(&self.pool.infer(x));
        let cat = concat_channels(&cat.expect("at least one branch"), &pooled);
        self.relu.infer(&self.bn.infer(&cat))
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.relu.backward(grad);
        let g = self.bn.backward(&g);
        // Split the concat gradient: three conv branches then the pool branch.
        let fw = self.branches[0].out_channels();
        let (g_convs, g_pool) = crate::unet_util::split_channels(&g, 3 * fw);
        let mut g_trunk: Option<Tensor> = None;
        let mut rest = g_convs;
        for branch in &mut self.branches {
            let (g_b, tail) = crate::unet_util::split_channels(&rest, fw);
            let gx = branch.backward(&g_b);
            g_trunk = Some(match g_trunk {
                Some(mut acc) => {
                    acc.add_assign(&gx);
                    acc
                }
                None => gx,
            });
            rest = tail;
        }
        let mut g_x = match &mut self.bottleneck {
            Some(bn) => bn.backward(&g_trunk.expect("branches")),
            None => g_trunk.expect("branches"),
        };
        let g_pool_in = self.pool.backward(&self.pool_proj.backward(&g_pool));
        g_x.add_assign(&g_pool_in);
        g_x
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        if let Some(b) = &mut self.bottleneck {
            b.visit_params(f);
        }
        for branch in &mut self.branches {
            branch.visit_params(f);
        }
        self.pool_proj.visit_params(f);
        self.bn.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        if let Some(b) = &mut self.bottleneck {
            b.visit_state(f);
        }
        for branch in &mut self.branches {
            branch.visit_state(f);
        }
        self.pool_proj.visit_state(f);
        self.bn.visit_state(f);
    }
}

/// InceptionTime classifier ending in GAP + linear (CAM-capable).
pub struct InceptionTime {
    blocks: Vec<InceptionBlock>,
    /// Residual projections applied every third block.
    shortcuts: Vec<(usize, Conv1d)>,
    gap: GlobalAvgPool1d,
    head: Linear,
    /// Output cached by [`Detector::forward_features`] for CAM extraction.
    last: Option<DetectorOutput>,
}

impl InceptionTime {
    /// Builds InceptionTime for univariate input with 2 output classes.
    pub fn new(rng: &mut impl Rng, cfg: InceptionConfig) -> Self {
        let mut blocks = Vec::new();
        let mut shortcuts = Vec::new();
        let mut in_c = 1usize;
        let mut residual_in = 1usize;
        for i in 0..cfg.blocks.max(1) {
            let block = InceptionBlock::new(rng, in_c, &cfg);
            let out_c = block.out_channels();
            blocks.push(block);
            if (i + 1) % 3 == 0 {
                // Residual from the input of the group to its output.
                shortcuts.push((
                    i,
                    Conv1d::with_options(rng, residual_in, out_c, 1, Padding::Same, 1, 1, false),
                ));
                residual_in = out_c;
            }
            in_c = out_c;
        }
        let head = Linear::new(rng, in_c, 2);
        InceptionTime { blocks, shortcuts, gap: GlobalAvgPool1d::default(), head, last: None }
    }
}

impl Layer for InceptionTime {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let (_, logits) = self.forward_features(x, mode);
        logits
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        self.infer_features(x).logits
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let g = self.head.backward(grad);
        let mut g = self.gap.backward(&g);
        // Walk blocks in reverse; apply residual backward where registered.
        let mut pending_residual: Option<Tensor> = None;
        for (i, block) in self.blocks.iter_mut().enumerate().rev() {
            if let Some((_, sc)) = self.shortcuts.iter_mut().find(|(bi, _)| *bi == i) {
                // The residual was added at this block's output.
                pending_residual = Some(sc.backward(&g));
            }
            g = block.backward(&g);
            if (i % 3 == 0) && pending_residual.is_some() {
                // Group boundary: the shortcut branched from this input.
                g.add_assign(&pending_residual.take().expect("checked"));
            }
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for block in &mut self.blocks {
            block.visit_params(f);
        }
        for (_, sc) in &mut self.shortcuts {
            sc.visit_params(f);
        }
        self.head.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for block in &mut self.blocks {
            block.visit_state(f);
        }
        for (_, sc) in &mut self.shortcuts {
            sc.visit_state(f);
        }
        self.head.visit_state(f);
    }
}

impl Detector for InceptionTime {
    fn infer_features(&self, x: &Tensor) -> DetectorOutput {
        let mut cur = x.clone();
        let mut group_input = x.clone();
        for (i, block) in self.blocks.iter().enumerate() {
            cur = block.infer(&cur);
            if let Some((_, sc)) = self.shortcuts.iter().find(|(bi, _)| *bi == i) {
                cur.add_assign(&sc.infer(&group_input));
                group_input = cur.clone();
            }
        }
        let logits = self.head.infer(&self.gap.infer(&cur));
        DetectorOutput { features: cur, logits, rollout: None }
    }

    fn forward_features(&mut self, x: &Tensor, mode: Mode) -> (Tensor, Tensor) {
        let mut cur = x.clone();
        let mut group_input = x.clone();
        for (i, block) in self.blocks.iter_mut().enumerate() {
            cur = block.forward(&cur, mode);
            if let Some((_, sc)) = self.shortcuts.iter_mut().find(|(bi, _)| *bi == i) {
                let res = sc.forward(&group_input, mode);
                cur.add_assign(&res);
                group_input = cur.clone();
            }
        }
        let pooled = self.gap.forward(&cur, mode);
        let logits = self.head.forward(&pooled, mode);
        let pair = (cur.clone(), logits.clone());
        self.last = Some(DetectorOutput { features: cur, logits, rollout: None });
        pair
    }

    fn cam(&self, class: usize) -> Tensor {
        cached_cam(&self.last, self.head.weight(), class)
    }

    fn head_weights(&self) -> &Tensor {
        self.head.weight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nilm_tensor::init::{randn_tensor, rng};

    fn tiny() -> InceptionConfig {
        InceptionConfig { filters: 4, bottleneck: 4, blocks: 3, kernels: [3, 5, 9] }
    }

    #[test]
    fn forward_shapes() {
        let mut r = rng(0);
        let mut net = InceptionTime::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[2, 1, 32], 1.0);
        let (features, logits) = net.forward_features(&x, Mode::Eval);
        assert_eq!(features.shape(), &[2, 16, 32]); // 4 branches × 4 filters
        assert_eq!(logits.shape(), &[2, 2]);
    }

    #[test]
    fn cam_has_input_length() {
        let mut r = rng(1);
        let mut net = InceptionTime::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[1, 1, 20], 1.0);
        let _ = net.forward_features(&x, Mode::Eval);
        let cam = net.cam(1);
        assert_eq!(cam.shape(), &[1, 20]);
        assert!(cam.all_finite());
    }

    #[test]
    fn backward_populates_gradients() {
        let mut r = rng(2);
        let mut net = InceptionTime::new(&mut r, tiny());
        let x = randn_tensor(&mut r, &[2, 1, 16], 1.0);
        let logits = net.forward(&x, Mode::Train);
        let (_, g) = nilm_tensor::loss::cross_entropy(&logits, &[0, 1]);
        let gx = net.backward(&g);
        assert_eq!(gx.shape(), x.shape());
        assert!(gx.all_finite());
        let mut total = 0.0f32;
        net.visit_params(&mut |p| total += p.grad.norm());
        assert!(total > 0.0);
    }

    #[test]
    fn maxpool_same_preserves_length_and_routes_grads() {
        let mut mp = MaxPoolSame::new();
        let x = Tensor::from_vec(vec![1.0, 5.0, 2.0, 0.0], &[1, 1, 4]);
        let y = mp.forward(&x, Mode::Eval);
        assert_eq!(y.shape(), &[1, 1, 4]);
        assert_eq!(y.data(), &[5.0, 5.0, 5.0, 2.0]);
        let g = mp.backward(&Tensor::full(&[1, 1, 4], 1.0));
        assert_eq!(g.sum(), 4.0);
    }

    #[test]
    fn deeper_than_resnet_at_paper_scale() {
        let mut r = rng(3);
        let mut inception = InceptionTime::new(&mut r, InceptionConfig::paper());
        // InceptionTime paper config: 6 blocks of multi-scale convs.
        assert!(inception.num_params() > 100_000);
    }
}
