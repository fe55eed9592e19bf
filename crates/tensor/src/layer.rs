//! The [`Layer`] trait, trainable [`Param`]s and the [`Sequential`]
//! container.
//!
//! Every layer implements an explicit backward pass instead of relying on a
//! tape: the forward pass caches exactly what its backward needs, which keeps
//! allocations predictable and the hot loops easy to inspect. Correctness of
//! each backward pass is enforced by numerical-gradient tests (see
//! [`crate::gradcheck`]).

use crate::tensor::Tensor;

/// Whether a forward pass is part of training (dropout active, batch-norm
/// batch statistics), evaluation (deterministic), or inference
/// (deterministic *and* free of backward bookkeeping).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Training: stochastic layers are active, normalization uses batch stats.
    Train,
    /// Evaluation: deterministic forward with running statistics. Layers
    /// still cache what `backward` needs, so gradient checks can run
    /// eval-mode semantics.
    Eval,
    /// Inference: numerically identical to [`Mode::Eval`], but layers skip
    /// every cache that exists only for a subsequent `backward` call (input
    /// copies, activation masks, normalized-input buffers). Calling
    /// `backward` after an `Infer` forward is a contract violation and
    /// panics. A `forward` in this mode computes through the same code as
    /// the stateless [`Layer::infer`]; the serving path calls `infer`
    /// directly, so one copy of a model can serve every core at once.
    Infer,
}

impl Mode {
    /// True when a forward pass in this mode must retain whatever the
    /// backward pass needs (everything except [`Mode::Infer`]).
    #[inline]
    pub fn caches_for_backward(self) -> bool {
        !matches!(self, Mode::Infer)
    }
}

/// A trainable parameter: the value plus its accumulated gradient.
pub struct Param {
    /// Current parameter value.
    pub value: Tensor,
    /// Gradient of the loss with respect to `value`, accumulated by
    /// `backward` calls and cleared by [`Layer::zero_grad`].
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Param { value, grad }
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// True when the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

/// A differentiable module.
///
/// Contract: `backward` must be called with the gradient of the loss with
/// respect to the *output* of the immediately preceding `forward` call, and
/// returns the gradient with respect to that call's *input*. Parameter
/// gradients are accumulated (`+=`), so callers must `zero_grad` between
/// optimization steps.
///
/// Layers are `Sync`: [`Layer::infer`] takes `&self`, so several threads
/// may run inference through one shared layer at the same time.
pub trait Layer: Send + Sync {
    /// Runs the layer on `x`, caching whatever the backward pass needs.
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor;

    /// Stateless inference: the [`Mode::Infer`] forward of `x`, bit for
    /// bit, without touching the layer. Every layer a CAM detector is built
    /// from implements it; the default panics, for the sequence baselines
    /// that are only ever run through `forward`.
    fn infer(&self, x: &Tensor) -> Tensor {
        let _ = x;
        panic!(
            "{} has no stateless inference path; run forward(.., Mode::Infer)",
            std::any::type_name::<Self>()
        )
    }

    /// Propagates `grad` (d loss / d output) back to the input, accumulating
    /// parameter gradients along the way.
    fn backward(&mut self, grad: &Tensor) -> Tensor;

    /// Visits every trainable parameter in a stable order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        let _ = f;
    }

    /// Visits every *state* tensor in a stable order: trainable parameter
    /// values plus persistent non-trainable buffers (batch-norm running
    /// statistics). This is the traversal behind [`Layer::save_state`] /
    /// [`Layer::load_state`], so together the visited tensors must fully
    /// determine the layer's `Mode::Eval` forward pass.
    ///
    /// The default visits parameter values only. Layers that carry extra
    /// buffers (e.g. `BatchNorm1d`) and containers that hold child layers
    /// (e.g. `Sequential`) must override it — a container that merely
    /// inherits the default would reach children through `visit_params` and
    /// silently skip their buffers.
    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.visit_params(&mut |p| f(&mut p.value));
    }

    /// Serializes the full evaluation state ([`Layer::visit_state`] order)
    /// into the versioned binary format of [`crate::serialize`].
    fn save_state(&mut self) -> Vec<u8> {
        let mut writer = crate::serialize::StateWriter::new();
        self.visit_state(&mut |t| writer.push_tensor(t));
        writer.finish()
    }

    /// Restores state previously produced by [`Layer::save_state`]. The
    /// layer must have the exact same architecture: every tensor is
    /// shape-checked against the visit order and any mismatch (as well as a
    /// bad magic/version header or a truncated/oversized payload) is
    /// rejected without partially applying the file.
    fn load_state(&mut self, bytes: &[u8]) -> Result<(), crate::serialize::SerializeError> {
        let mut reader = crate::serialize::StateReader::new(bytes)?;
        // Two-phase: validate every record against the expected shapes
        // first, then commit, so a corrupt tail cannot leave the layer
        // half-loaded.
        let mut shapes: Vec<Vec<usize>> = Vec::new();
        self.visit_state(&mut |t| shapes.push(t.shape().to_vec()));
        let tensors = reader.read_all(&shapes)?;
        let mut next = tensors.into_iter();
        self.visit_state(&mut |t| {
            let src = next.next().expect("visit_state order changed between passes");
            t.data_mut().copy_from_slice(&src);
        });
        Ok(())
    }

    /// Clears accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.grad.fill(0.0));
    }

    /// Total number of trainable scalars.
    fn num_params(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.len());
        n
    }
}

/// Runs layers in order; the workhorse container for feed-forward stacks.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// An empty container.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends a boxed layer in place.
    pub fn add(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of layers held.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when no layers are held.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut layers = self.layers.iter_mut();
        let mut cur = match layers.next() {
            Some(first) => first.forward(x, mode),
            None => x.clone(),
        };
        for layer in layers {
            cur = layer.forward(&cur, mode);
        }
        cur
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut layers = self.layers.iter();
        let mut cur = match layers.next() {
            Some(first) => first.infer(x),
            None => x.clone(),
        };
        for layer in layers {
            cur = layer.infer(&cur);
        }
        cur
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut layers = self.layers.iter_mut().rev();
        let mut cur = match layers.next() {
            Some(last) => last.backward(grad),
            None => grad.clone(),
        };
        for layer in layers {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        for layer in &mut self.layers {
            layer.visit_state(f);
        }
    }
}

/// The identity layer; useful as a placeholder branch in residual blocks.
#[derive(Default)]
pub struct Identity;

impl Layer for Identity {
    fn forward(&mut self, x: &Tensor, _mode: Mode) -> Tensor {
        x.clone()
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        x.clone()
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        grad.clone()
    }
}

/// `main + shortcut` residual composition: `y = main(x) + shortcut(x)`.
///
/// The shortcut is the identity when `shortcut` is `None`; otherwise it is a
/// projection (1x1 conv + norm in ResNet when channel counts change).
pub struct Residual {
    main: Box<dyn Layer>,
    shortcut: Option<Box<dyn Layer>>,
}

impl Residual {
    /// A residual block with an identity shortcut.
    pub fn new(main: impl Layer + 'static) -> Self {
        Residual { main: Box::new(main), shortcut: None }
    }

    /// A residual block with a projection shortcut.
    pub fn with_shortcut(main: impl Layer + 'static, shortcut: impl Layer + 'static) -> Self {
        Residual { main: Box::new(main), shortcut: Some(Box::new(shortcut)) }
    }
}

impl Layer for Residual {
    fn forward(&mut self, x: &Tensor, mode: Mode) -> Tensor {
        let mut main = self.main.forward(x, mode);
        match &mut self.shortcut {
            Some(s) => main.add_assign(&s.forward(x, mode)),
            None => main.add_assign(x),
        }
        main
    }

    fn infer(&self, x: &Tensor) -> Tensor {
        let mut main = self.main.infer(x);
        match &self.shortcut {
            Some(s) => main.add_assign(&s.infer(x)),
            None => main.add_assign(x),
        }
        main
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let mut gx = self.main.backward(grad);
        let side = match &mut self.shortcut {
            Some(s) => s.backward(grad),
            None => grad.clone(),
        };
        gx.add_assign(&side);
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.main.visit_params(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_params(f);
        }
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Tensor)) {
        self.main.visit_state(f);
        if let Some(s) = &mut self.shortcut {
            s.visit_state(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ReLU;

    #[test]
    fn identity_roundtrips() {
        let mut id = Identity;
        let x = Tensor::from_slice(&[1.0, -2.0, 3.0]);
        assert_eq!(id.forward(&x, Mode::Eval), x);
        assert_eq!(id.backward(&x), x);
    }

    #[test]
    fn sequential_composes_in_order() {
        let mut seq = Sequential::new().push(ReLU::default()).push(Identity);
        let x = Tensor::from_slice(&[-1.0, 2.0]);
        let y = seq.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[0.0, 2.0]);
        let g = seq.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert_eq!(g.data(), &[0.0, 1.0]);
    }

    #[test]
    fn residual_identity_doubles_signal() {
        let mut res = Residual::new(Identity);
        let x = Tensor::from_slice(&[1.0, 2.0]);
        let y = res.forward(&x, Mode::Eval);
        assert_eq!(y.data(), &[2.0, 4.0]);
        let g = res.backward(&Tensor::from_slice(&[1.0, 1.0]));
        assert_eq!(g.data(), &[2.0, 2.0]);
    }

    #[test]
    fn containers_infer_like_an_infer_forward() {
        let mut res = Residual::new(Sequential::new().push(ReLU::default()).push(Identity));
        let x = Tensor::from_slice(&[-1.0, 2.0, 0.5]);
        assert_eq!(res.infer(&x), res.forward(&x, Mode::Infer));
    }

    #[test]
    fn param_counts_accumulate() {
        let mut seq = Sequential::new().push(Identity).push(Identity);
        assert_eq!(seq.num_params(), 0);
    }
}
