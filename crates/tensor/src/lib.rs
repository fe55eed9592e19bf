//! # nilm-tensor
//!
//! A minimal, dependency-light CPU tensor and neural-network substrate built
//! for the CamAL reproduction. It provides exactly the layers the paper's
//! models need — 1-D convolutions, batch/layer norm, pooling (including the
//! GAP layer that enables Class Activation Maps), GRU/BiGRU, multi-head
//! self-attention — with explicit, numerically verified backward passes and
//! SGD/Adam optimizers.
//!
//! Shape convention: sequence models operate on `[batch, channels, time]`
//! tensors; classifier heads operate on `[batch, features]`.
//!
//! ## Example
//!
//! ```
//! use nilm_tensor::prelude::*;
//!
//! let mut rng = nilm_tensor::init::rng(0);
//! let mut model = Sequential::new()
//!     .push(Conv1d::new(&mut rng, 1, 4, 3, Padding::Same))
//!     .push(ReLU::default())
//!     .push(GlobalAvgPool1d::default())
//!     .push(Linear::new(&mut rng, 4, 2));
//! let x = Tensor::zeros(&[8, 1, 32]);
//! let logits = model.forward(&x, Mode::Eval);
//! assert_eq!(logits.shape(), &[8, 2]);
//! ```

pub mod activation;
pub mod attention;
pub mod conv;
pub mod dispatch;
pub mod dropout;
pub mod gemm;
pub mod gradcheck;
pub mod im2col;
pub mod init;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod norm;
pub mod optim;
pub mod oracle;
pub mod pool;
pub mod rnn;
pub mod serialize;
pub mod simd;
pub mod tensor;

/// Convenient glob import for model construction.
pub mod prelude {
    pub use crate::activation::{Gelu, ReLU, Sigmoid, Tanh};
    pub use crate::attention::{
        MultiHeadSelfAttention, PositionalEncoding, TransformerEncoderLayer,
    };
    pub use crate::conv::{Conv1d, ConvBn, Padding};
    pub use crate::dispatch::{forced_backend, set_forced_backend, Backend};
    pub use crate::dropout::Dropout;
    pub use crate::layer::{Identity, Layer, Mode, Param, Residual, Sequential};
    pub use crate::linear::{Linear, TimeDistributed};
    pub use crate::norm::{BatchNorm1d, LayerNorm};
    pub use crate::optim::{Adam, Sgd};
    pub use crate::pool::{AvgPool1d, GlobalAvgPool1d, MaxPool1d, Upsample1d, UpsampleMode};
    pub use crate::rnn::{BiGru, Gru};
    pub use crate::tensor::Tensor;
}
