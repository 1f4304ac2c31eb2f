//! # qrec-tensor — dense tensors and reverse-mode autodiff
//!
//! The deep-learning substrate of `qrec`, written from scratch because the
//! reproduction must be self-contained (no ML framework dependency):
//!
//! * [`tensor::Tensor`] — a dense row-major 2-D `f32` matrix with the
//!   linear-algebra and elementwise operations the sequence models need.
//! * [`graph::Graph`] — a single-use autodiff tape: build a forward
//!   computation, call [`graph::Graph::backward`], read leaf gradients.
//!   Every op's gradient is validated against central finite differences
//!   in the test suite.
//! * [`init`] — Xavier / Kaiming / Gaussian weight initialisers.
//! * [`kernel`] — the register-tile GEMM behind
//!   `Tensor::matmul{,_nt,_tn}`, every product on the calling thread and
//!   bitwise equal to the naive fold (see DESIGN.md §10).
//!
//! ```
//! use qrec_tensor::{Graph, Tensor};
//!
//! let mut g = Graph::new();
//! let x = g.input(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
//! let w = g.input(Tensor::from_vec(2, 1, vec![0.5, -1.0]));
//! let y = g.matmul(x, w);            // 1x1: 1*0.5 + 2*(-1) = -1.5
//! g.backward(y);
//! assert_eq!(g.value(y).item(), -1.5);
//! assert_eq!(g.grad(w).unwrap().data(), &[1.0, 2.0]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod expf;
pub mod graph;
pub mod init;
pub mod kernel;
pub mod qi8;
pub mod tensor;

/// The compute-pool size every product runs at.
pub mod pool {
    /// Always 1: every product runs on the calling thread. Kept because
    /// the end-to-end benchmark reports it.
    pub const fn configured_threads() -> usize {
        1
    }
}

pub use graph::{Graph, NodeId};
pub use tensor::Tensor;
