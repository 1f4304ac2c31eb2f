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
//! * [`kernel`] — the cache-blocked GEMM behind `Tensor::matmul{,_nt,_tn}`,
//!   with bitwise-deterministic parallel execution on [`pool::Pool`]
//!   (sized by `QREC_THREADS`; see DESIGN.md §10).
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
pub mod pool;
pub mod qi8;
pub mod tensor;

pub use graph::{Graph, NodeId};
pub use tensor::Tensor;
