//! Dense linear algebra substrate for the long-tail recommendation workspace.
//!
//! No external linear algebra crates are available offline, so the kernels
//! the paper's algorithms need are implemented here from scratch:
//!
//! * [`DenseMatrix`] — row-major dense storage with the handful of products
//!   the solvers need;
//! * [`vector`] — BLAS-1 helpers plus the Shannon [`vector::entropy`] used by
//!   the Absorbing Cost models (Eq. 10–11);
//! * [`lu`] — LU with partial pivoting for exact hitting/absorbing times;
//! * [`qr`] — thin modified Gram-Schmidt QR;
//! * [`eigen`] — cyclic Jacobi symmetric eigendecomposition;
//! * [`svd`] — randomized truncated SVD over an abstract [`LinearOp`]
//!   (PureSVD's factorization backend);
//! * [`ops`] — the [`LinearOp`] trait for matrix-free operators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod eigen;
pub mod lu;
pub mod ops;
pub mod qr;
pub mod svd;
pub mod vector;

pub use dense::DenseMatrix;
pub use eigen::{jacobi_eigen, SymmetricEigen};
pub use lu::{solve, LinalgError, LuDecomposition};
pub use ops::LinearOp;
pub use qr::{thin_qr, ThinQr};
pub use svd::{randomized_svd, SvdConfig, TruncatedSvd};
