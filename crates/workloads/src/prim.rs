//! The *PrIM* kernel group: real-PIM benchmark staples from the PrIM
//! suite (arXiv 2105.03814) that the original 21-kernel sweep lacked —
//! histogram, SpMV over CSR, gather/scatter, select and hash-join over
//! columnar data, and an inclusive prefix-scan.
//!
//! Each kernel is registered in [`crate::all_kernels`], runs on all five
//! substrates in both execution modes (stepped and fused), and is verified
//! lane-exact against a plain-Rust oracle by the harness (and again by
//! `tests/prim_differential.rs` across the full backend × mode ×
//! optimizer matrix). Every kernel is also expressible through the
//! `dpapi` data-parallel frontend; `dpapi`'s tests cross-check the two
//! implementations byte for byte.

mod gather_scatter;
mod histogram;
mod scan;
mod select_join;
mod spmv;

pub use gather_scatter::{gather, scatter, scatter_dup};
pub use histogram::{histogram, Histogram};
pub use scan::prefixscan;
pub use select_join::{hashjoin, select, select_none};
pub use spmv::spmv;

/// splitmix64 finalizer: derives broadcast constants (table entries,
/// thresholds, hash-table keys) deterministically from `(seed, salt)`.
pub(crate) fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
