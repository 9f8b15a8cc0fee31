#![warn(unused)]
#![allow(clippy::needless_range_loop)] // index loops over coupled arrays are the clearest form for BLAS-style kernels
//! # skt-encoding
//!
//! Stripe-based group parity encoding — the error-correcting layer of the
//! self-checkpoint method (paper §2.1).
//!
//! Processes are partitioned into groups of `N`. Each process splits its
//! local data into `N-1` equal stripes; the group computes one parity
//! stripe per *slot* and stores it on the slot's owner, RAID-5 style, so
//! no single node becomes an encoding hot spot. A checksum is therefore
//! only `1/(N-1)` of the data size — the observation the self-checkpoint
//! protocol exploits to replace a second full checkpoint copy with a
//! second checksum.
//!
//! * [`layout`] — the stripe/slot geometry (who stores which parity,
//!   which stripe of which rank belongs to which slot).
//! * [`code`] — the selector between the two single-failure reduce
//!   operators the paper supports through `MPI_Reduce`: bitwise XOR on
//!   `f64` bit patterns (`MPI_BXOR`, exact) and numeric SUM (`MPI_SUM`,
//!   subject to rounding).
//! * [`rs`] — the one linear code over GF(2^8) the checkpoint path
//!   encodes with: the paper's XOR parity (`m = 1`), RAID-6 P+Q
//!   (`m = 2`) and Cauchy Reed–Solomon (any `m`) are the same
//!   contrib/solve with a different generator row; decoding is
//!   Gauss–Jordan elimination over [`gf256`]. The paper names RAID-6 /
//!   Reed-Solomon as the extension path (§2.1).
//! * [`dualparity`] — the reference encoder: the direct
//!   (non-distributed) P+Q encode the `Dual` generator is checked
//!   against; it has no decoder, since every rebuild goes through [`rs`].
//! * [`codec`] — the [`ErasureCodec`] abstraction the protocol stack
//!   programs against and the [`CodecSpec`] selector: the GF(2^8) code
//!   for every XOR-wire spec, plus the SUM codec.
//! * [`kernels`] — the cache-blocked, multi-threaded accumulate / copy
//!   engine under the codecs, the reduce operators, and the protocol's
//!   flush copies, selected through [`kernels::KernelConfig`].
//! * [`simd`] — the runtime-dispatched byte-level backends under the
//!   GF(2^8)/CRC hot loops: one `dst (= | ^=) c·src` body per backend
//!   (portable split-table, AVX2 `vpshufb`) and slice-by-8 / hardware
//!   CRC-32C variants, the portable pair forceable via
//!   [`simd::SimdMode`] / `SKT_KERNEL_SIMD=0`, all bit-for-bit
//!   equivalent to the log/exp and table-walk references.
//! * [`crc`] — CRC32C integrity checksums over checkpoint regions,
//!   chunk-walked through the same kernel policy and reassembled with an
//!   exact GF(2) combine, so detection of silent in-memory corruption is
//!   parallel and bit-reproducible.

pub mod code;
pub mod codec;
pub mod crc;
pub mod dualparity;
pub mod gf256;
pub mod kernels;
pub mod layout;
pub mod rs;
pub mod simd;

pub use code::Code;
pub use codec::{CodecSpec, ErasureCodec, Wire};
pub use crc::{copy_with_stripe_crcs, crc32c, crc32c_combine, crc32c_f64, stripe_crcs};
pub use dualparity::DualParity;
pub use kernels::KernelConfig;
pub use layout::GroupLayout;
pub use simd::{CrcBackend, GfBackend, SimdMode};
