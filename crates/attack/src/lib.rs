//! # sca-attack
//!
//! Correlation Power Analysis (CPA) over aligned side-channel traces — the
//! attack used in Section IV-C of the reproduced paper to demonstrate that
//! the localisation quality is sufficient to recover the AES-128 key.
//!
//! The attack targets the AES SubBytes output of the first round
//! (`SBOX[plaintext[i] ^ key[i]]`) under a Hamming-weight leakage model, uses
//! an incremental Pearson-correlation accumulator (so traces can be streamed),
//! and reports per-byte key ranks. [`cpa::CpaProgress::cos_to_rank1`] reproduces
//! the "CPA (N. COs)" column of Table II: the number of located-and-aligned
//! COs needed before every key byte reaches rank 1.
//!
//! A small time aggregation ([`aggregate`]) compensates the stride-quantised
//! localisation and the residual random-delay jitter, as described in the
//! paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod cpa;
pub mod leakage;
pub mod rank;

pub use aggregate::aggregate_trace;
pub use cpa::{CpaAttack, CpaConfig, CpaProgress};
pub use leakage::{hw_sbox_output, LeakageModel};
pub use rank::{key_byte_rank, KeyRankReport};
