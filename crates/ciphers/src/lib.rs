//! # sca-ciphers
//!
//! Software implementations of the cryptographic primitives evaluated by the
//! reproduced paper — AES-128, a boolean-masked AES-128, Camellia-128,
//! Clefia-128 and Simon-128 — together with an *operation recording*
//! mechanism ([`exec::ExecutionTrace`]) that captures every intermediate
//! value the software processes. The recorded operation stream is what the
//! [`soc-sim`](../soc_sim/index.html) crate converts into a simulated
//! side-channel power trace via a Hamming-weight leakage model.
//!
//! ## Fidelity notes
//!
//! * **AES-128** (and its masked variant) are bit-exact FIPS-197
//!   implementations, verified against the official test vectors. AES is the
//!   cipher attacked with CPA in the paper's Table II, so its intermediates
//!   must be correct.
//! * **Camellia-128, Clefia-128 and Simon-128** follow the round structure,
//!   round counts and operation mix of the original specifications (Feistel
//!   network with FL layers, 4-branch generalised Feistel, and ARX rounds
//!   respectively), but the constant tables that the specifications list as
//!   raw data (Camellia `SBOX1`, Clefia `S0`/`S1`, Simon `z` sequences) are
//!   derived algorithmically in this crate instead of being copied from the
//!   standards. They are therefore **workload-faithful models** (same length,
//!   same operation profile, same data-dependent leakage structure), not
//!   interoperable implementations. In the paper these three ciphers only
//!   serve as *localisation targets*, never as CPA targets, so this
//!   substitution does not affect any reproduced result: the locator sees
//!   only the power profile a cipher leaves (round structure, operation
//!   mix, data-dependent leakage), which the derived tables reproduce,
//!   while bit-compatibility with the standards would only add large
//!   transcribed constant blocks.
//!
//! ## Example
//!
//! ```rust
//! use sca_ciphers::{Aes128, RecordingCipher, ExecutionTrace};
//!
//! let key = [0u8; 16];
//! let pt = [0u8; 16];
//! let aes = Aes128::new();
//! let mut rec = ExecutionTrace::new();
//! let ct = aes.encrypt_recorded(&key, &pt, &mut rec);
//! assert_eq!(ct.len(), 16);
//! assert!(rec.len() > 500); // hundreds of recorded micro-operations
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based round loops intentionally mirror the cipher specifications.
#![allow(clippy::needless_range_loop)]

pub mod aes;
pub mod camellia;
pub mod clefia;
pub mod exec;
pub mod masked_aes;
pub mod simon;
pub mod testvectors;

pub use aes::Aes128;
pub use camellia::Camellia128;
pub use clefia::Clefia128;
pub use exec::{CipherId, ExecutionTrace, Op, OpKind, RecordingCipher};
pub use masked_aes::MaskedAes128;
pub use simon::Simon128;

/// Returns a boxed cipher implementation for every cipher evaluated in the
/// paper, in the order of Table I (AES, masked AES, Clefia, Camellia, Simon).
pub fn all_ciphers() -> Vec<Box<dyn RecordingCipher>> {
    vec![
        Box::new(Aes128::new()),
        Box::new(MaskedAes128::new(0xC0FFEE)),
        Box::new(Clefia128::new()),
        Box::new(Camellia128::new()),
        Box::new(Simon128::new()),
    ]
}

/// Returns the cipher implementation matching `id`.
pub fn cipher_by_id(id: CipherId) -> Box<dyn RecordingCipher> {
    match id {
        CipherId::Aes128 => Box::new(Aes128::new()),
        CipherId::MaskedAes128 => Box::new(MaskedAes128::new(0xC0FFEE)),
        CipherId::Clefia128 => Box::new(Clefia128::new()),
        CipherId::Camellia128 => Box::new(Camellia128::new()),
        CipherId::Simon128 => Box::new(Simon128::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ciphers_have_distinct_names() {
        let ciphers = all_ciphers();
        let names: Vec<&str> = ciphers.iter().map(|c| c.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
        assert_eq!(ciphers.len(), 5);
    }

    #[test]
    fn cipher_by_id_matches_id() {
        for id in CipherId::ALL {
            let c = cipher_by_id(id);
            assert_eq!(c.id(), id);
        }
    }

    #[test]
    fn all_ciphers_roundtrip_encrypt_decrypt() {
        let key = [0x2Au8; 16];
        let pt = [0x17u8; 16];
        for cipher in all_ciphers() {
            let ct = cipher.encrypt(&key, &pt);
            let back = cipher.decrypt(&key, &ct);
            assert_eq!(back, pt.to_vec(), "roundtrip failed for {}", cipher.name());
        }
    }

    #[test]
    fn recorded_and_plain_encrypt_agree() {
        let key = [0x01u8; 16];
        let pt = [0xFEu8; 16];
        for cipher in all_ciphers() {
            let mut rec = ExecutionTrace::new();
            let ct_rec = cipher.encrypt_recorded(&key, &pt, &mut rec);
            let ct = cipher.encrypt(&key, &pt);
            assert_eq!(ct, ct_rec, "recorded encryption differs for {}", cipher.name());
            assert!(!rec.is_empty());
        }
    }
}
