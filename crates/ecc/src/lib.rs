//! Coding-theory substrate for the XED reproduction.
//!
//! This crate implements every error-correcting code the paper
//! *"XED: Exposing On-Die Error Detection Information for Strong Memory
//! Reliability"* (ISCA 2016) relies on:
//!
//! * [`secded`] — the SECDED codes, as one syndrome-table kernel
//!   ([`secded::Code`]) and three column tables: the (72,64) extended
//!   Hamming code ([`Hamming7264`]), the conventional choice for on-die and
//!   DIMM-level ECC; the (72,64) CRC8-ATM code ([`Crc8Atm`]), the paper's
//!   recommended on-die code because it detects **all** burst errors of
//!   length ≤ 8 (Section V-E, Table II); and the (40,32) CRC8-ATM code of
//!   x4 devices ([`secded::Crc8Atm32`], Section IX).
//! * [`parity`] — RAID-3 style XOR parity across the chips of an ECC-DIMM,
//!   used by the XED memory controller for erasure correction.
//! * [`gf`] — GF(2^m) arithmetic (m = 4, 8) backed by log/antilog tables.
//! * [`rs`] — Reed–Solomon codes with both error decoding
//!   (Berlekamp–Massey + Chien + Forney) and erasure decoding, used to model
//!   Chipkill and Double-Chipkill.
//! * [`chipkill`] — symbol-organized Chipkill / Double-Chipkill codecs built
//!   on [`rs`].
//! * [`detection`] — the Monte-Carlo harness that regenerates Table II
//!   (detection rate of random and burst errors).
//! * [`infer`] — BEER-style inference of *undisclosed* on-die codes from
//!   retention-test probe signatures, plus the HARP-style miscorrection
//!   profiler that ranks at-risk bit positions.
//! * [`mod@reference`] — the original bit-serial / `Vec`-allocating codecs, kept
//!   as the oracle the word-parallel hot-path kernels are differentially
//!   tested against.
//!
//! # Quick example
//!
//! ```
//! use xed_ecc::secded::{SecDed, DecodeOutcome, CRC8_ATM, HAMMING};
//! use xed_ecc::Crc8Atm;
//!
//! // The named codec and its kernel table are the same code.
//! let code = Crc8Atm::new();
//! assert_eq!(code.encode(42), CRC8_ATM.encode(42));
//! // Hamming and CRC8-ATM differ only in their column tables.
//! assert_ne!(HAMMING.encode(42), CRC8_ATM.encode(42));
//! let word = code.encode(0xDEAD_BEEF_0BAD_F00D);
//! // Flip one bit: the code corrects it.
//! let corrupted = word.with_bit_flipped(17);
//! match code.decode(corrupted) {
//!     DecodeOutcome::Corrected { data, bit } => {
//!         assert_eq!(data, 0xDEAD_BEEF_0BAD_F00D);
//!         assert_eq!(bit, 17);
//!     }
//!     other => panic!("expected correction, got {other:?}"),
//! }
//! ```

pub mod bits;
pub mod chipkill;
pub mod codeword;
pub mod detection;
pub mod gf;
pub mod infer;
pub mod parity;
pub mod reference;
pub mod rs;
pub mod secded;

pub use codeword::CodeWord72;
pub use secded::{Crc8Atm, DecodeOutcome, Hamming7264, SecDed};
