// Indexed loops over parallel arrays are the clearest form for the
// numeric kernels in this crate.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

//! gem5-like system-level model — §V of the paper.
//!
//! "Building a simulator capable of modeling the behavior of security
//! primitives, such as PUFs, requires modeling all system components
//! (CPU, memory, accelerators)". This crate provides them:
//!
//! * [`riscv`] — an RV32IM instruction-set simulator with a simple cycle
//!   model and `rdcycle`/`rdinstret`;
//! * [`asm`] — a two-pass assembler so firmware stays readable;
//! * [`bus`] — flat RAM plus an MMIO bus for peripherals;
//! * [`peripherals`] — the PUF peripheral (the §V "peripheral module
//!   connected to the RISC-V microprocessor"), an accelerator window and
//!   a UART;
//! * [`soc`] — the wired system with gem5-style statistics (a
//!   [`neuropuls_rt::trace::Registry`]) including throughput, latency
//!   and a picojoule-level energy model.
//!
//! # Example — firmware interrogating the PUF
//!
//! ```
//! use neuropuls_photonic::process::DieId;
//! use neuropuls_puf::photonic::PhotonicPuf;
//! use neuropuls_system::soc::{firmware, Soc, StopReason};
//!
//! # fn main() -> Result<(), neuropuls_system::asm::AsmError> {
//! let mut soc = Soc::new(PhotonicPuf::reference(DieId(1), 7), None);
//! soc.load_firmware(firmware::PUF_READ)?;
//! assert!(matches!(soc.run(100_000), StopReason::Halted(_)));
//! # Ok(())
//! # }
//! ```

pub mod asm;
pub mod bus;
pub mod crp_store;
pub mod event;
pub mod fleet;
pub mod peripherals;
pub mod riscv;
pub mod soc;
#[cfg(test)]
mod stats;

pub use soc::{Soc, StopReason};
