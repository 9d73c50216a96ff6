//! # mbavf-core — Architectural Vulnerability Factors for Spatial Multi-Bit Faults
//!
//! This crate implements the analysis described in *"Calculating Architectural
//! Vulnerability Factors for Spatial Multi-Bit Transient Faults"* (MICRO 2014):
//! a method to quantify, for any hardware structure, the probability that a
//! spatial multi-bit transient fault of a given geometric *fault mode* becomes
//! a detected-uncorrected error (DUE) or a silent data corruption (SDC).
//!
//! The pipeline is:
//!
//! 1. A performance simulator (see the `mbavf-sim` crate) records, for every
//!    byte of a structure, a [`timeline::ByteTimeline`]: intervals labelled
//!    with which bits are architecturally required (*ACE*) and whether a
//!    protection-domain check would observe a fault arising in the interval.
//! 2. A [`layout::PhysicalLayout`] maps physical `(row, column)` bit
//!    coordinates of the SRAM array — including bit interleaving — onto those
//!    timelines and onto *protection domains* (parity/ECC words).
//! 3. [`analysis::mb_avf`] enumerates every *fault group* (placement of a
//!    [`geometry::FaultMode`]), splits it into *overlapped regions* per
//!    protection domain, applies the protection scheme's
//!    [`protection::Action`] per region, and sweeps the member bits' interval
//!    timelines to classify every `(group, cycle)` pair as unACE, false DUE,
//!    true DUE, or SDC — equations (2) and (4)–(7) of the paper.
//! 4. [`ser`] composes MB-AVFs with per-mode raw fault rates (Ibe et al.) into
//!    a soft error rate (equation 3); [`mttf`] implements the temporal- vs.
//!    spatial-MBF mean-time-to-failure comparison of Figure 2.
//!
//! ## Quick example
//!
//! Reproduce the paper's Section IV-D first-principles result: a fault group
//! in which only one bit is ACE per cycle has an MB-AVF of `M×` the single-bit
//! AVF, while a group whose bits are ACE in the same cycles has MB-AVF equal
//! to the single-bit AVF.
//!
//! ```
//! use mbavf_core::analysis::{mb_avf, AnalysisConfig};
//! use mbavf_core::geometry::FaultMode;
//! use mbavf_core::layout::LinearLayout;
//! use mbavf_core::protection::ProtectionKind;
//! use mbavf_core::timeline::{Interval, TimelineStore};
//!
//! // A 2-bit structure observed for 100 cycles: bit 0 is ACE for the first
//! // half, bit 1 for the second half.
//! let mut store = TimelineStore::new(1, 100);
//! store.byte_mut(0).push(Interval { start: 0, end: 50, ace_mask: 0b01, checked: false }).unwrap();
//! store.byte_mut(0).push(Interval { start: 50, end: 100, ace_mask: 0b10, checked: false }).unwrap();
//!
//! // One physical row of 2 bits, both in one (unprotected) domain.
//! let layout = LinearLayout::new(1, 2, 2);
//! let cfg = AnalysisConfig::new(ProtectionKind::None);
//!
//! let sb = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap();
//! let mb = mb_avf(&store, &layout, &FaultMode::mx1(2), &cfg).unwrap();
//! assert_eq!(sb.sdc_avf(), 0.5); // each bit ACE half the time
//! assert_eq!(mb.sdc_avf(), 1.0); // the pair covers every cycle: 2x SB-AVF
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod avf;
pub mod crc;
pub mod ecc;
pub mod error;
mod fxhash;
pub mod geometry;
pub mod layout;
pub mod markov;
pub mod mttf;
pub mod protection;
pub mod rng;
pub mod ser;
pub mod stats;
pub mod timeline;

pub use analysis::{
    ace_locality, mb_avf, mb_avf_grid, windowed_mb_avf, AnalysisConfig, MbAvfResult,
};
pub use crc::{crc32, Crc32};
pub use error::{
    BundleError, CheckpointError, CoreError, InjectError, PipelineError, SupervisorError,
    TransportError,
};
pub use geometry::{FaultGroup, FaultMode};
pub use layout::{BitRef, PhysicalLayout};
pub use protection::{Action, ProtectionKind};
pub use rng::SplitMix64;
pub use stats::{two_proportion_test, wilson, z_for_confidence, AgreementTest, RateEstimate};
pub use timeline::{ByteTimeline, Cycle, Interval, TimelineStore};
