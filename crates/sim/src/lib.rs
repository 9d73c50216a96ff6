//! # mbavf-sim — the GPU/APU performance-simulator substrate
//!
//! A from-scratch SIMT GPU simulator playing the role gem5's APU model plays
//! in the MICRO 2014 MB-AVF paper: it executes kernels written in a small
//! GCN-style ISA on a timing model (4 compute units × 4 wavefront slots,
//! per-CU 16KB L1, shared 256KB L2, byte-granularity accesses on 64-byte
//! lines) while recording everything ACE analysis needs:
//!
//! * a dynamic-instruction **provenance trace** ([`trace`]) feeding the
//!   backward **liveness/demand** pass ([`liveness`]) — transitive
//!   dynamic-dead instructions and bit-level logic masking;
//! * **cache events** and a global memory log ([`cache`]);
//! * **vector-register-file events** ([`gpu::RegEvent`]);
//! * a fast **functional interpreter** with deterministic fault injection
//!   ([`interp`]) for the paper's Section VII-A accuracy study.
//!
//! [`extract`] converts the recorded events into the per-byte
//! [`TimelineStore`](mbavf_core::timeline::TimelineStore)s consumed by
//! `mbavf-core`'s MB-AVF engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod batch;
pub mod cache;
pub mod exec;
pub mod extract;
pub mod gpu;
pub mod interp;
pub mod isa;
pub mod isolate;
pub mod liveness;
pub mod mem;
pub mod profile;
pub mod program;
pub mod trace;

pub use arena::{TrialArena, TrialResult};
pub use batch::TrialBatch;
pub use exec::Wavefront;
pub use gpu::{run_timed, GpuConfig, RunResult};
pub use interp::{run_functional, run_functional_isolated, run_golden, Injection};
pub use isolate::catch_crash;
pub use mem::{BoundaryImages, Memory, SimError};
pub use profile::{profile_golden, RegUseProfile};
pub use program::{Assembler, Program};
