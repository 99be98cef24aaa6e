//! Cycle-level simulator of the RSQP processing architecture (§3 of the
//! paper).
//!
//! The real RSQP runs on an AMD-Xilinx U50: an HBM-fed SpMV engine with a
//! problem-customized MAC reduction tree, a vector engine, plain vector
//! buffers (VB), compressed vector buffers (CVB), and a small instruction
//! sequencer (Table 1). This crate reproduces that machine in simulation:
//!
//! * [`Instr`] — the instruction set of Table 1 (control, scalar
//!   arithmetic, data transfer, vector ops, vector duplication, SpMV),
//!   plus a factor solve that streams a resident LDLᵀ factor through the
//!   SpMV engine,
//! * [`Program`]/[`ProgramBuilder`] — instruction sequences with a single
//!   hardware loop, as used for Algorithms 1 and 2,
//! * [`DatapathMap`] — how one matrix maps onto a configured datapath:
//!   sparsity string, pack schedule, lane accesses, CVB layout,
//! * [`Machine`] — functional + cycle-accurate execution: every instruction
//!   computes its real `f64` result *and* advances the cycle counter by the
//!   cost implied by the architecture configuration (pack schedule for
//!   SpMV, CVB layout for duplication, `⌈L/C⌉` for vector ops),
//! * [`kernels`] — canned programs: the PCG solve of Algorithm 2 and the
//!   ADMM vector updates of Algorithm 1,
//! * [`ResourceModel`] — DSP/FF/LUT and f_max estimates calibrated against
//!   the paper's Table 3 synthesis results,
//! * [`codegen`] — the HLS code-generation analog of Figures 4–5.
//!
//! Cycle fidelity follows the paper's published model: instructions execute
//! back-to-back ("each instruction can only start after the previous
//! instruction has completed"), vector instructions take `⌈L/C⌉` cycles plus
//! a pipeline-fill latency, the SpMV instruction takes exactly the scheduled
//! pack count, vector duplication takes one cycle per compressed CVB
//! address, and a factor solve takes two sweeps of `h` dependent levels
//! (the elimination-tree height) at the SpMV latency each plus `⌈l_nnz/C⌉`
//! streaming cycles, and one vector pass.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
mod config;
mod datapath;
mod error;
pub mod hbm;
mod isa;
pub mod kernels;
mod machine;
mod program;
mod resources;
pub mod rom;

pub use config::{ArchConfig, CostModel, FaultConfig};
pub use datapath::DatapathMap;
pub use error::ArchError;
pub use isa::{FactorId, Instr, MatrixId, SReg, ScalarOp, VecId};
pub use machine::{CycleBreakdown, FactorRef, Machine, RunStats};
pub use program::{instruction_class, Program, ProgramBuilder};
pub use resources::{ResourceEstimate, ResourceModel};
