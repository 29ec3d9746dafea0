//! The experiment bodies behind the `experiments` runner.
//!
//! Each submodule exposes one `run(&mut Reporter) -> ExperimentResult`
//! that regenerates one EXPERIMENTS.md section. Bodies are pure functions
//! of the canonical trace definitions in the crate root; independent sweep
//! cells inside a body fan out with [`crate::par::par_map`], which keeps
//! output order (and therefore bytes) identical to a serial run.

pub mod f1;
pub mod f10;
pub mod f2;
pub mod f3;
pub mod f4;
pub mod f5;
pub mod f6;
pub mod f7;
pub mod f8;
pub mod f9;
pub mod t1;
pub mod t2;
pub mod t3;
pub mod t5;
pub mod t6;
pub mod t7;
