//! Execution instructions: the compiler layer's self-contained output.

use tacc_workload::RuntimePreference;

// The instruction forms are spelled where the event stream that reports
// them can name the type (`tacc-obs` sits below this crate); they are
// this layer's vocabulary and are re-exported as such.
pub use tacc_obs::InstructionKind;

/// What provisioning this compilation actually cost, under delta caching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Provisioning {
    /// MiB that had to be transferred (cache misses + per-job code).
    pub transferred_mb: f64,
    /// MiB the instruction references in total.
    pub total_mb: f64,
    /// Chunk-level cache hits for this compilation.
    pub chunk_hits: u32,
    /// Chunk-level cache misses for this compilation.
    pub chunk_misses: u32,
    /// Modelled provisioning latency in seconds.
    pub latency_secs: f64,
}

impl Provisioning {
    /// Fraction of referenced bytes served from cache.
    pub fn delta_savings(&self) -> f64 {
        if self.total_mb == 0.0 {
            0.0
        } else {
            1.0 - self.transferred_mb / self.total_mb
        }
    }
}

/// The self-contained instruction handed to the scheduling layer.
///
/// Everything the execution layer needs is resolved here: the instruction
/// form, the runtime system to use (resolved from the schema's preference
/// and static characteristics, per the paper's Table 1), and the gang shape.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionInstruction {
    /// Instruction form.
    pub kind: InstructionKind,
    /// The runtime system the execution layer should use. Never `Auto`:
    /// compilation resolves it.
    pub runtime: RuntimePreference,
    /// Number of gang workers.
    pub workers: u32,
    /// Image + dependency + dataset bytes referenced, MiB.
    pub payload_mb: f64,
}

/// A compiled task: its instruction and what the compilation cost. The
/// schema it was compiled from stays with the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTask {
    /// The executable instruction.
    pub instruction: ExecutionInstruction,
    /// Provisioning cost of this compilation.
    pub provisioning: Provisioning,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_savings_bounds() {
        let p = Provisioning {
            transferred_mb: 25.0,
            total_mb: 100.0,
            chunk_hits: 3,
            chunk_misses: 1,
            latency_secs: 4.0,
        };
        assert!((p.delta_savings() - 0.75).abs() < 1e-12);
        let empty = Provisioning {
            transferred_mb: 0.0,
            total_mb: 0.0,
            chunk_hits: 0,
            chunk_misses: 0,
            latency_secs: 0.0,
        };
        assert_eq!(empty.delta_savings(), 0.0);
    }

    #[test]
    fn instruction_kind_display() {
        assert_eq!(InstructionKind::ShellCommands.to_string(), "shell");
        assert_eq!(InstructionKind::ContainerImage.to_string(), "container");
    }
}
