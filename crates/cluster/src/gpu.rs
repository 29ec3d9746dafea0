//! Heterogeneous GPU models and their specifications.

use std::fmt;

/// The accelerator families present in the modelled campus cluster.
///
/// The mix mirrors what shared university clusters of the paper's era
/// actually deploy: datacenter parts (V100/A100) alongside consumer cards
/// (RTX 3090) contributed by individual groups, plus a small new-generation
/// pool (H100) for the heterogeneity experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum GpuModel {
    /// NVIDIA V100 16 GB (SXM2): the legacy datacenter pool.
    V100,
    /// NVIDIA A100 40 GB (SXM4): the main training pool.
    A100,
    /// NVIDIA RTX 3090 24 GB: consumer cards, PCIe only.
    Rtx3090,
    /// NVIDIA H100 80 GB (SXM5): the new-generation pool.
    H100,
}

impl GpuModel {
    /// All modelled GPU families, in ascending capability order.
    pub const ALL: [GpuModel; 4] = [
        GpuModel::V100,
        GpuModel::Rtx3090,
        GpuModel::A100,
        GpuModel::H100,
    ];

    /// The static specification of this GPU family.
    pub fn spec(self) -> GpuSpec {
        match self {
            GpuModel::V100 => GpuSpec {
                model: self,
                memory_gb: 16.0,
                dense_tflops: 125.0,
                nvlink_gbps: 300.0,
                has_nvlink: true,
            },
            GpuModel::A100 => GpuSpec {
                model: self,
                memory_gb: 40.0,
                dense_tflops: 312.0,
                nvlink_gbps: 600.0,
                has_nvlink: true,
            },
            GpuModel::Rtx3090 => GpuSpec {
                model: self,
                memory_gb: 24.0,
                dense_tflops: 71.0,
                nvlink_gbps: 0.0,
                has_nvlink: false,
            },
            GpuModel::H100 => GpuSpec {
                model: self,
                memory_gb: 80.0,
                dense_tflops: 989.0,
                nvlink_gbps: 900.0,
                has_nvlink: true,
            },
        }
    }

    /// Relative training throughput versus a V100 for a typical dense model.
    ///
    /// Used by the execution layer to scale compute time on heterogeneous
    /// pools: the paper's cluster mixes generations, and job runtime depends
    /// on which pool the scheduler lands a job on.
    pub fn relative_speed(self) -> f64 {
        self.spec().dense_tflops / GpuModel::V100.spec().dense_tflops
    }
}

impl fmt::Display for GpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            GpuModel::V100 => "V100",
            GpuModel::A100 => "A100",
            GpuModel::Rtx3090 => "RTX3090",
            GpuModel::H100 => "H100",
        };
        f.write_str(name)
    }
}

/// Static capability description of a GPU family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Which family this spec describes.
    pub model: GpuModel,
    /// Device memory in GiB.
    pub memory_gb: f64,
    /// Dense FP16 tensor throughput in TFLOPS (marketing peak; only used
    /// relatively, so the absolute calibration does not matter).
    pub dense_tflops: f64,
    /// Per-direction NVLink bandwidth in Gbit/s (0 when absent).
    pub nvlink_gbps: f64,
    /// Whether intra-node NVLink is available (consumer cards fall back to
    /// PCIe for intra-node collectives).
    pub has_nvlink: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_are_consistent() {
        for model in GpuModel::ALL {
            let spec = model.spec();
            assert_eq!(spec.model, model);
            assert!(spec.memory_gb > 0.0);
            assert!(spec.dense_tflops > 0.0);
            assert_eq!(spec.has_nvlink, spec.nvlink_gbps > 0.0);
        }
    }

    #[test]
    fn relative_speed_ordering() {
        assert_eq!(GpuModel::V100.relative_speed(), 1.0);
        assert!(GpuModel::A100.relative_speed() > 1.0);
        assert!(GpuModel::H100.relative_speed() > GpuModel::A100.relative_speed());
        assert!(GpuModel::Rtx3090.relative_speed() < 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(GpuModel::A100.to_string(), "A100");
        assert_eq!(GpuModel::Rtx3090.to_string(), "RTX3090");
    }
}
