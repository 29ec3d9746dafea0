//! Multi-dimensional resource vectors.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

tacc_json::record! {
    /// A request for (or supply of) schedulable resources: GPUs, CPU cores and
    /// host memory.
    ///
    /// This is the unit of the paper's "fine-grained resource allocation"
    /// requirement: tasks request heterogeneous amounts along each dimension
    /// and the scheduler must fit the whole vector, not just the GPU count.
    ///
    /// # Example
    ///
    /// ```
    /// use tacc_cluster::ResourceVec;
    /// let node = ResourceVec::new(8, 96, 512);
    /// let job = ResourceVec::new(4, 32, 128);
    /// assert!(job.fits_in(&node));
    /// let free = node - job;
    /// assert_eq!(free.gpus, 4);
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
    pub struct ResourceVec {
        /// Number of GPUs.
        pub gpus: u32,
        /// Number of CPU cores.
        pub cpu_cores: u32,
        /// Host memory in GiB.
        pub mem_gb: u32,
    }
}

impl ResourceVec {
    /// The zero vector.
    pub const ZERO: ResourceVec = ResourceVec {
        gpus: 0,
        cpu_cores: 0,
        mem_gb: 0,
    };

    /// Creates a vector with explicit amounts along each dimension.
    pub fn new(gpus: u32, cpu_cores: u32, mem_gb: u32) -> Self {
        ResourceVec {
            gpus,
            cpu_cores,
            mem_gb,
        }
    }

    /// A GPU-only request with the cluster's default CPU/memory ratio
    /// (8 cores and 32 GiB per GPU), the common case for training jobs.
    pub fn gpus_only(gpus: u32) -> Self {
        ResourceVec {
            gpus,
            cpu_cores: gpus * 8,
            mem_gb: gpus * 32,
        }
    }

    /// A CPU-only request (dataset preprocessing, evaluation harnesses).
    pub fn cpu_only(cpu_cores: u32, mem_gb: u32) -> Self {
        ResourceVec {
            gpus: 0,
            cpu_cores,
            mem_gb,
        }
    }

    /// True when every dimension fits inside `other`.
    pub fn fits_in(&self, other: &ResourceVec) -> bool {
        self.gpus <= other.gpus && self.cpu_cores <= other.cpu_cores && self.mem_gb <= other.mem_gb
    }

    /// True when every dimension is zero.
    pub fn is_zero(&self) -> bool {
        *self == ResourceVec::ZERO
    }

    /// Element-wise saturating subtraction.
    pub fn saturating_sub(&self, rhs: &ResourceVec) -> ResourceVec {
        ResourceVec {
            gpus: self.gpus.saturating_sub(rhs.gpus),
            cpu_cores: self.cpu_cores.saturating_sub(rhs.cpu_cores),
            mem_gb: self.mem_gb.saturating_sub(rhs.mem_gb),
        }
    }

    /// The dominant share of this request relative to a capacity vector —
    /// the max across dimensions of `demand/capacity` — as used by
    /// DRF-style fair-share policies.
    ///
    /// Dimensions with zero capacity are skipped; returns 0.0 if every
    /// dimension is skipped.
    pub fn dominant_share(&self, capacity: &ResourceVec) -> f64 {
        let mut share: f64 = 0.0;
        if capacity.gpus > 0 {
            share = share.max(f64::from(self.gpus) / f64::from(capacity.gpus));
        }
        if capacity.cpu_cores > 0 {
            share = share.max(f64::from(self.cpu_cores) / f64::from(capacity.cpu_cores));
        }
        if capacity.mem_gb > 0 {
            share = share.max(f64::from(self.mem_gb) / f64::from(capacity.mem_gb));
        }
        share
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}g/{}c/{}G", self.gpus, self.cpu_cores, self.mem_gb)
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;

    fn add(self, rhs: ResourceVec) -> ResourceVec {
        ResourceVec {
            gpus: self.gpus + rhs.gpus,
            cpu_cores: self.cpu_cores + rhs.cpu_cores,
            mem_gb: self.mem_gb + rhs.mem_gb,
        }
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVec {
    /// Element-wise subtraction.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of `rhs` exceeds `self` (use
    /// [`ResourceVec::saturating_sub`] when underflow is expected).
    type Output = ResourceVec;

    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        assert!(rhs.fits_in(&self), "resource underflow: {self} - {rhs}");
        ResourceVec {
            gpus: self.gpus - rhs.gpus,
            cpu_cores: self.cpu_cores - rhs.cpu_cores,
            mem_gb: self.mem_gb - rhs.mem_gb,
        }
    }
}

impl SubAssign for ResourceVec {
    fn sub_assign(&mut self, rhs: ResourceVec) {
        *self = *self - rhs;
    }
}

impl std::iter::Sum for ResourceVec {
    fn sum<I: Iterator<Item = ResourceVec>>(iter: I) -> ResourceVec {
        iter.fold(ResourceVec::ZERO, |a, b| a + b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_requires_all_dimensions() {
        let cap = ResourceVec::new(8, 64, 256);
        assert!(ResourceVec::new(8, 64, 256).fits_in(&cap));
        assert!(!ResourceVec::new(9, 1, 1).fits_in(&cap));
        assert!(!ResourceVec::new(1, 65, 1).fits_in(&cap));
        assert!(!ResourceVec::new(1, 1, 257).fits_in(&cap));
        assert!(ResourceVec::ZERO.fits_in(&cap));
    }

    #[test]
    fn arithmetic() {
        let a = ResourceVec::new(4, 16, 64);
        let b = ResourceVec::new(2, 8, 32);
        assert_eq!(a + b, ResourceVec::new(6, 24, 96));
        assert_eq!(a - b, b);
        assert_eq!(b.saturating_sub(&a), ResourceVec::ZERO);
        let total: ResourceVec = vec![a, b, b].into_iter().sum();
        assert_eq!(total, ResourceVec::new(8, 32, 128));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = ResourceVec::new(1, 0, 0) - ResourceVec::new(2, 0, 0);
    }

    #[test]
    fn gpus_only_ratio() {
        let r = ResourceVec::gpus_only(4);
        assert_eq!(r.gpus, 4);
        assert_eq!(r.cpu_cores, 32);
        assert_eq!(r.mem_gb, 128);
    }

    #[test]
    fn dominant_share_picks_max_dimension() {
        let cap = ResourceVec::new(10, 100, 1000);
        let gpu_heavy = ResourceVec::new(5, 10, 10);
        assert!((gpu_heavy.dominant_share(&cap) - 0.5).abs() < 1e-12);
        let mem_heavy = ResourceVec::new(1, 10, 900);
        assert!((mem_heavy.dominant_share(&cap) - 0.9).abs() < 1e-12);
        // Zero-capacity dimensions are skipped.
        let cpu_cap = ResourceVec::new(0, 100, 0);
        assert!((gpu_heavy.dominant_share(&cpu_cap) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn display_format() {
        assert_eq!(ResourceVec::new(2, 16, 64).to_string(), "2g/16c/64G");
    }
}
