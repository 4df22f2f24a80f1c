//! Device specifications and resource sharing.
//!
//! Table I of the paper gives the capability gap QSync has to bridge: a T4 has roughly
//! half the FP32 throughput and half the memory of a V100, but supports INT8 tensor
//! cores which the V100 lacks. Partial resource sharing (Fig. 2, via MPS) further shrinks
//! the memory and compute available to the training job on inference GPUs.

use serde::{Deserialize, Serialize};

use qsync_lp_kernels::precision::{Arch, Precision};

/// GPU models used in the paper's testbeds (plus A100 for completeness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GpuModel {
    /// NVIDIA Tesla V100 32 GB (training GPU).
    V100,
    /// NVIDIA T4 16 GB (inference GPU).
    T4,
    /// NVIDIA A10 24 GB (inference GPU, Ampere).
    A10,
    /// NVIDIA A100 40 GB (training GPU, Ampere).
    A100,
}

/// Peak capability numbers of a GPU model (Table I and vendor datasheets).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Architecture family (decides which precisions have tensor-core support).
    pub arch: Arch,
    /// Peak FP32 throughput in TFLOPS.
    pub fp32_tflops: f64,
    /// Peak FP16 tensor throughput in TFLOPS.
    pub fp16_tflops: f64,
    /// Peak INT8 tensor throughput in TOPS (None when unsupported, e.g. V100).
    pub int8_tops: Option<f64>,
    /// Device memory in GiB.
    pub memory_gib: f64,
    /// Device memory bandwidth in GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Interconnect bandwidth of the server hosting this GPU, GB/s (NVLink vs PCIe).
    pub interconnect_gbs: f64,
}

impl GpuModel {
    /// The specification of this GPU model.
    pub fn spec(self) -> DeviceSpec {
        match self {
            GpuModel::V100 => DeviceSpec {
                name: "V100",
                arch: Arch::Sm70,
                fp32_tflops: 15.7,
                fp16_tflops: 125.0,
                int8_tops: None,
                memory_gib: 32.0,
                mem_bandwidth_gbs: 900.0,
                interconnect_gbs: 300.0,
            },
            GpuModel::T4 => DeviceSpec {
                name: "T4",
                arch: Arch::Sm75,
                fp32_tflops: 8.1,
                fp16_tflops: 65.0,
                int8_tops: Some(130.0),
                memory_gib: 16.0,
                mem_bandwidth_gbs: 320.0,
                interconnect_gbs: 32.0,
            },
            GpuModel::A10 => DeviceSpec {
                name: "A10",
                arch: Arch::Sm80,
                fp32_tflops: 31.2,
                fp16_tflops: 125.0,
                int8_tops: Some(250.0),
                memory_gib: 24.0,
                mem_bandwidth_gbs: 600.0,
                interconnect_gbs: 64.0,
            },
            GpuModel::A100 => DeviceSpec {
                name: "A100",
                arch: Arch::Sm80,
                fp32_tflops: 19.5,
                fp16_tflops: 312.0,
                int8_tops: Some(624.0),
                memory_gib: 40.0,
                mem_bandwidth_gbs: 1555.0,
                interconnect_gbs: 600.0,
            },
        }
    }

    /// `true` for inference-class GPUs.
    fn is_inference_gpu(self) -> bool {
        matches!(self, GpuModel::T4 | GpuModel::A10)
    }
}

/// Resource sharing mode of an inference GPU (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ResourceShare {
    /// The whole GPU is available to the training job.
    Full,
    /// Only a fraction of memory and compute is loaned to the training job (MPS).
    Partial {
        /// Fraction of device memory available to the training job, in (0, 1].
        memory_fraction: f64,
        /// Fraction of compute throughput available to the training job, in (0, 1].
        compute_fraction: f64,
    },
}

impl ResourceShare {
    /// Memory fraction available to the training job.
    pub fn memory_fraction(self) -> f64 {
        match self {
            ResourceShare::Full => 1.0,
            ResourceShare::Partial { memory_fraction, .. } => memory_fraction,
        }
    }

    /// Compute fraction available to the training job.
    pub fn compute_fraction(self) -> f64 {
        match self {
            ResourceShare::Full => 1.0,
            ResourceShare::Partial { compute_fraction, .. } => compute_fraction,
        }
    }
}

/// A concrete device participating in a training job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Device index within the job (rank).
    pub id: usize,
    /// GPU model.
    pub model: GpuModel,
    /// Resource-sharing mode.
    pub share: ResourceShare,
}

impl Device {
    /// A fully-available device.
    pub fn full(id: usize, model: GpuModel) -> Self {
        Device { id, model, share: ResourceShare::Full }
    }

    /// A partially-shared inference device.
    pub fn partial(id: usize, model: GpuModel, memory_fraction: f64, compute_fraction: f64) -> Self {
        assert!(memory_fraction > 0.0 && memory_fraction <= 1.0);
        assert!(compute_fraction > 0.0 && compute_fraction <= 1.0);
        Device { id, model, share: ResourceShare::Partial { memory_fraction, compute_fraction } }
    }

    /// Memory (in bytes) available to the training job on this device.
    pub fn available_memory_bytes(&self) -> u64 {
        let spec = self.model.spec();
        (spec.memory_gib * self.share.memory_fraction() * 1024.0 * 1024.0 * 1024.0) as u64
    }

    /// Peak throughput in operations per second at a precision, after resource sharing.
    ///
    /// Unsupported precisions fall back to the next supported higher precision (e.g.
    /// INT8 on a V100 executes as FP16), mirroring the security-wrapper fallback.
    pub fn peak_ops_per_sec(&self, precision: Precision) -> f64 {
        let spec = self.model.spec();
        let tera = 1e12;
        let raw = match precision {
            Precision::Fp32 => spec.fp32_tflops * tera,
            Precision::Fp16 | Precision::Bf16 => spec.fp16_tflops * tera,
            Precision::Int8 => spec.int8_tops.map(|t| t * tera).unwrap_or(spec.fp16_tflops * tera),
            Precision::Int4 => spec
                .int8_tops
                .map(|t| 2.0 * t * tera)
                .unwrap_or(spec.fp16_tflops * tera),
        };
        raw * self.share.compute_fraction()
    }

    /// Memory bandwidth (bytes/s) available to the training job.
    pub fn memory_bandwidth_bytes(&self) -> f64 {
        self.model.spec().mem_bandwidth_gbs * 1e9 * self.share.compute_fraction()
    }

    /// Whether the device natively supports the precision (no fallback).
    pub fn supports(&self, precision: Precision) -> bool {
        self.model.spec().arch.supports_tensor_op(precision)
    }

    /// `true` for inference-class GPUs (the ones QSync quantizes).
    pub fn is_inference(&self) -> bool {
        self.model.is_inference_gpu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_numbers_are_reproduced() {
        let t4 = GpuModel::T4.spec();
        assert_eq!(t4.fp32_tflops, 8.1);
        assert_eq!(t4.fp16_tflops, 65.0);
        assert_eq!(t4.int8_tops, Some(130.0));
        assert_eq!(t4.memory_gib, 16.0);
        let v100 = GpuModel::V100.spec();
        assert_eq!(v100.fp32_tflops, 15.7);
        assert_eq!(v100.fp16_tflops, 125.0);
        assert_eq!(v100.int8_tops, None);
        assert_eq!(v100.memory_gib, 32.0);
    }

    #[test]
    fn inference_gpu_classification() {
        assert!(GpuModel::T4.is_inference_gpu());
        assert!(GpuModel::A10.is_inference_gpu());
        assert!(!GpuModel::V100.is_inference_gpu());
        assert!(Device::full(0, GpuModel::T4).is_inference());
    }

    #[test]
    fn partial_share_reduces_memory_and_compute() {
        let full = Device::full(0, GpuModel::T4);
        let partial = Device::partial(1, GpuModel::T4, 0.3, 0.6);
        assert!(partial.available_memory_bytes() < full.available_memory_bytes());
        assert!((partial.available_memory_bytes() as f64
            / full.available_memory_bytes() as f64
            - 0.3)
            .abs()
            < 1e-6);
        assert!(
            partial.peak_ops_per_sec(Precision::Fp16) < full.peak_ops_per_sec(Precision::Fp16)
        );
    }

    #[test]
    fn unsupported_int8_falls_back_to_fp16_throughput() {
        let v100 = Device::full(0, GpuModel::V100);
        assert!(!v100.supports(Precision::Int8));
        assert_eq!(
            v100.peak_ops_per_sec(Precision::Int8),
            v100.peak_ops_per_sec(Precision::Fp16)
        );
    }

    #[test]
    fn throughput_increases_as_precision_drops_on_t4() {
        let t4 = Device::full(0, GpuModel::T4);
        let fp32 = t4.peak_ops_per_sec(Precision::Fp32);
        let fp16 = t4.peak_ops_per_sec(Precision::Fp16);
        let int8 = t4.peak_ops_per_sec(Precision::Int8);
        assert!(fp16 > fp32);
        assert!(int8 > fp16);
    }

    #[test]
    #[should_panic]
    fn invalid_partial_fraction_panics() {
        let _ = Device::partial(0, GpuModel::T4, 0.0, 0.5);
    }
}
