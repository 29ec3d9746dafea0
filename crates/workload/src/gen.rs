//! The synthetic campus trace generator.
//!
//! Substitutes for the production traces the ASPLOS'25 paper analyzes. The
//! generator is calibrated to the published shape of shared-GPU-cluster
//! traces (Philly/Helios/PAI and the TACC deployment itself):
//!
//! * **Arrivals** — Poisson process whose rate follows a diurnal cycle
//!   (daytime peak ≈ 2–3× the overnight trough) with a weekday/weekend
//!   factor;
//! * **Durations** — log-normal, heavy tailed: median tens of minutes, a
//!   tail of multi-day runs, truncated to a configurable range;
//! * **GPU demand** — overwhelmingly 1 GPU, then powers of two up to
//!   multi-node sizes;
//! * **Tenancy** — Zipf-skewed activity across research groups;
//! * **Mix** — mostly batch training, a daytime-heavy interactive slice,
//!   some inference sweeps and CPU batch jobs;
//! * **Estimates** — user-provided duration estimates are the true duration
//!   times a log-normal error factor (users misestimate badly, which is
//!   what makes SJF/backfill interesting).

use std::fmt::Write;
use std::sync::Arc;

use tacc_sim::DetRng;

use tacc_cluster::ResourceVec;
use tacc_sim::dist;
use tacc_sim::SeedStream;

use crate::group::{GroupId, GroupRoster};
use crate::schema::{Dependencies, ModelProfile, QosClass, RuntimeEnv, TaskKind, TaskSchema};
use crate::trace::{Trace, TraceRecord};

/// Tunable parameters of the trace generator.
///
/// The defaults reproduce the canonical campus workload used throughout the
/// experiment suite; experiments that sweep a knob (load factor, multi-node
/// fraction) start from `GenParams::default()` and override one field.
#[derive(Debug, Clone, PartialEq)]
pub struct GenParams {
    /// The research groups and their activity weights.
    pub roster: GroupRoster,
    /// Mean submissions per hour at the diurnal peak.
    pub peak_jobs_per_hour: f64,
    /// Trough-to-peak ratio of the diurnal cycle (0..1).
    pub diurnal_trough_ratio: f64,
    /// Weekend arrival-rate multiplier (0..1].
    pub weekend_factor: f64,
    /// Log-normal `mu` of true durations (ln seconds).
    pub duration_mu: f64,
    /// Log-normal `sigma` of true durations.
    pub duration_sigma: f64,
    /// Truncation range for durations, seconds.
    pub duration_range_secs: (f64, f64),
    /// Weights over per-job total GPU counts `[1, 2, 4, 8, 16, 32, 64]`.
    pub gpu_count_weights: [f64; 7],
    /// Fraction of submissions that are interactive sessions.
    pub interactive_fraction: f64,
    /// Fraction that are inference sweeps.
    pub inference_fraction: f64,
    /// Fraction that are CPU-only batch jobs.
    pub cpu_fraction: f64,
    /// Fraction of batch training jobs submitted as best-effort QoS.
    pub best_effort_fraction: f64,
    /// Sigma of the log-normal user-estimate error factor.
    pub estimate_error_sigma: f64,
    /// Fraction of submissions the user later cancels.
    pub cancel_fraction: f64,
    /// Fraction of multi-worker best-effort training jobs submitted as
    /// elastic (shrinkable gangs). 0 disables elasticity.
    pub elastic_fraction: f64,
}

impl Default for GenParams {
    fn default() -> Self {
        GenParams {
            roster: GroupRoster::campus_default(256),
            peak_jobs_per_hour: 40.0,
            diurnal_trough_ratio: 0.35,
            weekend_factor: 0.55,
            // exp(7.0) ≈ 1097 s ≈ 18 min median, sigma 1.8 gives a long tail.
            duration_mu: 7.0,
            duration_sigma: 1.8,
            duration_range_secs: (60.0, 7.0 * 86_400.0),
            gpu_count_weights: [0.68, 0.12, 0.08, 0.06, 0.035, 0.018, 0.007],
            interactive_fraction: 0.25,
            inference_fraction: 0.08,
            cpu_fraction: 0.05,
            best_effort_fraction: 0.30,
            estimate_error_sigma: 0.9,
            cancel_fraction: 0.06,
            elastic_fraction: 0.0,
        }
    }
}

impl GenParams {
    /// Scales the arrival rate by `factor` (the load knob of experiment F3).
    pub fn with_load_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "load factor must be positive");
        self.peak_jobs_per_hour *= factor;
        self
    }

    /// Overrides the multi-GPU demand weights so that `fraction` of jobs are
    /// multi-node scale (≥16 GPUs) — the knob of experiment F4.
    pub fn with_multi_node_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction out of range");
        let single = 1.0 - fraction;
        // Keep the small-job shape, rescale the big tail.
        self.gpu_count_weights = [
            single * 0.72,
            single * 0.14,
            single * 0.09,
            single * 0.05,
            fraction * 0.6,
            fraction * 0.3,
            fraction * 0.1,
        ];
        self
    }
}

/// Deterministic trace generator.
///
/// Two generators constructed with the same parameters and seed produce
/// byte-identical traces.
#[derive(Debug)]
pub struct TraceGenerator {
    params: GenParams,
    arrivals_rng: DetRng,
    shape_rng: DetRng,
    catalog: Catalog,
    /// The next job's name, written here and copied once into its schema.
    name: String,
}

/// The images, dependency bundles and datasets generated jobs pick from,
/// built once: every schema that names one shares it, as campus tasks
/// share a few of each — the overlap the compiler's delta cache counts
/// on (experiment T3).
#[derive(Debug)]
struct Catalog {
    images: [Arc<str>; 4],
    /// The common ML stack, with `transformers` when bit 0 of the index
    /// is set and `datasets-tooling` when bit 1 is.
    bundles: [Dependencies; 4],
    datasets: [(Arc<str>, u32); 5],
}

impl Catalog {
    fn new() -> Self {
        let images = [
            "pytorch-2.1-cuda12",
            "pytorch-1.13-cuda11",
            "tensorflow-2.14",
            "jax-0.4-cuda12",
        ];
        let common: (Arc<str>, u32) = ("common-ml-stack".into(), 1800);
        let transformers: (Arc<str>, u32) = ("transformers".into(), 450);
        let tooling: (Arc<str>, u32) = ("datasets-tooling".into(), 300);
        let datasets = [
            ("imagenet-subset", 12_000),
            ("coco", 20_000),
            ("wikitext", 600),
            ("librispeech", 28_000),
            ("private-lab-data", 4_000),
        ];
        Catalog {
            images: images.map(Arc::from),
            bundles: [
                Arc::new([common.clone()]),
                Arc::new([common.clone(), transformers.clone()]),
                Arc::new([common.clone(), tooling.clone()]),
                Arc::new([common, transformers, tooling]),
            ],
            datasets: datasets.map(|(name, size)| (Arc::from(name), size)),
        }
    }
}

const GPU_COUNTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];
const GPUS_PER_NODE: u32 = 8;

impl TraceGenerator {
    /// Creates a generator from parameters and a master seed.
    pub fn new(params: GenParams, seed: u64) -> Self {
        let seeds = SeedStream::new(seed);
        TraceGenerator {
            params,
            arrivals_rng: seeds.stream("trace-arrivals"),
            shape_rng: seeds.stream("trace-shape"),
            catalog: Catalog::new(),
            name: String::new(),
        }
    }

    /// The parameters this generator runs with.
    pub fn params(&self) -> &GenParams {
        &self.params
    }

    /// Generates a trace spanning `days` simulated days.
    ///
    /// # Panics
    ///
    /// Panics if `days` is not positive.
    pub fn generate_days(&mut self, days: f64) -> Trace {
        assert!(days > 0.0, "trace must span positive time");
        let horizon = days * 86_400.0;
        let peak_rate = self.params.peak_jobs_per_hour / 3600.0; // per second
        let mut records = Vec::new();
        let mut t = 0.0;
        let mut counter: u64 = 0;
        // Thinning (rejection) sampling of the non-homogeneous Poisson
        // process: propose at the peak rate, accept with rate(t)/peak.
        loop {
            t += dist::exponential(&mut self.arrivals_rng, peak_rate);
            if t >= horizon {
                break;
            }
            let accept_p = self.relative_rate(t);
            if !dist::coin(&mut self.arrivals_rng, accept_p) {
                continue;
            }
            counter += 1;
            records.push(self.sample_record(t, counter));
        }
        Trace::new(records)
    }

    /// Relative arrival rate at time `t` (peak = 1.0).
    fn relative_rate(&self, t_secs: f64) -> f64 {
        let hour_of_day = (t_secs / 3600.0) % 24.0;
        let day = (t_secs / 86_400.0).floor() as u64;
        // Peak at 15:00, trough at 03:00 (campus users work afternoons/nights).
        let phase = (hour_of_day - 15.0) / 24.0 * std::f64::consts::TAU;
        let trough = self.params.diurnal_trough_ratio;
        let diurnal = trough + (1.0 - trough) * (0.5 + 0.5 * phase.cos());
        let weekend = if day % 7 >= 5 {
            self.params.weekend_factor
        } else {
            1.0
        };
        (diurnal * weekend).clamp(0.0, 1.0)
    }

    fn sample_kind(&mut self) -> TaskKind {
        let p = &self.params;
        let weights = [
            p.interactive_fraction,
            p.inference_fraction,
            p.cpu_fraction,
            (1.0 - p.interactive_fraction - p.inference_fraction - p.cpu_fraction).max(0.0),
        ];
        match dist::weighted_index(&mut self.shape_rng, &weights) {
            0 => TaskKind::Interactive,
            1 => TaskKind::Inference,
            2 => TaskKind::CpuBatch,
            _ => TaskKind::Training,
        }
    }

    fn sample_duration(&mut self, kind: TaskKind) -> f64 {
        let p = &self.params;
        let (mu, sigma) = match kind {
            // Interactive sessions: shorter, tighter (median ~1h capped).
            TaskKind::Interactive => (p.duration_mu + 0.8, 0.9),
            // Inference sweeps: short.
            TaskKind::Inference => (p.duration_mu - 1.0, 1.0),
            TaskKind::CpuBatch => (p.duration_mu - 0.5, 1.2),
            TaskKind::Training => (p.duration_mu, p.duration_sigma),
        };
        let (lo, hi) = p.duration_range_secs;
        dist::log_normal(&mut self.shape_rng, mu, sigma).clamp(lo, hi)
    }

    fn sample_gpus(&mut self, kind: TaskKind) -> u32 {
        match kind {
            TaskKind::CpuBatch => 0,
            // Interactive sessions take 1-2 GPUs.
            TaskKind::Interactive => {
                if dist::coin(&mut self.shape_rng, 0.85) {
                    1
                } else {
                    2
                }
            }
            _ => {
                let idx = dist::weighted_index(&mut self.shape_rng, &self.params.gpu_count_weights);
                GPU_COUNTS[idx]
            }
        }
    }

    fn sample_group(&mut self) -> GroupId {
        let idx = dist::weighted_index(&mut self.shape_rng, self.params.roster.weights());
        GroupId::from_index(idx)
    }

    fn sample_env(&mut self, kind: TaskKind, counter: u64) -> RuntimeEnv {
        let img = dist::weighted_index(&mut self.shape_rng, &[0.55, 0.2, 0.15, 0.1]);
        let transformers = dist::coin(&mut self.shape_rng, 0.4);
        let tooling = dist::coin(&mut self.shape_rng, 0.25);
        let dataset = match kind {
            TaskKind::Training | TaskKind::Inference => Some(dist::weighted_index(
                &mut self.shape_rng,
                &[0.3, 0.2, 0.25, 0.1, 0.15],
            )),
            _ => None,
        };
        let catalog = &self.catalog;
        RuntimeEnv {
            image: Arc::clone(&catalog.images[img]),
            dependencies: Arc::clone(
                &catalog.bundles[usize::from(transformers) | usize::from(tooling) << 1],
            ),
            dataset: dataset.map(|i| catalog.datasets[i].clone()),
            // Code varies per job (unique suffix in size keeps cache honest).
            code_mb: 3 + (counter % 5) as u32,
        }
    }

    fn sample_model(&mut self, gpus: u32) -> ModelProfile {
        // Bigger allocations tend to train bigger models.
        let big_p = (f64::from(gpus) / 64.0).clamp(0.05, 0.9);
        if dist::coin(&mut self.shape_rng, big_p) {
            // The large-model tier: GPT-2-scale, BERT-large-scale, or (for
            // the biggest gangs) a 7B-LLM shard profile.
            let weights = if gpus >= 32 {
                [0.35, 0.25, 0.40]
            } else {
                [0.5, 0.4, 0.1]
            };
            match dist::weighted_index(&mut self.shape_rng, &weights) {
                0 => ModelProfile::gpt2_like(),
                1 => ModelProfile::bert_large_like(),
                _ => ModelProfile::llm_7b_like(),
            }
        } else {
            match dist::weighted_index(&mut self.shape_rng, &[0.5, 0.3, 0.2]) {
                0 => ModelProfile::resnet50_like(),
                1 => ModelProfile::vit_like(),
                _ => ModelProfile::small_cnn(),
            }
        }
    }

    fn sample_record(&mut self, t: f64, counter: u64) -> TraceRecord {
        let kind = self.sample_kind();
        let service = self.sample_duration(kind);
        let total_gpus = self.sample_gpus(kind);
        let group = self.sample_group();
        let env = self.sample_env(kind, counter);

        // Shape the gang: jobs larger than a node split into 8-GPU workers.
        let (workers, per_worker_gpus) = if total_gpus > GPUS_PER_NODE {
            (total_gpus / GPUS_PER_NODE, GPUS_PER_NODE)
        } else {
            (1, total_gpus.max(1))
        };
        let resources = if kind.is_cpu_only() {
            ResourceVec::cpu_only(
                4 + (dist::uniform(&mut self.shape_rng, 0.0, 12.0) as u32),
                16,
            )
        } else {
            ResourceVec::gpus_only(per_worker_gpus)
        };

        let qos = if kind == TaskKind::Training
            && dist::coin(&mut self.shape_rng, self.params.best_effort_fraction)
        {
            QosClass::BestEffort
        } else {
            QosClass::Guaranteed
        };

        // User estimates are noisy: true * lognormal(0, sigma).
        let err = dist::log_normal(&mut self.shape_rng, 0.0, self.params.estimate_error_sigma);
        let est = (service * err).clamp(60.0, 14.0 * 86_400.0);

        let elastic = workers > 1
            && qos == QosClass::BestEffort
            && dist::coin(&mut self.shape_rng, self.params.elastic_fraction);
        self.name.clear();
        let _ = write!(self.name, "job-{counter}");
        let mut builder = TaskSchema::builder(&self.name, group)
            .workers(workers)
            .resources(resources)
            .qos(qos)
            .kind(kind)
            .env(env)
            .elastic(elastic)
            .est_duration_secs(est);
        if !kind.is_cpu_only() {
            builder = builder.model(self.sample_model(total_gpus));
        }
        let schema = builder
            .build()
            .expect("generator always produces valid schemas");
        // Guard against the codegen bug documented in the workspace
        // Cargo.toml: a miscompilation here would silently corrupt every
        // downstream experiment, so fail loudly instead.
        assert!(
            schema.workers == 1 || schema.resources.gpus == GPUS_PER_NODE,
            "gang shape corrupted: workers={} res={} (total={total_gpus} w={workers} per={per_worker_gpus})",
            schema.workers,
            schema.resources
        );
        // A slice of jobs gets killed by its user — sometimes while still
        // queued, sometimes mid-run.
        let cancel_after_secs = if dist::coin(&mut self.shape_rng, self.params.cancel_fraction) {
            Some(service * dist::uniform(&mut self.shape_rng, 0.05, 1.2))
        } else {
            None
        };
        TraceRecord {
            submit_secs: t,
            schema: schema.into(),
            service_secs: service,
            cancel_after_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TaskKind;

    /// Draws `n` u64s from an rng — helper for determinism tests.
    fn drain(rng: &mut DetRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.next_u64()).collect()
    }

    fn day_trace(seed: u64) -> Trace {
        TraceGenerator::new(GenParams::default(), seed).generate_days(2.0)
    }

    #[test]
    fn deterministic_for_seed() {
        let a = day_trace(11);
        let b = day_trace(11);
        assert_eq!(a, b);
        let c = day_trace(12);
        assert_ne!(a, c);
    }

    #[test]
    fn volume_is_plausible() {
        let t = day_trace(1);
        // Peak 40/h with diurnal+weekday shaping: expect roughly 0.5-0.9 of
        // peak*48h = 1920; sanity band is generous.
        assert!(t.len() > 600, "too few jobs: {}", t.len());
        assert!(t.len() < 1920, "too many jobs: {}", t.len());
    }

    #[test]
    fn all_schemas_valid_and_sorted() {
        let t = day_trace(2);
        let mut last = 0.0;
        for r in t.records() {
            assert!(r.submit_secs >= last);
            last = r.submit_secs;
            r.schema.validate().expect("generated schema valid");
            assert!(r.service_secs >= 60.0);
            assert!(r.service_secs <= 7.0 * 86_400.0);
        }
    }

    #[test]
    fn gpu_demand_is_power_of_two_dominated_by_singles() {
        let t = day_trace(3);
        let gpu_jobs: Vec<u32> = t
            .records()
            .iter()
            .filter(|r| !r.schema.kind.is_cpu_only())
            .map(|r| r.schema.total_gpus())
            .collect();
        assert!(gpu_jobs.iter().all(|g| GPU_COUNTS.contains(g)));
        let singles = gpu_jobs.iter().filter(|&&g| g == 1).count() as f64;
        assert!(singles / gpu_jobs.len() as f64 > 0.5);
    }

    #[test]
    fn durations_heavy_tailed() {
        let t = day_trace(4);
        let stats = t.stats();
        // Mean far above median is the heavy-tail signature.
        assert!(stats.duration_summary.mean() > 1.5 * stats.duration_summary.p50());
    }

    #[test]
    fn diurnal_rate_shape() {
        let g = TraceGenerator::new(GenParams::default(), 5);
        let afternoon = g.relative_rate(15.0 * 3600.0);
        let night = g.relative_rate(3.0 * 3600.0);
        assert!(afternoon > 0.99);
        assert!(night < 0.5);
        // Weekend damping (day 5 = Saturday).
        let sat_noon = g.relative_rate((5.0 * 24.0 + 15.0) * 3600.0);
        assert!(sat_noon < afternoon);
    }

    #[test]
    fn group_activity_is_skewed() {
        let t = day_trace(6);
        let mut counts = vec![0usize; 8];
        for r in t.records() {
            counts[r.schema.group.index()] += 1;
        }
        assert!(counts[0] > counts[7] * 3, "counts {counts:?}");
    }

    #[test]
    fn kind_mix_matches_fractions() {
        let t = day_trace(7);
        let n = t.len() as f64;
        let interactive = t
            .records()
            .iter()
            .filter(|r| r.schema.kind == TaskKind::Interactive)
            .count() as f64;
        assert!((interactive / n - 0.25).abs() < 0.08);
    }

    #[test]
    fn load_factor_scales_volume() {
        let base = day_trace(8).len() as f64;
        let heavy = TraceGenerator::new(GenParams::default().with_load_factor(2.0), 8)
            .generate_days(2.0)
            .len() as f64;
        let ratio = heavy / base;
        assert!((1.6..2.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn multi_node_fraction_knob() {
        let params = GenParams::default().with_multi_node_fraction(0.5);
        let t = TraceGenerator::new(params, 9).generate_days(2.0);
        let training: Vec<&TraceRecord> = t
            .records()
            .iter()
            .filter(|r| matches!(r.schema.kind, TaskKind::Training | TaskKind::Inference))
            .collect();
        let multi = training
            .iter()
            .filter(|r| r.schema.total_gpus() >= 16)
            .count() as f64;
        let frac = multi / training.len() as f64;
        assert!((0.35..0.65).contains(&frac), "frac {frac}");
    }

    #[test]
    fn multi_worker_jobs_split_by_node() {
        let t = day_trace(10);
        for r in t.records() {
            if r.schema.workers > 1 {
                assert_eq!(r.schema.resources.gpus, GPUS_PER_NODE);
            }
        }
    }

    #[test]
    fn cancellations_match_fraction() {
        let t = day_trace(12);
        let cancelled = t
            .records()
            .iter()
            .filter(|r| r.cancel_after_secs.is_some())
            .count() as f64;
        let frac = cancelled / t.len() as f64;
        assert!((frac - 0.06).abs() < 0.03, "fraction {frac}");
        for r in t.records() {
            if let Some(after) = r.cancel_after_secs {
                assert!(after > 0.0);
            }
        }
    }

    #[test]
    fn rng_streams_are_separate() {
        let seeds = SeedStream::new(99);
        let mut a = seeds.stream("trace-arrivals");
        let mut s = seeds.stream("trace-shape");
        assert_ne!(drain(&mut a, 4), drain(&mut s, 4));
    }
}
