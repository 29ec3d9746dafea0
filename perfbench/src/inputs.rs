//! Inputs, all a pure function of `--seed`: each lap draws a sub-seed, and
//! the program under test receives only what is generated here.

use tacc_core::Command;
use tacc_workload::{GenParams, JobId, Trace, TraceGenerator, TraceRecord};

/// The seed of every committed experiment (`tacc_bench::TRACE_SEED`): lap 0
/// of `replay-contended` replays that trace, whose counters are known.
pub const TRACE_SEED: u64 = 20_240_601;

/// Simulated seconds one `Advance` tick moves the daemon's logical clock.
pub const TICK_SECS: f64 = 600.0;

/// SplitMix64: the benchmark's own generator for sub-seeds and request
/// mixes (trace contents come from `TraceGenerator`).
#[derive(Debug, Clone)]
pub struct Mix(u64);

impl Mix {
    pub fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n` > 0; the modulo bias is below 2⁻⁴⁰ here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seed of lap `lap`'s inputs.
pub fn sub_seed(seed: u64, lap: u32) -> u64 {
    Mix::new(seed ^ u64::from(lap).wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

pub fn trace(load: f64, days: f64, seed: u64) -> Trace {
    TraceGenerator::new(GenParams::default().with_load_factor(load), seed).generate_days(days)
}

/// `base`'s jobs, each arriving up to `jitter_secs` earlier or later (never
/// before time 0): the same demand, interleaved differently.
pub fn jittered(base: &Trace, jitter_secs: f64, seed: u64) -> Trace {
    let mut mix = Mix::new(seed);
    let records = base
        .records()
        .iter()
        .map(|record| {
            let unit = (mix.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let moved = record.submit_secs + (2.0 * unit - 1.0) * jitter_secs;
            TraceRecord {
                submit_secs: moved.max(0.0),
                ..record.clone()
            }
        })
        .collect();
    Trace::new(records)
}

/// Load factor of the trace slice the service workloads submit.
const SERVICE_LOAD: f64 = 2.0;

/// At least `need` submission records from a load-2.0 trace.
fn service_records(seed: u64, need: usize) -> Vec<TraceRecord> {
    // Load 2.0 yields about 1,130 records a day.
    let mut days = (need as f64 / 1000.0).max(0.5);
    loop {
        let trace = trace(SERVICE_LOAD, days, seed);
        if trace.len() >= need {
            return trace.records()[..need].to_vec();
        }
        days *= 1.25;
    }
}

fn submit(record: &TraceRecord) -> Command {
    Command::Submit {
        schema: record.schema.clone(),
        service_secs: record.service_secs,
    }
}

/// `n` commands for the single-writer workloads: submissions from the trace
/// slice, an `Advance` tick after every eighth (the arrival rate of load
/// 2.0), and a `Cancel` of one of the last 32 submissions with probability
/// 0.05. A fresh platform mints job ids 0, 1, 2, … in submission order, so
/// the cancels can name their targets ahead of time.
pub fn burst_script(seed: u64, n: usize) -> Vec<Command> {
    let records = service_records(seed, n);
    let mut mix = Mix::new(seed ^ 0xB0B5);
    let mut script = Vec::with_capacity(n + 2);
    let mut submitted = 0usize;
    for record in &records {
        if script.len() >= n {
            break;
        }
        script.push(submit(record));
        submitted += 1;
        if mix.chance(0.05) {
            let back = mix.below(submitted.min(32));
            script.push(Command::Cancel {
                job: JobId::from_value((submitted - 1 - back) as u64),
            });
        }
        if submitted.is_multiple_of(8) {
            script.push(Command::Advance { secs: TICK_SECS });
        }
    }
    script.truncate(n);
    script
}

/// One request of a `svc-closed` client. Jobs are named by the ordinal of
/// the client's own submission: the id is known only once the daemon replies.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Submit(Command),
    Status(usize),
    Cancel(usize),
    Advance,
}

/// The two clients' request lists, `n` requests each. After each submission
/// a client asks for the status of one of its jobs with probability 0.4 and
/// cancels one of its last eight with probability 0.08; client 0 also ticks
/// the clock after a submission with probability 0.26. Together that is
/// about 62 % submit, 25 % status, 8 % advance and 5 % cancel, with one
/// tick per eight submissions.
pub fn closed_scripts(seed: u64, n: usize) -> [Vec<Request>; 2] {
    let records = service_records(seed, 2 * n);
    let mut scripts = [Vec::with_capacity(n + 3), Vec::with_capacity(n + 3)];
    for (client, script) in scripts.iter_mut().enumerate() {
        let mut mix = Mix::new(seed ^ (0xC105_ED00 + client as u64));
        let mut submitted = 0usize;
        for record in records.iter().skip(client).step_by(2) {
            if script.len() >= n {
                break;
            }
            script.push(Request::Submit(submit(record)));
            submitted += 1;
            if mix.chance(0.4) {
                script.push(Request::Status(mix.below(submitted)));
            }
            if mix.chance(0.08) {
                script.push(Request::Cancel(submitted - 1 - mix.below(submitted.min(8))));
            }
            if client == 0 && mix.chance(0.26) {
                script.push(Request::Advance);
            }
        }
        script.truncate(n);
    }
    scripts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        assert_eq!(sub_seed(7, 2), sub_seed(7, 2));
        assert_eq!(trace(1.0, 0.5, 11), trace(1.0, 0.5, 11));
        assert_eq!(burst_script(5, 300), burst_script(5, 300));
        assert_eq!(closed_scripts(5, 200), closed_scripts(5, 200));
    }

    #[test]
    fn sub_seeds_differ_between_laps_and_between_seeds() {
        let seeds: Vec<u64> = (0..8).map(|lap| sub_seed(1, lap)).collect();
        for (i, a) in seeds.iter().enumerate() {
            assert!(seeds[i + 1..].iter().all(|b| a != b));
        }
        assert_ne!(sub_seed(1, 3), sub_seed(2, 3));
        assert_ne!(
            trace(1.0, 0.5, sub_seed(1, 2)),
            trace(1.0, 0.5, sub_seed(1, 3))
        );
        assert_ne!(
            burst_script(sub_seed(1, 2), 300),
            burst_script(sub_seed(1, 3), 300)
        );
    }

    #[test]
    fn the_burst_script_has_the_stated_mix_and_only_names_minted_jobs() {
        let script = burst_script(3, 4000);
        assert_eq!(script.len(), 4000);
        let mut submitted = 0u64;
        let (mut cancels, mut ticks) = (0, 0);
        for command in &script {
            match command {
                Command::Submit { .. } => submitted += 1,
                Command::Cancel { job } => {
                    assert!(job.value() < submitted);
                    cancels += 1;
                }
                Command::Advance { secs } => {
                    assert_eq!(*secs, TICK_SECS);
                    ticks += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!((400..=470).contains(&ticks), "{ticks} ticks");
        assert!((120..=240).contains(&cancels), "{cancels} cancels");
    }

    #[test]
    fn the_closed_scripts_have_the_stated_mix() {
        let scripts = closed_scripts(9, 4000);
        let mut counts = [0usize; 4];
        for (client, script) in scripts.iter().enumerate() {
            assert_eq!(script.len(), 4000);
            assert!(matches!(script[0], Request::Submit(_)));
            let mut submitted = 0;
            for request in script {
                match request {
                    Request::Submit(_) => {
                        submitted += 1;
                        counts[0] += 1;
                    }
                    Request::Status(k) => {
                        assert!(*k < submitted);
                        counts[1] += 1;
                    }
                    Request::Cancel(k) => {
                        assert!(*k < submitted);
                        counts[2] += 1;
                    }
                    Request::Advance => {
                        assert_eq!(client, 0);
                        counts[3] += 1;
                    }
                }
            }
        }
        let share = |n: usize| n as f64 / 8000.0;
        assert!((share(counts[0]) - 0.62).abs() < 0.03, "{counts:?}");
        assert!((share(counts[1]) - 0.25).abs() < 0.03, "{counts:?}");
        assert!((share(counts[2]) - 0.05).abs() < 0.02, "{counts:?}");
        assert!((share(counts[3]) - 0.08).abs() < 0.02, "{counts:?}");
    }
}
