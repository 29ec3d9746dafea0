//! Periodic checkpointing: the price of preemptibility (experiment F5).

/// A periodic checkpointing policy.
///
/// While a job runs, a checkpoint is written every `interval_secs`, costing
/// `write_secs` of stalled training each time (runtime overhead). When the
/// job is preempted or its node fails, all progress since the last
/// checkpoint is lost, plus `restore_secs` is paid on resume.
///
/// `CheckpointPolicy::disabled()` models jobs that never checkpoint: zero
/// overhead, but an interruption loses everything since the last start.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointPolicy {
    interval_secs: Option<f64>,
    write_secs: f64,
    restore_secs: f64,
}

impl CheckpointPolicy {
    /// Checkpoints every `interval_secs`, paying `write_secs` per write and
    /// `restore_secs` per resume.
    ///
    /// # Panics
    ///
    /// Panics if `interval_secs <= 0` or the costs are negative.
    pub fn every(interval_secs: f64, write_secs: f64, restore_secs: f64) -> Self {
        assert!(interval_secs > 0.0, "checkpoint interval must be positive");
        assert!(
            write_secs >= 0.0 && restore_secs >= 0.0,
            "checkpoint costs must be nonnegative"
        );
        CheckpointPolicy {
            interval_secs: Some(interval_secs),
            write_secs,
            restore_secs,
        }
    }

    /// The campus default: checkpoint every 10 minutes, 15 s writes, 60 s
    /// restores — typical for DNN training with model-sized state.
    pub fn campus_default() -> Self {
        CheckpointPolicy::every(600.0, 15.0, 60.0)
    }

    /// No checkpointing at all.
    pub fn disabled() -> Self {
        CheckpointPolicy {
            interval_secs: None,
            write_secs: 0.0,
            restore_secs: 0.0,
        }
    }

    /// Whether this policy ever checkpoints.
    fn is_enabled(&self) -> bool {
        self.interval_secs.is_some()
    }

    /// Multiplicative runtime overhead while running: writing checkpoints
    /// stretches wall time by `1 + write/interval`.
    pub fn runtime_overhead_factor(&self) -> f64 {
        match self.interval_secs {
            Some(interval) => 1.0 + self.write_secs / interval,
            None => 1.0,
        }
    }

    /// Progress lost if interrupted after `progress_secs` of useful work
    /// since the last (re)start: work since the last completed checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `progress_secs` is negative.
    fn lost_on_interrupt(&self, progress_secs: f64) -> f64 {
        assert!(progress_secs >= 0.0, "negative progress");
        match self.interval_secs {
            Some(interval) => progress_secs % interval,
            None => progress_secs,
        }
    }

    /// Interruption accounting for the platform's lifecycle engine: the
    /// job ran `elapsed_secs` of wall time since its last (re)start, of
    /// which `resume_penalty_secs` went to restoring the previous
    /// checkpoint, and the executor stretches service time by `stretch`.
    /// Returns `(progress_secs, lost_secs)` in service-time units — the
    /// payload of a `Preempt`/`Interrupt` lifecycle event.
    ///
    /// # Panics
    ///
    /// Panics if the effective wall progress is negative (see
    /// `lost_on_interrupt`).
    pub fn interruption_amounts(
        &self,
        elapsed_secs: f64,
        resume_penalty_secs: f64,
        stretch: f64,
    ) -> (f64, f64) {
        let effective = (elapsed_secs - resume_penalty_secs).max(0.0);
        let lost_wall = self.lost_on_interrupt(effective);
        (effective / stretch, lost_wall / stretch)
    }

    /// Fraction of running wall time spent writing checkpoints:
    /// `(factor − 1) / factor` where `factor` is
    /// [`runtime_overhead_factor`](Self::runtime_overhead_factor).
    ///
    /// The overhead is a multiplicative stretch, so of every stretched
    /// wall second, `1/factor` is forward progress and the rest is
    /// checkpoint writes. The observability layer uses this to carve the
    /// amortized `Checkpointing` span out of each `Running` interval.
    pub fn overhead_fraction(&self) -> f64 {
        let factor = self.runtime_overhead_factor();
        (factor - 1.0) / factor
    }

    /// One-time cost paid when a preempted/failed job resumes.
    pub fn restore_cost_secs(&self) -> f64 {
        if self.is_enabled() {
            self.restore_secs
        } else {
            0.0
        }
    }
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy::campus_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_factor() {
        let p = CheckpointPolicy::every(600.0, 15.0, 60.0);
        assert!((p.runtime_overhead_factor() - 1.025).abs() < 1e-12);
        assert_eq!(CheckpointPolicy::disabled().runtime_overhead_factor(), 1.0);
    }

    #[test]
    fn loss_is_bounded_by_interval() {
        let p = CheckpointPolicy::every(600.0, 15.0, 60.0);
        assert_eq!(p.lost_on_interrupt(0.0), 0.0);
        assert_eq!(p.lost_on_interrupt(599.0), 599.0);
        assert_eq!(p.lost_on_interrupt(600.0), 0.0);
        assert_eq!(p.lost_on_interrupt(1450.0), 250.0);
        // Disabled: everything is lost.
        assert_eq!(
            CheckpointPolicy::disabled().lost_on_interrupt(1450.0),
            1450.0
        );
    }

    #[test]
    fn overhead_fraction_complements_progress_share() {
        let p = CheckpointPolicy::every(600.0, 15.0, 60.0);
        // factor 1.025: of each stretched second, 1/1.025 is progress.
        let f = p.overhead_fraction();
        assert!((f - 0.025 / 1.025).abs() < 1e-15);
        assert!((f + 1.0 / p.runtime_overhead_factor() - 1.0).abs() < 1e-15);
        assert_eq!(CheckpointPolicy::disabled().overhead_fraction(), 0.0);
    }

    #[test]
    fn restore_cost_only_when_enabled() {
        assert_eq!(CheckpointPolicy::campus_default().restore_cost_secs(), 60.0);
        assert_eq!(CheckpointPolicy::disabled().restore_cost_secs(), 0.0);
    }

    #[test]
    fn tighter_interval_trades_overhead_for_loss() {
        let tight = CheckpointPolicy::every(60.0, 15.0, 60.0);
        let loose = CheckpointPolicy::every(3600.0, 15.0, 60.0);
        assert!(tight.runtime_overhead_factor() > loose.runtime_overhead_factor());
        assert!(tight.lost_on_interrupt(3599.0) < loose.lost_on_interrupt(3599.0));
    }

    #[test]
    fn interruption_amounts_discount_resume_penalty_and_stretch() {
        let p = CheckpointPolicy::every(600.0, 15.0, 60.0);
        // 1260s wall, 60s of it was checkpoint restore, stretch 2x:
        // effective wall progress 1200 = 2 intervals, nothing lost.
        let (progress, lost) = p.interruption_amounts(1260.0, 60.0, 2.0);
        assert_eq!(progress, 600.0);
        assert_eq!(lost, 0.0);
        // 250s past the last checkpoint is lost (in service time: /2).
        let (progress, lost) = p.interruption_amounts(1450.0, 0.0, 2.0);
        assert_eq!(progress, 725.0);
        assert_eq!(lost, 125.0);
        // Elapsed shorter than the restore penalty clamps to zero.
        let (progress, lost) = p.interruption_amounts(30.0, 60.0, 1.0);
        assert_eq!(progress, 0.0);
        assert_eq!(lost, 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_interval_rejected() {
        let _ = CheckpointPolicy::every(0.0, 1.0, 1.0);
    }
}
