//! A processor-sharing resource with a pluggable concurrency-efficiency
//! curve.
//!
//! [`PsResource`] models a contended service point: `n` concurrent jobs each
//! progress at rate `capacity * efficiency(n) / n`. With
//! [`EfficiencyCurve::Linear`] this is ideal processor sharing (an `n`-way
//! fair split); other curves model resources that *degrade* under
//! concurrency. The MemFS paper's Figure 10 shows exactly such a resource:
//! the FUSE kernel module takes a per-mountpoint spinlock, so a single
//! mountpoint stops scaling past ~8 concurrent application processes and
//! collapses when accessed from two NUMA domains. `memfs-cluster` builds
//! that model on top of this type.
//!
//! The implementation is the classic "virtual work" technique: between
//! membership changes all jobs progress at a common per-job rate, so the
//! resource only needs to re-linearize at arrivals and departures.

use std::collections::HashMap;

use crate::time::{SimDuration, SimTime};

/// Identifier of a job admitted to a [`PsResource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

/// How aggregate throughput scales with the number of concurrent jobs.
#[derive(Debug, Clone)]
pub enum EfficiencyCurve {
    /// Ideal processor sharing: aggregate rate is always `capacity`.
    Linear,
    /// Aggregate rate saturates at `capacity * plateau_factor` once more
    /// than `knee` jobs are active, and beyond the knee each extra job
    /// *reduces* aggregate throughput by `degradation` (relative, per job),
    /// modelling lock convoying. Values are clamped so throughput never
    /// drops below 5% of capacity.
    Knee {
        /// Concurrency level up to which the resource scales ideally.
        knee: usize,
        /// Relative throughput loss per job beyond the knee (e.g. `0.15`).
        degradation: f64,
    },
    /// Arbitrary table: entry `i` is the relative aggregate efficiency at
    /// concurrency `i + 1`; concurrency beyond the table uses the last
    /// entry.
    Table(Vec<f64>),
}

impl EfficiencyCurve {
    /// Relative aggregate efficiency (0, 1] at concurrency `n >= 1`.
    pub fn efficiency(&self, n: usize) -> f64 {
        debug_assert!(n >= 1);
        match self {
            EfficiencyCurve::Linear => 1.0,
            EfficiencyCurve::Knee { knee, degradation } => {
                if n <= *knee {
                    1.0
                } else {
                    let extra = (n - knee) as f64;
                    (1.0 - degradation * extra).max(0.05)
                }
            }
            EfficiencyCurve::Table(t) => {
                if t.is_empty() {
                    1.0
                } else {
                    t[(n - 1).min(t.len() - 1)].clamp(0.0001, 1.0)
                }
            }
        }
    }
}

#[derive(Debug)]
struct Job {
    remaining_work: f64,
}

/// A processor-sharing resource serving jobs measured in abstract "work"
/// units at `capacity` work units per second.
///
/// The caller drives the resource from its event loop:
///
/// 1. [`PsResource::admit`] a job with some amount of work,
/// 2. ask for [`PsResource::next_completion`] and schedule an event there,
/// 3. on that event call [`PsResource::advance_to`] and collect completions.
///
/// Admissions and early removals also require an `advance_to` call first so
/// in-flight work is accounted up to the present.
#[derive(Debug)]
pub struct PsResource {
    capacity: f64,
    curve: EfficiencyCurve,
    jobs: HashMap<JobId, Job>,
    next_id: u64,
    last_update: SimTime,
    /// Total work completed since construction (for utilization reporting).
    completed_work: f64,
}

impl PsResource {
    /// Create a resource with `capacity` work units per second.
    ///
    /// # Panics
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn new(capacity: f64, curve: EfficiencyCurve) -> Self {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "PsResource capacity must be positive, got {capacity}"
        );
        PsResource {
            capacity,
            curve,
            jobs: HashMap::new(),
            next_id: 0,
            last_update: SimTime::ZERO,
            completed_work: 0.0,
        }
    }

    /// Total work units completed so far.
    pub fn completed_work(&self) -> f64 {
        self.completed_work
    }

    /// Current per-job service rate (work units per second), or `None` when
    /// idle.
    pub fn per_job_rate(&self) -> Option<f64> {
        let n = self.jobs.len();
        if n == 0 {
            return None;
        }
        Some(self.capacity * self.curve.efficiency(n) / n as f64)
    }

    /// Admit a new job with `work` units at time `now`.
    ///
    /// # Panics
    /// Panics if `work` is negative/non-finite or `now` precedes the last
    /// update (call [`Self::advance_to`] first).
    pub fn admit(&mut self, now: SimTime, work: f64) -> JobId {
        assert!(work.is_finite() && work >= 0.0, "invalid work {work}");
        self.catch_up(now);
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            Job {
                remaining_work: work,
            },
        );
        id
    }

    /// Remove a job before completion (e.g. cancelled task), returning its
    /// remaining work, or `None` if it already completed or never existed.
    pub fn remove(&mut self, now: SimTime, id: JobId) -> Option<f64> {
        self.catch_up(now);
        self.jobs.remove(&id).map(|j| j.remaining_work)
    }

    /// The absolute time at which the next job will finish if no further
    /// arrivals occur, or `None` when idle.
    pub fn next_completion(&self) -> Option<SimTime> {
        let rate = self.per_job_rate()?;
        let min_remaining = self
            .jobs
            .values()
            .map(|j| j.remaining_work)
            .fold(f64::INFINITY, f64::min);
        let dt = SimDuration::from_secs_f64(min_remaining / rate);
        Some(self.last_update.saturating_add(dt))
    }

    /// Advance internal accounting to `now` and return the IDs of all jobs
    /// that completed at or before `now`, in deterministic (id) order.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<JobId> {
        self.catch_up(now);
        let mut done: Vec<JobId> = self
            .jobs
            .iter()
            // Work is tracked in f64; treat sub-nanosecond residue as done.
            .filter(|(_, j)| j.remaining_work <= self.capacity * 1e-12)
            .map(|(&id, _)| id)
            .collect();
        done.sort_unstable();
        for id in &done {
            self.jobs.remove(id);
        }
        done
    }

    /// Account for service between `last_update` and `now`.
    fn catch_up(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "PsResource: time went backwards ({now} < {})",
            self.last_update
        );
        if now == self.last_update {
            return;
        }
        let dt = now.duration_since(self.last_update).as_secs_f64();
        self.last_update = now;
        if let Some(rate) = self.per_job_rate() {
            let served = rate * dt;
            for job in self.jobs.values_mut() {
                let done = served.min(job.remaining_work);
                job.remaining_work -= done;
                self.completed_work += done;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn single_job_takes_work_over_capacity() {
        let mut r = PsResource::new(100.0, EfficiencyCurve::Linear);
        let id = r.admit(SimTime::ZERO, 50.0); // 0.5 s at 100 units/s
        let done_at = r.next_completion().unwrap();
        assert_eq!(done_at.as_nanos(), 500_000_000);
        let done = r.advance_to(done_at);
        assert_eq!(done, vec![id]);
        assert!(r.next_completion().is_none());
    }

    #[test]
    fn two_jobs_share_capacity_fairly() {
        let mut r = PsResource::new(100.0, EfficiencyCurve::Linear);
        r.admit(SimTime::ZERO, 50.0);
        r.admit(SimTime::ZERO, 50.0);
        // Each gets 50 units/s, so both finish at t = 1 s.
        let done_at = r.next_completion().unwrap();
        assert_eq!(done_at.as_nanos(), 1_000_000_000);
        assert_eq!(r.advance_to(done_at).len(), 2);
    }

    #[test]
    fn late_arrival_slows_first_job() {
        let mut r = PsResource::new(100.0, EfficiencyCurve::Linear);
        let a = r.admit(SimTime::ZERO, 100.0); // alone: would finish at 1 s
                                               // At 0.5 s job A has 50 units left; B arrives with 10 units.
        let b = r.admit(t(500_000_000), 10.0);
        // Shared 50/50: B finishes 10/50 = 0.2 s later, at 0.7 s.
        let next = r.next_completion().unwrap();
        assert_eq!(next.as_nanos(), 700_000_000);
        assert_eq!(r.advance_to(next), vec![b]);
        // A has 40 left, alone again at 100 units/s: finishes at 1.1 s.
        let next = r.next_completion().unwrap();
        assert_eq!(next.as_nanos(), 1_100_000_000);
        assert_eq!(r.advance_to(next), vec![a]);
    }

    #[test]
    fn knee_curve_degrades_beyond_knee() {
        let c = EfficiencyCurve::Knee {
            knee: 8,
            degradation: 0.1,
        };
        assert_eq!(c.efficiency(1), 1.0);
        assert_eq!(c.efficiency(8), 1.0);
        assert!((c.efficiency(9) - 0.9).abs() < 1e-12);
        assert!((c.efficiency(12) - 0.6).abs() < 1e-12);
        // Floor at 5%.
        assert!((c.efficiency(100) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn table_curve_clamps_and_extends() {
        let c = EfficiencyCurve::Table(vec![1.0, 0.8, 0.5]);
        assert_eq!(c.efficiency(1), 1.0);
        assert_eq!(c.efficiency(2), 0.8);
        assert_eq!(c.efficiency(3), 0.5);
        assert_eq!(c.efficiency(10), 0.5);
        let empty = EfficiencyCurve::Table(vec![]);
        assert_eq!(empty.efficiency(5), 1.0);
    }

    #[test]
    fn degraded_resource_serves_slower() {
        // Knee at 1 with 50% degradation per extra job: 2 jobs get an
        // aggregate of 50 units/s, i.e. 25 each.
        let mut r = PsResource::new(
            100.0,
            EfficiencyCurve::Knee {
                knee: 1,
                degradation: 0.5,
            },
        );
        r.admit(SimTime::ZERO, 25.0);
        r.admit(SimTime::ZERO, 25.0);
        assert_eq!(r.next_completion().unwrap().as_nanos(), 1_000_000_000);
    }

    #[test]
    fn remove_returns_remaining_work() {
        let mut r = PsResource::new(10.0, EfficiencyCurve::Linear);
        let id = r.admit(SimTime::ZERO, 100.0);
        let left = r.remove(t(1_000_000_000), id).unwrap();
        assert!((left - 90.0).abs() < 1e-9);
        assert!(r.remove(t(1_000_000_000), id).is_none());
    }

    #[test]
    fn zero_work_job_completes_immediately() {
        let mut r = PsResource::new(10.0, EfficiencyCurve::Linear);
        let id = r.admit(SimTime::ZERO, 0.0);
        assert_eq!(r.next_completion().unwrap(), SimTime::ZERO);
        assert_eq!(r.advance_to(SimTime::ZERO), vec![id]);
    }

    #[test]
    fn completed_work_accumulates() {
        let mut r = PsResource::new(100.0, EfficiencyCurve::Linear);
        r.admit(SimTime::ZERO, 30.0);
        r.admit(SimTime::ZERO, 70.0);
        let end = t(2_000_000_000);
        // Run to completion via repeated events.
        while let Some(next) = r.next_completion() {
            let at = next.min(end);
            r.advance_to(at);
            if at == end {
                break;
            }
        }
        assert!((r.completed_work() - 100.0).abs() < 1e-6);
    }
}
