//! The fairness knob (paper §3.4).
//!
//! "When resources become available, Tetris sorts the jobs (set J) in
//! decreasing order of how far they are from their fair share. It then
//! looks for the best task among the runnable tasks belonging to the first
//! ⌈(1−f)·|J|⌉ jobs in the sorted list. Setting f = 0 results in the most
//! efficient scheduling choice, whereas f → 1 yields perfect fairness."

use tetris_workload::JobId;

/// Sort jobs by increasing share (the head of the list is furthest below
/// its fair share) and truncate to the eligible prefix of size
/// `⌈(1−f)·|J|⌉`, in place. Ties break by job id for determinism.
///
/// `f = 0` → every job is eligible (pure packing); `f → 1` → only the
/// most-starved job is eligible (strict fairness).
pub(crate) fn eligible_jobs_in_place(shares: &mut Vec<(JobId, f64)>, fairness_knob: f64) {
    assert!(
        (0.0..=1.0).contains(&fairness_knob),
        "fairness knob must be in [0,1]"
    );
    let n = shares.len();
    if n == 0 {
        return;
    }
    shares.sort_by(|a, b| {
        a.1.partial_cmp(&b.1)
            .expect("NaN share")
            .then_with(|| a.0.cmp(&b.0))
    });
    let k = (((1.0 - fairness_knob) * n as f64).ceil() as usize).clamp(1, n);
    shares.truncate(k);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::{Resource, ResourceVec};

    fn eligible_jobs(mut shares: Vec<(JobId, f64)>, fairness_knob: f64) -> Vec<JobId> {
        eligible_jobs_in_place(&mut shares, fairness_knob);
        shares.into_iter().map(|(j, _)| j).collect()
    }

    fn shares(v: &[f64]) -> Vec<(JobId, f64)> {
        v.iter().enumerate().map(|(i, &s)| (JobId(i), s)).collect()
    }

    #[test]
    fn f_zero_admits_everyone() {
        let e = eligible_jobs(shares(&[0.5, 0.1, 0.3]), 0.0);
        assert_eq!(e.len(), 3);
        // Sorted: most-starved first.
        assert_eq!(e, vec![JobId(1), JobId(2), JobId(0)]);
    }

    #[test]
    fn f_near_one_admits_only_most_starved() {
        let e = eligible_jobs(shares(&[0.5, 0.1, 0.3]), 0.99);
        assert_eq!(e, vec![JobId(1)]);
    }

    #[test]
    fn quarter_knob_drops_the_top_quarter() {
        let e = eligible_jobs(shares(&[0.1, 0.2, 0.3, 0.4]), 0.25);
        assert_eq!(e, vec![JobId(0), JobId(1), JobId(2)]);
    }

    #[test]
    fn ties_break_by_job_id() {
        let e = eligible_jobs(shares(&[0.2, 0.2, 0.2]), 0.5);
        assert_eq!(e, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(eligible_jobs(vec![], 0.25).is_empty());
    }

    #[test]
    fn at_least_one_job_is_always_eligible() {
        let e = eligible_jobs(shares(&[0.9]), 1.0);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn dominant_share_uses_max_ratio() {
        let cap = ResourceVec::zero()
            .with(Resource::Cpu, 10.0)
            .with(Resource::Mem, 100.0);
        let alloc = ResourceVec::zero()
            .with(Resource::Cpu, 2.0)
            .with(Resource::Mem, 50.0);
        assert_eq!(alloc.dominant_share(&cap, &Resource::ALL), 0.5);
    }

    #[test]
    #[should_panic(expected = "fairness knob")]
    fn rejects_out_of_range_knob() {
        eligible_jobs(vec![], 1.5);
    }
}
