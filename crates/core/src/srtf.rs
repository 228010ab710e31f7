//! Multi-resource shortest-remaining-time-first scoring (paper §3.3).
//!
//! The score of a job is "the total resource consumption of its remaining
//! tasks": for each remaining task, the sum of its capacity-normalized
//! demands times its estimated duration, summed over tasks. Jobs with
//! **lower** scores are served first — they need the least work to finish,
//! so completing them improves average JCT the most at the least
//! opportunity cost.
//!
//! Because tasks of a phase are statistically similar (paper §4.1 measures
//! in-phase demand CoV of ~0.2 or less), the per-job score is computed from
//! one representative task per stage times the stage's remaining count —
//! this is also what keeps the scheduler's per-event cost independent of
//! job size.

use tetris_resources::ResourceVec;
use tetris_sim::{ClusterView, StageProgress};
use tetris_workload::JobId;

/// Per-task resource-time cost: Σ_r (demand_r / reference_r) × duration.
pub(crate) fn task_cost(
    demand: &ResourceVec,
    reference_capacity: &ResourceVec,
    duration: f64,
) -> f64 {
    demand.normalized_by(reference_capacity).sum() * duration
}

/// Remaining-work score of a job (lower = closer to completion).
///
/// `reference_capacity` is typically the average machine capacity; only
/// relative magnitudes matter.
pub fn job_remaining_work(
    view: &ClusterView<'_>,
    job: JobId,
    reference_capacity: &ResourceVec,
) -> f64 {
    let mut total = 0.0;
    for (si, sp) in view.stage_progress(job).enumerate() {
        total += stage_remaining_work(view, job, si, &sp, reference_capacity);
    }
    total
}

/// As [`job_remaining_work`] but reusing an already-fetched progress vector
/// (hot paths fetch it once per job per scheduling pass).
pub(crate) fn job_remaining_work_with(
    view: &ClusterView<'_>,
    job: JobId,
    reference_capacity: &ResourceVec,
    stages: &[StageProgress],
) -> f64 {
    let mut total = 0.0;
    for (si, sp) in stages.iter().enumerate() {
        total += stage_remaining_work(view, job, si, sp, reference_capacity);
    }
    total
}

/// Remaining work of one stage, from one representative task (first
/// pending, or the stage's first task while locked) — O(1) instead of
/// walking the stage.
fn stage_remaining_work(
    view: &ClusterView<'_>,
    job: JobId,
    si: usize,
    sp: &StageProgress,
    reference_capacity: &ResourceVec,
) -> f64 {
    let unscheduled = sp.total - sp.finished - sp.running;
    if unscheduled == 0 {
        return 0.0;
    }
    match view.stage_representative(job, si) {
        Some(t) => {
            unscheduled as f64 * task_cost(&t.demand, reference_capacity, t.ideal_duration())
        }
        None => 0.0,
    }
}

/// Maintains the running average `ā` (alignment score of placed tasks)
/// that sets the combination weight `ε = m·ā/p̄` (paper §3.3.2): with
/// `m = 1`, neither term dominates the combined score.
///
/// Two departures from a literal reading of "(a + ε·p)":
///
/// * **Sign.** The paper defines lower `p` as better ("scheduling jobs
///   with lower scores first reduces average completion time"), so the
///   remaining-work term must enter negatively for a highest-score
///   selection to implement SRTF.
/// * **Saturation.** Normalizing `p` by the mean (`p/p̄`) makes the
///   penalty unbounded for very large jobs, which starves them forever
///   under continuous arrivals of small jobs — contradicting the paper's
///   own finding that large jobs benefit the *most* from Tetris. We
///   therefore use the job's remaining-work *rank* among active jobs
///   (0 = least remaining work, 1 = most): the penalty is bounded by
///   `m·ā`, so a strongly-aligned task of a long job can still win, while
///   the SRTF ordering among comparable alignments is exactly preserved.
#[derive(Debug, Clone)]
pub(crate) struct CombinedScorer {
    /// The multiplier `m` (paper's sensitivity analysis: `m ≈ 1` is right;
    /// `m = 0` disables SRTF, large `m` disables packing).
    pub multiplier: f64,
    avg_alignment: RunningAvg,
}

impl CombinedScorer {
    /// New scorer with multiplier `m`.
    pub(crate) fn new(multiplier: f64) -> Self {
        assert!(multiplier >= 0.0 && multiplier.is_finite());
        CombinedScorer {
            multiplier,
            avg_alignment: RunningAvg::default(),
        }
    }

    /// Record the alignment score of a task that was actually placed,
    /// updating `ā`.
    pub(crate) fn observe_alignment(&mut self, a: f64) {
        self.avg_alignment.push(a);
    }

    /// Combine an alignment score with the owning job's remaining-work
    /// rank (`0` = shortest remaining work among active jobs, `1` =
    /// longest).
    pub(crate) fn combined(&self, alignment: f64, p_rank: f64) -> f64 {
        if self.multiplier == 0.0 {
            return alignment;
        }
        debug_assert!((0.0..=1.0).contains(&p_rank));
        let a_bar = self.avg_alignment.mean_or(alignment.abs().max(1e-9));
        alignment - self.multiplier * a_bar * p_rank
    }
}

/// Rank each value in `[0, 1]` by ascending order into `out` (ties share
/// the lower rank; a single element ranks 0). `idx` is sort scratch, so
/// hot paths rank without allocating per call.
pub(crate) fn ranks_into(values: &[f64], idx: &mut Vec<usize>, out: &mut Vec<f64>) {
    let n = values.len();
    out.clear();
    out.resize(n, 0.0);
    if n <= 1 {
        return;
    }
    idx.clear();
    idx.extend(0..n);
    idx.sort_by(|&a, &b| values[a].partial_cmp(&values[b]).expect("NaN rank input"));
    let denom = (n - 1) as f64;
    let mut i = 0;
    while i < n {
        // Tie group shares the first position's rank.
        let mut j = i;
        while j + 1 < n && values[idx[j + 1]] == values[idx[i]] {
            j += 1;
        }
        for k in i..=j {
            out[idx[k]] = i as f64 / denom;
        }
        i = j + 1;
    }
}

/// Numerically stable running average.
#[derive(Debug, Clone, Copy, Default)]
struct RunningAvg {
    mean: f64,
    n: u64,
}

impl RunningAvg {
    fn push(&mut self, x: f64) {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
    }

    fn mean_or(&self, fallback: f64) -> f64 {
        if self.n == 0 {
            fallback
        } else {
            self.mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::Resource;

    fn ranks(values: &[f64]) -> Vec<f64> {
        let (mut idx, mut out) = (Vec::new(), Vec::new());
        ranks_into(values, &mut idx, &mut out);
        out
    }

    fn refcap() -> ResourceVec {
        ResourceVec::zero()
            .with(Resource::Cpu, 16.0)
            .with(Resource::Mem, 32e9)
    }

    #[test]
    fn task_cost_scales_with_demand_and_duration() {
        let c = refcap();
        let d = ResourceVec::zero()
            .with(Resource::Cpu, 4.0)
            .with(Resource::Mem, 8e9);
        // (0.25 + 0.25) × 10 = 5.
        assert!((task_cost(&d, &c, 10.0) - 5.0).abs() < 1e-12);
        assert!(task_cost(&d, &c, 20.0) > task_cost(&d, &c, 10.0));
    }

    #[test]
    fn combined_prefers_less_remaining_work_at_equal_alignment() {
        let mut s = CombinedScorer::new(1.0);
        s.observe_alignment(0.5);
        let short_job = s.combined(0.5, 0.1);
        let long_job = s.combined(0.5, 0.9);
        assert!(short_job > long_job);
    }

    #[test]
    fn combined_prefers_alignment_at_equal_work() {
        let mut s = CombinedScorer::new(1.0);
        s.observe_alignment(0.5);
        assert!(s.combined(0.9, 0.5) > s.combined(0.2, 0.5));
    }

    #[test]
    fn multiplier_zero_is_pure_packing() {
        let s = CombinedScorer::new(0.0);
        assert_eq!(s.combined(0.7, 1.0), 0.7);
    }

    #[test]
    fn penalty_is_bounded_by_m_times_a_bar() {
        let mut s = CombinedScorer::new(2.0);
        s.observe_alignment(0.4);
        s.observe_alignment(0.6); // ā = 0.5
        let v = s.combined(1.0, 1.0);
        assert!((v - (1.0 - 2.0 * 0.5)).abs() < 1e-12);
        // Even the longest job's penalty never exceeds m·ā.
        assert!(s.combined(1.0, 1.0) >= 1.0 - 2.0 * 0.5 - 1e-12);
    }

    #[test]
    fn ranks_order_and_ties() {
        assert_eq!(ranks(&[]), Vec::<f64>::new());
        assert_eq!(ranks(&[5.0]), vec![0.0]);
        assert_eq!(ranks(&[3.0, 1.0, 2.0]), vec![1.0, 0.0, 0.5]);
        let r = ranks(&[1.0, 1.0, 2.0]);
        assert_eq!(r[0], r[1]);
        assert_eq!(r[2], 1.0);
    }

    #[test]
    fn running_avg_converges() {
        let mut r = RunningAvg::default();
        for i in 1..=100 {
            r.push(i as f64);
        }
        assert!((r.mean_or(0.0) - 50.5).abs() < 1e-9);
        assert_eq!(RunningAvg::default().mean_or(7.0), 7.0);
    }

    #[test]
    #[should_panic]
    fn negative_multiplier_rejected() {
        CombinedScorer::new(-1.0);
    }
}
