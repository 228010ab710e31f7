//! ASCII Gantt charts of a schedule: which job ran where, when.
//!
//! Invaluable for eyeballing packing behaviour — the Figure-1 worked
//! example renders as the same block diagram the paper draws.

use tetris_sim::SimOutcome;

/// One machine's lane: for each time bucket, which job (if any) dominated
/// the machine's running tasks.
#[derive(Debug, Clone)]
pub struct Gantt {
    /// Bucket width in seconds.
    pub bucket: f64,
    /// `lanes[machine][bucket]` = dominant job index, or `None` if idle.
    pub lanes: Vec<Vec<Option<usize>>>,
    /// Number of buckets.
    pub buckets: usize,
}

impl Gantt {
    /// Build from a run's task records with `buckets` time buckets over
    /// `[0, makespan]`.
    pub fn new(outcome: &SimOutcome, n_machines: usize, buckets: usize) -> Self {
        assert!(buckets >= 1);
        let horizon = outcome.makespan().max(1e-9);
        let bucket = horizon / buckets as f64;
        // Count per (machine, bucket, job) task-seconds; keep the argmax.
        let mut occupancy =
            vec![vec![std::collections::BTreeMap::<usize, f64>::new(); buckets]; n_machines];
        for t in &outcome.tasks {
            let (Some(m), Some(s), Some(f)) = (t.machine, t.start, t.finish) else {
                continue;
            };
            let first = ((s / bucket).floor() as usize).min(buckets - 1);
            let last = ((f / bucket).ceil() as usize).clamp(first + 1, buckets);
            for b in first..last {
                let lo = (b as f64) * bucket;
                let hi = lo + bucket;
                let overlap = (f.min(hi) - s.max(lo)).max(0.0);
                if overlap > 0.0 {
                    *occupancy[m.index()][b].entry(t.job.index()).or_default() += overlap;
                }
            }
        }
        let lanes = occupancy
            .into_iter()
            .map(|machine| {
                machine
                    .into_iter()
                    .map(|counts| {
                        counts
                            .into_iter()
                            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(b.0.cmp(&a.0)))
                            .map(|(job, _)| job)
                    })
                    .collect()
            })
            .collect();
        Gantt {
            bucket,
            lanes,
            buckets,
        }
    }

    /// Render one character per bucket per machine: `A`–`Z` by job index
    /// (wrapping, lowercase past 26), `.` when idle.
    pub fn render(&self) -> String {
        let glyph = |j: usize| {
            let letters = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz";
            letters[j % letters.len()] as char
        };
        let mut out = String::new();
        out.push_str(&format!(
            "time → ({} buckets × {:.0}s)\n",
            self.buckets, self.bucket
        ));
        for (mi, lane) in self.lanes.iter().enumerate() {
            out.push_str(&format!("m{mi:<3} "));
            for cell in lane {
                out.push(cell.map_or('.', glyph));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetris_resources::{units::GB, MachineSpec};
    use tetris_sim::{ClusterConfig, GreedyFifo, Simulation};
    use tetris_workload::{TaskParams, WorkloadBuilder};

    /// Fraction of (machine, bucket) cells that are busy.
    fn busy_fraction(g: &Gantt) -> f64 {
        let total: usize = g.lanes.iter().map(Vec::len).sum();
        let busy = g.lanes.iter().flatten().filter(|c| c.is_some()).count();
        busy as f64 / total as f64
    }

    fn run_two_jobs() -> SimOutcome {
        let mut b = WorkloadBuilder::new();
        for (name, arrival) in [("a", 0.0), ("b", 0.0)] {
            let j = b.begin_job(name, None, arrival);
            b.add_stage(j, "s", vec![], 2, |_| TaskParams {
                cores: 2.0,
                mem: 4.0 * GB,
                duration: 10.0,
                cpu_frac: 1.0,
                io_burst: 1.0,
                inputs: vec![],
                output_bytes: 0.0,
                remote_frac: 1.0,
            });
        }
        Simulation::build(
            ClusterConfig::uniform(2, MachineSpec::paper_small()),
            b.finish(),
        )
        .scheduler(GreedyFifo::new())
        .run()
    }

    #[test]
    fn gantt_covers_the_schedule() {
        let o = run_two_jobs();
        let g = Gantt::new(&o, 2, 10);
        assert_eq!(g.lanes.len(), 2);
        assert_eq!(g.lanes[0].len(), 10);
        let busy = busy_fraction(&g);
        assert!(busy > 0.3, "{busy}");
        let s = g.render();
        assert!(s.contains('A') || s.contains('B'), "{s}");
        assert_eq!(s.lines().count(), 3);
    }

    #[test]
    fn idle_cells_render_as_dots() {
        let o = run_two_jobs();
        // One extra "machine" with no tasks at all.
        let g = Gantt::new(&o, 3, 5);
        assert!(g.lanes[2].iter().all(Option::is_none));
        assert!(g.render().lines().last().unwrap().contains("....."));
    }
}
