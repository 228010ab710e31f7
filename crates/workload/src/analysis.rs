//! Workload analysis: the statistics the paper reports about its production
//! traces (§2.2.2) — demand correlation (Table 2), demand heat-maps
//! (Figure 2), coefficients of variation — computed over any [`Workload`].
//!
//! Resource *tightness* (Table 3) needs a simulation run and therefore
//! lives in `tetris-metrics`.

use tetris_resources::{Resource, ResourceVec};

use crate::spec::Workload;
use crate::stats::{coeff_of_variation, pearson};

/// The four "reporting view" dimensions the paper's workload tables use:
/// cores, memory, disk (read+write) and network (in+out).
pub(crate) const REPORT_DIMS: [&str; 4] = ["cores", "memory", "disk", "network"];

/// Project a 6-dim demand vector onto the 4-dim reporting view.
pub(crate) fn report_view(d: &ResourceVec) -> [f64; 4] {
    [
        d.get(Resource::Cpu),
        d.get(Resource::Mem),
        d.get(Resource::DiskRead) + d.get(Resource::DiskWrite),
        d.get(Resource::NetIn) + d.get(Resource::NetOut),
    ]
}

/// Per-task demand samples in the 4-dim reporting view.
pub(crate) fn demand_samples(w: &Workload) -> Vec<[f64; 4]> {
    w.tasks().map(|t| report_view(&t.demand)).collect()
}

/// Table 2: Pearson correlation between per-task demands of each resource
/// pair. Production finding: "There is little correlation across demands
/// for various resources"; even the highest (cores↔memory) is moderate.
#[derive(Debug, Clone)]
pub struct CorrelationMatrix {
    /// `matrix[i][j]` = correlation between reporting dims i and j.
    pub matrix: [[f64; 4]; 4],
}

impl CorrelationMatrix {
    /// Compute over all tasks of a workload.
    pub fn compute(w: &Workload) -> Self {
        let samples = demand_samples(w);
        let cols: Vec<Vec<f64>> = (0..4)
            .map(|d| samples.iter().map(|s| s[d]).collect())
            .collect();
        let mut matrix = [[0.0; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                matrix[i][j] = if i == j {
                    1.0
                } else {
                    pearson(&cols[i], &cols[j])
                };
            }
        }
        CorrelationMatrix { matrix }
    }

    /// Largest off-diagonal |correlation| (the paper's headline: even the
    /// max is only moderate).
    pub fn max_off_diagonal(&self) -> f64 {
        let mut m: f64 = 0.0;
        for i in 0..4 {
            for j in 0..4 {
                if i != j {
                    m = m.max(self.matrix[i][j].abs());
                }
            }
        }
        m
    }

    /// Render as the paper's upper-triangular table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>8} {:>8} {:>8} {:>8} {:>8}\n",
            "", REPORT_DIMS[0], REPORT_DIMS[1], REPORT_DIMS[2], REPORT_DIMS[3]
        ));
        for i in 0..4 {
            out.push_str(&format!("{:>8}", REPORT_DIMS[i]));
            for j in 0..4 {
                if j <= i {
                    out.push_str(&format!(" {:>8}", "—"));
                } else {
                    out.push_str(&format!(" {:>8.2}", self.matrix[i][j]));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Summary of per-resource demand diversity (the Figure-2 narration:
/// "minimum values are 5–10× lower than the median, which in turn is ~50×
/// lower than the maximum", and the CoV row).
#[derive(Debug, Clone)]
pub struct DemandDiversity {
    /// Per reporting dim: (min, median, max, coefficient of variation),
    /// computed over tasks with non-zero demand on that dim.
    pub rows: [(f64, f64, f64, f64); 4],
}

impl DemandDiversity {
    /// Compute over all tasks of a workload.
    pub fn compute(w: &Workload) -> Self {
        let samples = demand_samples(w);
        let mut rows = [(0.0, 0.0, 0.0, 0.0); 4];
        for d in 0..4 {
            let mut xs: Vec<f64> = samples.iter().map(|s| s[d]).filter(|&x| x > 0.0).collect();
            if xs.is_empty() {
                continue;
            }
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let min = xs[0];
            let max = *xs.last().unwrap();
            let med = crate::stats::percentile_sorted(&xs, 0.5);
            rows[d] = (min, med, max, coeff_of_variation(&xs));
        }
        DemandDiversity { rows }
    }

    /// Render one line per reporting dim.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:>8} {:>12} {:>12} {:>12} {:>8}\n",
            "dim", "min", "median", "max", "CoV"
        ));
        for (d, (min, med, max, cov)) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "{:>8} {:>12.3e} {:>12.3e} {:>12.3e} {:>8.2}\n",
                REPORT_DIMS[d], min, med, max, cov
            ));
        }
        out
    }
}

/// §4.1: coefficient of variation of demands *within* each stage, averaged
/// over stages (weighted by stage size), per reporting dim.
///
/// The paper measures in-phase CoVs of ~0.02–0.2 — far below the
/// across-task CoVs of Figure 2 — which is what makes "estimate later
/// tasks of a phase from the first few" sound.
pub fn within_stage_cov(w: &Workload) -> [f64; 4] {
    let mut acc = [0.0f64; 4];
    let mut weight = 0.0f64;
    for job in w.jobs.iter() {
        for stage in &job.stages {
            if stage.tasks.len() < 2 {
                continue;
            }
            let n = stage.tasks.len() as f64;
            for d in 0..4 {
                let xs: Vec<f64> = stage
                    .tasks
                    .iter()
                    .map(|t| report_view(&t.demand)[d])
                    .collect();
                acc[d] += coeff_of_variation(&xs) * n;
            }
            weight += n;
        }
    }
    if weight > 0.0 {
        for a in &mut acc {
            *a /= weight;
        }
    }
    acc
}

/// Figure 2: a 2-D histogram ("heat-map") of task demands, cores on the x
/// axis vs another reporting dim on the y axis, with log-scale counts.
#[derive(Debug, Clone)]
pub struct Heatmap {
    /// Y-axis reporting dim index (1 = memory, 2 = disk, 3 = network).
    pub y_dim: usize,
    /// Number of bins per axis.
    pub bins: usize,
    /// `counts[y][x]` tasks whose normalized demands land in the cell.
    pub counts: Vec<Vec<u64>>,
    /// Max x (cores) among samples, for axis labelling.
    pub x_max: f64,
    /// Max y among samples.
    pub y_max: f64,
}

impl Heatmap {
    /// Build a heat-map of cores vs `y_dim` over all tasks.
    pub fn compute(w: &Workload, y_dim: usize, bins: usize) -> Self {
        assert!((1..4).contains(&y_dim), "y_dim must be 1..=3");
        assert!(bins >= 2);
        let samples = demand_samples(w);
        let x_max = samples.iter().map(|s| s[0]).fold(0.0, f64::max).max(1e-12);
        let y_max = samples
            .iter()
            .map(|s| s[y_dim])
            .fold(0.0, f64::max)
            .max(1e-12);
        let mut counts = vec![vec![0u64; bins]; bins];
        for s in &samples {
            let xi = ((s[0] / x_max) * bins as f64).min(bins as f64 - 1.0) as usize;
            let yi = ((s[y_dim] / y_max) * bins as f64).min(bins as f64 - 1.0) as usize;
            counts[yi][xi] += 1;
        }
        Heatmap {
            y_dim,
            bins,
            counts,
            x_max,
            y_max,
        }
    }

    /// Total samples binned.
    pub fn total(&self) -> u64 {
        self.counts.iter().flatten().sum()
    }

    /// Number of non-empty cells — a scalar proxy for "demands are spread
    /// across the space", which is what Figure 2 shows visually.
    pub fn occupied_cells(&self) -> usize {
        self.counts.iter().flatten().filter(|&&c| c > 0).count()
    }

    /// ASCII rendering with log-scale shading (the harness prints this as
    /// the Figure-2 stand-in).
    pub fn render(&self) -> String {
        const SHADES: &[u8] = b" .:-=+*#%@";
        let mut out = String::new();
        for y in (0..self.bins).rev() {
            for x in 0..self.bins {
                let c = self.counts[y][x];
                let shade = if c == 0 {
                    0
                } else {
                    // log10 scale, clamped to the shade ramp.
                    (((c as f64).log10().floor() as usize) + 1).min(SHADES.len() - 1)
                };
                out.push(SHADES[shade] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::FacebookTraceConfig;
    use crate::WorkloadSuiteConfig;

    fn trace() -> Workload {
        FacebookTraceConfig {
            n_jobs: 150,
            scale: 0.05,
            ..FacebookTraceConfig::default()
        }
        .generate(42)
    }

    #[test]
    fn correlation_diagonal_is_one() {
        let m = CorrelationMatrix::compute(&trace());
        for i in 0..4 {
            assert_eq!(m.matrix[i][i], 1.0);
        }
    }

    #[test]
    fn correlation_is_symmetric() {
        let m = CorrelationMatrix::compute(&trace());
        for i in 0..4 {
            for j in 0..4 {
                assert!((m.matrix[i][j] - m.matrix[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn table2_little_cross_resource_correlation() {
        // The paper's headline: demands for different resources are not
        // correlated (max |r| is "only moderate").
        let m = CorrelationMatrix::compute(&trace());
        assert!(
            m.max_off_diagonal() < 0.55,
            "max off-diagonal correlation {} too high:\n{}",
            m.max_off_diagonal(),
            m.render()
        );
        // Disk and network must not be strongly coupled (the over-allocation
        // experiments rely on them being independently tight).
        assert!(
            m.matrix[2][3].abs() < 0.5,
            "disk↔network correlation {} too high:\n{}",
            m.matrix[2][3],
            m.render()
        );
    }

    #[test]
    fn fig2_demands_are_diverse() {
        let d = DemandDiversity::compute(&trace());
        // CoV high for every dim (paper: 0.64–1.84).
        for (i, row) in d.rows.iter().enumerate() {
            assert!(row.3 > 0.4, "dim {i} CoV {} too low\n{}", row.3, d.render());
        }
        // min ≪ median ≪ max for memory.
        let (min, med, max, _) = d.rows[1];
        assert!(med / min > 3.0, "memory median/min = {}", med / min);
        assert!(max / med > 3.0, "memory max/median = {}", max / med);
    }

    #[test]
    fn within_stage_variation_is_far_below_across_task_variation() {
        // Paper §4.1: tasks of a phase are statistically similar.
        let w = trace();
        let within = within_stage_cov(&w);
        let across = DemandDiversity::compute(&w);
        for d in 0..4 {
            assert!(
                within[d] < 0.25,
                "dim {d}: within-stage CoV {} too high",
                within[d]
            );
            if across.rows[d].3 > 0.0 {
                assert!(
                    within[d] < across.rows[d].3 * 0.5,
                    "dim {d}: within {} not well below across {}",
                    within[d],
                    across.rows[d].3
                );
            }
        }
    }

    #[test]
    fn suite_workload_also_diverse() {
        let w = WorkloadSuiteConfig::small().generate(7);
        let d = DemandDiversity::compute(&w);
        assert!(d.rows[1].3 > 0.3, "suite memory CoV {}", d.rows[1].3);
    }

    #[test]
    fn heatmap_bins_everything() {
        let w = trace();
        let h = Heatmap::compute(&w, 1, 10);
        assert_eq!(h.total() as usize, w.num_tasks());
        assert!(h.occupied_cells() > 5, "cells {}", h.occupied_cells());
        let rendering = h.render();
        assert_eq!(rendering.lines().count(), 10);
    }

    #[test]
    #[should_panic(expected = "y_dim")]
    fn heatmap_rejects_cores_vs_cores() {
        Heatmap::compute(&trace(), 0, 10);
    }

    #[test]
    fn renders_are_nonempty() {
        let w = trace();
        assert!(!CorrelationMatrix::compute(&w).render().is_empty());
        assert!(!DemandDiversity::compute(&w).render().is_empty());
    }
}
