//! Fixed-size vector over the six resource dimensions, with the arithmetic
//! used by the packing heuristics.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

use crate::resource::{Resource, NUM_RESOURCES};

/// A point in the 6-dimensional resource space.
///
/// Used for machine capacities, machine availabilities, task peak demands
/// and task total work. Supports the vector algebra of the paper's
/// heuristics: the alignment score is a dot product of *normalized* vectors
/// (§3.2); SRTF scoring sums normalized demands (§3.3.1).
///
/// Values are plain `f64`s. Negative components are representable (they
/// arise transiently from subtraction) but most call sites clamp via
/// [`ResourceVec::clamp_non_negative`]; the simulator's invariant tests
/// check availability never goes negative under Tetris.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct ResourceVec(pub [f64; NUM_RESOURCES]);

impl ResourceVec {
    /// The zero vector.
    #[inline]
    pub const fn zero() -> Self {
        ResourceVec([0.0; NUM_RESOURCES])
    }

    /// A vector with every component set to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        ResourceVec([v; NUM_RESOURCES])
    }

    /// Builder: return a copy with `r` set to `v`.
    #[inline]
    #[must_use]
    pub fn with(mut self, r: Resource, v: f64) -> Self {
        self.0[r.index()] = v;
        self
    }

    /// Component for resource `r`.
    #[inline]
    pub fn get(&self, r: Resource) -> f64 {
        self.0[r.index()]
    }

    /// Set component for resource `r`.
    #[inline]
    pub fn set(&mut self, r: Resource, v: f64) {
        self.0[r.index()] = v;
    }

    /// Iterate `(resource, value)` pairs in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (Resource, f64)> + '_ {
        Resource::ALL.iter().map(move |&r| (r, self.0[r.index()]))
    }

    /// True if every component is (numerically) zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&v| v == 0.0)
    }

    /// True if any component is NaN.
    pub fn has_nan(&self) -> bool {
        self.0.iter().any(|v| v.is_nan())
    }

    /// Sum of all components. Meaningful for *normalized* vectors (the
    /// SRTF resource-consumption score of §3.3.1 sums normalized demands).
    #[inline]
    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// Largest component.
    #[inline]
    pub fn max_component(&self) -> f64 {
        self.0.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Smallest component.
    #[inline]
    pub fn min_component(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Dot product. The heart of Tetris's alignment score (§3.2):
    /// `alignment(task, machine) = demand̂ · avail̂` where both vectors are
    /// normalized by machine capacity.
    #[inline]
    pub fn dot(&self, other: &ResourceVec) -> f64 {
        let mut acc = 0.0;
        for i in 0..NUM_RESOURCES {
            acc += self.0[i] * other.0[i];
        }
        acc
    }

    /// Component-wise `self / capacity`, with `0/0 = 0` (a machine with no
    /// capacity on a dimension a task does not use should not poison the
    /// score with NaN).
    ///
    /// This is the normalization the paper applies before every score so
    /// that numerical ranges of different resources (16 cores vs 32 GB)
    /// cannot dominate each other (§3.2, "All the resources are weighed
    /// equally").
    #[must_use]
    pub fn normalized_by(&self, capacity: &ResourceVec) -> ResourceVec {
        let mut out = [0.0; NUM_RESOURCES];
        for i in 0..NUM_RESOURCES {
            out[i] = if capacity.0[i] > 0.0 {
                self.0[i] / capacity.0[i]
            } else if self.0[i] == 0.0 {
                0.0
            } else {
                f64::INFINITY
            };
        }
        ResourceVec(out)
    }

    /// Component-wise multiply (inverse of [`normalized_by`] for positive
    /// capacities).
    ///
    /// [`normalized_by`]: ResourceVec::normalized_by
    #[must_use]
    pub fn scaled_by(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = [0.0; NUM_RESOURCES];
        for i in 0..NUM_RESOURCES {
            out[i] = self.0[i] * other.0[i];
        }
        ResourceVec(out)
    }

    /// True iff `self ≤ other` component-wise (with a tiny tolerance for
    /// floating-point accumulation). The feasibility test: "only tasks whose
    /// peak demands are satisfiable are considered; so over-allocation is
    /// impossible" (§3.2).
    pub fn fits_within(&self, avail: &ResourceVec) -> bool {
        const EPS: f64 = 1e-9;
        for i in 0..NUM_RESOURCES {
            // Tolerance scales with magnitude so byte-ranged dims work too.
            let tol = EPS * avail.0[i].abs().max(1.0);
            if self.0[i] > avail.0[i] + tol {
                return false;
            }
        }
        true
    }

    /// Component-wise maximum.
    #[must_use]
    pub fn max(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = [0.0; NUM_RESOURCES];
        for i in 0..NUM_RESOURCES {
            out[i] = self.0[i].max(other.0[i]);
        }
        ResourceVec(out)
    }

    /// Component-wise minimum.
    #[must_use]
    pub fn min(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = [0.0; NUM_RESOURCES];
        for i in 0..NUM_RESOURCES {
            out[i] = self.0[i].min(other.0[i]);
        }
        ResourceVec(out)
    }

    /// Clamp all components to `>= 0`.
    #[must_use]
    pub fn clamp_non_negative(&self) -> ResourceVec {
        let mut out = self.0;
        for v in &mut out {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        ResourceVec(out)
    }

    /// Dominant share of this usage against `capacity`: the maximum over
    /// dimensions of `usage_r / capacity_r` (DRF's core quantity, and the
    /// paper's fairness footnote in §3.1). Restricting to a dimension subset
    /// is what shipped DRF implementations do (cpu+mem only).
    pub fn dominant_share(&self, capacity: &ResourceVec, dims: &[Resource]) -> f64 {
        let mut share: f64 = 0.0;
        for &r in dims {
            let cap = capacity.get(r);
            if cap > 0.0 {
                share = share.max(self.get(r) / cap);
            }
        }
        share
    }

    /// Project onto a dimension subset: components outside `dims` zeroed.
    #[must_use]
    pub fn project(&self, dims: &[Resource]) -> ResourceVec {
        let mut out = ResourceVec::zero();
        for &r in dims {
            out.set(r, self.get(r));
        }
        out
    }

    /// Render a compact human-readable summary, e.g.
    /// `"cpu=2.0 mem=4.0GB disk_r=50MB/s"` (zero components omitted).
    pub fn pretty(&self) -> String {
        use crate::units::human;
        let mut parts = Vec::new();
        for (r, v) in self.iter() {
            if v != 0.0 {
                parts.push(format!("{}={}", r.label(), human(r, v)));
            }
        }
        if parts.is_empty() {
            "∅".to_string()
        } else {
            parts.join(" ")
        }
    }
}

impl Index<Resource> for ResourceVec {
    type Output = f64;
    #[inline]
    fn index(&self, r: Resource) -> &f64 {
        &self.0[r.index()]
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        let mut out = self.0;
        for i in 0..NUM_RESOURCES {
            out[i] += rhs.0[i];
        }
        ResourceVec(out)
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        for i in 0..NUM_RESOURCES {
            self.0[i] += rhs.0[i];
        }
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        let mut out = self.0;
        for i in 0..NUM_RESOURCES {
            out[i] -= rhs.0[i];
        }
        ResourceVec(out)
    }
}

impl SubAssign for ResourceVec {
    fn sub_assign(&mut self, rhs: ResourceVec) {
        for i in 0..NUM_RESOURCES {
            self.0[i] -= rhs.0[i];
        }
    }
}

impl Mul<f64> for ResourceVec {
    type Output = ResourceVec;
    fn mul(self, k: f64) -> ResourceVec {
        let mut out = self.0;
        for v in &mut out {
            *v *= k;
        }
        ResourceVec(out)
    }
}

impl Div<f64> for ResourceVec {
    type Output = ResourceVec;
    fn div(self, k: f64) -> ResourceVec {
        let mut out = self.0;
        for v in &mut out {
            *v /= k;
        }
        ResourceVec(out)
    }
}

impl Neg for ResourceVec {
    type Output = ResourceVec;
    fn neg(self) -> ResourceVec {
        let mut out = self.0;
        for v in &mut out {
            *v = -*v;
        }
        ResourceVec(out)
    }
}

impl Sum for ResourceVec {
    fn sum<I: Iterator<Item = ResourceVec>>(iter: I) -> ResourceVec {
        iter.fold(ResourceVec::zero(), |acc, v| acc + v)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.pretty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::GB;

    fn v(cpu: f64, mem: f64) -> ResourceVec {
        ResourceVec::zero()
            .with(Resource::Cpu, cpu)
            .with(Resource::Mem, mem)
    }

    #[test]
    fn zero_is_zero() {
        assert!(ResourceVec::zero().is_zero());
        assert!(!v(1.0, 0.0).is_zero());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = v(2.0, 4.0 * GB);
        let b = v(1.0, 1.0 * GB);
        assert_eq!(a + b - b, a);
    }

    #[test]
    fn dot_product_matches_manual() {
        let a = v(2.0, 3.0);
        let b = v(4.0, 5.0);
        assert_eq!(a.dot(&b), 2.0 * 4.0 + 3.0 * 5.0);
    }

    #[test]
    fn dot_is_symmetric() {
        let a = v(2.0, 3.0).with(Resource::NetIn, 7.0);
        let b = v(4.0, 5.0).with(Resource::DiskRead, 2.0);
        assert_eq!(a.dot(&b), b.dot(&a));
    }

    #[test]
    fn normalization_divides_by_capacity() {
        let cap = v(16.0, 32.0 * GB);
        let task = v(4.0, 8.0 * GB);
        let n = task.normalized_by(&cap);
        assert!((n.get(Resource::Cpu) - 0.25).abs() < 1e-12);
        assert!((n.get(Resource::Mem) - 0.25).abs() < 1e-12);
        // Dimensions with zero capacity and zero demand normalize to zero.
        assert_eq!(n.get(Resource::NetIn), 0.0);
    }

    #[test]
    fn normalization_of_unsatisfiable_dim_is_infinite() {
        let cap = v(16.0, 0.0);
        let task = v(1.0, 1.0);
        let n = task.normalized_by(&cap);
        assert!(n.get(Resource::Mem).is_infinite());
    }

    #[test]
    fn fits_within_is_componentwise() {
        let avail = v(4.0, 8.0 * GB);
        assert!(v(4.0, 8.0 * GB).fits_within(&avail));
        assert!(v(0.0, 0.0).fits_within(&avail));
        assert!(!v(4.1, 1.0).fits_within(&avail));
        assert!(!v(1.0, 9.0 * GB).fits_within(&avail));
    }

    #[test]
    fn fits_within_tolerates_fp_dust() {
        let avail = v(1.0, GB);
        let dust = v(1.0 + 1e-12, GB * (1.0 + 1e-12));
        assert!(dust.fits_within(&avail));
    }

    #[test]
    fn dominant_share_picks_max_ratio() {
        let cap = v(10.0, 100.0);
        let use_ = v(5.0, 20.0);
        let all = Resource::ALL;
        assert_eq!(use_.dominant_share(&cap, &all), 0.5);
        assert_eq!(use_.dominant_share(&cap, &[Resource::Mem]), 0.2);
    }

    #[test]
    fn project_zeroes_other_dims() {
        let a = v(2.0, 3.0).with(Resource::NetOut, 9.0);
        let p = a.project(&[Resource::Cpu]);
        assert_eq!(p.get(Resource::Cpu), 2.0);
        assert_eq!(p.get(Resource::Mem), 0.0);
        assert_eq!(p.get(Resource::NetOut), 0.0);
    }

    #[test]
    fn clamp_non_negative_works() {
        let a = v(-1.0, 2.0);
        let c = a.clamp_non_negative();
        assert_eq!(c.get(Resource::Cpu), 0.0);
        assert_eq!(c.get(Resource::Mem), 2.0);
    }

    #[test]
    fn scalar_ops() {
        let a = v(2.0, 4.0);
        assert_eq!((a * 2.0).get(Resource::Cpu), 4.0);
        assert_eq!((a / 2.0).get(Resource::Mem), 2.0);
        assert_eq!((-a).get(Resource::Cpu), -2.0);
    }

    #[test]
    fn sum_iterator() {
        let total: ResourceVec = vec![v(1.0, 2.0), v(3.0, 4.0)].into_iter().sum();
        assert_eq!(total, v(4.0, 6.0));
    }

    #[test]
    fn min_max_componentwise() {
        let a = v(1.0, 5.0);
        let b = v(3.0, 2.0);
        assert_eq!(a.max(&b), v(3.0, 5.0));
        assert_eq!(a.min(&b), v(1.0, 2.0));
    }

    #[test]
    fn pretty_omits_zeros() {
        let a = v(2.0, 0.0);
        let s = a.pretty();
        assert!(s.contains("cpu"));
        assert!(!s.contains("mem"));
        assert_eq!(ResourceVec::zero().pretty(), "∅");
    }

    #[test]
    fn serde_roundtrip() {
        let a = v(2.0, 4.0 * GB).with(Resource::NetIn, 125e6);
        let json = serde_json::to_string(&a).unwrap();
        let back: ResourceVec = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
