//! Two-objective hypervolume and the classical reference front it is
//! judged against.
//!
//! Both objectives (area, delay) are minimized. The hypervolume of a set
//! of points is the area of the union of the boxes `[a, r_a] × [d, r_d]`
//! spanned between each point and the reference point `r`; points outside
//! the box contribute nothing, dominated and duplicate points add nothing.

use prefix_graph::structures;
use prefixrl_core::evaluator::ObjectivePoint;
use prefixrl_core::task::{CircuitTask, ObjectiveBackend};

/// Share by which the reference point sits beyond the worst classical
/// area and delay, so the extreme classical structures still span a box.
pub const REFERENCE_MARGIN: f64 = 0.1;

/// Hypervolume dominated by `points` inside the box bounded by `reference`.
pub fn hypervolume(points: &[ObjectivePoint], reference: ObjectivePoint) -> f64 {
    let mut inside: Vec<(f64, f64)> = points
        .iter()
        .filter(|p| p.area.is_finite() && p.delay.is_finite())
        .filter(|p| p.area < reference.area && p.delay < reference.delay)
        .map(|p| (p.area, p.delay))
        .collect();
    inside.sort_by(|x, y| x.0.total_cmp(&y.0).then(x.1.total_cmp(&y.1)));
    let mut volume = 0.0;
    let mut best_delay = reference.delay;
    for (area, delay) in inside {
        if delay < best_delay {
            volume += (reference.area - area) * (best_delay - delay);
            best_delay = delay;
        }
    }
    volume
}

/// The six classical structures (ripple, Sklansky, Kogge-Stone,
/// Brent-Kung, Han-Carlson, Ladner-Fischer) scored by one backend at one
/// width, with the reference point fixed from them and their own
/// hypervolume.
pub struct Reference {
    /// `(name, point)` per classical structure.
    pub points: Vec<(&'static str, ObjectivePoint)>,
    /// The hypervolume box corner: worst classical area and delay, each
    /// pushed out by [`REFERENCE_MARGIN`].
    pub corner: ObjectivePoint,
    /// Hypervolume of the classical points themselves.
    pub volume: f64,
}

impl Reference {
    /// Scores the classical structures with `backend` at width `n`.
    pub fn score(task: &dyn CircuitTask, backend: &dyn ObjectiveBackend, n: u16) -> Reference {
        let points: Vec<(&'static str, ObjectivePoint)> = structures::all_regular()
            .into_iter()
            .map(|(name, build)| (name, backend.score(task, &build(n))))
            .collect();
        let worst = |f: fn(&ObjectivePoint) -> f64| {
            points.iter().map(|(_, p)| f(p)).fold(f64::MIN, f64::max)
        };
        let corner = ObjectivePoint {
            area: worst(|p| p.area) * (1.0 + REFERENCE_MARGIN),
            delay: worst(|p| p.delay) * (1.0 + REFERENCE_MARGIN),
        };
        let only: Vec<ObjectivePoint> = points.iter().map(|(_, p)| *p).collect();
        let volume = hypervolume(&only, corner);
        Reference {
            points,
            corner,
            volume,
        }
    }

    /// One report line: the classical points and the box corner.
    pub fn describe(&self) -> String {
        let points: Vec<String> = self
            .points
            .iter()
            .map(|(name, p)| format!("{name} ({:.4}, {:.4})", p.area, p.delay))
            .collect();
        format!(
            "reference front (area, delay): {}; hypervolume corner ({:.4}, {:.4})",
            points.join(", "),
            self.corner.area,
            self.corner.delay
        )
    }

    /// Hypervolume of `points` over the classical hypervolume.
    pub fn ratio(&self, points: &[ObjectivePoint]) -> f64 {
        hypervolume(points, self.corner) / self.volume
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(area: f64, delay: f64) -> ObjectivePoint {
        ObjectivePoint { area, delay }
    }

    const R: ObjectivePoint = ObjectivePoint {
        area: 10.0,
        delay: 10.0,
    };

    #[test]
    fn empty_front_has_no_volume() {
        assert_eq!(hypervolume(&[], R), 0.0);
    }

    #[test]
    fn single_point_spans_its_box() {
        assert_eq!(hypervolume(&[p(4.0, 6.0)], R), 6.0 * 4.0);
    }

    #[test]
    fn staircase_matches_hand_computation() {
        // Boxes to (10, 10): (2,8) → 8×2, (5,4) adds 5×4, (8,1) adds 2×3.
        let front = [p(2.0, 8.0), p(5.0, 4.0), p(8.0, 1.0)];
        assert_eq!(hypervolume(&front, R), 16.0 + 20.0 + 6.0);
        // Order does not matter.
        let shuffled = [p(8.0, 1.0), p(2.0, 8.0), p(5.0, 4.0)];
        assert_eq!(hypervolume(&shuffled, R), 42.0);
    }

    #[test]
    fn dominated_and_duplicate_points_add_nothing() {
        let front = [p(2.0, 8.0), p(5.0, 4.0), p(8.0, 1.0)];
        let mut noisy = front.to_vec();
        noisy.push(p(6.0, 5.0)); // dominated by (5, 4)
        noisy.push(p(5.0, 4.0)); // duplicate
        noisy.push(p(9.0, 9.0)); // dominated by everything
        noisy.push(p(5.0, 8.0)); // weakly dominated (equal delay)
        assert_eq!(hypervolume(&noisy, R), 42.0);
    }

    #[test]
    fn points_outside_the_box_are_clipped() {
        // On or beyond either bound: no volume.
        assert_eq!(hypervolume(&[p(10.0, 1.0)], R), 0.0);
        assert_eq!(hypervolume(&[p(1.0, 12.0)], R), 0.0);
        assert_eq!(hypervolume(&[p(f64::NAN, 1.0)], R), 0.0);
        // An outside point does not shadow an inside one.
        assert_eq!(hypervolume(&[p(1.0, 12.0), p(5.0, 5.0)], R), 25.0);
    }

    #[test]
    fn classical_reference_scores_to_ratio_one() {
        let reference = Reference::score(
            &prefixrl_core::task::Adder,
            &prefixrl_core::task::AnalyticalBackend,
            16,
        );
        assert_eq!(reference.points.len(), 6);
        let only: Vec<ObjectivePoint> = reference.points.iter().map(|(_, p)| *p).collect();
        assert!((reference.ratio(&only) - 1.0).abs() < 1e-12);
        assert!(reference.volume > 0.0);
    }
}
