//! The benchmark's own exact-count oracle: a brute-force cosine counter
//! that shares no code with `selnet-metric` or the workload generator, so
//! it can cross-check their labels.
//!
//! Distances are computed in `f64` on `f64`-normalized copies of the
//! records, while the generator works in `f32`. A record lying exactly at
//! a ladder threshold (every ladder rung is some record's distance) may
//! therefore land on either side of it; a label is checked against the
//! counts just below and just above a tie band of [`TIE`], the range the
//! two arithmetics can honestly produce.

use selnet_data::Dataset;

/// Half-width of the tie band around a threshold. `f32` cosine distances
/// of 24-dimensional vectors carry absolute errors near `1e-7`.
pub const TIE: f64 = 1e-5;

/// Exact cosine selectivity counts over a fixed set of records.
pub struct Oracle {
    dim: usize,
    /// Row-major unit vectors; zero records stay zero.
    unit: Vec<f64>,
    /// Whether each record is the zero vector (cosine distance 1 to all).
    zero: Vec<bool>,
}

impl Oracle {
    /// Indexes every record of `ds`.
    pub fn new(ds: &Dataset) -> Oracle {
        Self::from_rows(ds.dim(), ds.iter())
    }

    /// Indexes the given rows of width `dim`.
    pub fn from_rows<'a>(dim: usize, rows: impl Iterator<Item = &'a [f32]>) -> Oracle {
        let mut unit = Vec::new();
        let mut zero = Vec::new();
        for row in rows {
            let (u, is_zero) = normalized(row);
            unit.extend_from_slice(&u);
            zero.push(is_zero);
        }
        Oracle { dim, unit, zero }
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.zero.len()
    }

    /// Cosine distance `1 − cos(x, o)` from `x` to every record, in record
    /// order. A zero vector on either side is at distance 1.
    pub fn distances(&self, x: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "query dimension mismatch");
        let (q, q_zero) = normalized(x);
        self.unit
            .chunks_exact(self.dim)
            .zip(&self.zero)
            .map(|(o, &o_zero)| {
                if q_zero || o_zero {
                    1.0
                } else {
                    let cos: f64 = q.iter().zip(o).map(|(a, b)| a * b).sum();
                    1.0 - cos.clamp(-1.0, 1.0)
                }
            })
            .collect()
    }

    /// How many of one query's `(threshold, label)` pairs are not exact
    /// counts (the distances are computed once per query).
    pub fn mismatches(&self, x: &[f32], ts: &[f32], labels: &[f64]) -> usize {
        let d = self.distances(x);
        ts.iter()
            .zip(labels)
            .filter(|&(&t, &label)| {
                let (lo, hi) = band(&d, t);
                !(label.fract() == 0.0 && lo as f64 <= label && label <= hi as f64)
            })
            .count()
    }

    /// The thresholds at which `x` reaches each selectivity in `ranks`
    /// (ascending, each in `1..=len`): the `rank`-th smallest distance.
    pub fn ladder_thresholds(&self, x: &[f32], ranks: &[usize]) -> Vec<f32> {
        let top = *ranks.last().expect("at least one rank");
        assert!(top >= 1 && top <= self.len(), "rank out of range");
        let mut d = self.distances(x);
        d.select_nth_unstable_by(top - 1, f64::total_cmp);
        let head = &mut d[..top];
        head.sort_unstable_by(f64::total_cmp);
        ranks.iter().map(|&r| head[r - 1] as f32).collect()
    }
}

/// `(records strictly closer than t − TIE, records within t + TIE)`: an
/// exact label for threshold `t` lies in this closed range.
fn band(distances: &[f64], t: f32) -> (usize, usize) {
    let t = f64::from(t);
    let lo = distances.iter().filter(|&&v| v < t - TIE).count();
    let hi = distances.iter().filter(|&&v| v <= t + TIE).count();
    (lo, hi)
}

fn normalized(row: &[f32]) -> (Vec<f64>, bool) {
    let norm = row
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt();
    if norm == 0.0 {
        (vec![0.0; row.len()], true)
    } else {
        (row.iter().map(|&v| f64::from(v) / norm).collect(), false)
    }
}

/// MAPE as the benchmark reports it: mean of `|ŷ − y| / max(y, 1)`.
pub fn mape(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    pairs
        .iter()
        .map(|&(pred, truth)| (pred - truth).abs() / truth.max(1.0))
        .sum::<f64>()
        / pairs.len() as f64
}

/// MAPE of the constant estimator that answers `c` everywhere.
pub fn constant_mape(c: f64, truths: &[f64]) -> f64 {
    let pairs: Vec<(f64, f64)> = truths.iter().map(|&y| (c, y)).collect();
    mape(&pairs)
}

/// The constant that minimizes MAPE over `truths` (a weighted median, so
/// one of the labels themselves) and the MAPE it reaches.
pub fn mape_optimal_constant(truths: &[f64]) -> (f64, f64) {
    let mut candidates = truths.to_vec();
    candidates.sort_unstable_by(f64::total_cmp);
    candidates.dedup();
    candidates
        .into_iter()
        .map(|c| (c, constant_mape(c, truths)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or((0.0, 0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Five records around the query direction (1, 0): by hand,
    /// `1 − cos` is 0 for (2, 0) and (0.5, 0), 1 − 0.8 = 0.2 for (4, 3),
    /// 1 for (0, 1) and the zero record, and 2 for (−1, 0).
    fn hand_oracle() -> Oracle {
        let rows: [[f32; 2]; 6] = [
            [2.0, 0.0],
            [0.5, 0.0],
            [4.0, 3.0],
            [0.0, 1.0],
            [0.0, 0.0],
            [-1.0, 0.0],
        ];
        Oracle::from_rows(2, rows.iter().map(|r| r.as_slice()))
    }

    #[test]
    fn distances_match_hand_computation() {
        let o = hand_oracle();
        let d = o.distances(&[3.0, 0.0]);
        let want = [0.0, 0.0, 0.2, 1.0, 1.0, 2.0];
        for (got, want) in d.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{d:?}");
        }
    }

    #[test]
    fn counts_match_hand_computation() {
        let o = hand_oracle();
        let x = [3.0, 0.0];
        let d = o.distances(&x);
        assert_eq!(band(&d, 0.1), (2, 2));
        assert_eq!(band(&d, 0.5), (3, 3));
        assert_eq!(band(&d, 1.5), (5, 5));
        assert_eq!(band(&d, 2.0), (5, 6));
        // a threshold on a record's own distance admits both sides
        assert_eq!(band(&d, 0.2), (2, 3));
        assert_eq!(o.mismatches(&x, &[0.2, 0.2, 0.2], &[2.0, 3.0, 4.0]), 1);
        assert_eq!(o.mismatches(&x, &[0.1, 0.5, 0.5], &[2.0, 3.0, 2.5]), 1);
        assert_eq!(o.ladder_thresholds(&x, &[1, 3, 6]), vec![0.0, 0.2, 2.0]);
    }

    #[test]
    fn constant_baselines() {
        let truths = [1.0, 2.0, 4.0, 100.0];
        // c = 2: (1/1 + 0 + 2/4 + 98/100) / 4
        assert!((constant_mape(2.0, &truths) - (1.0 + 0.5 + 0.98) / 4.0).abs() < 1e-12);
        let (c, best) = mape_optimal_constant(&truths);
        for other in [1.0, 4.0, 100.0, 3.0, 50.0] {
            assert!(best <= constant_mape(other, &truths) + 1e-12, "{c}");
        }
        assert_eq!(mape(&[(3.0, 0.0)]), 3.0);
    }
}
