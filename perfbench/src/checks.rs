//! Answer checks every served reply goes through, and the tally of
//! operations attempted and failed.

/// Every `SAMPLE_EVERY`-th request of a pass is re-evaluated directly on
/// the model generation that served it.
pub const SAMPLE_EVERY: u64 = 61;

/// Running tally of checks and operations for one benchmark run.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations of the run's verification set: every request serving
    /// the held-out test queries, and the accuracy gate. Their number
    /// depends on neither the seed nor the run's length, so a fault that
    /// fails on every run fails the same share of them in every run.
    pub attempted: u64,
    /// Verification operations that failed: a request that returned an
    /// error, or the accuracy gate not passed.
    pub failed: u64,
    /// Requests of the timed and warm-up traffic.
    pub requests: u64,
    /// Timed or warm-up requests that returned an error instead of an
    /// answer; any makes the run incorrect.
    pub request_errors: u64,
    /// Replies checked for range and order.
    pub replies: u64,
    /// Answers that were not finite or fell outside `[0, |D|]`.
    pub out_of_range: u64,
    /// Multi-threshold replies that decreased somewhere in `t`.
    pub non_monotone: u64,
    /// Replies re-evaluated directly on their generation.
    pub sampled: u64,
    /// Sampled replies that were not bit-identical to direct evaluation.
    pub sample_mismatches: u64,
    /// Labels compared with the exact-count oracle.
    pub labels_checked: u64,
    /// Labels the oracle disagreed with.
    pub label_mismatches: u64,
    /// Other failed checks, described.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records the outcome of one request, a counted operation when it
    /// belongs to the verification set.
    pub fn request(&mut self, verification: bool, ok: bool) {
        if verification {
            self.attempted += 1;
            self.failed += u64::from(!ok);
        } else {
            self.requests += 1;
            self.request_errors += u64::from(!ok);
        }
    }

    /// Checks one reply: every answer finite and within `[0, records]`,
    /// and the answers non-decreasing along the (ascending) thresholds.
    pub fn reply(&mut self, values: &[f64], records: usize) {
        self.replies += 1;
        if values
            .iter()
            .any(|v| !v.is_finite() || *v < 0.0 || *v > records as f64)
        {
            self.out_of_range += 1;
        }
        if values.windows(2).any(|w| w[1] < w[0]) {
            self.non_monotone += 1;
        }
    }

    /// Records the comparison of a sampled reply with direct evaluation.
    pub fn sample(&mut self, served: &[f64], direct: &[f64]) {
        self.sampled += 1;
        let same = served.len() == direct.len()
            && served
                .iter()
                .zip(direct)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            self.sample_mismatches += 1;
        }
    }

    /// Records an oracle cross-check of `checked` labels.
    pub fn labels(&mut self, checked: u64, mismatches: u64) {
        self.labels_checked += checked;
        self.label_mismatches += mismatches;
    }

    /// Records a failed check that has no counter of its own.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Whether every check passed (failed verification operations are
    /// counted, not judged, here).
    pub fn correct(&self) -> bool {
        self.request_errors == 0
            && self.out_of_range == 0
            && self.non_monotone == 0
            && self.sample_mismatches == 0
            && self.label_mismatches == 0
            && self.sampled > 0
            && self.labels_checked > 0
            && self.failures.is_empty()
    }

    /// One line per check for the human-readable report.
    pub fn summary(&self) -> Vec<String> {
        let mut lines = vec![
            format!(
                "timed and warm-up requests {}: {} returned an error",
                self.requests, self.request_errors
            ),
            format!(
                "verification operations {}: {} failed",
                self.attempted, self.failed
            ),
            format!(
                "replies checked {}: {} out of range, {} not monotone in t",
                self.replies, self.out_of_range, self.non_monotone
            ),
            format!(
                "sampled replies {}: {} differ from direct evaluation",
                self.sampled, self.sample_mismatches
            ),
            format!(
                "labels cross-checked {}: {} disagree with the oracle",
                self.labels_checked, self.label_mismatches
            ),
        ];
        lines.extend(self.failures.iter().map(|f| format!("FAILED: {f}")));
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_checks_range_and_order() {
        let mut c = Checks::default();
        c.reply(&[0.0, 1.0, 1.0, 5.0], 5);
        assert_eq!((c.out_of_range, c.non_monotone), (0, 0));
        c.reply(&[0.0, 6.0], 5);
        c.reply(&[f64::NAN], 5);
        c.reply(&[2.0, 1.0], 5);
        assert_eq!((c.replies, c.out_of_range, c.non_monotone), (4, 2, 1));
        c.sample(&[1.0], &[1.0]);
        c.sample(&[0.0], &[-0.0]);
        assert_eq!((c.sampled, c.sample_mismatches), (2, 1));
        assert!(!c.correct());
    }

    #[test]
    fn only_verification_requests_are_counted_operations() {
        let mut c = Checks::default();
        c.request(true, true);
        c.request(true, false);
        c.request(false, true);
        assert_eq!((c.attempted, c.failed, c.requests), (2, 1, 1));
        c.sample(&[1.0], &[1.0]);
        c.labels(1, 0);
        assert!(
            c.correct(),
            "a failed verification operation is counted, not judged"
        );
        c.request(false, false);
        assert!(!c.correct(), "an error in the timed traffic fails the run");
    }
}
