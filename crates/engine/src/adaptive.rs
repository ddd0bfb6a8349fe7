//! Online two-arm cost arbiter for traversal-direction choices.
//!
//! [`AdaptiveController`] replaces a fixed density threshold with
//! measured per-path throughput. Its owner times every invocation of
//! the kernel it arbitrates and feeds an EWMA estimate of
//! nanoseconds-per-work-unit for the path that ran — the *sparse* arm's
//! units are the work a push traversal touches (`|F| + outdeg(F)`), the
//! *dense* arm's those of the pull traversal — and each subsequent
//! invocation picks the path with the lower predicted cost
//! `units × ns_per_unit`. A controller is plain owned state: the BSP
//! driver in `graphbolt-core` builds one per run for its delta-push vs
//! pull-recompute pick, so runs never influence each other.
//!
//! Two policies keep the estimates honest:
//!
//! * **Cold start**: with no measurements the controller defers to the
//!   caller's static choice; with one path measured it probes the
//!   other, so both estimates exist after two invocations.
//! * **Time-budgeted probes**: once the winner has accumulated
//!   [`PROBE_SPEND_RATIO`] times the loser's *predicted* cost in
//!   observed wall-clock time, the loser is re-run once. Budgeting by
//!   spent time rather than call count bounds probe overhead to roughly
//!   `1 / PROBE_SPEND_RATIO` of total traversal time — a fixed
//!   every-N-calls probe would make tiny-frontier workloads arbitrarily
//!   slower (one dense probe can cost 100× a small sparse call).
//!
//! Estimate cells live in [`WorkCounter`]s holding `f64` bit patterns, the workspace's sanctioned shared-counter
//! primitive. The read-modify-write in [`AdaptiveController::observe`]
//! is not atomic: concurrent observers race and the last writer wins,
//! which is benign — the cell is a smoothed estimate of a stationary
//! quantity, and every subsequent observation re-converges it.

use crate::parallel::WorkCounter;

/// EWMA smoothing factor for routine (winner-path) observations.
const EWMA_ALPHA: f64 = 0.25;

/// Heavier smoothing factor for probe observations: probes are rare, so
/// each one carries fresher information than a routine sample and should
/// move the stale loser estimate faster.
const PROBE_ALPHA: f64 = 0.5;

/// The predicted loser is re-measured once the winner has spent this
/// multiple of the loser's predicted cost; probe overhead is therefore
/// bounded near `1 / PROBE_SPEND_RATIO` of traversal time.
const PROBE_SPEND_RATIO: f64 = 32.0;

/// One estimate cell: a `f64` cost stored as bits in a [`WorkCounter`].
/// Zero bits (`0.0`) is the "unmeasured" sentinel; observed costs are
/// clamped strictly positive.
#[derive(Debug, Default)]
struct CostCell(WorkCounter);

impl CostCell {
    /// The current estimate, `None` until the first observation.
    fn get(&self) -> Option<f64> {
        let v = f64::from_bits(self.0.get());
        (v > 0.0).then_some(v)
    }

    fn set(&self, value: f64) {
        self.0.set(value.to_bits());
    }

    /// Blends `sample` into the estimate with weight `alpha`, seeding on
    /// the first observation. Racy read-modify-write by design (see the
    /// module docs); the cell converges under any interleaving.
    fn blend(&self, sample: f64, alpha: f64) {
        let next = match self.get() {
            Some(prev) => prev + alpha * (sample - prev),
            None => sample,
        };
        self.set(next.max(f64::MIN_POSITIVE));
    }
}

/// The outcome of one [`AdaptiveController::choose`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Run the dense (pull) traversal.
    pub dense: bool,
    /// This invocation is a probe: the predicted loser (or an unmeasured
    /// path) is being run to refresh its estimate.
    pub probe: bool,
}

/// Monotonic counters describing a controller's decision history.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ControllerSnapshot {
    /// Invocations routed to the sparse (push) path.
    pub sparse_picks: u64,
    /// Invocations routed to the dense (pull) path.
    pub dense_picks: u64,
    /// Invocations that were probes of a stale or unmeasured path.
    pub probes: u64,
    /// Non-probe invocations whose chosen path the post-observation
    /// model says was the slower one.
    pub mispredicts: u64,
    /// Current sparse estimate (ns per unit), if measured.
    pub sparse_ns_per_unit: Option<f64>,
    /// Current dense estimate (ns per unit), if measured.
    pub dense_ns_per_unit: Option<f64>,
}

/// Adaptive sparse/dense path selector; see the module docs.
#[derive(Debug, Default)]
pub struct AdaptiveController {
    sparse_cost: CostCell,
    dense_cost: CostCell,
    /// Observed nanoseconds accumulated since the sparse path was last
    /// measured (drives the staleness probe of a losing sparse path).
    spent_since_sparse: WorkCounter,
    /// Same, for the dense path.
    spent_since_dense: WorkCounter,
    sparse_picks: WorkCounter,
    dense_picks: WorkCounter,
    probes: WorkCounter,
    mispredicts: WorkCounter,
}

impl AdaptiveController {
    /// A fresh controller with no measurements.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicted winner for the given unit counts: `Some(true)` when the
    /// dense path is cheaper, `None` until both paths are measured.
    pub fn predict(&self, sparse_units: u64, dense_units: u64) -> Option<bool> {
        let s = self.sparse_cost.get()?;
        let d = self.dense_cost.get()?;
        Some(d * dense_units as f64 <= s * sparse_units as f64)
    }

    /// Picks a traversal direction for one invocation. `static_dense` is
    /// the fixed-heuristic choice, used only before any measurement
    /// exists. Decision and probe counters are bumped here.
    pub fn choose(&self, sparse_units: u64, dense_units: u64, static_dense: bool) -> Decision {
        let s = self.sparse_cost.get();
        let d = self.dense_cost.get();
        let decision = match (s, d) {
            // Nothing measured yet: trust the static heuristic; the
            // observation that follows seeds that path's estimate.
            (None, None) => Decision {
                dense: static_dense,
                probe: false,
            },
            // One path measured: probe the other so both estimates
            // exist before any cost comparison happens.
            (Some(_), None) => Decision {
                dense: true,
                probe: true,
            },
            (None, Some(_)) => Decision {
                dense: false,
                probe: true,
            },
            (Some(s), Some(d)) => {
                let sparse_pred = s * sparse_units as f64;
                let dense_pred = d * dense_units as f64;
                let dense_wins = dense_pred <= sparse_pred;
                let (loser_pred, loser_spend) = if dense_wins {
                    (sparse_pred, &self.spent_since_sparse)
                } else {
                    (dense_pred, &self.spent_since_dense)
                };
                if loser_spend.get() as f64 >= loser_pred * PROBE_SPEND_RATIO {
                    Decision {
                        dense: !dense_wins,
                        probe: true,
                    }
                } else {
                    Decision {
                        dense: dense_wins,
                        probe: false,
                    }
                }
            }
        };
        if decision.dense {
            self.dense_picks.add(1);
        } else {
            self.sparse_picks.add(1);
        }
        if decision.probe {
            self.probes.add(1);
        }
        decision
    }

    /// Feeds one measured invocation back into the model. Returns true
    /// when this was a routine (non-probe) pick that the freshly updated
    /// model now scores as the slower path — a mispredict.
    pub fn observe(
        &self,
        decision: Decision,
        sparse_units: u64,
        dense_units: u64,
        nanos: u64,
    ) -> bool {
        let nanos = nanos.max(1);
        let alpha = if decision.probe { PROBE_ALPHA } else { EWMA_ALPHA };
        let (cell, units, spent_self, spent_other) = if decision.dense {
            (
                &self.dense_cost,
                dense_units,
                &self.spent_since_dense,
                &self.spent_since_sparse,
            )
        } else {
            (
                &self.sparse_cost,
                sparse_units,
                &self.spent_since_sparse,
                &self.spent_since_dense,
            )
        };
        cell.blend(nanos as f64 / units.max(1) as f64, alpha);
        spent_self.set(0);
        spent_other.add(nanos);
        let mispredicted = !decision.probe
            && self
                .predict(sparse_units, dense_units)
                .is_some_and(|dense_wins| dense_wins != decision.dense);
        if mispredicted {
            self.mispredicts.add(1);
        }
        mispredicted
    }

    /// Current decision counters and estimates.
    pub fn snapshot(&self) -> ControllerSnapshot {
        ControllerSnapshot {
            sparse_picks: self.sparse_picks.get(),
            dense_picks: self.dense_picks.get(),
            probes: self.probes.get(),
            mispredicts: self.mispredicts.get(),
            sparse_ns_per_unit: self.sparse_cost.get(),
            dense_ns_per_unit: self.dense_cost.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `rounds` choose/observe cycles against synthetic per-unit
    /// costs, returning the decisions taken.
    fn drive(
        ctl: &AdaptiveController,
        rounds: usize,
        sparse_units: u64,
        dense_units: u64,
        sparse_ns_per_unit: f64,
        dense_ns_per_unit: f64,
    ) -> Vec<Decision> {
        (0..rounds)
            .map(|_| {
                let d = ctl.choose(sparse_units, dense_units, false);
                let nanos = if d.dense {
                    dense_ns_per_unit * dense_units as f64
                } else {
                    sparse_ns_per_unit * sparse_units as f64
                };
                ctl.observe(d, sparse_units, dense_units, nanos as u64);
                d
            })
            .collect()
    }

    #[test]
    fn cold_start_defers_to_static_heuristic() {
        let ctl = AdaptiveController::new();
        assert_eq!(
            ctl.choose(10, 100, true),
            Decision {
                dense: true,
                probe: false
            }
        );
        let ctl = AdaptiveController::new();
        assert_eq!(
            ctl.choose(10, 100, false),
            Decision {
                dense: false,
                probe: false
            }
        );
    }

    #[test]
    fn second_call_probes_the_unmeasured_path() {
        let ctl = AdaptiveController::new();
        let first = ctl.choose(10, 100, false);
        ctl.observe(first, 10, 100, 1_000);
        let second = ctl.choose(10, 100, false);
        assert!(second.probe);
        assert_ne!(second.dense, first.dense);
    }

    #[test]
    fn picks_predicted_cheaper_path_once_both_measured() {
        let ctl = AdaptiveController::new();
        // Seed: sparse at 10 ns/unit, dense at 2 ns/unit.
        ctl.observe(
            Decision {
                dense: false,
                probe: false,
            },
            100,
            1_000,
            1_000,
        );
        ctl.observe(
            Decision {
                dense: true,
                probe: true,
            },
            100,
            1_000,
            2_000,
        );
        // 100 sparse units × 10 = 1000 vs 1000 dense units × 2 = 2000.
        assert!(!ctl.choose(100, 1_000, true).dense);
        // 10 sparse units × 10 = 100 vs 10 dense units × 2 = 20.
        assert!(ctl.choose(10, 10, false).dense);
    }

    #[test]
    fn probe_overhead_is_bounded() {
        let ctl = AdaptiveController::new();
        // Dense is 100× more expensive; the controller should settle on
        // sparse and only occasionally probe dense.
        let decisions = drive(&ctl, 2_000, 1_000, 1_000, 1.0, 100.0);
        let dense_runs = decisions.iter().filter(|d| d.dense).count();
        // Spend-budgeted probing: one dense probe (cost 100k ns) per
        // ~32×100k ns of sparse time (3200 sparse calls). Over 2000
        // rounds that allows the cold-start run plus at most a couple of
        // probes.
        assert!(dense_runs <= 4, "too many dense runs: {dense_runs}");
        let snap = ctl.snapshot();
        assert!(snap.sparse_picks > 1_900);
    }

    #[test]
    fn mispredicts_are_counted() {
        let ctl = AdaptiveController::new();
        // Both measured, dense wildly cheaper per unit — but feed a
        // routine sparse observation so slow it flips the model.
        ctl.observe(
            Decision {
                dense: false,
                probe: false,
            },
            100,
            100,
            100,
        );
        ctl.observe(
            Decision {
                dense: true,
                probe: true,
            },
            100,
            100,
            100,
        );
        // Sparse now measures 10_000× slower than its estimate: the
        // updated model says dense was the right call.
        let flipped = ctl.observe(
            Decision {
                dense: false,
                probe: false,
            },
            100,
            100,
            1_000_000,
        );
        assert!(flipped);
        assert_eq!(ctl.snapshot().mispredicts, 1);
    }

    #[test]
    fn snapshot_reports_estimates() {
        let ctl = AdaptiveController::new();
        assert_eq!(ctl.snapshot().sparse_ns_per_unit, None);
        ctl.observe(
            Decision {
                dense: false,
                probe: false,
            },
            100,
            100,
            1_000,
        );
        let snap = ctl.snapshot();
        assert_eq!(snap.sparse_ns_per_unit, Some(10.0));
        assert_eq!(snap.dense_ns_per_unit, None);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// Under a stationary workload the controller converges to the
        /// genuinely cheaper path: after a settling period every routine
        /// (non-probe) decision picks the true cost argmin.
        #[test]
        fn converges_to_better_path_when_stationary(
            sparse_ns in 1.0f64..50.0,
            ratio in 2.0f64..50.0,
            dense_cheaper in proptest::bool::ANY,
            sparse_units in 100u64..100_000,
            dense_units in 100u64..100_000,
        ) {
            let (s, d) = if dense_cheaper {
                // Make dense's *total* cost cheaper by the ratio.
                let d = sparse_ns * sparse_units as f64
                    / (ratio * dense_units as f64);
                (sparse_ns, d)
            } else {
                let d = sparse_ns * sparse_units as f64 * ratio
                    / dense_units as f64;
                (sparse_ns, d)
            };
            let ctl = AdaptiveController::new();
            let decisions = drive(&ctl, 300, sparse_units, dense_units, s, d);
            for dec in &decisions[50..] {
                if !dec.probe {
                    proptest::prop_assert_eq!(dec.dense, dense_cheaper);
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// After a workload shift that makes the other path cheaper, the
        /// probe policy re-measures the stale loser and the controller
        /// flips within a bounded number of rounds.
        #[test]
        fn recovers_after_workload_shift(
            sparse_ns in 1.0f64..20.0,
            units in 1_000u64..50_000,
        ) {
            let ctl = AdaptiveController::new();
            // Phase 1: sparse 4× cheaper (same unit counts on both
            // sides keeps the arithmetic transparent).
            let decisions = drive(&ctl, 200, units, units, sparse_ns, sparse_ns * 4.0);
            for dec in &decisions[50..] {
                if !dec.probe {
                    proptest::prop_assert!(!dec.dense);
                }
            }
            // Phase 2: costs swap — dense becomes 4× cheaper. Only a
            // probe can rediscover dense, since routine picks keep
            // running (and re-measuring) sparse.
            let decisions = drive(&ctl, 4_000, units, units, sparse_ns * 4.0, sparse_ns);
            let flip = decisions.iter().position(|d| d.dense && !d.probe);
            proptest::prop_assert!(
                flip.is_some(),
                "controller never flipped to dense after the shift"
            );
            // And it stays flipped: the tail is all dense.
            for dec in &decisions[decisions.len() - 50..] {
                if !dec.probe {
                    proptest::prop_assert!(dec.dense);
                }
            }
        }
    }
}
