//! Algebraic-law verification harness for [`Algorithm`] implementations.
//!
//! GraphBolt's BSP-equivalence guarantee (§3.3 of the paper) is
//! conditional: refinement replays `⊕` (combine), `⋃-` (retract), and
//! `⋃△` (fused delta) in an order that differs from the from-scratch
//! run, so the result is only correct when the aggregation algebra
//! actually holds. This module checks those laws *dynamically*, on
//! randomized contribution streams, with no external dependencies (the
//! generator is a seeded splitmix64 — reruns are reproducible from the
//! seed in the failure message):
//!
//! * `⊕` has a two-sided **identity** ([`Algorithm::identity`]),
//! * `⊕` is **commutative** and **associative** (order-independent
//!   folds), within the configured tolerance for float aggregations,
//! * [`Algorithm::changed`] is **irreflexive** (`changed(x, x)` is
//!   false — otherwise refinement never converges),
//! * optionally, `⊕` is **monotone** — the property the
//!   KickStarter-style baseline assumes of min/max lattices,
//!
//! and, for the decomposable kind only (a [`Decomposable`] algorithm):
//!
//! * **retract round-trips**: folding a contribution and retracting it
//!   restores the prior aggregation, and retracting any subset equals
//!   folding the complement,
//! * the fused **delta** (and structural delta) is equivalent to the
//!   explicit retract-then-combine pair it replaces.
//!
//! Registration is enforced statically: `cargo xtask lint`'s
//! `law-coverage` rule requires every `impl Algorithm for T` in the
//! workspace to appear in a `check_laws::<T>` call. See DESIGN.md §9.
//!
//! # Registering a new algorithm
//!
//! ```
//! use graphbolt_core::laws::{check_laws, LawSpec};
//! use graphbolt_core::doctest_support::DocRank;
//!
//! let spec = LawSpec::new(|rng| rng.range_f64(0.1, 3.0), |agg: &f64| vec![*agg])
//!     .tolerance(1e-9);
//! check_laws::<DocRank>(&DocRank, spec).expect("DocRank satisfies the aggregation algebra");
//! ```

use graphbolt_graph::{GraphBuilder, GraphSnapshot, VertexId, Weight};

use crate::algorithm::kind::PerKind;
use crate::algorithm::{Algebra, Algorithm, Decomposable, Refining};

/// The algebraic laws the harness can report as violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Law {
    /// `identity() ⊕ c = c` and `c ⊕ identity() = c`.
    Identity,
    /// `a ⊕ b = b ⊕ a`.
    Commutativity,
    /// Folding the same contributions in any order agrees.
    Associativity,
    /// `(agg ⊕ c) ⋃- c = agg`; retracting a subset equals folding the
    /// complement.
    RetractRoundTrip,
    /// `agg ⊕ delta(old → new) = (agg ⋃- contrib(old)) ⊕ contrib(new)`.
    FusedDelta,
    /// Same as [`Law::FusedDelta`] for `delta_structural`, with the old
    /// contribution evaluated in the old graph's context.
    FusedDeltaStructural,
    /// `changed(x, x)` must be false.
    ChangedIrreflexive,
    /// `⊕` only moves the aggregation in the configured direction.
    Monotonicity,
}

impl Law {
    /// Stable human-readable law name used in violation messages.
    pub fn name(self) -> &'static str {
        match self {
            Law::Identity => "identity",
            Law::Commutativity => "commutativity",
            Law::Associativity => "associativity",
            Law::RetractRoundTrip => "retract round-trip",
            Law::FusedDelta => "fused delta",
            Law::FusedDeltaStructural => "fused structural delta",
            Law::ChangedIrreflexive => "changed irreflexivity",
            Law::Monotonicity => "monotonicity",
        }
    }
}

impl std::fmt::Display for Law {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A law violation: which law failed and a reproducible description.
#[derive(Debug, Clone)]
pub struct LawViolation {
    /// The violated law.
    pub law: Law,
    /// What went wrong, including the trial index and seed so the exact
    /// failing inputs can be regenerated.
    pub detail: String,
}

impl std::fmt::Display for LawViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "algebraic law violated [{}]: {}", self.law.name(), self.detail)
    }
}

impl std::error::Error for LawViolation {}

/// Successful verification summary.
#[derive(Debug, Clone)]
pub struct LawReport {
    /// Number of randomized trials run.
    pub trials: usize,
    /// Laws that were actually exercised (the algorithm's kind and the
    /// monotonicity option select different subsets).
    pub laws: Vec<Law>,
}

/// Direction for the optional [`Law::Monotonicity`] check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotonic {
    /// Folding a contribution never increases any projected component
    /// (min-lattices: SSSP, connected components, landmark distances).
    NonIncreasing,
    /// Folding a contribution never decreases any projected component
    /// (max-lattices: widest paths).
    NonDecreasing,
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct LawConfig {
    /// Splitmix64 seed; every failure message echoes it.
    pub seed: u64,
    /// Randomized trials (each trial draws fresh source values).
    pub trials: usize,
    /// Equivalence tolerance. `0.0` demands exact `PartialEq` equality
    /// (comparison-based lattices: min/max, counted multisets);
    /// positive values compare projections within the tolerance (float
    /// sums, where fold order legitimately perturbs low bits).
    pub tolerance: f64,
    /// When set, additionally checks ⊕-monotonicity in this direction.
    pub monotonic: Option<Monotonic>,
}

impl Default for LawConfig {
    fn default() -> Self {
        Self {
            seed: 0x6c62_272e_07bb_0142,
            trials: 32,
            tolerance: 0.0,
            monotonic: None,
        }
    }
}

/// Boxed source-value generator (see [`LawSpec::gen`]).
pub type ValueGen<'a, A> = Box<dyn FnMut(&mut SplitMix64) -> <A as Algorithm>::Value + 'a>;

/// Boxed aggregation-value projection (see [`LawSpec::proj`]).
pub type AggProj<'a, A> = Box<dyn Fn(&<A as Algorithm>::Agg) -> Vec<f64> + 'a>;

/// What the harness needs besides the algorithm itself: a value
/// generator matched to the algorithm's domain (distances, normalized
/// distributions, latent vectors, ...) and a projection of the `Agg`
/// type onto `f64` components for tolerance comparison.
pub struct LawSpec<'a, A: Algorithm> {
    /// Draws one plausible source value.
    pub gen: ValueGen<'a, A>,
    /// Projects an aggregation value onto comparable components.
    pub proj: AggProj<'a, A>,
    /// Seed, trials, tolerance, monotonicity.
    pub config: LawConfig,
}

impl<'a, A: Algorithm> LawSpec<'a, A> {
    /// Builds a spec with the default [`LawConfig`].
    pub fn new(
        gen: impl FnMut(&mut SplitMix64) -> A::Value + 'a,
        proj: impl Fn(&A::Agg) -> Vec<f64> + 'a,
    ) -> Self {
        Self {
            gen: Box::new(gen),
            proj: Box::new(proj),
            config: LawConfig::default(),
        }
    }

    /// Overrides the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the trial count.
    pub fn trials(mut self, trials: usize) -> Self {
        self.config.trials = trials;
        self
    }

    /// Sets a float tolerance (see [`LawConfig::tolerance`]).
    pub fn tolerance(mut self, tolerance: f64) -> Self {
        self.config.tolerance = tolerance;
        self
    }

    /// Enables the monotonicity law in the given direction.
    pub fn monotonic(mut self, dir: Monotonic) -> Self {
        self.config.monotonic = Some(dir);
        self
    }
}

/// Deterministic splitmix64 generator — the standard finalizer-based
/// PRNG (Steele et al., "Fast splittable pseudorandom number
/// generators"). Dependency-free stand-in for `rand`, good enough for
/// drawing test distributions.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform draw in `[0, n)`; `n` must be non-zero.
    pub fn range_usize(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Fixed structural context the laws are evaluated in: every
/// contribution source has at least one out-edge (PageRank-style
/// contributions divide by the out-degree), and vertex 4 has an
/// in-neighborhood of four differently-weighted edges.
fn context_graph() -> GraphSnapshot {
    GraphBuilder::new(5)
        .add_edge(0, 4, 1.0)
        .add_edge(0, 1, 2.0)
        .add_edge(1, 4, 0.5)
        .add_edge(1, 2, 1.0)
        .add_edge(2, 4, 1.5)
        .add_edge(2, 3, 2.5)
        .add_edge(3, 4, 1.0)
        .build()
}

/// Old/new snapshot pair for [`Law::FusedDeltaStructural`]: the edge
/// `(3, 1)` survives while source 3 gains an out-edge, so
/// structure-dependent contributions (PageRank's `1/outdeg`) genuinely
/// differ between the two contexts.
fn structural_pair() -> (GraphSnapshot, GraphSnapshot) {
    let old_g = GraphBuilder::new(5)
        .add_edge(3, 0, 1.0)
        .add_edge(3, 1, 1.0)
        .build();
    let new_g = GraphBuilder::new(5)
        .add_edge(3, 0, 1.0)
        .add_edge(3, 1, 1.0)
        .add_edge(3, 4, 1.0)
        .build();
    (old_g, new_g)
}

/// The in-edges of vertex 4 in [`context_graph`]: `(source, weight)`.
const CONTRIB_EDGES: [(VertexId, Weight); 4] = [(0, 1.0), (1, 0.5), (2, 1.5), (3, 1.0)];

/// L∞ distance between two projections; infinite components compare
/// equal to themselves, `NaN` anywhere is an infinite distance, and a
/// length mismatch is an infinite distance.
fn proj_distance(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    let mut worst = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        let d = if x == y { 0.0 } else { (x - y).abs() };
        if d.is_nan() {
            return f64::INFINITY;
        }
        worst = worst.max(d);
    }
    worst
}

/// Verifies the aggregation algebra of `alg` on randomized contribution
/// streams. Returns the first violated law with a reproducible detail
/// message, or a report of what was checked.
///
/// Call it with an explicit turbofish — `check_laws::<MyAlgorithm>` —
/// because that token sequence is what the `law-coverage` lint rule
/// statically matches against the workspace's `impl Algorithm for ...`
/// inventory.
pub fn check_laws<A: Algorithm>(alg: &A, spec: LawSpec<'_, A>) -> Result<LawReport, LawViolation> {
    let LawSpec {
        mut gen,
        proj,
        config: cfg,
    } = spec;
    let g = context_graph();
    let mut rng = SplitMix64::new(cfg.seed);

    let eq = |a: &A::Agg, b: &A::Agg| {
        if cfg.tolerance == 0.0 {
            a == b
        } else {
            proj_distance(&proj(a), &proj(b)) <= cfg.tolerance
        }
    };
    let fail = |law: Law, trial: usize, detail: String| LawViolation {
        law,
        detail: format!("{detail} (trial {trial}, seed {:#x})", cfg.seed),
    };
    let fold = |contribs: &[&A::Agg]| {
        let mut agg = alg.identity();
        for &c in contribs {
            alg.combine(&mut agg, c);
        }
        agg
    };
    let mut kind_laws: &[Law] = &[];

    for trial in 0..cfg.trials {
        // Fresh source values for every in-edge of the probe vertex.
        let vals: Vec<A::Value> = CONTRIB_EDGES.iter().map(|_| gen(&mut rng)).collect();
        let contribs: Vec<A::Agg> = CONTRIB_EDGES
            .iter()
            .zip(&vals)
            .map(|(&(u, w), cu)| alg.contribution(&g, u, 4, w, cu))
            .collect();
        let all: Vec<&A::Agg> = contribs.iter().collect();
        let full = fold(&all);

        // Identity: two-sided neutrality of `identity()` under `⊕`.
        for c in &contribs {
            let mut left = alg.identity();
            alg.combine(&mut left, c);
            if !eq(&left, c) {
                return Err(fail(
                    Law::Identity,
                    trial,
                    format!("id ⊕ c ≠ c: expected {c:?}, got {left:?}"),
                ));
            }
            let mut right = c.clone();
            alg.combine(&mut right, &alg.identity());
            if !eq(&right, c) {
                return Err(fail(
                    Law::Identity,
                    trial,
                    format!("c ⊕ id ≠ c: expected {c:?}, got {right:?}"),
                ));
            }
        }

        // Commutativity: every pair folded both ways.
        for i in 0..contribs.len() {
            for j in (i + 1)..contribs.len() {
                let ab = fold(&[&contribs[i], &contribs[j]]);
                let ba = fold(&[&contribs[j], &contribs[i]]);
                if !eq(&ab, &ba) {
                    return Err(fail(
                        Law::Commutativity,
                        trial,
                        format!(
                            "a ⊕ b ≠ b ⊕ a for a = {:?}, b = {:?}: {ab:?} vs {ba:?}",
                            contribs[i], contribs[j]
                        ),
                    ));
                }
            }
        }

        // Associativity / order independence: forward vs reverse vs a
        // random permutation of the full fold.
        let rev: Vec<&A::Agg> = contribs.iter().rev().collect();
        let mut perm: Vec<usize> = (0..contribs.len()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.range_usize(i + 1));
        }
        let shuffled: Vec<&A::Agg> = perm.iter().map(|&k| &contribs[k]).collect();
        for (label, order) in [("reversed", &rev), ("shuffled", &shuffled)] {
            let other = fold(order);
            if !eq(&full, &other) {
                return Err(fail(
                    Law::Associativity,
                    trial,
                    format!("{label} fold disagrees with forward fold: {full:?} vs {other:?}"),
                ));
            }
        }

        // Changed irreflexivity: a value never differs from itself.
        for v in &vals {
            if alg.changed(v, v) {
                return Err(fail(
                    Law::ChangedIrreflexive,
                    trial,
                    format!("changed(x, x) is true for x = {v:?}"),
                ));
            }
        }

        kind_laws = A::Kind::select(RefinementLaws {
            alg,
            full: &full,
            contribs: &contribs,
            vals: &vals,
            rng: &mut rng,
            gen: &mut gen,
            eq: &eq,
            fail: &|law, detail| fail(law, trial, detail),
        })?;

        // Optional monotonicity: each fold moves every projected
        // component weakly in the configured direction.
        if let Some(dir) = cfg.monotonic {
            let mut agg = alg.identity();
            for c in &contribs {
                let before = proj(&agg);
                alg.combine(&mut agg, c);
                let after = proj(&agg);
                for (b, a) in before.iter().zip(&after) {
                    let ok = match dir {
                        Monotonic::NonIncreasing => *a <= b + cfg.tolerance,
                        Monotonic::NonDecreasing => a + cfg.tolerance >= *b,
                    };
                    if !ok {
                        return Err(fail(
                            Law::Monotonicity,
                            trial,
                            format!(
                                "⊕ moved a component against the {dir:?} direction: \
                                 {b} → {a} after folding {c:?}"
                            ),
                        ));
                    }
                }
            }
        }
    }

    let mut laws = vec![
        Law::Identity,
        Law::Commutativity,
        Law::Associativity,
        Law::ChangedIrreflexive,
    ];
    laws.extend_from_slice(kind_laws);
    if cfg.monotonic.is_some() {
        laws.push(Law::Monotonicity);
    }
    Ok(LawReport {
        trials: cfg.trials,
        laws,
    })
}

/// One trial's inputs to the laws only the decomposable kind has:
/// retract round-trip and the two fused deltas.
struct RefinementLaws<'t, A: Algorithm> {
    alg: &'t A,
    /// `⊕` of `contribs`, the contributions of `vals` along
    /// [`CONTRIB_EDGES`].
    full: &'t A::Agg,
    contribs: &'t [A::Agg],
    vals: &'t [A::Value],
    rng: &'t mut SplitMix64,
    gen: &'t mut dyn FnMut(&mut SplitMix64) -> A::Value,
    eq: &'t dyn Fn(&A::Agg, &A::Agg) -> bool,
    fail: &'t dyn Fn(Law, String) -> LawViolation,
}

impl<A: Algorithm> PerKind<A> for RefinementLaws<'_, A> {
    /// The laws checked, or the first one violated.
    type Output = Result<&'static [Law], LawViolation>;

    fn decomposable_arm(self) -> Self::Output
    where
        A: Decomposable,
    {
        check_refinement_laws(self)?;
        Ok(&[Law::RetractRoundTrip, Law::FusedDelta, Law::FusedDeltaStructural])
    }

    fn selective_arm(self) -> Self::Output {
        Ok(&[])
    }
}

fn check_refinement_laws<A: Decomposable>(t: RefinementLaws<'_, A>) -> Result<(), LawViolation> {
    let g = &context_graph();
    let RefinementLaws {
        alg,
        full,
        contribs,
        vals,
        rng,
        gen,
        eq,
        fail,
    } = t;
    // Retract round-trip, single contribution: (agg ⊕ c) ⋃- c = agg.
    let extra = alg.contribution(g, 0, 4, 1.0, &gen(rng));
    let mut round = full.clone();
    alg.combine(&mut round, &extra);
    alg.retract(Refining(()), &mut round, &extra);
    if !eq(&round, full) {
        return Err(fail(
            Law::RetractRoundTrip,
            format!("(agg ⊕ c) ⋃- c ≠ agg: expected {full:?}, got {round:?}"),
        ));
    }
    // Retracting a random subset equals folding the complement.
    let mask: Vec<bool> = contribs.iter().map(|_| rng.next_u64() & 1 == 1).collect();
    let mut retracted = full.clone();
    let mut expect = alg.identity();
    for (c, &m) in contribs.iter().zip(&mask) {
        if m {
            alg.retract(Refining(()), &mut retracted, c);
        } else {
            alg.combine(&mut expect, c);
        }
    }
    if !eq(&retracted, &expect) {
        return Err(fail(
            Law::RetractRoundTrip,
            format!(
                "retracting subset {mask:?} ≠ folding its complement: \
                 expected {expect:?}, got {retracted:?}"
            ),
        ));
    }

    // Fused delta ≡ retract-then-combine on a surviving edge.
    let (u, w) = CONTRIB_EDGES[1];
    let (old_v, new_v) = (&vals[1], gen(rng));
    if let Some(d) = alg.delta(Refining(()), g, u, 4, w, old_v, &new_v) {
        let mut fused = full.clone();
        alg.combine(&mut fused, &d);
        let mut explicit = full.clone();
        alg.retract(
            Refining(()),
            &mut explicit,
            &alg.contribution(g, u, 4, w, old_v),
        );
        alg.combine(&mut explicit, &alg.contribution(g, u, 4, w, &new_v));
        if !eq(&fused, &explicit) {
            return Err(fail(
                Law::FusedDelta,
                format!(
                    "agg ⊕ delta(old → new) ≠ (agg ⋃- contrib(old)) ⊕ contrib(new): \
                     {fused:?} vs {explicit:?}"
                ),
            ));
        }
    }

    // Structural fused delta: old contribution in old context, new
    // contribution in new context.
    let (old_g, new_g) = structural_pair();
    let (s_old, s_new) = (gen(rng), gen(rng));
    if let Some(d) = alg.delta_structural(Refining(()), &old_g, &new_g, 3, 1, 1.0, &s_old, &s_new)
    {
        let oc = alg.contribution(&old_g, 3, 1, 1.0, &s_old);
        let nc = alg.contribution(&new_g, 3, 1, 1.0, &s_new);
        let mut base = alg.identity();
        alg.combine(&mut base, &oc);
        let mut fused = base.clone();
        alg.combine(&mut fused, &d);
        alg.retract(Refining(()), &mut base, &oc);
        alg.combine(&mut base, &nc);
        if !eq(&fused, &base) {
            return Err(fail(
                Law::FusedDeltaStructural,
                format!(
                    "structural delta disagrees with retract(old ctx) ⊕ combine(new ctx): \
                     {fused:?} vs {base:?}"
                ),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::test_algorithms::{TestMinPlus, TestRank};
    use crate::algorithm::Sum;
    use crate::streaming::doctest_support::DocRank;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
            let x = a.range_f64(2.0, 5.0);
            let _ = b.range_f64(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
        assert!(a.range_usize(7) < 7);
    }

    #[test]
    fn test_rank_satisfies_all_laws() {
        let spec = LawSpec::new(|rng| rng.range_f64(0.1, 3.0), |agg: &f64| vec![*agg])
            .tolerance(1e-9);
        let report = check_laws::<TestRank>(&TestRank, spec).expect("TestRank is lawful");
        assert_eq!(report.trials, 32);
        assert!(report.laws.contains(&Law::RetractRoundTrip));
        assert!(report.laws.contains(&Law::FusedDelta));
    }

    #[test]
    fn test_min_plus_satisfies_all_laws() {
        let spec = LawSpec::new(|rng| rng.range_f64(0.0, 20.0), |agg: &f64| vec![*agg])
            .monotonic(Monotonic::NonIncreasing);
        let report = check_laws::<TestMinPlus>(&TestMinPlus, spec).expect("TestMinPlus is lawful");
        // Selective: no retract or delta laws.
        assert_eq!(
            report.laws,
            [
                Law::Identity,
                Law::Commutativity,
                Law::Associativity,
                Law::ChangedIrreflexive,
                Law::Monotonicity,
            ]
        );
    }

    #[test]
    fn doc_rank_satisfies_all_laws() {
        let spec = LawSpec::new(|rng| rng.range_f64(0.1, 3.0), |agg: &f64| vec![*agg])
            .tolerance(1e-9);
        check_laws::<DocRank>(&DocRank, spec).expect("DocRank is lawful");
    }

    // ---- deliberately broken aggregators: each must fail with the ----
    // ---- specific law named in the error                          ----

    use graphbolt_graph::{GraphSnapshot, VertexId, Weight};

    /// `Σ c·w` with every operator a field, so each broken aggregator
    /// below is [`SUM`] with one operator swapped out.
    struct SumWith {
        combine: fn(&mut f64, &f64),
        retract: fn(&mut f64, &f64),
        /// Fused delta from `(w, old, new)`.
        delta: fn(f64, f64, f64) -> Option<f64>,
        changed: fn(&f64, &f64) -> bool,
    }

    /// The lawful base: `⊕` adds, `⋃-` subtracts, no fused delta, exact
    /// `changed`.
    const SUM: SumWith = SumWith {
        combine: |agg, c| *agg += c,
        retract: |agg, c| *agg -= c,
        delta: |_, _, _| None,
        changed: |old, new| old != new,
    };

    impl Algorithm for SumWith {
        type Value = f64;
        type Agg = f64;
        type Kind = Sum;

        fn initial_value(&self, _v: VertexId) -> f64 {
            0.0
        }

        fn identity(&self) -> f64 {
            0.0
        }

        fn contribution(
            &self,
            _g: &GraphSnapshot,
            _u: VertexId,
            _v: VertexId,
            w: Weight,
            cu: &f64,
        ) -> f64 {
            cu * w
        }

        fn combine(&self, agg: &mut f64, contrib: &f64) {
            (self.combine)(agg, contrib);
        }

        fn compute(&self, _v: VertexId, agg: &f64, _g: &GraphSnapshot) -> f64 {
            *agg
        }

        fn changed(&self, old: &f64, new: &f64) -> bool {
            (self.changed)(old, new)
        }
    }

    impl Decomposable for SumWith {
        fn retract(&self, _: Refining, agg: &mut f64, contrib: &f64) {
            (self.retract)(agg, contrib);
        }

        fn delta(
            &self,
            _: Refining,
            _g: &GraphSnapshot,
            _u: VertexId,
            _v: VertexId,
            w: Weight,
            old: &f64,
            new: &f64,
        ) -> Option<f64> {
            (self.delta)(w, *old, *new)
        }
    }

    /// ⊕ depends on operand order (but keeps 0.0 neutral, so the
    /// identity law passes and commutativity is what fails): it doubles
    /// the contribution whenever the accumulator is already larger.
    const NON_COMMUTATIVE_SUM: SumWith = SumWith {
        combine: |agg, c| *agg += if *agg <= *c { *c } else { 2.0 * *c },
        ..SUM
    };

    /// `retract` removes only half the contribution.
    const LOSSY_RETRACT: SumWith = SumWith {
        retract: |agg, c| *agg -= 0.5 * c,
        ..SUM
    };

    /// The fused delta disagrees with retract-then-combine: it is wrong by
    /// a factor of two.
    const INCONSISTENT_DELTA: SumWith = SumWith {
        delta: |w, old, new| Some(0.5 * (new - old) * w),
        ..SUM
    };

    /// `changed(x, x)` returns true — refinement would never converge.
    const ALWAYS_CHANGED: SumWith = SumWith {
        changed: |_, _| true,
        ..SUM
    };

    /// Checks `alg` with the float-sum spec.
    fn check_sum(alg: &SumWith, seed: u64) -> Result<LawReport, LawViolation> {
        let spec = LawSpec::new(|rng| rng.range_f64(0.1, 3.0), |agg: &f64| vec![*agg])
            .tolerance(1e-9)
            .seed(seed);
        check_laws::<SumWith>(alg, spec)
    }

    #[test]
    fn each_broken_operator_is_named() {
        use Law::*;
        for (alg, law, name) in [
            (NON_COMMUTATIVE_SUM, Commutativity, "commutativity"),
            (LOSSY_RETRACT, RetractRoundTrip, "retract round-trip"),
            (INCONSISTENT_DELTA, FusedDelta, "fused delta"),
            (ALWAYS_CHANGED, ChangedIrreflexive, "changed irreflexivity"),
        ] {
            let err = check_sum(&alg, LawConfig::default().seed).expect_err("must be flagged");
            assert_eq!(err.law, law, "{err}");
            assert!(err.to_string().contains(name), "{err}");
        }
    }

    #[test]
    fn violation_reports_trial_and_seed() {
        let err = check_sum(&LOSSY_RETRACT, 0xfeed).expect_err("must be flagged");
        assert!(err.detail.contains("0xfeed"), "{}", err.detail);
        assert!(err.detail.contains("trial"), "{}", err.detail);
    }

    #[test]
    fn proj_distance_handles_inf_and_nan() {
        assert_eq!(proj_distance(&[f64::INFINITY], &[f64::INFINITY]), 0.0);
        assert_eq!(proj_distance(&[1.0], &[1.5]), 0.5);
        assert_eq!(proj_distance(&[f64::NAN], &[1.0]), f64::INFINITY);
        assert_eq!(proj_distance(&[1.0, 2.0], &[1.0]), f64::INFINITY);
    }
}
