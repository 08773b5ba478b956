//! Search strategies over the DVFS frequency grid.
//!
//! All strategies speak the same incremental protocol so the governor can
//! drive them one stage execution at a time:
//!
//! 1. [`SearchStrategy::propose`] — the next frequency to run at (`None` once
//!    converged);
//! 2. the caller runs the workload at that frequency and measures it;
//! 3. [`SearchStrategy::observe`] — feed back the objective score.
//!
//! Every proposal is snapped onto the device's `f_step_hz` grid and clamped
//! into `[f_min_hz, f_max_hz]`; scores of already-visited grid points are
//! reused from an internal cache, so no strategy ever pays for the same
//! operating point twice. The paper's EDP-vs-frequency curves (Figure 4) are
//! unimodal, which is what [`GoldenSection`] exploits; [`HillClimb`] only
//! assumes local improvement and is what the governor runs per stage.

use hwmodel::dvfs::DvfsModel;
use std::collections::BTreeMap;

/// Relative score tolerance below which two observations count as equal.
const SCORE_EPS: f64 = 1e-12;

/// Strict improvement test, sign-correct for negative and zero scores: a
/// candidate improves on `base` only when it is lower by more than the
/// relative tolerance (an equal score is never an improvement).
fn improves(score: f64, base: f64) -> bool {
    score < base - SCORE_EPS * base.abs()
}

/// An incremental minimiser over a DVFS frequency grid.
pub trait SearchStrategy: Send {
    /// Next frequency (Hz, on-grid) to evaluate, or `None` once converged.
    ///
    /// Repeated calls without an intervening [`SearchStrategy::observe`]
    /// return the same pending proposal.
    fn propose(&mut self) -> Option<f64>;

    /// Report the objective score measured at `f_hz` (lower is better).
    fn observe(&mut self, f_hz: f64, score: f64);

    /// Best (lowest-score) frequency seen so far.
    fn best_frequency(&self) -> Option<f64>;

    /// Score of the best frequency seen so far.
    fn best_score(&self) -> Option<f64>;

    /// True once the strategy has nothing further to evaluate.
    fn is_converged(&self) -> bool;

    /// Number of externally evaluated (non-cached) observations so far.
    fn evaluations(&self) -> usize;
}

fn grid_key(f_hz: f64) -> u64 {
    f_hz.round() as u64
}

/// Shared bookkeeping: score cache keyed by grid frequency plus the running
/// minimum.
#[derive(Debug, Default)]
struct EvalCache {
    scores: BTreeMap<u64, f64>,
    best: Option<(f64, f64)>, // (score, frequency)
    evaluations: usize,
}

impl EvalCache {
    fn get(&self, f_hz: f64) -> Option<f64> {
        self.scores.get(&grid_key(f_hz)).copied()
    }

    fn insert(&mut self, f_hz: f64, score: f64) {
        self.evaluations += 1;
        self.scores.insert(grid_key(f_hz), score);
        match self.best {
            Some((s, _)) if s <= score => {}
            _ => self.best = Some((score, f_hz)),
        }
    }

    fn best_frequency(&self) -> Option<f64> {
        self.best.map(|(_, f)| f)
    }

    fn best_score(&self) -> Option<f64> {
        self.best.map(|(s, _)| s)
    }
}

// ---------------------------------------------------------------------------
// Exhaustive sweep
// ---------------------------------------------------------------------------

/// Visit every grid point between two bounds — the paper's offline sweep, and
/// the oracle the online strategies are validated against.
pub struct ExhaustiveSweep {
    grid: Vec<f64>,
    next: usize,
    pending: Option<f64>,
    cache: EvalCache,
}

impl ExhaustiveSweep {
    /// Sweep the full supported range of `model`.
    pub fn new(model: &DvfsModel) -> Self {
        Self::over(model, model.f_min_hz, model.f_max_hz)
    }

    /// Sweep the grid between `lo_hz` and `hi_hz` (clamped, inclusive).
    pub fn over(model: &DvfsModel, lo_hz: f64, hi_hz: f64) -> Self {
        Self {
            grid: model.supported_range(lo_hz, hi_hz),
            next: 0,
            pending: None,
            cache: EvalCache::default(),
        }
    }
}

impl SearchStrategy for ExhaustiveSweep {
    fn propose(&mut self) -> Option<f64> {
        if let Some(pending) = self.pending {
            return Some(pending);
        }
        while self.next < self.grid.len() {
            let f = self.grid[self.next];
            if self.cache.get(f).is_none() {
                self.pending = Some(f);
                return Some(f);
            }
            self.next += 1;
        }
        None
    }

    fn observe(&mut self, f_hz: f64, score: f64) {
        self.cache.insert(f_hz, score);
        if self.pending.map(grid_key) == Some(grid_key(f_hz)) {
            self.pending = None;
            self.next += 1;
        }
    }

    fn best_frequency(&self) -> Option<f64> {
        self.cache.best_frequency()
    }

    fn best_score(&self) -> Option<f64> {
        self.cache.best_score()
    }

    fn is_converged(&self) -> bool {
        self.pending.is_none() && self.next >= self.grid.len()
    }

    fn evaluations(&self) -> usize {
        self.cache.evaluations
    }
}

// ---------------------------------------------------------------------------
// Golden-section search
// ---------------------------------------------------------------------------

/// Golden-section search over the frequency range.
///
/// Assumes the objective is unimodal in frequency (true of the paper's EDP
/// curves). Converges to within one `f_step_hz` of the grid minimum in
/// `O(log((f_max − f_min)/f_step))` evaluations instead of the sweep's
/// `O((f_max − f_min)/f_step)`.
pub struct GoldenSection {
    model: DvfsModel,
    a: f64,
    b: f64,
    x1: f64,
    x2: f64,
    s1: Option<f64>,
    s2: Option<f64>,
    phase: Phase,
    pending: Option<(Probe, f64)>,
    cache: EvalCache,
}

#[derive(Clone, Debug, PartialEq)]
enum Phase {
    /// Shrinking the bracket with golden-section probes.
    Bracketing,
    /// Bracket is down to grid resolution: score every remaining grid point.
    Scan(Vec<f64>),
    /// Nothing left to evaluate.
    Done,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Probe {
    X1,
    X2,
    Scan,
}

/// 1/φ — the golden-section interior-point ratio.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

impl GoldenSection {
    /// Search the full supported range of `model`.
    pub fn new(model: &DvfsModel) -> Self {
        let a = model.f_min_hz;
        let b = model.f_max_hz;
        let span = b - a;
        Self {
            model: model.clone(),
            a,
            b,
            x1: b - INV_PHI * span,
            x2: a + INV_PHI * span,
            s1: None,
            s2: None,
            phase: Phase::Bracketing,
            pending: None,
            cache: EvalCache::default(),
        }
    }

    fn snap(&self, f: f64) -> f64 {
        self.model.clamp(f)
    }

    /// Grid snapping stops being informative once the interval is about one
    /// step wide or both interior probes land on the same grid point; the
    /// bracket still contains the minimum, so finish by scanning its few
    /// remaining grid points exhaustively.
    fn bracket_exhausted(&self) -> bool {
        self.b - self.a <= self.model.f_step_hz.max(f64::EPSILON)
            || grid_key(self.snap(self.x1)) == grid_key(self.snap(self.x2))
    }
}

impl SearchStrategy for GoldenSection {
    fn propose(&mut self) -> Option<f64> {
        if let Some((_, f)) = self.pending {
            return Some(f);
        }
        loop {
            match &self.phase {
                Phase::Done => return None,
                Phase::Scan(points) => match points.iter().copied().find(|&f| self.cache.get(f).is_none()) {
                    Some(f) => {
                        self.pending = Some((Probe::Scan, f));
                        return Some(f);
                    }
                    None => {
                        self.phase = Phase::Done;
                        return None;
                    }
                },
                Phase::Bracketing => {}
            }
            if self.bracket_exhausted() {
                self.phase = Phase::Scan(self.model.supported_range(self.a, self.b));
                continue;
            }
            if self.s1.is_none() {
                let f = self.snap(self.x1);
                match self.cache.get(f) {
                    Some(score) => self.s1 = Some(score),
                    None => {
                        self.pending = Some((Probe::X1, f));
                        return Some(f);
                    }
                }
                continue;
            }
            if self.s2.is_none() {
                let f = self.snap(self.x2);
                match self.cache.get(f) {
                    Some(score) => self.s2 = Some(score),
                    None => {
                        self.pending = Some((Probe::X2, f));
                        return Some(f);
                    }
                }
                continue;
            }
            // Both probes scored: shrink the bracket toward the lower one.
            let (s1, s2) = (self.s1.unwrap(), self.s2.unwrap());
            let span;
            if s1 <= s2 {
                self.b = self.x2;
                span = self.b - self.a;
                self.x2 = self.x1;
                self.s2 = self.s1;
                self.x1 = self.b - INV_PHI * span;
                self.s1 = None;
            } else {
                self.a = self.x1;
                span = self.b - self.a;
                self.x1 = self.x2;
                self.s1 = self.s2;
                self.x2 = self.a + INV_PHI * span;
                self.s2 = None;
            }
        }
    }

    fn observe(&mut self, f_hz: f64, score: f64) {
        self.cache.insert(f_hz, score);
        if let Some((probe, pending_f)) = self.pending {
            if grid_key(pending_f) == grid_key(f_hz) {
                self.pending = None;
                match probe {
                    Probe::X1 => self.s1 = Some(score),
                    Probe::X2 => self.s2 = Some(score),
                    Probe::Scan => {}
                }
            }
        }
    }

    fn best_frequency(&self) -> Option<f64> {
        self.cache.best_frequency()
    }

    fn best_score(&self) -> Option<f64> {
        self.cache.best_score()
    }

    fn is_converged(&self) -> bool {
        self.pending.is_none()
            && match &self.phase {
                Phase::Done => true,
                Phase::Scan(points) => points.iter().all(|&f| self.cache.get(f).is_some()),
                Phase::Bracketing => false,
            }
    }

    fn evaluations(&self) -> usize {
        self.cache.evaluations
    }
}

// ---------------------------------------------------------------------------
// Hill climbing
// ---------------------------------------------------------------------------

/// Step-halving hill-climber.
///
/// Starts from a given frequency (by default the nominal maximum — the safe
/// operating point), walks in multiples of `f_step_hz` toward lower scores,
/// reverses direction when blocked, and halves the step until it is pinned to
/// within one grid step of a local minimum. On the paper's unimodal per-stage
/// EDP curves the local minimum is the global one, and different stages
/// (compute-bound `MomentumEnergy` vs memory-bound `DomainDecompAndSync`)
/// converge to visibly different frequencies.
pub struct HillClimb {
    model: DvfsModel,
    base_f: f64,
    base_score: Option<f64>,
    step_steps: f64,
    dir: f64,
    reversed_once: bool,
    pending: Option<f64>,
    converged: bool,
    cache: EvalCache,
}

impl HillClimb {
    /// Default initial stride: 8 grid steps (120 MHz on an A100 grid).
    const DEFAULT_INITIAL_STEPS: f64 = 8.0;

    /// Climb from the model's maximum frequency downward.
    pub fn new(model: &DvfsModel) -> Self {
        Self::from(model, model.f_max_hz, Self::DEFAULT_INITIAL_STEPS)
    }

    /// Climb from an explicit starting frequency with an initial stride of
    /// `initial_steps` grid steps.
    fn from(model: &DvfsModel, start_hz: f64, initial_steps: f64) -> Self {
        assert!(initial_steps >= 1.0, "initial stride must be at least one grid step");
        Self {
            model: model.clone(),
            base_f: model.clamp(start_hz),
            base_score: None,
            step_steps: initial_steps.floor(),
            // Starting at the top of the range, the only useful direction is
            // down; `propose` reverses automatically when blocked.
            dir: -1.0,
            reversed_once: false,
            pending: None,
            converged: false,
            cache: EvalCache::default(),
        }
    }

    fn candidate(&self) -> f64 {
        self.model
            .clamp(self.base_f + self.dir * self.step_steps * self.model.f_step_hz)
    }

    /// The candidate move was rejected (no improvement, or clamped onto the
    /// base itself): reverse once, then shrink the stride.
    fn reject(&mut self) {
        if self.reversed_once {
            self.reversed_once = false;
            self.step_steps = (self.step_steps / 2.0).floor();
            if self.step_steps < 1.0 {
                self.converged = true;
            }
        } else {
            self.dir = -self.dir;
            self.reversed_once = true;
        }
    }

    fn accept(&mut self, f: f64, score: f64) {
        self.base_f = f;
        self.base_score = Some(score);
        self.reversed_once = false;
    }
}

impl SearchStrategy for HillClimb {
    fn propose(&mut self) -> Option<f64> {
        if let Some(pending) = self.pending {
            return Some(pending);
        }
        loop {
            if self.converged {
                return None;
            }
            if self.base_score.is_none() {
                match self.cache.get(self.base_f) {
                    Some(score) => self.base_score = Some(score),
                    None => {
                        self.pending = Some(self.base_f);
                        return Some(self.base_f);
                    }
                }
                continue;
            }
            let cand = self.candidate();
            if grid_key(cand) == grid_key(self.base_f) {
                self.reject();
                continue;
            }
            match self.cache.get(cand) {
                Some(score) => {
                    if improves(score, self.base_score.unwrap()) {
                        self.accept(cand, score);
                    } else {
                        self.reject();
                    }
                }
                None => {
                    self.pending = Some(cand);
                    return Some(cand);
                }
            }
        }
    }

    fn observe(&mut self, f_hz: f64, score: f64) {
        // Only record the observation; the next `propose` call reaches the
        // accept/reject decision through its cache path, keeping the decision
        // rule in one place.
        self.cache.insert(f_hz, score);
        if self.pending.map(grid_key) == Some(grid_key(f_hz)) {
            self.pending = None;
        }
    }

    fn best_frequency(&self) -> Option<f64> {
        self.cache.best_frequency()
    }

    fn best_score(&self) -> Option<f64> {
        self.cache.best_score()
    }

    fn is_converged(&self) -> bool {
        self.converged
    }

    fn evaluations(&self) -> usize {
        self.cache.evaluations
    }
}

// ---------------------------------------------------------------------------
// Offline driver
// ---------------------------------------------------------------------------

/// Result of driving a strategy to convergence with [`tune`].
#[derive(Clone, Debug, PartialEq)]
pub struct TuneResult {
    /// Best frequency found, in Hz.
    pub best_frequency_hz: f64,
    /// Objective score at the best frequency.
    pub best_score: f64,
    /// Number of (frequency, score) evaluations spent.
    pub evaluations: usize,
}

/// Drive `strategy` to convergence against an evaluation oracle.
///
/// `evaluate` runs the workload at the proposed frequency and returns the
/// objective score (lower is better). `max_evaluations` bounds runaway loops
/// on non-converging inputs.
pub fn tune(
    strategy: &mut dyn SearchStrategy,
    mut evaluate: impl FnMut(f64) -> f64,
    max_evaluations: usize,
) -> Option<TuneResult> {
    let mut spent = 0;
    while let Some(f) = strategy.propose() {
        if spent >= max_evaluations {
            break;
        }
        let score = evaluate(f);
        strategy.observe(f, score);
        spent += 1;
    }
    Some(TuneResult {
        best_frequency_hz: strategy.best_frequency()?,
        best_score: strategy.best_score()?,
        evaluations: strategy.evaluations(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic convex EDP-like curve with a known minimum at `opt_hz`.
    fn convex_curve(opt_hz: f64) -> impl Fn(f64) -> f64 {
        move |f_hz: f64| {
            let x = (f_hz - opt_hz) / 1.0e9;
            1.0 + x * x
        }
    }

    fn a100() -> DvfsModel {
        DvfsModel::nvidia_a100()
    }

    /// The true grid minimum of a curve by brute force.
    fn grid_argmin(model: &DvfsModel, curve: &impl Fn(f64) -> f64) -> f64 {
        model
            .supported_range(model.f_min_hz, model.f_max_hz)
            .into_iter()
            .min_by(|a, b| curve(*a).total_cmp(&curve(*b)))
            .unwrap()
    }

    fn assert_within_one_step(model: &DvfsModel, found: f64, expected: f64) {
        assert!(
            (found - expected).abs() <= model.f_step_hz + 1.0,
            "found {:.1} MHz, expected {:.1} MHz",
            found / 1.0e6,
            expected / 1.0e6
        );
    }

    #[test]
    fn exhaustive_finds_exact_grid_minimum() {
        let model = a100();
        let curve = convex_curve(900.0e6);
        let mut sweep = ExhaustiveSweep::new(&model);
        let result = tune(&mut sweep, &curve, 10_000).unwrap();
        assert_eq!(result.best_frequency_hz, grid_argmin(&model, &curve));
        assert_eq!(result.evaluations, sweep.grid.len());
        assert!(sweep.is_converged());
    }

    #[test]
    fn golden_section_matches_exhaustive_within_one_step() {
        let model = a100();
        for opt_mhz in [250.0, 615.0, 907.0, 1200.0, 1410.0] {
            let curve = convex_curve(opt_mhz * 1.0e6);
            let expected = grid_argmin(&model, &curve);
            let mut gs = GoldenSection::new(&model);
            let result = tune(&mut gs, &curve, 10_000).unwrap();
            assert_within_one_step(&model, result.best_frequency_hz, expected);
            assert!(
                result.evaluations < 30,
                "golden section spent {} evaluations",
                result.evaluations
            );
        }
    }

    #[test]
    fn hill_climb_matches_exhaustive_within_one_step() {
        let model = a100();
        for opt_mhz in [250.0, 615.0, 907.0, 1200.0, 1410.0] {
            let curve = convex_curve(opt_mhz * 1.0e6);
            let expected = grid_argmin(&model, &curve);
            let mut hc = HillClimb::new(&model);
            let result = tune(&mut hc, &curve, 10_000).unwrap();
            assert_within_one_step(&model, result.best_frequency_hz, expected);
            assert!(
                result.evaluations < ExhaustiveSweep::new(&model).grid.len(),
                "hill climb spent {} evaluations",
                result.evaluations
            );
        }
    }

    #[test]
    fn online_strategies_beat_the_sweep_on_evaluations() {
        let model = a100();
        let curve = convex_curve(1005.0e6);
        let mut sweep = ExhaustiveSweep::new(&model);
        let mut gs = GoldenSection::new(&model);
        let mut hc = HillClimb::new(&model);
        let sweep_evals = tune(&mut sweep, &curve, 10_000).unwrap().evaluations;
        let gs_evals = tune(&mut gs, &curve, 10_000).unwrap().evaluations;
        let hc_evals = tune(&mut hc, &curve, 10_000).unwrap().evaluations;
        assert!(gs_evals < sweep_evals);
        assert!(hc_evals < sweep_evals);
    }

    #[test]
    fn proposals_always_on_grid_and_in_range() {
        let model = DvfsModel::amd_mi250x();
        let curve = convex_curve(1100.0e6);
        for strategy in [
            Box::new(ExhaustiveSweep::new(&model)) as Box<dyn SearchStrategy>,
            Box::new(GoldenSection::new(&model)),
            Box::new(HillClimb::new(&model)),
        ] {
            let mut strategy = strategy;
            while let Some(f) = strategy.propose() {
                assert!(f >= model.f_min_hz && f <= model.f_max_hz);
                let steps = (f - model.f_min_hz) / model.f_step_hz;
                assert!((steps - steps.round()).abs() < 1e-6, "off-grid proposal {f}");
                strategy.observe(f, curve(f));
            }
        }
    }

    #[test]
    fn propose_is_stable_until_observed() {
        let model = a100();
        let mut hc = HillClimb::new(&model);
        let first = hc.propose().unwrap();
        assert_eq!(hc.propose(), Some(first));
        hc.observe(first, 1.0);
        let second = hc.propose().unwrap();
        assert_ne!(grid_key(first), grid_key(second));
    }

    #[test]
    fn monotone_curve_converges_to_boundary() {
        let model = a100();
        // Strictly decreasing score with frequency: optimum at f_max.
        let curve = |f: f64| -f;
        for strategy in [
            Box::new(GoldenSection::new(&model)) as Box<dyn SearchStrategy>,
            Box::new(HillClimb::new(&model)),
        ] {
            let mut strategy = strategy;
            let result = tune(&mut *strategy, curve, 10_000).unwrap();
            assert_within_one_step(&model, result.best_frequency_hz, model.f_max_hz);
        }
    }

    #[test]
    fn flat_plateau_terminates_for_any_score_sign() {
        let model = a100();
        for plateau in [-5.0, 0.0, 5.0] {
            let mut hc = HillClimb::new(&model);
            let result = tune(&mut hc, |_| plateau, 10_000).unwrap();
            // Equal scores are never improvements: the climber must shrink
            // its stride in place instead of wandering the plateau.
            assert!(
                result.evaluations <= 12,
                "plateau at {plateau}: spent {} evaluations",
                result.evaluations
            );
            assert!(hc.is_converged());
        }
    }

    #[test]
    fn hill_climb_from_custom_start() {
        let model = a100();
        let curve = convex_curve(600.0e6);
        let mut hc = HillClimb::from(&model, 300.0e6, 4.0);
        let result = tune(&mut hc, &curve, 10_000).unwrap();
        assert_within_one_step(&model, result.best_frequency_hz, grid_argmin(&model, &curve));
    }
}
