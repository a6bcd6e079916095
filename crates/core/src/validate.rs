//! Key-vector validation (paper §3.7).
//!
//! If the candidate bits for layer `i` are correct, then for a level-`(i+1)`
//! hyperplane of the white-box network the *oracle* must have a hyperplane
//! at the same location (Lemma 1); if they are wrong, the oracle is almost
//! surely smooth there. We test for an oracle hyperplane with an exact
//! second-difference probe: for a piecewise-linear oracle,
//! `O(x+δu) + O(x−δu) − 2·O(x°)` vanishes identically when no hyperplane
//! crosses the segment, and is `Θ(δ)` when one does.
//!
//! Each probed unit is a resumable machine ([`UnitProbe`]): its white-box
//! half runs the witness search and the observability pre-filter until
//! the unit needs the oracle, and its oracle half is fed the answers.
//! [`key_vector_validation_checked_with`] drives the units one after
//! another; [`validate_candidates`] drives every unit of every candidate
//! in lockstep rounds, with one oracle request per round.

use crate::config::AttackConfig;
use crate::critical::{search_target_critical_point_with, TargetScalar};
use crate::decrypt::run_sharded;
use relock_graph::{Graph, KeyAssignment, KeySlot, NodeId, UnitLayout, Workspace, WorkspacePool};
use relock_locking::{Oracle, OracleError};
use relock_tensor::rng::Prng;
use relock_tensor::Tensor;
use std::sync::Mutex;

/// Where the validation procedure looks for next-layer hyperplanes.
///
/// The hyperplane of a next-layer neuron is the zero set of the input to
/// its ReLU. In a plain layer that is (up to the flip's sign) the
/// pre-activation itself; in a residual block it is `m̂·z + skip` — which
/// depends on the unit's own (still unknown) key bit, so witnesses are
/// searched **per bit hypothesis** on the ReLU-input node.
#[derive(Debug, Clone)]
pub struct ValidationTarget {
    /// The node feeding the next layer's ReLU (the keyed node itself in a
    /// sequential network, the residual `Add` node in a ResNet block).
    pub surface_node: NodeId,
    /// The next layer's unit layout (element indices are preserved from
    /// the keyed node through element-wise joins).
    pub layout: UnitLayout,
    /// Units of that layout to probe, each with its own key slot if the
    /// unit is itself locked.
    pub units: Vec<(usize, Option<KeySlot>)>,
}

/// The oracle rows of one second-difference probe at step `delta`:
/// `[x; x + δu; x − δu]`, where `x` rides along only while `O(x)` is still
/// unknown, so a witness's first probe is a single 3-row request.
fn probe_rows(x: &Tensor, u: &Tensor, delta: f64, with_x: bool) -> Tensor {
    let p = x.numel();
    let mut xp = x.clone();
    xp.axpy(delta, u);
    let mut xm = x.clone();
    xm.axpy(-delta, u);
    let mut rows = Vec::with_capacity(3 * p);
    if with_x {
        rows.extend_from_slice(x.as_slice());
    }
    rows.extend_from_slice(xp.as_slice());
    rows.extend_from_slice(xm.as_slice());
    let n = rows.len() / p;
    Tensor::from_vec(rows, [n, p])
}

/// Second difference `‖O(x+δu) + O(x−δu) − 2·O(x)‖∞` from the answers to
/// [`probe_rows`], and the scale `max(‖O(x)‖∞, 1)` it is judged against.
/// When the answers carry `O(x)` (first row), it is kept in `o0`.
fn second_difference(o0: &mut Option<Tensor>, out: &Tensor) -> (f64, f64) {
    let rows = out.dims()[0];
    let base = o0.get_or_insert_with(|| Tensor::from_slice(out.row(0)));
    let (op, om) = (out.row(rows - 2), out.row(rows - 1));
    let mut max_c = 0.0f64;
    for i in 0..base.numel() {
        let c = op[i] + om[i] - 2.0 * base.as_slice()[i];
        max_c = max_c.max(c.abs());
    }
    (max_c, base.norm_inf().max(1.0))
}

/// White-box second difference along `u` — used to decide whether a
/// witness's kink is *observable* from the output at all (Lemma 3: a
/// boundary can be covered by subsequent layers, e.g. masked by a pooling
/// window it does not win).
fn whitebox_second_difference(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    x: &Tensor,
    u: &Tensor,
    delta: f64,
) -> (f64, f64) {
    let p = x.numel();
    let mut pts = Vec::with_capacity(3 * p);
    pts.extend_from_slice(x.as_slice());
    let mut xp = x.clone();
    xp.axpy(delta, u);
    let mut xm = x.clone();
    xm.axpy(-delta, u);
    pts.extend_from_slice(xp.as_slice());
    pts.extend_from_slice(xm.as_slice());
    let out = g.logits_batch_into(ws, &Tensor::from_vec(pts, [3, p]), ka);
    let q = out.dims()[1];
    let o = out.as_slice();
    let mut max_c = 0.0f64;
    let mut scale = 1.0f64;
    for i in 0..q {
        let c = o[q + i] + o[2 * q + i] - 2.0 * o[i];
        max_c = max_c.max(c.abs());
        scale = scale.max(o[i].abs());
    }
    (max_c, scale)
}

/// Outcome of probing one witness, or one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WitnessVerdict {
    /// The kink is not observable from the output even in the white box —
    /// the witness carries no information (tolerated, not counted).
    NotObservable,
    /// The oracle shows the expected kink.
    Confirmed,
    /// The oracle is smooth where a kink was predicted.
    Refuted,
}

/// What a probe machine needs next.
enum Step {
    /// Oracle rows to answer; the answers go back through `feed`.
    Ask(Tensor),
    /// The machine's verdict. It asks nothing more.
    Done(WitnessVerdict),
}

/// A probe sent to the oracle: its direction, and for the half step the
/// full step's second difference it is compared against.
struct Asked {
    u: Tensor,
    c_full: Option<f64>,
}

/// Probes one witness, as a resumable machine.
///
/// For each probe direction, the white box (with the candidate key) must
/// itself show a kink — otherwise the direction is uninformative (the
/// boundary is covered downstream and even a correct key would look
/// smooth). On informative directions the oracle is tested with a
/// two-scale second difference: a genuine ReLU kink scales *linearly* in δ
/// (halving δ halves it), whereas smooth curvature (softmax attention,
/// layer norm) scales *quadratically*. Requiring both a magnitude above
/// `kink_tol` and a ≥ 0.4 ratio under halving separates the regimes
/// without model-specific thresholds.
struct WitnessProbe {
    x: Tensor,
    first_dir: Tensor,
    /// The direction being probed; `validation_directions` once all are.
    d: usize,
    informative: bool,
    /// `O(x)`, once an answer carried it.
    o0: Option<Tensor>,
    /// The probe awaiting its answers.
    asked: Option<Asked>,
    /// A full-step kink whose half-step probe is still to be sent.
    half: Option<Asked>,
    confirmed: bool,
}

impl WitnessProbe {
    fn new(x: Tensor, first_dir: Tensor) -> Self {
        WitnessProbe {
            x,
            first_dir,
            d: 0,
            informative: false,
            o0: None,
            asked: None,
            half: None,
            confirmed: false,
        }
    }

    /// The white-box half: draws directions from `rng` and runs the
    /// observability pre-filter until a probe needs the oracle.
    fn step(
        &mut self,
        g: &Graph,
        ws: &mut Workspace,
        ka: &KeyAssignment,
        cfg: &AttackConfig,
        rng: &mut Prng,
    ) -> Step {
        if self.confirmed {
            return Step::Done(WitnessVerdict::Confirmed);
        }
        if let Some(half) = self.half.take() {
            let rows = probe_rows(&self.x, &half.u, 0.5 * cfg.probe_delta, self.o0.is_none());
            self.asked = Some(half);
            return Step::Ask(rows);
        }
        while self.d < cfg.validation_directions {
            let u = if self.d == 0 {
                self.first_dir.clone()
            } else {
                rng.unit_vector(self.x.numel())
            };
            // Observability pre-filter on the white box (no oracle
            // queries): the key hypothesis must predict a visible kink, or
            // the oracle's (unknown-bit) masking could differ from ours.
            let (wb, wb_scale) =
                whitebox_second_difference(g, ws, ka, &self.x, &u, cfg.probe_delta);
            if wb / wb_scale < cfg.kink_tol {
                self.d += 1;
                continue;
            }
            self.informative = true;
            let rows = probe_rows(&self.x, &u, cfg.probe_delta, self.o0.is_none());
            self.asked = Some(Asked { u, c_full: None });
            return Step::Ask(rows);
        }
        Step::Done(if self.informative {
            WitnessVerdict::Refuted
        } else {
            WitnessVerdict::NotObservable
        })
    }

    /// The oracle half: judges the answers to the last [`Step::Ask`].
    fn feed(&mut self, out: &Tensor, cfg: &AttackConfig) {
        let asked = self.asked.take().expect("feed follows an Ask");
        let (c, scale) = second_difference(&mut self.o0, out);
        match asked.c_full {
            None if c / scale >= cfg.kink_tol => {
                self.half = Some(Asked {
                    u: asked.u,
                    c_full: Some(c),
                });
            }
            Some(c_full) if c >= 0.4 * c_full => self.confirmed = true,
            _ => self.d += 1,
        }
    }
}

/// Probes one next-layer unit, as a resumable machine on its own PRNG
/// stream, trying positional witnesses first and unit-extremum witnesses
/// second.
///
/// *Positional*: a witness of a single pre-activation's zero crossing,
/// vetted for observability under both hypotheses of the unit's own bit
/// (downstream masking — e.g. which pool-window entry wins — depends on
/// it).
///
/// *Extremum*: under pooling, positional witnesses are almost always
/// masked, so we instead find points where the unit's **max** (hypothesis
/// `bit = 0`) or **min** (hypothesis `bit = 1`; `max(−z) = 0 ⇔ min(z) =
/// 0`) crosses zero — there the whole unit transitions from silent to
/// active and the kink survives any pooling. A correct key prefix shows an
/// oracle kink at the witness of whichever hypothesis matches the true
/// bit, so the unit confirms if *either* hypothesis' witness kinks.
struct UnitProbe {
    elems: Vec<usize>,
    /// Bit hypotheses for the unit's own key: the witness surface (ReLU
    /// input under that bit) and its downstream observability both
    /// depend on it.
    hypotheses: Vec<KeyAssignment>,
    rng: Prng,
    /// The hypothesis being probed.
    h: usize,
    /// Its witness scalars, drawn when the hypothesis starts.
    scalars: Option<Vec<TargetScalar>>,
    next_scalar: usize,
    refutes_here: usize,
    hypotheses_refuted: usize,
    witness: Option<WitnessProbe>,
}

impl UnitProbe {
    fn new(
        ka: &KeyAssignment,
        layout: &UnitLayout,
        unit: usize,
        slot: Option<KeySlot>,
        rng: Prng,
    ) -> Self {
        let mut hypotheses = vec![ka.clone()];
        if let Some(slot) = slot {
            let mut other = ka.clone();
            let m = ka.multiplier(slot);
            other.set(slot, if m == 0.0 { -1.0 } else { -m });
            hypotheses.push(other);
        }
        UnitProbe {
            elems: layout.unit_elements(unit).collect(),
            hypotheses,
            rng,
            h: 0,
            scalars: None,
            next_scalar: 0,
            refutes_here: 0,
            hypotheses_refuted: 0,
            witness: None,
        }
    }

    /// Witness scalars, cheapest discriminators first: single ReLU inputs,
    /// then tie surfaces (where a pool window's winner switches —
    /// plentiful and pool-visible), then the unit extremum (the whole unit
    /// waking up — survives any masking).
    fn draw_scalars(&mut self, cfg: &AttackConfig) -> Vec<TargetScalar> {
        let elems = &self.elems;
        let rng = &mut self.rng;
        let mut scalars: Vec<TargetScalar> = Vec::new();
        for _ in 0..cfg.witness_attempts {
            scalars.push(TargetScalar::Element(elems[rng.below(elems.len())]));
        }
        if elems.len() > 1 {
            for _ in 0..cfg.witness_attempts {
                let a = elems[rng.below(elems.len())];
                let mut b = elems[rng.below(elems.len())];
                if a == b {
                    b = elems[(elems.iter().position(|&e| e == a).unwrap() + 1) % elems.len()];
                }
                scalars.push(TargetScalar::Diff(a, b));
            }
            scalars.push(TargetScalar::UnitMax(elems.clone()));
            scalars.push(TargetScalar::UnitMin(elems.clone()));
        }
        scalars
    }

    /// Closes the current hypothesis. A hypothesis is condemned by two
    /// independent un-kinked witnesses; single refuting witnesses can be
    /// white-box masking mispredictions (unknown downstream bits).
    fn end_hypothesis(&mut self) {
        if self.refutes_here >= 2 {
            self.hypotheses_refuted += 1;
        }
        self.h += 1;
        self.scalars = None;
        self.next_scalar = 0;
        self.refutes_here = 0;
    }

    /// The white-box half: searches witnesses and pre-filters their
    /// directions until the unit needs the oracle or has its verdict.
    fn step(&mut self, g: &Graph, ws: &mut Workspace, surface: NodeId, cfg: &AttackConfig) -> Step {
        loop {
            if let Some(w) = &mut self.witness {
                match w.step(g, ws, &self.hypotheses[self.h], cfg, &mut self.rng) {
                    Step::Ask(rows) => return Step::Ask(rows),
                    // A correct key prefix must show an oracle kink at the
                    // witnesses of whichever hypothesis matches the true
                    // bit, so one confirmed witness confirms the unit.
                    Step::Done(WitnessVerdict::Confirmed) => {
                        return Step::Done(WitnessVerdict::Confirmed)
                    }
                    Step::Done(v) => {
                        self.witness = None;
                        if v == WitnessVerdict::Refuted {
                            self.refutes_here += 1;
                            if self.refutes_here >= 2 {
                                self.end_hypothesis();
                            }
                        }
                    }
                }
                continue;
            }
            if self.h == self.hypotheses.len() {
                // Under a correct prefix the wrong-bit hypothesis
                // legitimately refutes, so the unit is condemned only when
                // every hypothesis was; anything less is inconclusive.
                return Step::Done(if self.hypotheses_refuted == self.hypotheses.len() {
                    WitnessVerdict::Refuted
                } else {
                    WitnessVerdict::NotObservable
                });
            }
            if self.scalars.is_none() {
                self.scalars = Some(self.draw_scalars(cfg));
            }
            let scalars = self.scalars.as_ref().expect("drawn above");
            let Some(scalar) = scalars.get(self.next_scalar) else {
                self.end_hypothesis();
                continue;
            };
            self.next_scalar += 1;
            let ka = &self.hypotheses[self.h];
            if let Some(cp) =
                search_target_critical_point_with(g, ws, ka, surface, scalar, cfg, &mut self.rng)
            {
                self.witness = Some(WitnessProbe::new(cp.x, cp.crossing_dir));
            }
        }
    }

    /// The oracle half: passes the answers to the witness that asked.
    fn feed(&mut self, out: &Tensor, cfg: &AttackConfig) {
        self.witness
            .as_mut()
            .expect("feed follows an Ask")
            .feed(out, cfg);
    }

    /// Runs the unit to its verdict, one oracle request per step.
    fn run(
        mut self,
        g: &Graph,
        ws: &mut Workspace,
        surface: NodeId,
        oracle: &dyn Oracle,
        cfg: &AttackConfig,
    ) -> Result<WitnessVerdict, OracleError> {
        loop {
            match self.step(g, ws, surface, cfg) {
                Step::Ask(rows) => {
                    let out = oracle.try_query_batch(&rows)?;
                    self.feed(&out, cfg);
                }
                Step::Done(v) => return Ok(v),
            }
        }
    }
}

/// Tests whether the oracle has a kink at `x` (used by the weight-lock
/// attack's hypothesis testing). Returns `None` when the white box says
/// the location is not observable from the output, `Some(true)` on a
/// confirmed oracle kink, `Some(false)` when the oracle is smooth there.
/// Oracle failures (budget, deadline, dead backend) propagate.
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_kink_at(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    oracle: &dyn Oracle,
    x: &Tensor,
    first_dir: &Tensor,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<Option<bool>, OracleError> {
    let mut w = WitnessProbe::new(x.clone(), first_dir.clone());
    loop {
        match w.step(g, ws, ka, cfg, rng) {
            Step::Ask(rows) => {
                let out = oracle.try_query_batch(&rows)?;
                w.feed(&out, cfg);
            }
            Step::Done(v) => {
                return Ok(match v {
                    WitnessVerdict::Confirmed => Some(true),
                    WitnessVerdict::Refuted => Some(false),
                    WitnessVerdict::NotObservable => None,
                })
            }
        }
    }
}

/// Outcome of a validation pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationVerdict {
    /// A majority of observable witnesses confirmed the key vector.
    Pass,
    /// Observable witnesses refuted the key vector.
    Fail,
    /// No observable witness at all — the layer could not be judged with
    /// this candidate. Algorithm 2 tolerates this for the candidate it
    /// arrived with (paper §3.7's uncertainty handling) but treats it as a
    /// failure for error-correction candidates: a *worse* candidate can
    /// push every witness into unobservable regions, and accepting it
    /// blindly would commit garbage.
    NoEvidence,
}

impl ValidationVerdict {
    /// Whether Algorithm 2 accepts the candidate it *arrived* with:
    /// everything except an affirmative [`ValidationVerdict::Fail`].
    pub fn tolerated(self) -> bool {
        !matches!(self, ValidationVerdict::Fail)
    }
}

/// The majority vote over probed units: it passes at `pass_at`
/// confirmations and fails at `fail_at` refutations out of a quota of
/// `validation_neurons` observable units.
#[derive(Debug, Clone, Copy)]
struct Vote {
    quota: usize,
    pass_at: usize,
    fail_at: usize,
    informative: usize,
    confirmed: usize,
}

impl Vote {
    fn new(cfg: &AttackConfig) -> Self {
        let quota = cfg.validation_neurons;
        let pass_at = (cfg.validation_majority * quota as f64).ceil() as usize;
        Vote {
            quota,
            pass_at,
            fail_at: quota - pass_at + 1,
            informative: 0,
            confirmed: 0,
        }
    }

    fn record(&mut self, v: WitnessVerdict) {
        match v {
            WitnessVerdict::Confirmed => {
                self.informative += 1;
                self.confirmed += 1;
            }
            WitnessVerdict::Refuted => self.informative += 1,
            WitnessVerdict::NotObservable => {}
        }
    }

    /// How many more units may be probed at once: while at most this many
    /// are open, none of them can decide the vote before the others
    /// finish. Zero once the vote is decided.
    fn room(&self) -> usize {
        let refuted = self.informative - self.confirmed;
        (self.quota.saturating_sub(self.informative))
            .min(self.pass_at.saturating_sub(self.confirmed))
            .min(self.fail_at.saturating_sub(refuted))
    }

    fn verdict(&self, cfg: &AttackConfig) -> ValidationVerdict {
        if self.confirmed >= self.pass_at {
            ValidationVerdict::Pass
        } else if self.informative - self.confirmed >= self.fail_at {
            ValidationVerdict::Fail
        } else if self.informative == 0 {
            ValidationVerdict::NoEvidence
        } else if self.confirmed as f64 / self.informative as f64 >= cfg.validation_majority {
            ValidationVerdict::Pass
        } else {
            ValidationVerdict::Fail
        }
    }
}

/// The direct check of the last hidden layer: white-box and oracle outputs
/// (`theirs`) must agree on the random inputs `x`.
fn final_check(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    x: &Tensor,
    theirs: &Tensor,
    cfg: &AttackConfig,
) -> ValidationVerdict {
    let ours = g.logits_batch_into(ws, x, ka);
    // A probability oracle is compared in probability space.
    let diff = if crate::probs::looks_like_probabilities(theirs) {
        crate::probs::softmax_rows(ours).max_abs_diff(theirs)
    } else {
        ours.max_abs_diff(theirs)
    };
    let scale = theirs.norm_inf().max(1.0);
    if diff / scale <= cfg.eq_tol {
        ValidationVerdict::Pass
    } else {
        ValidationVerdict::Fail
    }
}

/// Validates the candidate key bits of a layer (paper §3.7).
///
/// With `target = Some(..)`, hunts for oracle kinks at the white-box
/// critical points of the next layer's neurons and passes when a
/// `cfg.validation_majority` fraction of the probed neurons confirms.
/// With `target = None` (the last hidden layer, where all bits are already
/// determined), directly compares white-box and oracle outputs on random
/// inputs. `NoEvidence` maps to `true`; use
/// [`key_vector_validation_verdict`] for the three-way outcome.
pub fn key_vector_validation(
    g: &Graph,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> bool {
    !matches!(
        key_vector_validation_verdict(g, ka, target, oracle, cfg, rng),
        ValidationVerdict::Fail
    )
}

/// Three-way variant of [`key_vector_validation`]. Oracle failures map to
/// [`ValidationVerdict::NoEvidence`] — an unreachable oracle cannot refute
/// a candidate; callers that must distinguish "could not probe" from "no
/// observable witness" use [`key_vector_validation_checked`].
pub fn key_vector_validation_verdict(
    g: &Graph,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> ValidationVerdict {
    key_vector_validation_checked(g, ka, target, oracle, cfg, rng)
        .unwrap_or(ValidationVerdict::NoEvidence)
}

/// Fallible variant of [`key_vector_validation_verdict`]: a typed
/// [`OracleError`] (budget exhausted, deadline passed, backend down)
/// surfaces as `Err` so the decryptor can fall back to its learned
/// candidate instead of mistaking starvation for evidence.
///
/// # Errors
///
/// Propagates the first [`OracleError`] hit while probing.
pub fn key_vector_validation_checked(
    g: &Graph,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<ValidationVerdict, OracleError> {
    let mut ws = Workspace::new();
    key_vector_validation_checked_with(g, &mut ws, ka, target, oracle, cfg, rng)
}

/// [`key_vector_validation_checked`] through a caller-owned workspace: all
/// witness searches and white-box observability probes of the pass share
/// one set of forward buffers.
///
/// The probed units run one after another, each to its verdict, with one
/// oracle request per probe. [`validate_candidates`] runs the same units
/// in rounds and reaches the same verdict.
///
/// # Errors
///
/// Propagates the first [`OracleError`] hit while probing.
#[allow(clippy::too_many_arguments)]
pub fn key_vector_validation_checked_with(
    g: &Graph,
    ws: &mut Workspace,
    ka: &KeyAssignment,
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rng: &mut Prng,
) -> Result<ValidationVerdict, OracleError> {
    match target {
        Some(t) => {
            let mut vote = Vote::new(cfg);
            // One stream per unit, forked in canonical order up front: the
            // parent stream always advances by `|units|`, however many
            // units the vote ends up probing.
            let unit_rngs: Vec<Prng> = t.units.iter().map(|_| rng.fork()).collect();
            for (&(unit, slot), unit_rng) in t.units.iter().zip(unit_rngs) {
                // The vote is a majority over `quota` observable units;
                // stop as soon as its outcome is decided.
                if vote.room() == 0 {
                    break;
                }
                let probe = UnitProbe::new(ka, &t.layout, unit, slot, unit_rng);
                vote.record(probe.run(g, ws, t.surface_node, oracle, cfg)?);
            }
            Ok(vote.verdict(cfg))
        }
        None => {
            let x = rng
                .normal_tensor([cfg.final_check_samples, g.input_size()])
                .scale(cfg.input_scale);
            let theirs = oracle.try_query_batch(&x)?;
            Ok(final_check(g, ws, ka, &x, &theirs, cfg))
        }
    }
}

/// A unit being probed in [`validate_candidates`]: which candidate it
/// votes for, its index in the target's unit list, and its machine.
struct OpenUnit {
    cand: usize,
    unit: usize,
    probe: Mutex<UnitProbe>,
}

/// Validates every assignment of `candidates` against `target` (paper
/// §3.7), in lockstep rounds with **one** oracle request per round.
///
/// Candidate `i` draws only from `rngs[i]`: with a target, it forks one
/// stream per unit of `target.units` in canonical order up front, so it
/// advances by `|units|`; without one, it draws the final check's inputs.
/// Each round:
///
/// - every candidate opens units, in canonical order, while its number of
///   open units is below its vote's `Vote::room`: none of them can then
///   decide the vote before the others finish, so the rounds probe
///   exactly the units the sequential loop of
///   [`key_vector_validation_checked_with`] probes;
/// - `run_sharded` runs the white-box half of every open unit on
///   `cfg.threads` workers; a unit either asks for rows or reaches its
///   verdict;
/// - the rows go out as one `try_query_batch` in canonical (candidate,
///   unit) order, and each unit is fed its answers.
///
/// Each candidate's verdict therefore equals the sequential one, from the
/// same multiset of rows, at every thread count. If a round's request
/// fails (budget, deadline, dead backend), every candidate whose vote is
/// still open gets the error: a failed round ends every open validation.
pub fn validate_candidates(
    g: &Graph,
    pool: &WorkspacePool,
    candidates: &[KeyAssignment],
    target: Option<&ValidationTarget>,
    oracle: &dyn Oracle,
    cfg: &AttackConfig,
    rngs: &mut [Prng],
) -> Vec<Result<ValidationVerdict, OracleError>> {
    assert_eq!(candidates.len(), rngs.len(), "one stream per candidate");
    if candidates.is_empty() {
        return Vec::new();
    }
    let p = g.input_size();
    let Some(t) = target else {
        // The final checks of every candidate, as one request.
        let samples = cfg.final_check_samples;
        let xs: Vec<Tensor> = rngs
            .iter_mut()
            .map(|rng| rng.normal_tensor([samples, p]).scale(cfg.input_scale))
            .collect();
        let batch: Vec<f64> = xs
            .iter()
            .flat_map(|x| x.as_slice().iter().copied())
            .collect();
        let theirs = match oracle.try_query_batch(&Tensor::from_vec(batch, [xs.len() * samples, p]))
        {
            Ok(out) => out,
            Err(e) => return vec![Err(e); candidates.len()],
        };
        let per = samples * theirs.dims()[1];
        let mut ws = pool.acquire();
        return candidates
            .iter()
            .zip(&xs)
            .enumerate()
            .map(|(i, (ka, x))| {
                let mine = Tensor::from_vec(
                    theirs.as_slice()[i * per..(i + 1) * per].to_vec(),
                    [samples, theirs.dims()[1]],
                );
                Ok(final_check(g, &mut ws, ka, x, &mine, cfg))
            })
            .collect();
    };

    let unit_rngs: Vec<Vec<Prng>> = rngs
        .iter_mut()
        .map(|rng| t.units.iter().map(|_| rng.fork()).collect())
        .collect();
    let mut votes = vec![Vote::new(cfg); candidates.len()];
    let mut next_unit = vec![0usize; candidates.len()];
    let mut open: Vec<OpenUnit> = Vec::new();
    loop {
        for (c, ka) in candidates.iter().enumerate() {
            let mut n_open = open.iter().filter(|o| o.cand == c).count();
            while n_open < votes[c].room() && next_unit[c] < t.units.len() {
                let k = next_unit[c];
                let (unit, slot) = t.units[k];
                let rng = unit_rngs[c][k].clone();
                open.push(OpenUnit {
                    cand: c,
                    unit: k,
                    probe: Mutex::new(UnitProbe::new(ka, &t.layout, unit, slot, rng)),
                });
                next_unit[c] += 1;
                n_open += 1;
            }
        }
        if open.is_empty() {
            break;
        }
        open.sort_by_key(|o| (o.cand, o.unit));
        let steps = run_sharded(pool, cfg.threads, open.len(), |j, ws| {
            let mut probe = open[j].probe.lock().expect("probe lock");
            probe.step(g, ws, t.surface_node, cfg)
        });
        // Units that reached their verdict vote; the others asked.
        let mut asking = Vec::with_capacity(open.len());
        let mut batch = Vec::new();
        let mut rows = 0;
        for (o, step) in open.into_iter().zip(steps) {
            match step {
                Step::Done(v) => votes[o.cand].record(v),
                Step::Ask(r) => {
                    rows += r.dims()[0];
                    batch.extend_from_slice(r.as_slice());
                    asking.push((o, r.dims()[0]));
                }
            }
        }
        if asking.is_empty() {
            open = Vec::new();
            continue;
        }
        let out = match oracle.try_query_batch(&Tensor::from_vec(batch, [rows, p])) {
            Ok(out) => out,
            Err(e) => {
                return (0..candidates.len())
                    .map(|c| {
                        let decided = !asking.iter().any(|(o, _)| o.cand == c)
                            && (votes[c].room() == 0 || next_unit[c] == t.units.len());
                        if decided {
                            Ok(votes[c].verdict(cfg))
                        } else {
                            Err(e.clone())
                        }
                    })
                    .collect();
            }
        };
        let q = out.dims()[1];
        let mut at = 0;
        open = Vec::with_capacity(asking.len());
        for (o, n) in asking {
            let answers = Tensor::from_vec(out.as_slice()[at * q..(at + n) * q].to_vec(), [n, q]);
            at += n;
            o.probe.lock().expect("probe lock").feed(&answers, cfg);
            open.push(o);
        }
    }
    votes.iter().map(|v| Ok(v.verdict(cfg))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AttackConfig;
    use relock_locking::{CountingOracle, Key, LockSpec};
    use relock_nn::{build_mlp, MlpSpec};

    fn setup() -> (relock_locking::LockedModel, AttackConfig) {
        let mut rng = Prng::seed_from_u64(120);
        let model = build_mlp(
            &MlpSpec {
                input: 10,
                hidden: vec![8, 8],
                classes: 4,
            },
            LockSpec::evenly(8),
            &mut rng,
        )
        .unwrap();
        (model, AttackConfig::fast())
    }

    fn second_layer_target(g: &Graph) -> ValidationTarget {
        let sites = g.lock_sites();
        let last = sites.last().unwrap();
        ValidationTarget {
            surface_node: last.keyed_node,
            layout: last.layout,
            units: (0..last.layout.n_units)
                .map(|u| {
                    let slot = sites
                        .iter()
                        .find(|s| s.keyed_node == last.keyed_node && s.unit == u)
                        .map(|s| s.slot);
                    (u, slot)
                })
                .collect(),
        }
    }

    #[test]
    fn correct_first_layer_passes() {
        let (model, cfg) = setup();
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let ka = model.true_key().to_assignment();
        let t = second_layer_target(g);
        let mut rng = Prng::seed_from_u64(121);
        assert!(key_vector_validation(
            g,
            &ka,
            Some(&t),
            &oracle,
            &cfg,
            &mut rng
        ));
    }

    #[test]
    fn wrong_first_layer_fails() {
        let (model, cfg) = setup();
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        // Corrupt a first-layer bit.
        let sites = g.lock_sites();
        let first_node = sites[0].keyed_node;
        let first_slot = sites
            .iter()
            .find(|s| s.keyed_node == first_node)
            .unwrap()
            .slot;
        let mut wrong = model.true_key().clone();
        wrong.flip_bit(first_slot.index());
        let ka = wrong.to_assignment();
        let t = second_layer_target(g);
        let mut rng = Prng::seed_from_u64(122);
        assert!(!key_vector_validation(
            g,
            &ka,
            Some(&t),
            &oracle,
            &cfg,
            &mut rng
        ));
    }

    #[test]
    fn final_direct_check_accepts_true_key_and_rejects_wrong() {
        let (model, cfg) = setup();
        let oracle = CountingOracle::new(&model);
        let g = model.white_box();
        let mut rng = Prng::seed_from_u64(123);
        assert!(key_vector_validation(
            g,
            &model.true_key().to_assignment(),
            None,
            &oracle,
            &cfg,
            &mut rng
        ));
        let wrong = Key::random(model.true_key().len(), &mut rng);
        if &wrong != model.true_key() {
            assert!(!key_vector_validation(
                g,
                &wrong.to_assignment(),
                None,
                &oracle,
                &cfg,
                &mut rng
            ));
        }
    }
}
