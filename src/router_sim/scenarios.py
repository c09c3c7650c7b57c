"""End-to-end router experiments returning structured, assertable results.

Every scenario couples a single shutter photon, pre-selected over three
boxes, to a single probe photon split over space and time.  Routers swap
the probe into a kept "reflected" rail exactly when the shutter occupies
the matching box mode; tunneling beamsplitters move the shutter between
boxes A and B between time slots.  After the interactions the probe rails
are recombined by the exact adjoint of the splitting network, the shutter
is post-selected, and the conditional probability of recovering the probe
in its original state is reported along with the full outcome partition.

Every state a scenario reports on holds one shutter photon over boxes A,
B and C plus at most one probe photon, so scenarios propagate stacks of
that 3 x (1 + n_probe) amplitude block (:func:`_propagate`): rows are
boxes, column 0 is the probe vacuum and column 1 + p is probe mode p.  Runs
(:func:`run_plan`) and sweeps (:func:`sweep_plan`) merge and measure the
blocks with one function (:func:`_measure`).  A Bell run or sweep
propagates all its points' blocks as one stack (:func:`_bell_states`), and
its tables are matrix algebra on their cavity columns.  Probabilities are
computed exactly from amplitudes; there is no sampling.
Perturbed variants (wrong box, wrong time, switched router orientation,
extra probe beam) are first-class because the certainty claims of the
unperturbed schedules are only meaningful against such counterfactuals.

Only the probe's coefficients change from run to run.  Everything else is
built once per process, on first use, for each scenario and perturbation:
the shutter's two-state spec (:func:`_spec`), the plan without its
coefficients (:func:`_beam_table_plan`), the block program of its
schedule (:func:`_program`) and the ABL and weak-value table of the
unperturbed shutters (:func:`_tsvf_values`).  A call validates its
coefficients, starts the block from them, applies the program, measures
and assembles its result.  What the calls share is immutable by type:
frozen plans and specs, tuples, read-only mappings and arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import tsvf
from .elements import (
    ElementKind,
    RouterOrientation,
    mode_unitary,
    pqr_ideal,
    tunnel_matrix,
)
from .errors import (
    BadCoefficients,
    BadParam,
    UndefinedConditioning,
    UnsupportedSector,
)
from .fock import (
    FockState,
    Sectors,
    normalized_rows,
    pruned,
    row_norms,
    spectrum_of,
    superposition_source,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

#: tolerance on |alpha|² sums supplied by callers
_NORM_TOL = 1e-9


@dataclass
class ScenarioResult:
    """Structured output of one scenario run.  ``probe`` holds the modes
    and block row of the post-selected probe ahead of the merge, read as a
    :class:`FockState` (``conditioned_probe_state``) on first use."""

    name: str
    conditional_probabilities: dict
    fidelity_to_target: float | None
    weak_values: dict
    abl_values: dict
    schmidt_spectrum: list | None
    metadata: dict
    probe: tuple | None = None

    @functools.cached_property
    def conditioned_probe_state(self):
        if self.probe is None:
            return None
        modes, row = self.probe
        configs = map(tuple, np.eye(len(modes) + 1, len(modes), -1,
                                    dtype=int).tolist())
        return FockState(modes, dict(zip(configs, row.tolist())))


@dataclass(frozen=True)
class ScenarioPlan:
    """Concrete schedule of one scenario, consumable by oracle tests.

    ``spec`` is the two-state description of the shutter the plan runs,
    shared with every plan of that shutter: ``schedule`` holds its
    tunneling segments with the routers placed at their checkpoints.
    ``probes`` and ``kept_ports`` give each beam's probe mode and kept
    port in coefficient order; ``probe_modes`` are the probes and then the
    rails.  The probe photon has weights ``alphas`` over the probes, unless
    ``probe_photon`` is false.  ``merge``, with ``recombine``, recombines
    the kept ports onto the first; without it the scenario reports on the
    bare reflected rails.  A plan is frozen; :func:`dataclasses.replace`
    makes a variant.
    """

    name: str
    schedule: tuple
    spec: tsvf.TwoStateSpec
    probes: tuple
    probe_modes: tuple
    kept_ports: tuple
    alphas: np.ndarray
    recombine: bool
    probe_photon: bool = True

    @property
    def shutter_post(self):
        return self.spec.post

    @property
    def outcome_label(self):
        return "restored" if self.recombine else "reflected"

    @functools.cached_property
    def initial(self):
        """The state ahead of the schedule, over the shutter's modes and
        then ``probe_modes``, built on first read."""
        pre, empty = self.spec.pre, (0,) * len(self.probe_modes)
        state = FockState(pre.modes + self.probe_modes,
                          {c + empty: a for c, a in pre.amplitudes.items()})
        if not self.probe_photon:
            return state
        return superposition_source(state, dict(zip(self.probes, self.alphas)))

    @functools.cached_property
    def merge(self):
        """The recombination element, built on first read."""
        if not self.recombine:
            return None
        return mode_unitary(unitary_with_first_row(self.alphas.conj()),
                            self.kept_ports)

    @property
    def kept_columns(self):
        """Block columns of the kept ports (see :func:`_propagate`)."""
        return [1 + self.probe_modes.index(m) for m in self.kept_ports]

    @property
    def full_schedule(self):
        return list(self.schedule) + ([self.merge] if self.recombine else [])


def as_alpha_vector(alphas, arity):
    """``alphas`` as a complex vector of length ``arity``; raises
    :class:`BadCoefficients` unless it has that length, finite entries and
    unit norm."""
    alphas = np.asarray(list(alphas), dtype=complex)
    if alphas.shape != (arity,):
        raise BadCoefficients(
            f"expected {arity} coefficients, got {alphas.shape}")
    if not np.isfinite(alphas).all():
        raise BadCoefficients("coefficients are not finite")
    with np.errstate(over="ignore"):
        total = float((np.abs(alphas) ** 2).sum())
    if abs(total - 1.0) > _NORM_TOL:
        raise BadCoefficients(
            f"coefficients are not normalized: sum |a|^2 = {total}")
    return alphas


def equal_alphas(n):
    return np.full(n, 1.0 / math.sqrt(n), dtype=complex)


def unitary_with_first_row(row):
    """Unitary whose first row is the given unit vector; for a stack of
    rows, the stack of those unitaries.

    Used to recombine the kept rails: applying it maps the superposition
    sum_k row_k* ... sum_k alpha_k |rail_k> onto the first rail exactly, so
    it is the adjoint of any splitting network producing those weights.
    """
    rows = np.atleast_2d(np.asarray(row, dtype=complex))
    n, k = rows.shape
    norms = row_norms(rows)
    rows = np.where(np.abs(norms - 1.0) > 1e-12, rows / norms, rows)
    # Columns: the conjugated row, then every unit vector but the one at
    # the row's largest entry, in order.
    columns = np.zeros((n, k, k), dtype=complex)
    columns[:, :, 0] = rows.conj()
    others = np.arange(k - 1)
    others = others + (others >= np.argmax(np.abs(rows), axis=-1)[:, None])
    columns[np.arange(n)[:, None], others, np.arange(1, k)] = 1.0
    q, r = np.linalg.qr(columns)
    q[:, :, 0] *= (r[:, 0, 0] / abs(r[:, 0, 0]))[:, None]
    unitaries = q.conj().transpose(0, 2, 1)
    return unitaries[0] if np.ndim(row) == 1 else unitaries


def _propagate(plan, points):
    """The amplitude blocks of ``plan``'s state ahead of the merge, one per
    coefficient vector in ``points``: row s is shutter mode s, column 0 the
    probe vacuum and column 1 + p one photon in ``plan.probe_modes[p]``.

    A block starts as the pre-state times the probe photon spread over the
    probes by its point (or the probe vacuum), normalized as
    :func:`superposition_source` normalizes, its pair columns over sqrt(2)
    as the sector form holds them; then the steps of the plan's program
    (:func:`_program`) act on it.
    """
    program = _program(plan)
    columns = np.zeros((len(points), 1 + len(plan.probe_modes)), dtype=complex)
    if plan.probe_photon:
        columns[:, 1:1 + len(plan.probes)] = points
    else:
        columns[:, 0] = 1.0
    blocks = pruned(program.start[:, None] * columns[:, None, :])
    # Moduli as abs() takes them, summed one by one, box-major and
    # probe-minor, as FockState.norm sums its amplitudes.
    squares = np.hypot(blocks.real, blocks.imag).reshape(len(blocks), -1) ** 2
    norms = np.sqrt([[[sum(row)]] for row in squares.tolist()])
    # Divided part by part, as a complex divides by a float; numpy's
    # complex division would multiply by a reciprocal.
    blocks = (blocks.view(float) / norms / program.scale).view(complex)
    for step in program.steps:
        if type(step) is tuple:
            row, ports, swapped = step
            blocks[:, row, ports] = blocks[:, row, swapped]
        else:
            blocks = step @ blocks
    blocks[:, :, 1:] *= SQRT2
    return pruned(blocks)


@dataclass(frozen=True)
class _Program:
    """What propagating and measuring a plan takes that its coefficients do
    not change, all read-only: the shutter's pre-state vector ``start``,
    its conjugated post-state ``bra``, the per-part ``scale`` that holds a
    block's pair columns over sqrt(2), and the ``steps`` of its schedule:
    a router as ``(row, ports, swapped)``, which swaps two columns in its
    control box's row, or a run of tunneling elements as one 3 x 3 matrix,
    composed as :func:`~router_sim.elements.evolve` composes it."""

    start: np.ndarray
    bra: np.ndarray
    scale: np.ndarray
    steps: tuple


def _program(plan):
    """The :class:`_Program` of ``plan``, decoded once per process for each
    name, schedule, shutter and probe layout: it is looked up by the
    elements of the schedule the plan holds, so a plan given another
    schedule gets that schedule's program."""
    return _decode(plan.name, tuple(plan.schedule), plan.spec.pre,
                   plan.spec.post, plan.probe_modes)


@functools.lru_cache(maxsize=64)
def _decode(name, schedule, pre, post, probe_modes):
    """The :class:`_Program` of a plan with these fields.  Any element that
    could leave the block: :class:`UnsupportedSector`."""
    rows = {m: i for i, m in enumerate(post.modes)}
    cols = {m: i for i, m in enumerate(probe_modes, 1)}
    steps, run = [], None
    for element in schedule:
        kind, modes = element.kind, element.modes
        if kind is ElementKind.TUNNEL and rows.keys() >= set(modes):
            if run is None:
                run = np.eye(len(rows), dtype=complex)
            i, j = rows[modes[0]], rows[modes[1]]
            pair = run[i::j - i][:2]
            pair[:] = tunnel_matrix(element.params["theta"]) @ pair
        elif (kind is ElementKind.PQR_IDEAL and modes[2] in rows
              and modes[0] in cols and modes[1] in cols):
            if run is not None:
                steps.append(run)
                run = None
            a, b = cols[modes[0]], cols[modes[1]]
            steps.append((rows[modes[2]], (a, b), (b, a)))
        else:
            raise UnsupportedSector(
                f"{kind.value} on {modes} in {name} is not a router "
                "controlled by a shutter mode between probe modes or rails, "
                "nor tunneling between shutter modes")
    if run is not None:
        steps.append(run)
    return _Program(
        start=_frozen(Sectors(pre).one),
        bra=_frozen(Sectors(post).one.conj()),
        scale=_frozen(np.repeat([1.0] + [SQRT2] * len(cols), 2)),
        steps=tuple(s if type(s) is tuple else _frozen(s) for s in steps),
    )


def _frozen(values):
    """``values`` as an array that raises on a write."""
    array = np.asarray(values)
    array.flags.writeable = False
    return array


def _measure(plan, points, joint):
    """Measure ``plan`` on the stacked blocks ``joint`` of its state ahead
    of the merge, one per coefficient vector in ``points``.

    With ``plan.recombine``, each point's kept ports are merged by the
    unitary whose first row is its conjugated coefficients.  Returns, per
    point, the outcome partition, the fidelity of the post-selected probe
    to the coefficients on the kept ports, the Schmidt spectrum of the
    shutter versus the probe, and the post-selected probe ahead of the
    merge as a normalized row in the block's column layout.
    """
    kept = plan.kept_columns
    bra = _program(plan).bra

    def postselect(joint):
        probes = np.einsum("s,nsp->np", bra, joint)
        return (normalized_rows(pruned(probes)),
                np.sum(np.abs(probes) ** 2, axis=-1))

    singular = np.linalg.svd(joint, compute_uv=False)
    premerge, _ = postselect(joint)
    fidelities = np.abs(np.einsum(
        "nk,nk->n", pruned(points).conj(), premerge[:, kept]
    )) ** 2

    if plan.recombine:
        merges = unitary_with_first_row(points.conj())
        merged = joint.copy()
        merged[:, :, kept] = joint[:, :, kept] @ merges.transpose(0, 2, 1)
        joint = pruned(merged)
    probes, p_posts = postselect(joint)
    if np.any(p_posts < 1e-24):
        raise UndefinedConditioning(
            f"post-selection never succeeds in scenario {plan.name}"
        )
    restored = kept[:1] if plan.recombine else kept
    qs = np.sum(np.abs(probes[:, restored]) ** 2, axis=-1)
    return [
        (_conditionals(plan.outcome_label, p_post, q), fid,
         spectrum_of(values), row)
        for p_post, q, fid, values, row in zip(
            p_posts.tolist(), qs.tolist(), fidelities.tolist(), singular,
            premerge,
        )
    ]


def run_plan(plan):
    """Propagate a plan's block and assemble its :class:`ScenarioResult`
    from it."""
    points = plan.alphas[None]
    ((conditionals, fid, spectrum, probe),) = _measure(
        plan, points, _propagate(plan, points))
    return ScenarioResult(
        name=plan.name,
        conditional_probabilities=conditionals,
        fidelity_to_target=fid,
        weak_values={},
        abl_values={},
        schmidt_spectrum=spectrum,
        metadata={},
        probe=(plan.probe_modes, probe),
    )


def sweep_plan(plan, points):
    """``(summary, Schmidt spectrum)`` of ``plan`` at each coefficient
    vector in ``points``, measured as :func:`run_plan` measures one.

    The schedule does not depend on the coefficients, so the block of a
    point is ``sum_k alpha_k basis[k]``, where ``basis[k]`` is the block of
    the probe photon in beam k alone; the basis is propagated once, as one
    stack from the identity on the probe columns.
    """
    points = np.asarray(points, dtype=complex)
    basis = _propagate(plan, np.eye(len(plan.probes)))
    joint = pruned(np.einsum("nk,ksp->nsp", points, basis))
    return [({**conditionals, "fidelity": fid}, spectrum)
            for conditionals, fid, spectrum, _
            in _measure(plan, points, joint)]


def _conditionals(label, p_post, q):
    """Outcome partition from the post-selection probability ``p_post``
    and the probability ``q`` of outcome ``label`` given it."""
    return {
        "postselection_success": p_post,
        f"{label}_given_postselection": q,
        f"postselected_and_{label}": p_post * q,
        f"postselected_not_{label}": p_post * (1.0 - q),
        "postselection_failed": 1.0 - p_post,
    }


@functools.cache
def _spec(shutter):
    """The two-state spec of the named shutter: the static ``"three_box"``
    one, the ``"disappearing"`` one, or that one prepared without box C
    (``"remove-shutter-C-t2"``), built once per process and shared by
    every plan of it."""
    if shutter == "three_box":
        return tsvf.three_box_spec()
    spec = tsvf.disappearing_spec()
    if shutter == "remove-shutter-C-t2":
        return replace(spec, pre=tsvf.shutter_state(
            (1 / math.sqrt(2), 1j / math.sqrt(2), 0.0)))
    return spec


@functools.cache
def _tsvf_values(shutter):
    """``{(box, time): (ABL probability, weak value)}`` of every box
    projector at every checkpoint of the named shutter's spec (Aharonov,
    Bergmann and Lebowitz 1964), computed once per process."""
    spec = _spec(shutter)
    return {(box, time): values
            for time in sorted(spec.checkpoints)
            for box, values in tsvf.checkpoint_values(spec, time).items()}


def _attach_tsvf(result, shutter):
    for key, (abl, weak) in _tsvf_values(shutter).items():
        result.abl_values[key] = abl
        result.weak_values[key] = weak


_REFLECT = RouterOrientation.REFLECT_ON_MATCH
_TRANSMIT = RouterOrientation.TRANSMIT_ON_MATCH


@functools.cache
def _beam_table_plan(name, shutter, beams, routers=True, probe_photon=True,
                     recombine=True):
    """Plan of the named shutter (see :func:`_spec`) probed by a table of
    beams, without its coefficients, built once per process for each set
    of arguments; the builders return it with theirs.

    Each beam ``(tag, box, checkpoint, orientation)`` of the tuple
    ``beams`` joins probe mode ``P<tag>`` and rail ``R<tag>`` (reflect) or
    ``X<tag>`` (transmit) by a router controlled by the shutter's mode of
    ``box``; it runs at the checkpoint, ahead of the segment that starts
    there.  ``recombine`` merges the kept ports by the adjoint of the
    splitting, restoring onto the first; ``routers=False`` leaves the
    routers out of the schedule and ``probe_photon=False`` prepares the
    probe modes empty.
    """
    spec = _spec(shutter)
    probes = tuple("P" + tag for tag, _, _, _ in beams)
    rails = tuple(("R" if orientation is _REFLECT else "X") + tag
                  for tag, _, _, orientation in beams)

    at_boundary = [[] for _ in range(len(spec.segments) + 1)]
    kept = []
    for (_, box, checkpoint, orientation), p, r in zip(beams, probes, rails):
        router = pqr_ideal(p, r, spec.box_modes[box], orientation)
        kept.append(router.kept_port)
        if routers:
            at_boundary[spec.boundary(checkpoint)].append(router)
    schedule = at_boundary[0]
    for segment, placed in zip(spec.segments, at_boundary[1:]):
        schedule += [*segment, *placed]

    return ScenarioPlan(
        name=name,
        schedule=tuple(schedule),
        spec=spec,
        probes=probes,
        probe_modes=probes + rails,
        kept_ports=tuple(kept),
        alphas=None,
        recombine=recombine,
        probe_photon=probe_photon,
    )


# ---------------------------------------------------------------------------
# Static three-box shutter
# ---------------------------------------------------------------------------

def build_three_box(alpha1, alpha2):
    alphas = as_alpha_vector([alpha1, alpha2], 2)
    return replace(_beam_table_plan(
        "three_box_shutter", "three_box",
        (("A", "A", "t", _REFLECT), ("B", "B", "t", _REFLECT)),
        recombine=False,
    ), alphas=alphas)


def three_box_shutter(alpha1, alpha2):
    """Probe split over boxes A and B against the static three-box shutter.

    The conditioned probe retains its initial coherent superposition on the
    reflected rails with fidelity one, for any normalized coefficients.
    """
    result = run_plan(build_three_box(alpha1, alpha2))
    _attach_tsvf(result, "three_box")
    return result


# ---------------------------------------------------------------------------
# Tunneling schemes: beam tables over the disappearing shutter
# ---------------------------------------------------------------------------

# Beams (tag, box, checkpoint, orientation) of the disappearing scheme.
_DISAPPEARING_BEAMS = tuple((tag, tag[0], f"t{tag[1]}", _REFLECT)
                            for tag in ("A1", "C1", "C2", "B3", "C3"))


def build_disappearing(alphas=None, perturbation=None):
    check_perturbation("disappearing_full", perturbation)
    alphas = equal_alphas(5) if alphas is None else as_alpha_vector(alphas, 5)
    beams = _DISAPPEARING_BEAMS
    extra_box = {"extra-beam-A-t2": "A", "extra-beam-B-t2": "B"}.get(
        perturbation
    )
    if extra_box is not None:
        beams = beams[:3] + (("X2", extra_box, "t2", _REFLECT),) + beams[3:]
        weight = 1.0 / math.sqrt(6.0)
        shrunk = alphas * math.sqrt(1.0 - weight**2)
        alphas = np.concatenate(
            [shrunk[:3], [weight], shrunk[3:]]
        )
    shutter = ("remove-shutter-C-t2" if perturbation == "remove-shutter-C-t2"
               else "disappearing")
    return replace(_beam_table_plan("disappearing_full", shutter, beams),
                   alphas=alphas)


def disappearing_full(alphas=None, perturbation=None):
    """Five-beam spatiotemporal probe against the tunneling shutter.

    The probe interrogates boxes A and C at t1, C at t2 and B and C at t3;
    with the unperturbed schedule the recombined probe is detected on its
    original rail with conditional probability one once the shutter
    post-selection succeeds.
    """
    result = run_plan(build_disappearing(alphas, perturbation))
    if perturbation is None:
        _attach_tsvf(result, "disappearing")
    return result


def build_simplified_3path(variant=None):
    check_perturbation("simplified_3path", variant)
    t2_box = "A" if variant == "wrong-box-t2" else "C"
    beams = (
        ("A1", "A", "t1", _REFLECT),
        (t2_box + "2", t2_box, "t2", _REFLECT),
        ("B3", "B", "t3", _REFLECT),
    )
    return replace(_beam_table_plan(
        "simplified_3path", "disappearing", beams,
        routers=variant != "identity-routers",
    ), alphas=equal_alphas(3))


def simplified_3path(variant=None):
    """Three-beam probe: reflections at A(t1), C(t2) and B(t3)."""
    return run_plan(build_simplified_3path(variant))


def build_simplest_2path(variant=None):
    check_perturbation("simplest_2path", variant)
    if variant == "swapped-slots":
        beams = (("C1", "C", "t1", _REFLECT), ("A2", "A", "t2", _REFLECT))
    else:
        beams = (("A1", "A", "t1", _REFLECT), ("C2", "C", "t2", _REFLECT))
    return replace(_beam_table_plan(
        "simplest_2path", "disappearing", beams,
        probe_photon=variant != "vacuum-probe",
    ), alphas=equal_alphas(2))


def simplest_2path(variant=None):
    """Two-beam probe: reflections at A(t1) and C(t2).

    The unity restoration has two readings: it certifies reflection from
    A(t1) and C(t2), and equivalently the shutter's absence from box A at
    the slot in between.
    """
    return run_plan(build_simplest_2path(variant))


# ---------------------------------------------------------------------------
# Absence test (transmit-orientation routers at t2)
# ---------------------------------------------------------------------------

def build_absence_test(variant=None):
    check_perturbation("absence_test", variant)
    slot = {"at-t1": "t1", "at-t3": "t3"}.get(variant, "t2")
    orientation = _REFLECT if variant == "reflect-orientation" else _TRANSMIT
    beams = (("A", "A", slot, orientation), ("B", "B", slot, orientation))
    return replace(_beam_table_plan("absence_test", "disappearing", beams),
                   alphas=equal_alphas(2))


def absence_test(variant=None):
    """Probe sent through boxes A and B at t2, transmitted when empty.

    Only the undisturbed transmissions through the predicted-empty boxes
    restore the probe's initial superposition with certainty.
    """
    return run_plan(build_absence_test(variant))


# ---------------------------------------------------------------------------
# Stricter six-beam scheme: presence and absence with one probe photon
# ---------------------------------------------------------------------------

def build_stricter_6beam(alphas=None, flip=None):
    check_perturbation("stricter_6beam", flip)
    alphas = equal_alphas(6) if alphas is None else as_alpha_vector(alphas, 6)
    beams = (
        ("A1", "A", "t1", _REFLECT),
        ("C1", "C", "t1", _REFLECT),
        ("A2", "A", "t2", _REFLECT if flip == "flip-A-t2" else _TRANSMIT),
        ("B2", "B", "t2", _REFLECT if flip == "flip-B-t2" else _TRANSMIT),
        ("B3", "B", "t3", _REFLECT),
        ("C3", "C", "t3", _REFLECT),
    )
    return replace(_beam_table_plan("stricter_6beam", "disappearing", beams),
                   alphas=alphas)


def stricter_6beam(alphas=None, flip=None):
    """Six-beam probe measuring presence (t1, t3) and absence (t2) at once.

    Beam order: A(t1), C(t1), A(t2), B(t2), B(t3), C(t3).  The t2 routers
    run in transmit orientation; flipping either one to reflect breaks the
    restoration certainty.
    """
    return run_plan(build_stricter_6beam(alphas, flip))


# ---------------------------------------------------------------------------
# Bell-type validation on the pre-post-selection entangled state
# ---------------------------------------------------------------------------

OPEN_BOXES = "OPEN_BOXES"
OPEN_CAVITIES = "OPEN_CAVITIES"
SUPERPOSE = "SUPERPOSE"

#: Bob's cavities: the kept rails of the five beams, in beam order.
_CAVITIES = tuple("R" + tag for tag, _, _, _ in _DISAPPEARING_BEAMS)


def _bell_states(points):
    """The Bell states of the coefficient vectors in ``points``, as one
    (n, 3, 5) stack: the normalized cavity columns (rows boxes A, B and C)
    of the five-beam schedule's blocks ahead of post-selection.

    The schedule is the unperturbed five-beam plan of
    :func:`disappearing_full`, whose merge the Bell analysis never reads;
    every point's block is propagated in one stack.
    """
    plan = _beam_table_plan("disappearing_full", "disappearing",
                            _DISAPPEARING_BEAMS)
    collected = _propagate(plan, points)[:, :, plan.kept_columns]
    return normalized_rows(
        collected.reshape(len(collected), -1)).reshape(collected.shape)


def _bell_state(alphas, alice_setting, bob_setting):
    """The Bell state of one coefficient vector (equal weights if None),
    after checking it and the two settings."""
    alphas = equal_alphas(5) if alphas is None else as_alpha_vector(alphas, 5)
    if alice_setting not in (OPEN_BOXES, SUPERPOSE):
        raise BadParam(f"unknown Alice setting {alice_setting!r}")
    if bob_setting not in (OPEN_CAVITIES, SUPERPOSE):
        raise BadParam(f"unknown Bob setting {bob_setting!r}")
    return _bell_states([alphas])[0]


@functools.cache
def _alice_superposition():
    """Alice's SUPERPOSE bra: the equal superposition of boxes A, B and C,
    read-only because every table shares it."""
    return _frozen(Sectors(tsvf.shutter_state((1 / SQRT3,) * 3)).one.conj())


def _bell_table(state, alice_setting, bob_setting):
    """Clamped joint probability table of one setting pair on a Bell state
    from :func:`_bell_states`."""
    alice = _alice_superposition()
    bob = np.full(len(_CAVITIES), 1 / math.sqrt(len(_CAVITIES)))
    probs = np.abs(state) ** 2

    if alice_setting == OPEN_BOXES and bob_setting == OPEN_CAVITIES:
        table = {(box, cavity): probs[s, c]
                 for s, box in enumerate("ABC")
                 for c, cavity in enumerate(_CAVITIES)}
    elif alice_setting == OPEN_BOXES:
        p_match = np.abs(state @ bob) ** 2
        table = {}
        for box, p_box, p in zip("ABC", probs.sum(axis=1), p_match):
            table[(box, "match")] = p
            table[(box, "rest")] = p_box - p
    elif bob_setting == OPEN_CAVITIES:
        p_match = np.abs(alice @ state) ** 2
        table = {}
        for cavity, p_cavity, p in zip(_CAVITIES, probs.sum(axis=0), p_match):
            table[("match", cavity)] = p
            table[("rest", cavity)] = p_cavity - p
    else:
        bob_given_alice = alice @ state
        p_alice = np.sum(np.abs(bob_given_alice) ** 2)
        p_bob = np.sum(np.abs(state @ bob) ** 2)
        p_both = abs(bob_given_alice @ bob) ** 2
        table = {
            ("match", "match"): p_both,
            ("match", "rest"): p_alice - p_both,
            ("rest", "match"): p_bob - p_both,
            ("rest", "rest"): 1.0 - p_alice - p_bob + p_both,
        }
    return {k: max(float(v), 0.0) for k, v in table.items()}


def _bell_tables(state):
    """The clamped tables of all four setting pairs on one Bell state."""
    return {
        (a, b): _bell_table(state, a, b)
        for a in (OPEN_BOXES, SUPERPOSE)
        for b in (OPEN_CAVITIES, SUPERPOSE)
    }


def bell_test(alphas=None, alice_setting=OPEN_BOXES, bob_setting=OPEN_CAVITIES):
    """Joint probability table for one choice of measurement settings.

    Alice measures the shutter, Bob the collected probe.  OPEN settings are
    position measurements (boxes A, B, C; cavities by rail name); SUPERPOSE
    projects onto the equal superposition with no relative phases versus
    its complement ("match"/"rest").
    """
    state = _bell_state(alphas, alice_setting, bob_setting)
    return _bell_table(state, alice_setting, bob_setting)


def bell_marginals(table, side):
    """Marginal distribution of one side ("alice" or "bob") of a table."""
    if side not in ("alice", "bob"):
        raise BadParam(f"unknown side {side!r}; choose alice or bob")
    out = {}
    for (a, b), p in table.items():
        key = a if side == "alice" else b
        out[key] = out.get(key, 0.0) + p
    return out


def _no_signaling_gap(tables):
    gap = 0.0
    for a_setting in (OPEN_BOXES, SUPERPOSE):
        m0 = bell_marginals(tables[(a_setting, OPEN_CAVITIES)], "alice")
        m1 = bell_marginals(tables[(a_setting, SUPERPOSE)], "alice")
        for key in set(m0) | set(m1):
            gap = max(gap, abs(m0.get(key, 0.0) - m1.get(key, 0.0)))
    for b_setting in (OPEN_CAVITIES, SUPERPOSE):
        m0 = bell_marginals(tables[(OPEN_BOXES, b_setting)], "bob")
        m1 = bell_marginals(tables[(SUPERPOSE, b_setting)], "bob")
        for key in set(m0) | set(m1):
            gap = max(gap, abs(m0.get(key, 0.0) - m1.get(key, 0.0)))
    return gap


#: Position outcomes counted +1 in the CHSH combination.
_CHSH_ALICE_PLUS, _CHSH_BOB_PLUS = ("B",), ("RA1", "RB3")


def _chsh(tables):
    """CHSH combination E00 + E01 + E10 - E11 over the two available
    settings per side.

    Setting 0 is the position measurement, +1 on the outcomes in
    ``_CHSH_ALICE_PLUS`` / ``_CHSH_BOB_PLUS``; setting 1 is the
    superposition projector, +1 on "match".  The value is reported, not
    asserted against any bound.
    """
    alice = ((OPEN_BOXES, _CHSH_ALICE_PLUS), (SUPERPOSE, ("match",)))
    bob = ((OPEN_CAVITIES, _CHSH_BOB_PLUS), (SUPERPOSE, ("match",)))
    value = 0.0
    for i, (a_setting, a_plus) in enumerate(alice):
        for j, (b_setting, b_plus) in enumerate(bob):
            table = tables[(a_setting, b_setting)]
            e = sum((1.0 if a in a_plus else -1.0)
                    * (1.0 if b in b_plus else -1.0) * p
                    for (a, b), p in table.items())
            value += (-1.0 if i == j == 1 else 1.0) * e / sum(table.values())
    return value


def bell_scenario(alphas=None, alice_setting=OPEN_BOXES,
                  bob_setting=OPEN_CAVITIES):
    """ScenarioResult of :func:`bell_test` for one setting pair, for
    reporting, with the no-signaling gap and the CHSH value as its
    ``metadata``.

    The Bell state is propagated once, as a stack of one in
    :func:`_bell_states`; the reported table, the gap and the CHSH value
    all come from its four clamped tables.
    """
    state = _bell_state(alphas, alice_setting, bob_setting)
    tables, summary, spectrum = _bell_report(state)
    outcomes = {
        f"shutter={a}|probe={b}": p
        for (a, b), p in tables[(alice_setting, bob_setting)].items()
    }
    return ScenarioResult(
        name="bell_test",
        conditional_probabilities=outcomes,
        fidelity_to_target=None,
        weak_values={},
        abl_values={},
        schmidt_spectrum=spectrum,
        metadata=summary,
    )


def _bell_report(state):
    """The four clamped tables of a Bell state, its summary (the
    no-signaling gap and the CHSH value) and its Schmidt spectrum."""
    tables = _bell_tables(state)
    summary = {"no_signaling_gap": _no_signaling_gap(tables),
               "chsh": _chsh(tables)}
    return tables, summary, spectrum_of(
        np.linalg.svd(state, compute_uv=False))


def bell_sweep(points):
    """``(summary, Schmidt spectrum)`` of :func:`bell_scenario` at each
    coefficient vector in ``points``, with OPEN/OPEN settings."""
    return [_bell_report(state)[1:] for state in _bell_states(points)]


# ---------------------------------------------------------------------------
# Registry: what the command line knows about each scenario
# ---------------------------------------------------------------------------

def _restored_with_certainty(result, tol):
    value = result.conditional_probabilities["restored_given_postselection"]
    return abs(value - 1.0) <= tol


def _reflected_with_fidelity_one(result, tol):
    value = result.conditional_probabilities["reflected_given_postselection"]
    return (abs(value - 1.0) <= tol
            and abs(result.fidelity_to_target - 1.0) <= tol)


def _bell_consistent(result, tol):
    total = sum(result.conditional_probabilities.values())
    return (abs(total - 1.0) <= tol
            and result.metadata["no_signaling_gap"] <= tol)


@dataclass(frozen=True)
class Scenario:
    """One entry of :data:`SCENARIOS`.

    ``evaluate(alphas, perturbation, settings)`` runs the scenario, where
    ``settings`` is an (Alice, Bob) pair that only ``takes_settings``
    scenarios read.  The evaluators and ``sweep`` call the scenario
    functions through their module-level names, so rebinding a name (to
    trace or patch it) also reaches the registry.  ``arity`` is the number
    of probe coefficients; 0 means the scenario takes none and cannot be
    swept.
    ``certain(result, tol)`` checks the built-in claim of an unperturbed
    run.  What ``evaluate`` and ``sweep`` run that does not depend on the
    coefficients (spec, plan, block program, ABL and weak values) is built
    on a scenario's first call and kept for the process; each call does
    the coefficient work alone, starting with validating them.
    ``sweep(points)``, given for every scenario with coefficients,
    returns the ``(summary, Schmidt spectrum)`` record of each coefficient
    vector in ``points``, unperturbed and with OPEN/OPEN settings:
    beam-table scenarios build their plan once and propagate its beams as
    one stack (:func:`sweep_plan`), and ``bell_test`` propagates all its
    points' blocks as one stack in the :func:`_bell_states` that its
    ``evaluate`` runs on a stack of one.
    """

    evaluate: Callable
    arity: int
    certain: Callable
    perturbations: tuple = ()
    takes_settings: bool = False
    sweep: Callable | None = None


SCENARIOS = {
    "three_box_shutter": Scenario(
        lambda alphas, perturbation, settings: three_box_shutter(*alphas),
        arity=2,
        certain=_reflected_with_fidelity_one,
        sweep=lambda points: sweep_plan(
            build_three_box(*equal_alphas(2)), points),
    ),
    "disappearing_full": Scenario(
        lambda alphas, perturbation, settings: disappearing_full(
            alphas, perturbation),
        arity=5,
        certain=_restored_with_certainty,
        perturbations=("remove-shutter-C-t2", "extra-beam-A-t2",
                       "extra-beam-B-t2"),
        sweep=lambda points: sweep_plan(build_disappearing(), points),
    ),
    "simplified_3path": Scenario(
        lambda alphas, perturbation, settings: simplified_3path(perturbation),
        arity=0,
        certain=_restored_with_certainty,
        perturbations=("identity-routers", "wrong-box-t2"),
    ),
    "simplest_2path": Scenario(
        lambda alphas, perturbation, settings: simplest_2path(perturbation),
        arity=0,
        certain=_restored_with_certainty,
        perturbations=("swapped-slots", "vacuum-probe"),
    ),
    "absence_test": Scenario(
        lambda alphas, perturbation, settings: absence_test(perturbation),
        arity=0,
        certain=_restored_with_certainty,
        perturbations=("at-t1", "at-t3", "reflect-orientation"),
    ),
    "stricter_6beam": Scenario(
        lambda alphas, perturbation, settings: stricter_6beam(
            alphas, perturbation),
        arity=6,
        certain=_restored_with_certainty,
        perturbations=("flip-A-t2", "flip-B-t2"),
        sweep=lambda points: sweep_plan(build_stricter_6beam(), points),
    ),
    "bell_test": Scenario(
        lambda alphas, perturbation, settings: bell_scenario(
            alphas, *settings),
        arity=5,
        certain=_bell_consistent,
        takes_settings=True,
        sweep=lambda points: bell_sweep(points),
    ),
}


def check_perturbation(name, perturbation):
    """Raise :class:`BadParam` unless ``perturbation`` is None or one of
    the named perturbations of scenario ``name``."""
    allowed = SCENARIOS[name].perturbations
    if perturbation is not None and perturbation not in allowed:
        raise BadParam(
            f"unknown perturbation {perturbation!r} for {name}; "
            f"choose from: {', '.join(allowed) or 'none'}"
        )
