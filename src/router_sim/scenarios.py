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
(:func:`run_plan`), sweeps (:func:`sweep_plan`) and Bell runs and sweeps
(:func:`_bell_states`) propagate their points' blocks as one stack, a run
as a stack of one, and a point's numbers do not depend on its stack.  Beam
tables are measured by one function (:func:`_measure`), the Bell tables
and summary by array algebra on the cavity columns (:func:`_bell_report`).
A sweep returns arrays, not one record per point (:class:`Scenario`).
Probabilities are computed exactly from amplitudes; there is no sampling.
Perturbed variants (wrong box, wrong time, switched router orientation,
extra probe beam) are first-class because the certainty claims of the
unperturbed schedules are only meaningful against such counterfactuals.
They are data: each beam-table scenario's entry of :data:`_TABLES` holds
its plan arguments and, next to them, each named perturbation as just
the arguments it changes, and one builder (:func:`_build`) reads it.

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
    running_sum,
    spectra_of,
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
        rows = self.alphas.conj()[None]
        return mode_unitary(unitary_with_first_row(rows)[0], self.kept_ports)

    @property
    def kept_columns(self):
        """Block columns of the kept ports (see :func:`_propagate`)."""
        return [1 + self.probe_modes.index(m) for m in self.kept_ports]

    @property
    def full_schedule(self):
        return list(self.schedule) + ([self.merge] if self.recombine else [])


def as_alpha_vector(alphas, arity):
    """``alphas`` as a complex vector of length ``arity``; raises
    :class:`BadCoefficients` unless it has that length and passes
    :func:`as_alpha_vectors` as a stack of one."""
    alphas = np.asarray(list(alphas), dtype=complex)
    if alphas.shape != (arity,):
        raise BadCoefficients(
            f"expected {arity} coefficients, got {alphas.shape}")
    return as_alpha_vectors(alphas[None], arity)[0]


def as_alpha_vectors(points, arity):
    """``points`` as an (n, ``arity``) complex array, one coefficient
    vector per row; raises :class:`BadCoefficients` unless every row has
    ``arity`` finite entries and unit norm.  The message names the first
    bad row of a stack of more than one."""
    points = np.asarray(points, dtype=complex)
    if points.ndim != 2 or points.shape[1] != arity:
        raise BadCoefficients(
            f"expected rows of {arity} coefficients, got {points.shape}")
    with np.errstate(over="ignore"):
        totals = (np.abs(points) ** 2).sum(axis=1)
    # A row with a NaN or an infinite entry has a NaN or infinite total,
    # which fails this test, so only a failing stack is checked for them.
    unit = np.abs(totals - 1.0) <= _NORM_TOL
    if not unit.all():
        if not np.isfinite(points).all():
            raise BadCoefficients("coefficients are not finite")
        i = unit.argmin()
        where = f" at point {i}" if len(points) > 1 else ""
        raise BadCoefficients(
            f"coefficients are not normalized: sum |a|^2 = {totals[i]}"
            + where)
    return points


def equal_alphas(n):
    return np.full(n, 1.0 / math.sqrt(n), dtype=complex)


def unitary_with_first_row(rows):
    """The stack of unitaries whose first rows are the unit vectors of the
    (n, k) stack ``rows``.

    Used to recombine the kept rails: applying one maps the superposition
    sum_k row_k* ... sum_k alpha_k |rail_k> onto the first rail exactly, so
    it is the adjoint of any splitting network producing those weights.
    """
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
    return q.conj().transpose(0, 2, 1)


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
    norms = np.sqrt(running_sum(squares))[:, None, None]
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


def _clamp(tables):
    """``tables`` with every negative probability, a rounding residue of
    a difference, raised to zero."""
    return np.maximum(tables, 0.0)


def _measure(plan, points, joint):
    """Measure ``plan`` on the stacked blocks ``joint`` of its state ahead
    of the merge, one per coefficient vector in ``points``.

    With ``plan.recombine``, each point's kept ports are merged by the
    unitary whose first row is its conjugated coefficients.  Returns the
    summary field names (:func:`_summary_fields`), the (n, 6) matrix of
    their values at each point (the outcome partition, then the fidelity
    of the post-selected probe to the coefficients on the kept ports),
    clamped at zero, the Schmidt spectra of the shutter versus the probe
    (:func:`~router_sim.fock.spectra_of`), and the post-selected probes
    ahead of the merge as normalized rows in the block's column layout.
    """
    kept = plan.kept_columns
    bra = _program(plan).bra

    def postselect(joint):
        probes = np.einsum("s,nsp->np", bra, joint)
        return (normalized_rows(pruned(probes)),
                np.sum(np.abs(probes) ** 2, axis=-1))

    spectra = spectra_of(joint)
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
    values = np.array([p_posts, qs, p_posts * qs, p_posts * (1.0 - qs),
                       1.0 - p_posts, fidelities]).T
    return (_summary_fields(plan.outcome_label), _clamp(values), spectra,
            premerge)


def _summary_fields(label):
    """Names of a beam table's summary: the outcome partition from the
    post-selection probability and the probability of outcome ``label``
    given it, then the fidelity."""
    return ("postselection_success", f"{label}_given_postselection",
            f"postselected_and_{label}", f"postselected_not_{label}",
            "postselection_failed", "fidelity")


def run_plan(plan):
    """Propagate a plan's block and assemble its :class:`ScenarioResult`
    from it."""
    points = plan.alphas[None]
    fields, values, spectra, probes = _measure(
        plan, points, _propagate(plan, points))
    *outcomes, fidelity = values[0].tolist()
    return ScenarioResult(
        name=plan.name,
        conditional_probabilities=dict(zip(fields, outcomes)),
        fidelity_to_target=fidelity,
        weak_values={},
        abl_values={},
        schmidt_spectrum=spectrum_of(spectra[0]),
        metadata={},
        probe=(plan.probe_modes, probes[0]),
    )


def sweep_plan(plan, points):
    """The summary field names, their (n, 6) values and the Schmidt spectra
    of ``plan`` at the coefficient vectors ``points``, checked by
    :func:`as_alpha_vectors`: every point's block is propagated and
    measured in one stack, as :func:`run_plan` propagates and measures a
    stack of one, so each row holds the bits of that point's run."""
    points = as_alpha_vectors(points, len(plan.probes))
    return _measure(plan, points, _propagate(plan, points))[:3]


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
    of arguments; :func:`_build` reads them from :data:`_TABLES` and
    returns the plan with its coefficients.

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
# Beam-table scenarios: each one's table and perturbations, written once
# ---------------------------------------------------------------------------

def _beams(tags, transmit="", at=None):
    """Beams (tag, box, checkpoint, orientation) of ``tags``: tag ``"Xn"``
    probes box X at checkpoint ``at`` (by default tn), transmitting if it
    is in ``transmit`` and reflecting otherwise."""
    return tuple((tag, tag[0], at or f"t{tag[1]}",
                  _TRANSMIT if tag in transmit.split() else _REFLECT)
                 for tag in tags.split())


#: The :func:`_beam_table_plan` arguments of every beam-table scenario,
#: keyed by perturbation: None holds the unperturbed scenario's, then each
#: named perturbation, in the order the registry lists them, holds just
#: the arguments it changes.  ``extra`` is no plan argument but a beam
#: ``(position, beam, weight)`` that :func:`_build` inserts into the table
#: with a fixed coefficient.
_TABLES = {
    "three_box_shutter": {None: dict(shutter="three_box", recombine=False,
                                     beams=_beams("A B", at="t"))},
    "disappearing_full": {
        None: dict(shutter="disappearing", beams=_beams("A1 C1 C2 B3 C3")),
        "remove-shutter-C-t2": dict(shutter="remove-shutter-C-t2"),
        "extra-beam-A-t2": dict(
            extra=(3, ("X2", "A", "t2", _REFLECT), 1 / math.sqrt(6.0))),
        "extra-beam-B-t2": dict(
            extra=(3, ("X2", "B", "t2", _REFLECT), 1 / math.sqrt(6.0))),
    },
    "simplified_3path": {
        None: dict(shutter="disappearing", beams=_beams("A1 C2 B3")),
        "identity-routers": dict(routers=False),
        "wrong-box-t2": dict(beams=_beams("A1 A2 B3")),
    },
    "simplest_2path": {
        None: dict(shutter="disappearing", beams=_beams("A1 C2")),
        "swapped-slots": dict(beams=_beams("C1 A2")),
        "vacuum-probe": dict(probe_photon=False),
    },
    "absence_test": {
        None: dict(shutter="disappearing",
                   beams=_beams("A B", transmit="A B", at="t2")),
        "at-t1": dict(beams=_beams("A B", transmit="A B", at="t1")),
        "at-t3": dict(beams=_beams("A B", transmit="A B", at="t3")),
        "reflect-orientation": dict(beams=_beams("A B", at="t2")),
    },
    "stricter_6beam": {
        None: dict(shutter="disappearing",
                   beams=_beams("A1 C1 A2 B2 B3 C3", transmit="A2 B2")),
        "flip-A-t2": dict(beams=_beams("A1 C1 A2 B2 B3 C3", transmit="B2")),
        "flip-B-t2": dict(beams=_beams("A1 C1 A2 B2 B3 C3", transmit="A2")),
    },
}


def _build(name, perturbation, alphas):
    """The plan of beam-table scenario ``name`` under ``perturbation``
    (None: unperturbed), read from :data:`_TABLES`, with coefficients
    ``alphas``: checked for the scenario's arity, or equal over the
    table's beams if None.  An ``extra`` beam takes its weight, the other
    coefficients shrunk to keep the norm."""
    check_perturbation(name, perturbation)
    args = {**_TABLES[name][None], **_TABLES[name][perturbation]}
    alphas = (equal_alphas(len(args["beams"])) if alphas is None
              else as_alpha_vector(alphas, SCENARIOS[name].arity))
    if "extra" in args:
        at, beam, weight = args.pop("extra")
        args["beams"] = args["beams"][:at] + (beam,) + args["beams"][at:]
        shrunk = alphas * math.sqrt(1.0 - weight**2)
        alphas = np.concatenate([shrunk[:at], [weight], shrunk[at:]])
    return replace(_beam_table_plan(name, **args), alphas=alphas)


def build_three_box(alpha1, alpha2):
    return _build("three_box_shutter", None, (alpha1, alpha2))


def build_disappearing(alphas=None, perturbation=None):
    return _build("disappearing_full", perturbation, alphas)


def build_simplified_3path(variant=None):
    return _build("simplified_3path", variant, None)


def build_simplest_2path(variant=None):
    return _build("simplest_2path", variant, None)


def build_absence_test(variant=None):
    return _build("absence_test", variant, None)


def build_stricter_6beam(alphas=None, flip=None):
    return _build("stricter_6beam", flip, alphas)


def three_box_shutter(alpha1, alpha2):
    """Probe split over boxes A and B against the static three-box shutter.

    The conditioned probe retains its initial coherent superposition on the
    reflected rails with fidelity one, for any normalized coefficients.
    """
    result = run_plan(build_three_box(alpha1, alpha2))
    _attach_tsvf(result, "three_box")
    return result


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


def simplified_3path(variant=None):
    """Three-beam probe: reflections at A(t1), C(t2) and B(t3)."""
    return run_plan(build_simplified_3path(variant))


def simplest_2path(variant=None):
    """Two-beam probe: reflections at A(t1) and C(t2).

    The unity restoration has two readings: it certifies reflection from
    A(t1) and C(t2), and equivalently the shutter's absence from box A at
    the slot in between.
    """
    return run_plan(build_simplest_2path(variant))


def absence_test(variant=None):
    """Probe sent through boxes A and B at t2, transmitted when empty.

    Only the undisturbed transmissions through the predicted-empty boxes
    restore the probe's initial superposition with certainty.
    """
    return run_plan(build_absence_test(variant))


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
_CAVITIES = tuple("R" + tag for tag, _, _, _
                  in _TABLES["disappearing_full"][None]["beams"])


def _bell_states(points):
    """The Bell states of the coefficient vectors in ``points``, as one
    (n, 3, 5) stack: the normalized cavity columns (rows boxes A, B and C)
    of the five-beam schedule's blocks ahead of post-selection.

    The schedule is the unperturbed five-beam plan of
    :func:`disappearing_full`, whose merge the Bell analysis never reads;
    every point's block is propagated in one stack.
    """
    plan = _beam_table_plan("disappearing_full",
                            **_TABLES["disappearing_full"][None])
    collected = _propagate(plan, points)[:, :, plan.kept_columns]
    return normalized_rows(
        collected.reshape(len(collected), -1)).reshape(collected.shape)


def _bell_state(alphas, alice_setting, bob_setting):
    """The Bell state of one coefficient vector (equal weights if None), as
    a stack of one, after checking it and the two settings."""
    alphas = equal_alphas(5) if alphas is None else as_alpha_vector(alphas, 5)
    if alice_setting not in (OPEN_BOXES, SUPERPOSE):
        raise BadParam(f"unknown Alice setting {alice_setting!r}")
    if bob_setting not in (OPEN_CAVITIES, SUPERPOSE):
        raise BadParam(f"unknown Bob setting {bob_setting!r}")
    return _bell_states(alphas[None])


@functools.cache
def _alice_superposition():
    """Alice's SUPERPOSE bra: the equal superposition of boxes A, B and C,
    read-only because every table shares it."""
    return _frozen(Sectors(tsvf.shutter_state((1 / SQRT3,) * 3)).one.conj())


#: Bob's SUPERPOSE bra: the equal superposition of his five cavities.
_BOB_SUPERPOSITION = _frozen(np.full(len(_CAVITIES),
                                     1 / math.sqrt(len(_CAVITIES))))

_MATCH = ("match", "rest")

#: The (Alice, Bob) outcomes of the table of each setting pair, in table
#: order; SUPERPOSE measures the projector onto its equal superposition
#: ("match") against its complement ("rest").
_BELL_OUTCOMES = {
    (OPEN_BOXES, OPEN_CAVITIES): tuple((box, cavity) for box in "ABC"
                                       for cavity in _CAVITIES),
    (OPEN_BOXES, SUPERPOSE): tuple((box, m) for box in "ABC" for m in _MATCH),
    (SUPERPOSE, OPEN_CAVITIES): tuple((m, cavity) for cavity in _CAVITIES
                                      for m in _MATCH),
    (SUPERPOSE, SUPERPOSE): tuple((a, b) for a in _MATCH for b in _MATCH),
}

#: Outcomes counted +1 in the CHSH combination: Alice's box B and Bob's
#: cavities RA1 and RB3 for the position settings, "match" for SUPERPOSE.
_CHSH_ALICE_PLUS, _CHSH_BOB_PLUS = ("B", "match"), ("RA1", "RB3", "match")

#: The sign of each outcome of each table in the CHSH combination.
_CHSH_SIGNS = _frozen([
    [(1.0 if a in _CHSH_ALICE_PLUS else -1.0)
     * (1.0 if b in _CHSH_BOB_PLUS else -1.0) for a, b in outcomes]
    + [0.0] * (15 - len(outcomes))
    for outcomes in _BELL_OUTCOMES.values()
])

#: The summary fields of a Bell run or sweep.
_BELL_SUMMARY = ("no_signaling_gap", "chsh")


def _bell_tables(states):
    """The clamped joint probability tables of the four setting pairs on a
    stack of Bell states from :func:`_bell_states`, as one (n, 4, 15)
    array: ``[i, j]`` holds point i's table of the j-th pair of
    :data:`_BELL_OUTCOMES` in its outcome order, then zeros.

    Every probability takes the numpy operations that give it for one
    state at a time, so a stack of any size holds the same bits.  Three
    places where the obvious stacked form rounds differently are avoided.
    An (n, 5) @ (5,) product differs in the last bit from each row's own
    dot product, so Bob's SUPERPOSE amplitude of Alice's conditional state
    is an (n, 1, 5) @ (5,) product.  The modulus that ``abs()`` takes of a
    numpy complex scalar differs from the array ``np.abs`` and equals
    ``np.hypot(re, im)``.  Its square, taken of a scalar, is libm's
    ``pow``, so the array squares it with ``np.float_power``.
    """
    n = len(states)
    bob = _BOB_SUPERPOSITION
    probs = np.abs(states) ** 2
    bob_match = np.abs(states @ bob) ** 2
    given_alice = _alice_superposition() @ states
    alice_match = np.abs(given_alice) ** 2
    p_alice, p_bob = alice_match.sum(axis=1), bob_match.sum(axis=1)
    both = (given_alice[:, None, :] @ bob)[:, 0]
    p_both = np.float_power(np.hypot(both.real, both.imag), 2)

    tables = np.zeros((n, 4, 15))
    tables[:, 0] = probs.reshape(n, 15)
    tables[:, 1, 0:6:2] = bob_match
    tables[:, 1, 1:6:2] = probs.sum(axis=2) - bob_match
    tables[:, 2, 0:10:2] = alice_match
    tables[:, 2, 1:10:2] = probs.sum(axis=1) - alice_match
    tables[:, 3, 0] = p_both
    tables[:, 3, 1] = p_alice - p_both
    tables[:, 3, 2] = p_bob - p_both
    tables[:, 3, 3] = 1.0 - p_alice - p_bob + p_both
    return _clamp(tables)


def _table(tables, alice_setting, bob_setting):
    """One setting pair's table from one point's (4, 15) tables, as a dict
    keyed by (Alice outcome, Bob outcome)."""
    pair = (alice_setting, bob_setting)
    row = tables[list(_BELL_OUTCOMES).index(pair)]
    return dict(zip(_BELL_OUTCOMES[pair], row.tolist()))


def bell_test(alphas=None, alice_setting=OPEN_BOXES, bob_setting=OPEN_CAVITIES):
    """Joint probability table for one choice of measurement settings.

    Alice measures the shutter, Bob the collected probe.  OPEN settings are
    position measurements (boxes A, B, C; cavities by rail name); SUPERPOSE
    projects onto the equal superposition with no relative phases versus
    its complement ("match"/"rest").
    """
    states = _bell_state(alphas, alice_setting, bob_setting)
    return _table(_bell_tables(states)[0], alice_setting, bob_setting)


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
    """The largest change, at each point of :func:`_bell_tables`, of one
    side's marginal when the other side changes its setting.

    Each marginal adds its table's entries in table order, one after
    another, as :func:`bell_marginals` adds them.
    """
    n = len(tables)
    positions = tables[:, 0].reshape(n, 3, 5)       # box x cavity
    box_match = tables[:, 1, :6].reshape(n, 3, 2)   # box x (match, rest)
    match_cavity = tables[:, 2, :10].reshape(n, 5, 2)  # cavity x (m, r)
    both = tables[:, 3, :4].reshape(n, 2, 2)         # Alice x Bob
    changes = np.concatenate([
        # Alice's marginals as Bob switches, OPEN then SUPERPOSE for her ...
        running_sum(positions, 2) - running_sum(box_match, 2),
        running_sum(match_cavity, 1) - running_sum(both, 2),
        # ... and Bob's as Alice switches.
        running_sum(positions, 1) - running_sum(match_cavity, 2),
        running_sum(box_match, 1) - running_sum(both, 1),
    ], axis=1)
    return np.abs(changes).max(axis=1)


def _chsh(tables):
    """CHSH combination E00 + E01 + E10 - E11 over the two available
    settings per side, at each point of :func:`_bell_tables`.

    Setting 0 is the position measurement, +1 on the outcomes in
    ``_CHSH_ALICE_PLUS`` / ``_CHSH_BOB_PLUS``; setting 1 is the
    superposition projector, +1 on "match".  Each correlation E is its
    table's signed entries over their sum, both added one after another in
    table order, and the four are added in that order from 0.0.  The value
    is reported, not asserted against any bound.
    """
    e = running_sum(tables * _CHSH_SIGNS, 2) / running_sum(tables, 2)
    return 0.0 + e[:, 0] + e[:, 1] + e[:, 2] - e[:, 3]


def bell_scenario(alphas=None, alice_setting=OPEN_BOXES,
                  bob_setting=OPEN_CAVITIES):
    """ScenarioResult of :func:`bell_test` for one setting pair, for
    reporting, with the no-signaling gap and the CHSH value as its
    ``metadata``.

    The Bell state is propagated as a stack of one in
    :func:`_bell_states` and reported by :func:`_bell_report`, as a Bell
    sweep reports its stack.
    """
    states = _bell_state(alphas, alice_setting, bob_setting)
    tables, values, spectra = _bell_report(states)
    outcomes = {
        f"shutter={a}|probe={b}": p
        for (a, b), p in _table(tables[0], alice_setting, bob_setting).items()
    }
    return ScenarioResult(
        name="bell_test",
        conditional_probabilities=outcomes,
        fidelity_to_target=None,
        weak_values={},
        abl_values={},
        schmidt_spectrum=spectrum_of(spectra[0]),
        metadata=dict(zip(_BELL_SUMMARY, values[0].tolist())),
    )


def _bell_report(states):
    """The four clamped tables of a stack of Bell states
    (:func:`_bell_tables`), the (n, 2) matrix of their summary (the
    no-signaling gap and the CHSH value) and their Schmidt spectra, from
    one stacked SVD."""
    tables = _bell_tables(states)
    values = np.array([_no_signaling_gap(tables), _chsh(tables)]).T
    return tables, values, spectra_of(states)


def bell_sweep(points):
    """The summary field names, their (n, 2) values and the Schmidt spectra
    of :func:`bell_scenario` with OPEN/OPEN settings at the coefficient
    vectors ``points``, checked by :func:`as_alpha_vectors`."""
    _, values, spectra = _bell_report(
        _bell_states(as_alpha_vectors(points, 5)))
    return _BELL_SUMMARY, values, spectra


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
    total = running_sum(list(result.conditional_probabilities.values()))
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
    swept.  ``perturbations`` are the names after None in a beam-table
    scenario's :data:`_TABLES` entry, in its order.
    ``certain(result, tol)`` checks the built-in claim of an unperturbed
    run.  ``sweep(points)``, given for every scenario with coefficients,
    evaluates it, unperturbed and with OPEN/OPEN settings, at each
    coefficient vector of the (n, ``arity``) array ``points``, which it
    checks first (:func:`as_alpha_vectors`).  It returns arrays, not one
    record per point: the tuple of summary field names, the (n, k) float
    matrix of their values, and the (n, r) Schmidt spectra, each row's
    coefficients largest first and then zeros
    (:func:`~router_sim.fock.spectra_of`).  A sweep propagates all its
    points' blocks as one stack and measures them together, on the path
    that ``evaluate`` runs on a stack of one (:func:`sweep_plan`,
    :func:`bell_sweep`), so each row holds the bits of that point's run.
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
        perturbations=tuple(_TABLES["disappearing_full"])[1:],
        sweep=lambda points: sweep_plan(build_disappearing(), points),
    ),
    "simplified_3path": Scenario(
        lambda alphas, perturbation, settings: simplified_3path(perturbation),
        arity=0,
        certain=_restored_with_certainty,
        perturbations=tuple(_TABLES["simplified_3path"])[1:],
    ),
    "simplest_2path": Scenario(
        lambda alphas, perturbation, settings: simplest_2path(perturbation),
        arity=0,
        certain=_restored_with_certainty,
        perturbations=tuple(_TABLES["simplest_2path"])[1:],
    ),
    "absence_test": Scenario(
        lambda alphas, perturbation, settings: absence_test(perturbation),
        arity=0,
        certain=_restored_with_certainty,
        perturbations=tuple(_TABLES["absence_test"])[1:],
    ),
    "stricter_6beam": Scenario(
        lambda alphas, perturbation, settings: stricter_6beam(
            alphas, perturbation),
        arity=6,
        certain=_restored_with_certainty,
        perturbations=tuple(_TABLES["stricter_6beam"])[1:],
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
