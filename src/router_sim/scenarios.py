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
B and C plus at most one probe photon, so it is read once into a
3 x (1 + n_probe) amplitude block (:func:`_read_block`): rows are boxes,
column 0 is the probe vacuum and column 1 + p is probe mode p.  Runs and
compiled sweeps measure stacks of blocks with one function
(:func:`_measure`), and the Bell tables are matrix algebra on the block's
cavity columns.  Probabilities are computed exactly from amplitudes;
there is no sampling.
Perturbed variants (wrong box, wrong time, switched router orientation,
extra probe beam) are first-class because the certainty claims of the
unperturbed schedules are only meaningful against such counterfactuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import tsvf
from .elements import (
    Element,
    RouterOrientation,
    evolve,
    mode_unitary,
    pqr_ideal,
    propagate,
)
from .errors import BadParam, UndefinedConditioning, UnsupportedSector
from .fock import (
    PRUNE_EPSILON,
    FockState,
    Sectors,
    normalized_rows,
    pruned,
    spectrum_of,
    superposition_source,
)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

#: tolerance on |alpha|² sums supplied by callers
_NORM_TOL = 1e-9


@dataclass
class ScenarioResult:
    """Structured output of one scenario run."""

    name: str
    conditional_probabilities: dict
    conditioned_probe_state: FockState | None
    fidelity_to_target: float | None
    weak_values: dict
    abl_values: dict
    schmidt_spectrum: list | None
    metadata: dict


@dataclass
class ScenarioPlan:
    """Concrete schedule of one scenario, consumable by oracle tests.

    ``spec`` is the two-state description of the shutter the plan runs:
    ``schedule`` holds its tunneling segments with the routers placed at
    their checkpoints.  ``probes`` and ``kept_ports`` give each beam's probe
    mode and kept port in coefficient order.  ``merge`` is the final
    recombination unitary over ``kept_ports``, whose first port is the
    restored one (absent for scenarios that report on the bare reflected
    rails).
    """

    name: str
    initial: FockState
    schedule: list
    spec: tsvf.TwoStateSpec
    probes: list
    kept_ports: list
    alphas: np.ndarray
    merge: Element | None
    outcome_label: str
    metadata: dict = field(default_factory=dict)

    @property
    def shutter_post(self):
        return self.spec.post

    @property
    def probe_modes(self):
        """The modes after the shutter's: probe modes, then rails."""
        return self.initial.modes[len(self.spec.post.modes):]

    @property
    def kept_columns(self):
        """Columns of the kept ports in the amplitude block (see
        :func:`_read_block`)."""
        return [1 + self.probe_modes.index(m) for m in self.kept_ports]

    @property
    def full_schedule(self):
        if self.merge is None:
            return list(self.schedule)
        return list(self.schedule) + [self.merge]


def as_alpha_vector(alphas, arity):
    """``alphas`` as a complex vector of length ``arity``; raises
    :class:`BadParam` unless it has that length, finite entries and unit
    norm."""
    alphas = np.asarray(list(alphas), dtype=complex)
    if alphas.shape != (arity,):
        raise BadParam(f"expected {arity} coefficients, got {alphas.shape}")
    if not np.isfinite(alphas).all():
        raise BadParam("coefficients are not finite")
    with np.errstate(over="ignore"):
        total = float(np.sum(np.abs(alphas) ** 2))
    if abs(total - 1.0) > _NORM_TOL:
        raise BadParam(f"coefficients are not normalized: sum |a|^2 = {total}")
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
    norms = np.array([[np.linalg.norm(r)] for r in rows])
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


def _prepare(shutter_pre_state, probe_sources):
    """The shutter pre-state followed by the ``(mode, weight)`` probe
    modes, with one probe photon over the modes whose weight is not None."""
    empty = (0,) * len(probe_sources)
    state = FockState(
        shutter_pre_state.modes + tuple(m for m, _ in probe_sources),
        {c + empty: a for c, a in shutter_pre_state.amplitudes.items()},
    )
    live = {m: w for m, w in probe_sources if w is not None}
    if live:
        state = superposition_source(state, live)
    return state


def _read_block(plan, sectors):
    """The amplitude block of ``sectors``, a state over ``plan``'s modes,
    or the stack of blocks of a stacked ``two``.

    Row s is shutter mode s.  Column 0 holds |1_s> with every probe mode
    empty and column 1 + p holds |1_s 1_p> for probe mode p, pruned as
    :meth:`~router_sim.fock.Sectors.fock_amplitudes` prunes.  Raises
    :class:`UnsupportedSector` if any other Fock amplitude is nonzero.
    """
    s = len(plan.spec.post.modes)
    one, two = sectors.one, sectors.two
    if two is None:
        two = np.zeros((len(one), len(one)), dtype=complex)
    pairs = np.where(np.eye(len(one), dtype=bool), two, SQRT2 * two)
    vacuum_column = np.broadcast_to(one[:s, None], pairs.shape[:-2] + (s, 1))
    block = pruned(np.concatenate([vacuum_column, pairs[..., :s, s:]], -1))
    pairs[..., :s, s:] = pairs[..., s:, :s] = 0
    outside = np.concatenate([[sectors.vacuum], one[s:], pairs.ravel()])
    if np.any(np.abs(outside) >= PRUNE_EPSILON):
        raise UnsupportedSector(
            f"a state of {plan.name} has amplitude outside one shutter "
            "photon and at most one probe photon"
        )
    return block


def _measure(plan, points, joint, merges):
    """Measure ``plan`` on the stacked blocks ``joint`` of its state ahead
    of the merge, one per coefficient vector in ``points``.

    ``merges`` stacks each point's recombination unitary over the kept
    ports (None when the plan has no merge).  Returns, per point, the
    outcome partition, the fidelity of the post-selected probe to the
    coefficients on the kept ports, the Schmidt spectrum of the shutter
    versus the probe, and the post-selected probe ahead of the merge as a
    normalized row in the block's column layout.
    """
    kept = plan.kept_columns
    post = Sectors(plan.spec.post).one.conj()

    def postselect(joint):
        probes = np.einsum("s,nsp->np", post, joint)
        return (normalized_rows(pruned(probes)),
                np.sum(np.abs(probes) ** 2, axis=-1))

    singular = np.linalg.svd(joint, compute_uv=False)
    premerge, _ = postselect(joint)
    fidelities = np.abs(np.einsum(
        "nk,nk->n", pruned(points).conj(), premerge[:, kept]
    )) ** 2

    if merges is not None:
        merged = joint.copy()
        merged[:, :, kept] = joint[:, :, kept] @ merges.transpose(0, 2, 1)
        joint = pruned(merged)
    probes, p_posts = postselect(joint)
    if np.any(p_posts < 1e-24):
        raise UndefinedConditioning(
            f"post-selection never succeeds in scenario {plan.name}"
        )
    restored = kept[:1] if merges is not None else kept
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
    """Propagate a plan and assemble its :class:`ScenarioResult` from the
    amplitude block of its state ahead of the merge."""
    joint = _read_block(plan, propagate(plan.initial, plan.schedule))
    merges = None if plan.merge is None else plan.merge.params["matrix"][None]
    ((conditionals, fid, spectrum, probe),) = _measure(
        plan, plan.alphas[None], joint[None], merges
    )
    # Block column 0 is the probe vacuum, column 1 + p one photon in mode p.
    n = len(plan.probe_modes)
    configs = map(tuple, np.eye(n + 1, n, -1, dtype=int).tolist())
    metadata = dict(plan.metadata)
    metadata["alphas"] = [complex(a) for a in plan.alphas]
    return ScenarioResult(
        name=plan.name,
        conditional_probabilities=conditionals,
        conditioned_probe_state=FockState(
            plan.probe_modes, dict(zip(configs, probe.tolist()))
        ),
        fidelity_to_target=fid,
        weak_values={},
        abl_values={},
        schmidt_spectrum=spectrum,
        metadata=metadata,
    )


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


def _attach_tsvf(result, spec):
    for time in sorted(spec.checkpoints):
        for box, (abl, weak) in tsvf.checkpoint_values(spec, time).items():
            result.abl_values[(box, time)] = abl
            result.weak_values[(box, time)] = weak


_REFLECT = RouterOrientation.REFLECT_ON_MATCH
_TRANSMIT = RouterOrientation.TRANSMIT_ON_MATCH


def _beam_table_plan(name, spec, beams, alphas, metadata, routers=True,
                     probe_photon=True, recombine=True):
    """Plan of the two-state shutter ``spec`` probed by a table of beams.

    Each beam ``(tag, box, checkpoint, orientation)`` joins probe mode
    ``P<tag>`` and rail ``R<tag>`` (reflect) or ``X<tag>`` (transmit) by a
    router controlled by ``spec``'s mode of ``box``; it runs at the
    checkpoint, ahead of the segment that starts there.  The probe photon
    is spread over the probe modes with weights ``alphas``.  ``recombine``
    merges the kept ports by the adjoint of the splitting, restoring onto
    the first; ``routers=False`` leaves the routers out of the schedule and
    ``probe_photon=False`` prepares the probe modes empty.
    """
    probes = ["P" + tag for tag, _, _, _ in beams]
    rails = [("R" if orientation is _REFLECT else "X") + tag
             for tag, _, _, orientation in beams]
    sources = [
        (p, a if probe_photon else None) for p, a in zip(probes, alphas)
    ]
    sources += [(r, None) for r in rails]

    at_boundary = [[] for _ in range(len(spec.segments) + 1)]
    kept = []
    for (_, box, checkpoint, orientation), p, r in zip(beams, probes, rails):
        router = pqr_ideal(p, r, spec.box_modes[box], orientation)
        kept.append(router.kept_port)
        if routers:
            at_boundary[spec.boundary(checkpoint)].append(router)
    schedule = at_boundary[0]
    for segment, placed in zip(spec.segments, at_boundary[1:]):
        schedule += segment + placed

    return ScenarioPlan(
        name=name,
        initial=_prepare(spec.pre, sources),
        schedule=schedule,
        spec=spec,
        probes=probes,
        kept_ports=kept,
        alphas=alphas,
        merge=(mode_unitary(unitary_with_first_row(alphas.conj()), kept)
               if recombine else None),
        outcome_label="restored" if recombine else "reflected",
        metadata=metadata,
    )


# ---------------------------------------------------------------------------
# Static three-box shutter
# ---------------------------------------------------------------------------

def build_three_box(alpha1, alpha2):
    return _beam_table_plan(
        "three_box_shutter", tsvf.three_box_spec(),
        [("A", "A", "t", _REFLECT), ("B", "B", "t", _REFLECT)],
        as_alpha_vector([alpha1, alpha2], 2), {}, recombine=False,
    )


def three_box_shutter(alpha1, alpha2):
    """Probe split over boxes A and B against the static three-box shutter.

    The conditioned probe retains its initial coherent superposition on the
    reflected rails with fidelity one, for any normalized coefficients.
    """
    plan = build_three_box(alpha1, alpha2)
    result = run_plan(plan)
    _attach_tsvf(result, plan.spec)
    return result


# ---------------------------------------------------------------------------
# Tunneling schemes: beam tables over the disappearing shutter
# ---------------------------------------------------------------------------

def build_disappearing(alphas=None, perturbation=None):
    check_perturbation("disappearing_full", perturbation)
    alphas = equal_alphas(5) if alphas is None else as_alpha_vector(alphas, 5)
    beams = [
        ("A1", "A", "t1", _REFLECT),
        ("C1", "C", "t1", _REFLECT),
        ("C2", "C", "t2", _REFLECT),
        ("B3", "B", "t3", _REFLECT),
        ("C3", "C", "t3", _REFLECT),
    ]
    extra_box = {"extra-beam-A-t2": "A", "extra-beam-B-t2": "B"}.get(
        perturbation
    )
    if extra_box is not None:
        beams.insert(3, ("X2", extra_box, "t2", _REFLECT))
        weight = 1.0 / math.sqrt(6.0)
        shrunk = alphas * math.sqrt(1.0 - weight**2)
        alphas = np.concatenate(
            [shrunk[:3], [weight], shrunk[3:]]
        )
    spec = tsvf.disappearing_spec()
    if perturbation == "remove-shutter-C-t2":
        pre = tsvf.shutter_state((1 / math.sqrt(2), 1j / math.sqrt(2), 0.0))
        spec = replace(spec, pre=pre)
    return _beam_table_plan(
        "disappearing_full", spec, beams, alphas,
        {"perturbation": perturbation},
    )


def disappearing_full(alphas=None, perturbation=None):
    """Five-beam spatiotemporal probe against the tunneling shutter.

    The probe interrogates boxes A and C at t1, C at t2 and B and C at t3;
    with the unperturbed schedule the recombined probe is detected on its
    original rail with conditional probability one once the shutter
    post-selection succeeds.
    """
    plan = build_disappearing(alphas, perturbation)
    result = run_plan(plan)
    if perturbation is None:
        _attach_tsvf(result, plan.spec)
    return result


def build_simplified_3path(variant=None):
    check_perturbation("simplified_3path", variant)
    t2_box = "A" if variant == "wrong-box-t2" else "C"
    beams = [
        ("A1", "A", "t1", _REFLECT),
        (t2_box + "2", t2_box, "t2", _REFLECT),
        ("B3", "B", "t3", _REFLECT),
    ]
    return _beam_table_plan(
        "simplified_3path", tsvf.disappearing_spec(), beams, equal_alphas(3),
        {"variant": variant}, routers=variant != "identity-routers",
    )


def simplified_3path(variant=None):
    """Three-beam probe: reflections at A(t1), C(t2) and B(t3)."""
    return run_plan(build_simplified_3path(variant))


def build_simplest_2path(variant=None):
    check_perturbation("simplest_2path", variant)
    if variant == "swapped-slots":
        beams = [("C1", "C", "t1", _REFLECT), ("A2", "A", "t2", _REFLECT)]
    else:
        beams = [("A1", "A", "t1", _REFLECT), ("C2", "C", "t2", _REFLECT)]
    metadata = {
        "variant": variant,
        # The unity restoration certifies reflection at A(t1) and
        # C(t2); equivalently it certifies the shutter's absence from
        # A at the in-between slot.  Both readings are reported.
        "readings": [
            "reflection from A(t1) and C(t2) with certainty",
            "absence of the shutter from box A after t1",
        ],
    }
    return _beam_table_plan(
        "simplest_2path", tsvf.disappearing_spec(), beams, equal_alphas(2),
        metadata, probe_photon=variant != "vacuum-probe",
    )


def simplest_2path(variant=None):
    """Two-beam probe: reflections at A(t1) and C(t2)."""
    return run_plan(build_simplest_2path(variant))


# ---------------------------------------------------------------------------
# Absence test (transmit-orientation routers at t2)
# ---------------------------------------------------------------------------

def build_absence_test(variant=None):
    check_perturbation("absence_test", variant)
    slot = {"at-t1": "t1", "at-t3": "t3"}.get(variant, "t2")
    orientation = _REFLECT if variant == "reflect-orientation" else _TRANSMIT
    beams = [("A", "A", slot, orientation), ("B", "B", slot, orientation)]
    return _beam_table_plan(
        "absence_test", tsvf.disappearing_spec(), beams, equal_alphas(2),
        {"variant": variant, "slot": slot},
    )


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
    beams = [
        ("A1", "A", "t1", _REFLECT),
        ("C1", "C", "t1", _REFLECT),
        ("A2", "A", "t2", _REFLECT if flip == "flip-A-t2" else _TRANSMIT),
        ("B2", "B", "t2", _REFLECT if flip == "flip-B-t2" else _TRANSMIT),
        ("B3", "B", "t3", _REFLECT),
        ("C3", "C", "t3", _REFLECT),
    ]
    return _beam_table_plan(
        "stricter_6beam", tsvf.disappearing_spec(), beams, alphas,
        {"flip": flip},
    )


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


def _bell_state(alphas, product_control=False):
    """Shutter-probe amplitudes with the probe collected in the cavities.

    Runs the five-beam schedule up to (not including) post-selection and
    keeps the block's cavity columns: the idealized setting where Bob has
    collected the reflected probe photon in five separate cavities.
    Returns that normalized 3 x 5 matrix (rows boxes A, B, C) and the
    cavity names.  With ``product_control=True`` an unentangled reference
    state with the same marginals' supports is built instead.
    """
    plan = build_disappearing(alphas)
    if product_control:
        shutter = tsvf.shutter_state((1 / SQRT3, -1j / SQRT3, 1 / SQRT3))
        collected = np.outer(Sectors(shutter).one, plan.alphas)
    else:
        block = _read_block(plan, propagate(plan.initial, plan.schedule))
        collected = block[:, plan.kept_columns]
    if np.sum(np.abs(collected) ** 2) < 1e-24:
        raise UndefinedConditioning("the probe is never reflected")
    state = normalized_rows(collected.ravel()).reshape(collected.shape)
    return state, plan.kept_ports


def _check_settings(alice_setting, bob_setting):
    if alice_setting not in (OPEN_BOXES, SUPERPOSE):
        raise BadParam(f"unknown Alice setting {alice_setting!r}")
    if bob_setting not in (OPEN_CAVITIES, SUPERPOSE):
        raise BadParam(f"unknown Bob setting {bob_setting!r}")


def _bell_table(bell, alice_setting, bob_setting):
    """Clamped joint probability table of one setting pair on the
    ``(state, cavities)`` pair from :func:`_bell_state`."""
    state, cavities = bell
    alice = Sectors(tsvf.shutter_state((1 / SQRT3,) * 3)).one.conj()
    bob = np.full(len(cavities), 1 / math.sqrt(len(cavities)))
    probs = np.abs(state) ** 2

    if alice_setting == OPEN_BOXES and bob_setting == OPEN_CAVITIES:
        table = {(box, cavity): probs[s, c]
                 for s, box in enumerate("ABC")
                 for c, cavity in enumerate(cavities)}
    elif alice_setting == OPEN_BOXES:
        p_match = np.abs(state @ bob) ** 2
        table = {}
        for box, p_box, p in zip("ABC", probs.sum(axis=1), p_match):
            table[(box, "match")] = p
            table[(box, "rest")] = p_box - p
    elif bob_setting == OPEN_CAVITIES:
        p_match = np.abs(alice @ state) ** 2
        table = {}
        for cavity, p_cavity, p in zip(cavities, probs.sum(axis=0), p_match):
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


def _bell_tables(bell):
    """The clamped tables of all four setting pairs on one Bell state."""
    return {
        (a, b): _bell_table(bell, a, b)
        for a in (OPEN_BOXES, SUPERPOSE)
        for b in (OPEN_CAVITIES, SUPERPOSE)
    }


def bell_test(alphas=None, alice_setting=OPEN_BOXES, bob_setting=OPEN_CAVITIES,
              product_control=False):
    """Joint probability table for one choice of measurement settings.

    Alice measures the shutter, Bob the collected probe.  OPEN settings are
    position measurements (boxes A, B, C; cavities by rail name); SUPERPOSE
    projects onto the equal superposition with no relative phases versus
    its complement ("match"/"rest").
    """
    _check_settings(alice_setting, bob_setting)
    bell = _bell_state(alphas, product_control)
    return _bell_table(bell, alice_setting, bob_setting)


def bell_marginals(table, side):
    """Marginal distribution of one side ("alice" or "bob") of a table."""
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
                  bob_setting=OPEN_CAVITIES, product_control=False):
    """ScenarioResult of :func:`bell_test` for one setting pair, for
    reporting.

    The Bell state is built once; the reported table, the no-signaling gap
    and the CHSH value all come from its four clamped tables.
    """
    alphas_vec = equal_alphas(5) if alphas is None else as_alpha_vector(alphas, 5)
    _check_settings(alice_setting, bob_setting)
    bell = _bell_state(alphas_vec, product_control)
    tables = _bell_tables(bell)
    spectrum = spectrum_of(np.linalg.svd(bell[0], compute_uv=False))
    outcomes = {
        f"shutter={a}|probe={b}": p
        for (a, b), p in tables[(alice_setting, bob_setting)].items()
    }
    return ScenarioResult(
        name="bell_test",
        conditional_probabilities=outcomes,
        conditioned_probe_state=None,
        fidelity_to_target=None,
        weak_values={},
        abl_values={},
        schmidt_spectrum=spectrum,
        metadata={
            "alphas": [complex(a) for a in alphas_vec],
            "alice_setting": alice_setting,
            "bob_setting": bob_setting,
            "product_control": product_control,
            "no_signaling_gap": _no_signaling_gap(tables),
            "chsh": _chsh(tables),
        },
    )


# ---------------------------------------------------------------------------
# Compiled sweeps: a beam-table plan as a linear map of its coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepMap:
    """A beam-table plan compiled for coefficient sweeps.

    The schedule does not depend on the probe coefficients, so the joint
    state ahead of the merge is ``sum_k alpha_k basis[k]``, where
    ``basis[k]`` is the amplitude block (see :func:`_read_block`) of the
    plan run with the probe photon in beam k alone.
    """

    plan: ScenarioPlan
    basis: np.ndarray

    def evaluate(self, points):
        """``(summary, Schmidt spectrum)`` of each coefficient vector in
        ``points``, measured as :func:`run_plan` measures one point."""
        points = np.asarray(points, dtype=complex)
        joint = pruned(np.einsum("nk,ksp->nsp", points, self.basis))
        merges = (None if self.plan.merge is None
                  else unitary_with_first_row(points.conj()))
        return [
            ({**conditionals, "fidelity": fid}, spectrum)
            for conditionals, fid, spectrum, _ in _measure(
                self.plan, points, joint, merges)
        ]


def compile_sweep(plan):
    """:class:`SweepMap` of a beam-table ``plan``: every beam in one evolve.

    Raises :class:`UnsupportedSector` if a beam's state has any amplitude
    outside its block.
    """
    first = plan.probes[0]
    sectors = Sectors(_prepare(plan.spec.pre, [
        (m, 1.0 if m == first else None) for m in plan.probe_modes
    ]))
    # Beam k's state is the first beam's with the modes of their probes
    # swapped: the same amplitudes, moved.
    beams = [sectors.state.index_of(p) for p in plan.probes]
    perms = np.tile(np.arange(len(sectors.one)), (len(beams), 1))
    perms[np.arange(len(beams)), beams] = beams[0]
    perms[:, beams[0]] = beams
    sectors.two = sectors.two[perms[:, :, None], perms[:, None, :]]
    evolve(sectors, plan.schedule)
    return SweepMap(plan, _read_block(plan, sectors))


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


def _outcome_summary(result):
    summary = dict(result.conditional_probabilities)
    summary["fidelity"] = result.fidelity_to_target
    return summary


def _bell_summary(result):
    return {
        "no_signaling_gap": result.metadata["no_signaling_gap"],
        "chsh": result.metadata["chsh"],
    }


@dataclass(frozen=True)
class Scenario:
    """One entry of :data:`SCENARIOS`.

    ``evaluate(alphas, perturbation, settings)`` runs the scenario, where
    ``settings`` is an (Alice, Bob) pair that only ``takes_settings``
    scenarios read.  The evaluators and ``build`` call the scenario
    functions through their module-level names, so rebinding a name (to
    trace or patch it) also reaches the registry.  ``arity`` is the number
    of probe coefficients; 0 means the scenario takes none and cannot be
    swept.
    ``certain(result, tol)`` checks the built-in claim of an unperturbed
    run and ``summarize(result)`` gives a sweep record's summary.
    ``build()``, given for beam-table scenarios, builds the unperturbed
    plan that :meth:`sweep` compiles; without it a sweep evaluates each
    point.
    """

    evaluate: Callable
    arity: int
    certain: Callable
    perturbations: tuple = ()
    summarize: Callable = _outcome_summary
    takes_settings: bool = False
    build: Callable | None = None

    def sweep(self, points):
        """``(summary, Schmidt spectrum)`` of each coefficient vector in
        ``points``, unperturbed and with OPEN/OPEN settings."""
        if self.build is not None:
            return compile_sweep(self.build()).evaluate(points)
        records = []
        for point in points:
            result = self.evaluate(point, None, (OPEN_BOXES, OPEN_CAVITIES))
            records.append((self.summarize(result),
                            list(result.schmidt_spectrum or [])))
        return records


SCENARIOS = {
    "three_box_shutter": Scenario(
        lambda alphas, perturbation, settings: three_box_shutter(*alphas),
        arity=2,
        certain=_reflected_with_fidelity_one,
        build=lambda: build_three_box(*equal_alphas(2)),
    ),
    "disappearing_full": Scenario(
        lambda alphas, perturbation, settings: disappearing_full(
            alphas, perturbation),
        arity=5,
        certain=_restored_with_certainty,
        perturbations=("remove-shutter-C-t2", "extra-beam-A-t2",
                       "extra-beam-B-t2"),
        build=lambda: build_disappearing(),
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
        build=lambda: build_stricter_6beam(),
    ),
    "bell_test": Scenario(
        lambda alphas, perturbation, settings: bell_scenario(
            alphas, *settings),
        arity=5,
        certain=_bell_consistent,
        summarize=_bell_summary,
        takes_settings=True,
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
