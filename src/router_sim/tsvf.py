"""Two-state-vector analysis of pre- and post-selected evolutions.

A :class:`TwoStateSpec` carries a preparation, a final-state selection and a
piecewise evolution split into segments; named checkpoints sit on segment
boundaries.  From it the module computes ABL probabilities of dichotomic
projective measurements and weak values of box projectors, both conditioned
on the pre- and post-selection.

The module works on the single-photon subspace over the three box modes
using the same sparse state machinery as the circuit simulator, so the
analytic predictions and the full photonic scenarios share one
representation and one oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

from .elements import apply_schedule, tunneling
from .errors import BadParam, UndefinedConditioning
from .fock import (
    FockState,
    inner_product,
    matches,
    project_pattern,
    register_modes,
    select,
    superposition_source,
)

# Conditioning denominators below this are treated as exactly zero.
_ZERO = 1e-24

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ProjectorSpec:
    """Projector onto one box at a named checkpoint."""

    box: str
    time: str


@dataclass(frozen=True)
class TwoStateSpec:
    """Pre-selected state, post-selected state and piecewise evolution.

    ``segments`` is an ordered sequence of element sequences; boundary
    ``i`` is the instant after the first ``i`` segments (boundary 0 is the
    preparation time).  ``checkpoints`` maps names like ``"t2"`` to
    boundary indices.  ``box_modes`` gives the name of the mode carrying
    each box.  The fields cannot be reassigned; :func:`dataclasses.replace`
    makes a variant.  The specs this module builds hold tuples and
    read-only mappings, so they can be shared.
    """

    pre: FockState
    post: FockState
    segments: tuple
    checkpoints: MappingProxyType
    box_modes: MappingProxyType

    def boundary(self, name):
        try:
            return self.checkpoints[name]
        except KeyError:
            raise BadParam(
                f"unknown checkpoint {name!r}; have {sorted(self.checkpoints)}"
            ) from None

    def forward_state(self, boundary):
        """Pre-selected state evolved to the given boundary."""
        state = self.pre
        for segment in self.segments[:boundary]:
            state = apply_schedule(state, segment)
        return state

    def backward_state(self, boundary):
        """Post-selected state carried back to the given boundary."""
        state = self.post
        for segment in reversed(self.segments[boundary:]):
            state = apply_schedule(state, segment, adjoint=True)
        return state

    def _box_pattern(self, box):
        box = str(box)
        if box not in self.box_modes:
            raise BadParam(f"unknown box {box!r}")
        return {self.box_modes[box]: 1}


def _checkpoint_amplitudes(spec, time, boxes):
    """``{box: (yes, no, full)}``: the transition amplitudes through each
    box projector at checkpoint ``time``, through its complement and in
    total, from one forward and one backward propagation."""
    boundary = spec.boundary(time)
    forward = spec.forward_state(boundary)
    backward = spec.backward_state(boundary)
    full_amp = inner_product(backward, forward)
    amplitudes = {}
    for box in boxes:
        projected, _ = select(forward, matches(forward, spec._box_pattern(box)))
        yes_amp = inner_product(backward, projected)
        amplitudes[box] = (yes_amp, full_amp - yes_amp, full_amp)
    return amplitudes


def _abl(amplitudes, proj, complement=False):
    yes_amp, no_amp, _ = amplitudes
    p_yes = abs(yes_amp) ** 2
    p_no = abs(no_amp) ** 2
    denominator = p_yes + p_no
    if denominator < _ZERO:
        raise UndefinedConditioning(
            f"post-selection unreachable for projector {proj}"
        )
    value = p_no / denominator if complement else p_yes / denominator
    return float(value)


def _weak(amplitudes):
    yes_amp, _, full_amp = amplitudes
    if abs(full_amp) ** 2 < _ZERO:
        raise UndefinedConditioning(
            "pre- and post-selection are orthogonal after full evolution"
        )
    return complex(yes_amp / full_amp)


def abl_probability(spec, proj, complement=False):
    """Probability of the dichotomic outcome {proj, 1-proj} at a checkpoint.

    Returns P(proj = 1 | pre, post) for the two-outcome measurement that
    opens exactly the named box; ``complement=True`` returns P(proj = 0).
    Raises :class:`UndefinedConditioning` if the post-selection is
    unreachable through both outcomes.
    """
    amplitudes = _checkpoint_amplitudes(spec, proj.time, [proj.box])
    return _abl(amplitudes[proj.box], proj, complement)


def weak_value(spec, proj):
    """Weak value of the box projector at a checkpoint.

    <post| U Π U |pre> / <post| U |pre>; may lie outside [0, 1].
    """
    amplitudes = _checkpoint_amplitudes(spec, proj.time, [proj.box])
    return _weak(amplitudes[proj.box])


def checkpoint_values(spec, time):
    """``{box: (ABL probability, weak value)}`` of each box projector at
    one checkpoint.

    The same numbers as :func:`abl_probability` and :func:`weak_value`, from
    one forward and one backward propagation for all boxes.
    """
    amplitudes = _checkpoint_amplitudes(spec, time, spec.box_modes)
    return {
        box: (_abl(amps, ProjectorSpec(box, time)), _weak(amps))
        for box, amps in amplitudes.items()
    }


def postselection_success(spec, imposed=None):
    """Probability of the post-selection, optionally after a collapse.

    With no intermediate measurement this is |<post|U|pre>|².  With
    ``imposed`` set, it is the probability of the post-selection given that
    the named projector fired at its checkpoint.
    """
    if imposed is None:
        final = spec.forward_state(len(spec.segments))
        return float(abs(inner_product(spec.post, final)) ** 2)
    boundary = spec.boundary(imposed.time)
    forward = spec.forward_state(boundary)
    outcome = project_pattern(forward, spec._box_pattern(imposed.box))
    if outcome.probability < _ZERO:
        raise UndefinedConditioning(
            f"projector {imposed} never fires on the forward state"
        )
    collapsed = outcome.state
    for segment in spec.segments[boundary:]:
        collapsed = apply_schedule(collapsed, segment)
    return float(abs(inner_product(spec.post, collapsed)) ** 2)


def shutter_modes():
    """The three box modes of the shutter photon, in A, B, C order."""
    return ("SA", "SB", "SC")


def shutter_state(weights, modes=None):
    """Single-photon shutter state with the given A, B, C weights."""
    modes = modes or shutter_modes()
    vacuum = register_modes(modes)
    return superposition_source(
        vacuum, {m: w for m, w in zip(modes, weights)}
    )


def three_box_spec():
    """Static three-box pre/post pair: (1,1,1)/sqrt3 and (1,1,-1)/sqrt3."""
    modes = shutter_modes()
    pre = shutter_state((1 / SQRT3, 1 / SQRT3, 1 / SQRT3), modes)
    post = shutter_state((1 / SQRT3, 1 / SQRT3, -1 / SQRT3), modes)
    return TwoStateSpec(
        pre=pre,
        post=post,
        segments=(),
        checkpoints=MappingProxyType({"t": 0}),
        box_modes=MappingProxyType(dict(zip("ABC", modes))),
    )


def disappearing_spec():
    """Two-state spec of the disappearing-reappearing shutter.

    Preparation (|A> + i|B> + |C>)/sqrt3 at t1, A-B tunneling of pi/4 per
    step so the shutter is evenly split at t2 and fully moved to B at t3.
    The selection is measured directly after t3 against
    (-|A> - i|B> + |C>)/sqrt3, the circuit convention: it is the selection
    (-|A> + i|B> + |C>)/sqrt3 at the final time carried back through the
    last pi/2 tunneling step.
    """
    modes = shutter_modes()
    pre = shutter_state((1 / SQRT3, 1j / SQRT3, 1 / SQRT3), modes)
    post = shutter_state((-1 / SQRT3, -1j / SQRT3, 1 / SQRT3), modes)
    step = (tunneling(math.pi / 4, modes[0], modes[1]),)
    return TwoStateSpec(
        pre=pre,
        post=post,
        segments=(step, step),
        checkpoints=MappingProxyType({"t1": 0, "t2": 1, "t3": 2}),
        box_modes=MappingProxyType(dict(zip("ABC", modes))),
    )

