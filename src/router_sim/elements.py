"""Circuit primitives: beamsplitters, phase shifters, NS gates and routers.

Elements are immutable descriptions bound to specific modes; application is
a pure function on :class:`~router_sim.fock.FockState`, computed on its
sector form (:class:`~router_sim.fock.Sectors`) once per schedule.  Each
run of consecutive linear elements and relabels is composed into one mode
matrix, which acts on the sector form once, ahead of the NS gate or router
that ends the run.  The beamsplitter uses the symmetric convention

    BS(r) = [[sqrt(r), i*sqrt(1-r)], [i*sqrt(1-r), sqrt(r)]],

fixed once for the whole library because phase-shifter values only make
sense relative to it.  The router is exposed in two builds that agree
exactly on the supported sector: an ideal routing rule and a Mach-Zehnder
decomposition around a two-mode nonlinear-sign gate.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field
from enum import Enum
import numpy as np

from .errors import BadParam, UnsupportedSector
from .fock import PRUNE_EPSILON, Sectors, _check_unitary


class ElementKind(Enum):
    BS = "bs"
    PHASE = "ps"
    NS_SINGLE = "ns"
    NS_TWO_MODE = "ns2"
    PQR_IDEAL = "pqr"
    PQR_DECOMPOSED = "pqr_decomposed"
    RELABEL = "relabel"
    TUNNEL = "tunnel"
    MODE_UNITARY = "unitary"

    # Members are singletons: hashed by identity, in C, per evolved element.
    __hash__ = object.__hash__


class RouterOrientation(Enum):
    """Which router port is kept by the downstream network.

    The routing rule itself is identical for both orientations: a probe
    photon entering ``probe_a`` exits ``probe_b`` when the control mode is
    occupied and stays in ``probe_a`` otherwise.  REFLECT_ON_MATCH keeps the
    ``probe_b`` (reflected) port and discards ``probe_a``;
    TRANSMIT_ON_MATCH keeps the ``probe_a`` (transmitted-when-empty) port
    and discards ``probe_b``.
    """

    REFLECT_ON_MATCH = "reflect"
    TRANSMIT_ON_MATCH = "transmit"


@dataclass(frozen=True, eq=False)
class Element:
    """One circuit primitive bound to an ordered tuple of modes."""

    kind: ElementKind
    modes: tuple
    params: dict = field(default_factory=dict)

    @property
    def kept_port(self):
        """Kept probe port of a router element (None for other kinds)."""
        if self.kind not in (ElementKind.PQR_IDEAL, ElementKind.PQR_DECOMPOSED):
            return None
        orientation = self.params["orientation"]
        if orientation is RouterOrientation.REFLECT_ON_MATCH:
            return self.modes[1]
        return self.modes[0]


def bs_matrix(r):
    t = math.sqrt(1.0 - r)
    return np.array(
        [[math.sqrt(r), 1j * t], [1j * t, math.sqrt(r)]], dtype=complex
    )


def tunnel_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _finite_angle(angle):
    angle = float(angle)
    if not math.isfinite(angle):
        raise BadParam(f"angle {angle} is not finite")
    return angle


def _distinct(modes):
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise BadParam(f"element modes {modes} must be distinct")
    return modes


def beamsplitter(r, mode_a, mode_b):
    """Beamsplitter of reflectivity ``r`` on two modes."""
    if not 0.0 <= r <= 1.0:
        raise BadParam(f"reflectivity {r} outside [0, 1]")
    return Element(ElementKind.BS, _distinct((mode_a, mode_b)), {"r": float(r)})


def phase_shifter(angle, mode_):
    """Single-mode phase shifter: n photons acquire exp(i*n*angle)."""
    return Element(ElementKind.PHASE, (mode_,), {"angle": _finite_angle(angle)})


def ns_single(mode_):
    """Idealized unit-success nonlinear-sign gate on one mode."""
    return Element(ElementKind.NS_SINGLE, (mode_,))


def ns_two_mode(mode_a, mode_b):
    """Two-mode NS gate: sign flip exactly on the |1,1> component.

    Built as a balanced beamsplitter, a single-mode NS gate on each arm,
    and the inverse beamsplitter.
    """
    return Element(ElementKind.NS_TWO_MODE, _distinct((mode_a, mode_b)))


def _router(kind, probe_a, probe_b, control, orientation):
    if len({probe_a, probe_b, control}) != 3:
        raise BadParam("router needs three distinct modes")
    return Element(kind, (probe_a, probe_b, control),
                   {"orientation": RouterOrientation(orientation)})


def pqr_ideal(probe_a, probe_b, control,
              orientation=RouterOrientation.REFLECT_ON_MATCH):
    """Ideal router: control occupied swaps probe_a and probe_b.

    Supported sector: at most one photon in each bound mode and at most one
    photon across the probe pair; anything else raises UnsupportedSector.
    The control photon is untouched.
    """
    return _router(
        ElementKind.PQR_IDEAL, probe_a, probe_b, control, orientation
    )


def pqr_decomposed(probe_a, probe_b, control,
                   orientation=RouterOrientation.REFLECT_ON_MATCH):
    """Router decomposed as an MZI around a two-mode NS gate.

    Sequence: -pi/2 phase on probe_b, balanced beamsplitter on the probe
    pair, two-mode NS on (probe_b, control), inverse beamsplitter, +pi/2
    phase on probe_b.  The phase offsets close the interferometer so that
    the control-absent case is the exact identity and the control-present
    case is the exact probe swap, matching :func:`pqr_ideal` with global
    phase one on the supported sector.
    """
    return _router(
        ElementKind.PQR_DECOMPOSED, probe_a, probe_b, control, orientation
    )


def tunneling(theta, mode_a, mode_b):
    """Two-mode tunneling exp(-i*theta*sigma_x) between two boxes."""
    return Element(ElementKind.TUNNEL, _distinct((mode_a, mode_b)),
                   {"theta": _finite_angle(theta)})


def relabel(mapping):
    """Permutation of modes (pure occupation bookkeeping).

    ``mapping`` must be a bijection on some subset of modes; unmapped modes
    stay put.
    """
    keys = list(mapping.keys())
    values = list(mapping.values())
    if len(set(keys)) != len(keys) or set(keys) != set(values):
        raise BadParam("relabel mapping must be a bijection")
    return Element(ElementKind.RELABEL, tuple(keys), {"mapping": dict(mapping)})


def mode_unitary(u, modes):
    """Generic linear-optical element given directly by its mode matrix.

    Raises NotUnitary here, when the element is built, if ``u`` is not
    unitary; applying the element does not check it again.
    """
    modes = _distinct(modes)
    u = _check_unitary(u, len(modes))
    return Element(ElementKind.MODE_UNITARY, modes, {"matrix": u})


def _mode_matrix(element):
    """Mode matrix of a linear element (BS, PHASE, TUNNEL, MODE_UNITARY)."""
    kind, params = element.kind, element.params
    if kind is ElementKind.BS:
        return bs_matrix(params["r"])
    if kind is ElementKind.PHASE:
        return np.array([[cmath.exp(1j * params["angle"])]])
    if kind is ElementKind.TUNNEL:
        return tunnel_matrix(params["theta"])
    return params["matrix"]


@functools.lru_cache(maxsize=256)
def _ns_two_mode_parts(mode_a, mode_b):
    bs = bs_matrix(0.5)
    return (
        mode_unitary(bs, (mode_a, mode_b)),
        ns_single(mode_a),
        ns_single(mode_b),
        mode_unitary(bs.conj().T, (mode_a, mode_b)),
    )


@functools.lru_cache(maxsize=256)
def _pqr_decomposed_parts(probe_a, probe_b, control):
    bs = bs_matrix(0.5)
    return (
        mode_unitary([[cmath.exp(-0.5j * math.pi)]], (probe_b,)),
        mode_unitary(bs, (probe_a, probe_b)),
        *_ns_two_mode_parts(probe_b, control),
        mode_unitary(bs.conj().T, (probe_a, probe_b)),
        mode_unitary([[cmath.exp(0.5j * math.pi)]], (probe_b,)),
    )


def _router_positions(sectors, element):
    """Positions of the router's (probe_a, probe_b, control) modes.

    Raises UnsupportedSector unless every configuration has at most one
    photon in each bound mode and at most one across the probe pair,
    judged on Fock amplitudes of modulus :data:`~router_sim.fock.PRUNE_EPSILON`
    or more, in every matrix of a stacked ``two``.
    """
    ia, ib, ic = map(sectors.state._index.__getitem__, element.modes)
    if sectors.two is not None:
        # |2> in each bound mode, then |1 1> on the probe pair.
        amps = sectors.two[..., [ia, ib, ic, ia], [ia, ib, ic, ib]]
        amps[..., 3] *= math.sqrt(2.0)
        over = (abs(amps) >= PRUNE_EPSILON).ravel().tolist()
        if True in over:
            occupations = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]
            raise UnsupportedSector(
                f"router applied outside its sector: occupations "
                f"{occupations[over.index(True) % 4]} on (probe_a, "
                "probe_b, control)"
            )
    return ia, ib, ic


def _ns_rule(sectors, element, adjoint):
    # Sign flip of |2_m>, the S_mm entry: real, so self-adjoint.
    if sectors.two is not None:
        m = sectors.state._index[element.modes[0]]
        sectors.two[..., m, m] = -sectors.two[..., m, m]


def _ns_two_mode_rule(sectors, element, adjoint):
    # (B† N N B)† = B† N N B: the composite is self-adjoint.
    evolve(sectors, _ns_two_mode_parts(*element.modes))


def _router_rule(sectors, element, adjoint):
    # A photon in the control swaps probe_a and probe_b: the two-photon
    # entries S[a, c] and S[b, c] trade places.  An involution, so
    # self-adjoint.
    ia, ib, ic = _router_positions(sectors, element)
    two = sectors.two
    if two is not None:
        two[..., [ia, ib], ic] = two[..., [ib, ia], ic]
        two[..., ic, [ia, ib]] = two[..., ic, [ib, ia]]


def _decomposed_router_rule(sectors, element, adjoint):
    _router_positions(sectors, element)
    # Identity on the control-absent sector, probe swap on the
    # control-present sector: the composite is its own adjoint.
    evolve(sectors, _pqr_decomposed_parts(*element.modes))


_RULES = {
    ElementKind.NS_SINGLE: _ns_rule,
    ElementKind.NS_TWO_MODE: _ns_two_mode_rule,
    ElementKind.PQR_IDEAL: _router_rule,
    ElementKind.PQR_DECOMPOSED: _decomposed_router_rule,
}


@functools.lru_cache(maxsize=64)
def _identity(n):
    return np.eye(n, dtype=complex)


def evolve(sectors, elements, adjoint=False):
    """Apply ``elements``, or their adjoint, to ``sectors`` in place; see
    :func:`apply_schedule`.  ``run`` is the mode matrix of the current run of
    linear elements and relabels (None for the identity)."""
    index = sectors.state._index
    run = None
    for element in reversed(elements) if adjoint else elements:
        kind, modes = element.kind, element.modes
        rule = _RULES.get(kind)
        if rule is not None:
            if run is not None:
                sectors.apply_mode_matrix(run)
                run = None
            rule(sectors, element, adjoint)
            continue
        if run is None:
            run = _identity(len(sectors.one)).copy()
        if kind is ElementKind.RELABEL:
            mapping = element.params["mapping"]
            if adjoint:
                mapping = {v: k for k, v in mapping.items()}
            # The photons of mode ``src`` move to mode ``dst``.
            perm = list(range(len(run)))
            for src, dst in mapping.items():
                perm[index[dst]] = index[src]
            run = run[perm]
            continue
        u = _mode_matrix(element)
        u = u.conj().T if adjoint else u
        if len(modes) == 1:
            run[index[modes[0]]] *= u[0, 0]
        elif len(modes) == 2:
            # Rows i and j, in that order, as one strided view.
            i, j = index[modes[0]], index[modes[1]]
            rows = run[i::j - i][:2]
            rows[:] = u @ rows
        else:
            positions = [index[m] for m in modes]
            run[positions] = u @ run[positions]
    if run is not None:
        sectors.apply_mode_matrix(run)


def apply_schedule(state, elements, adjoint=False):
    """Apply a list of elements to a state, or the adjoint of the list.

    The state evolves in sector form (:class:`~router_sim.fock.Sectors`),
    each run of consecutive linear elements and relabels acting as one mode
    matrix, the product of theirs.  A linear element's adjoint is its
    conjugate-transposed mode matrix and a relabel's inverts its mapping;
    the NS gates and both routers are self-adjoint.
    """
    sectors = Sectors(state)
    evolve(sectors, elements, adjoint)
    return sectors.to_state()


def apply_element(state, element, adjoint=False):
    """Apply ``element`` (or its adjoint) to a state."""
    return apply_schedule(state, [element], adjoint)
