"""Circuit primitives: beamsplitters, phase shifters, NS gates and routers.

Elements are immutable descriptions bound to specific modes; application is
a pure function on :class:`~router_sim.fock.FockState`.  The beamsplitter
uses the symmetric convention

    BS(r) = [[sqrt(r), i*sqrt(1-r)], [i*sqrt(1-r), sqrt(r)]],

fixed once for the whole library because phase-shifter values only make
sense relative to it.  The router is exposed in two builds that agree
exactly on the supported sector: an ideal routing rule and a Mach-Zehnder
decomposition around a two-mode nonlinear-sign gate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from enum import Enum
import numpy as np

from .errors import BadParam, UnsupportedSector
from .fock import apply_fock_phase, apply_mode_unitary


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

    @property
    def discarded_port(self):
        if self.kind not in (ElementKind.PQR_IDEAL, ElementKind.PQR_DECOMPOSED):
            return None
        kept = self.kept_port
        return self.modes[0] if kept == self.modes[1] else self.modes[1]


def bs_matrix(r):
    t = math.sqrt(1.0 - r)
    return np.array(
        [[math.sqrt(r), 1j * t], [1j * t, math.sqrt(r)]], dtype=complex
    )


def tunnel_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def ns_phases(n_total_max):
    """Fock phases of the idealized nonlinear-sign gate.

    Sign flip on the two-photon component only; identity elsewhere.
    """
    phases = [1.0 + 0j] * (n_total_max + 1)
    if n_total_max >= 2:
        phases[2] = -1.0 + 0j
    return tuple(phases)


def beamsplitter(r, mode_a, mode_b):
    """Beamsplitter of reflectivity ``r`` on two modes."""
    if not 0.0 <= r <= 1.0:
        raise BadParam(f"reflectivity {r} outside [0, 1]")
    return Element(ElementKind.BS, (mode_a, mode_b), {"r": float(r)})


def phase_shifter(angle, mode_):
    """Single-mode phase shifter: n photons acquire exp(i*n*angle)."""
    return Element(ElementKind.PHASE, (mode_,), {"angle": float(angle)})


def ns_single(mode_):
    """Idealized unit-success nonlinear-sign gate on one mode."""
    return Element(ElementKind.NS_SINGLE, (mode_,))


def ns_two_mode(mode_a, mode_b):
    """Two-mode NS gate: sign flip exactly on the |1,1> component.

    Built as a balanced beamsplitter, a single-mode NS gate on each arm,
    and the inverse beamsplitter.
    """
    return Element(ElementKind.NS_TWO_MODE, (mode_a, mode_b))


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
    return Element(ElementKind.TUNNEL, (mode_a, mode_b), {"theta": float(theta)})


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
    """Generic linear-optical element given directly by its mode matrix."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (len(modes), len(modes)):
        raise BadParam("matrix shape does not match mode count")
    return Element(ElementKind.MODE_UNITARY, tuple(modes), {"matrix": u})


def _router_sector(state, probe_a, probe_b, control):
    """Positions of the router's modes in ``state``.

    Raises UnsupportedSector unless every configuration has at most one
    photon in each bound mode and at most one across the probe pair.
    """
    ia = state.index_of(probe_a)
    ib = state.index_of(probe_b)
    ic = state.index_of(control)
    for config in state.amplitudes:
        na, nb, nc = config[ia], config[ib], config[ic]
        if na > 1 or nb > 1 or na + nb > 1 or nc > 1:
            raise UnsupportedSector(
                f"router applied outside its sector: occupations "
                f"({na}, {nb}, {nc}) on (probe_a, probe_b, control)"
            )
    return ia, ib, ic


def _apply_router_rule(state, probe_a, probe_b, control):
    ia, ib, ic = _router_sector(state, probe_a, probe_b, control)
    out = {}
    for config, amp in state.amplitudes.items():
        na, nb = config[ia], config[ib]
        if config[ic] == 1 and na != nb:
            swapped = list(config)
            swapped[ia], swapped[ib] = nb, na
            config = tuple(swapped)
        out[config] = out.get(config, 0j) + amp
    return state._derived(out)


def _apply_relabel(state, mapping):
    source_positions = {state.index_of(k): state.index_of(v) for k, v in mapping.items()}
    out = {}
    for config, amp in state.amplitudes.items():
        permuted = list(config)
        for src, dst in source_positions.items():
            permuted[dst] = config[src]
        out[tuple(permuted)] = amp
    return state._derived(out)


def _mode_matrix(element):
    """Mode matrix of a linear element (BS, PHASE, TUNNEL, MODE_UNITARY);
    None for the other kinds."""
    kind, params = element.kind, element.params
    if kind is ElementKind.BS:
        return bs_matrix(params["r"])
    if kind is ElementKind.PHASE:
        return np.array([[cmath.exp(1j * params["angle"])]])
    if kind is ElementKind.TUNNEL:
        return tunnel_matrix(params["theta"])
    if kind is ElementKind.MODE_UNITARY:
        return params["matrix"]
    return None


def _ns_two_mode_parts(mode_a, mode_b):
    bs = bs_matrix(0.5)
    return [
        mode_unitary(bs, (mode_a, mode_b)),
        ns_single(mode_a),
        ns_single(mode_b),
        mode_unitary(bs.conj().T, (mode_a, mode_b)),
    ]


def _pqr_decomposed_parts(probe_a, probe_b, control):
    bs = bs_matrix(0.5)
    return [
        mode_unitary([[cmath.exp(-0.5j * math.pi)]], (probe_b,)),
        mode_unitary(bs, (probe_a, probe_b)),
        *_ns_two_mode_parts(probe_b, control),
        mode_unitary(bs.conj().T, (probe_a, probe_b)),
        mode_unitary([[cmath.exp(0.5j * math.pi)]], (probe_b,)),
    ]


def apply_element(state, element, adjoint=False):
    """Apply ``element`` (or its adjoint) to a state.

    A linear element's adjoint is its conjugate-transposed mode matrix; the
    NS gates and both routers are self-adjoint, and a relabel inverts its
    mapping.
    """
    u = _mode_matrix(element)
    if u is not None:
        return apply_mode_unitary(
            state, element.modes, u.conj().T if adjoint else u
        )
    kind = element.kind
    if kind is ElementKind.NS_SINGLE:
        # Real phases: self-adjoint.
        return apply_fock_phase(
            state, element.modes[0], ns_phases(state.n_total_max)
        )
    if kind is ElementKind.NS_TWO_MODE:
        # (B† N N B)† = B† N N B: the composite is self-adjoint.
        return apply_schedule(state, _ns_two_mode_parts(*element.modes))
    if kind is ElementKind.PQR_IDEAL:
        # Swap conditioned on occupation is an involution: self-adjoint.
        return _apply_router_rule(state, *element.modes)
    if kind is ElementKind.PQR_DECOMPOSED:
        _router_sector(state, *element.modes)
        # Identity on the control-absent sector, probe swap on the
        # control-present sector: the composite is its own adjoint.
        return apply_schedule(state, _pqr_decomposed_parts(*element.modes))
    if kind is ElementKind.RELABEL:
        mapping = element.params["mapping"]
        if adjoint:
            mapping = {v: k for k, v in mapping.items()}
        return _apply_relabel(state, mapping)
    raise BadParam(f"unknown element kind {kind}")


def apply_schedule(state, elements, adjoint=False):
    """Fold a list of elements over a state, optionally as the adjoint."""
    if adjoint:
        for element in reversed(elements):
            state = apply_element(state, element, adjoint=True)
        return state
    for element in elements:
        state = apply_element(state, element)
    return state
