"""Circuit primitives: beamsplitters, phase shifters, NS gates and routers.

Elements are immutable descriptions bound to specific modes; application is
a pure function on :class:`~router_sim.fock.FockState`, computed on its
sector form (:class:`~router_sim.fock.Sectors`) once per schedule.  Each
run of consecutive linear elements and relabels is composed into one mode
matrix, which acts on the sector form once, ahead of the NS gate or router
that ends the run.  The run's matrix starts as the identity and each
element updates only its own rows: a beamsplitter or tunneling element
multiplies its two rows by its 2 x 2 matrix, taken from one array that
:func:`evolve` builds for the whole schedule from the scalar entries of
:func:`bs_matrix` and :func:`tunnel_matrix`; a phase shifter scales its
row by a scalar; a relabel moves rows.  The beamsplitter uses the symmetric
convention

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
from types import MappingProxyType
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


#: The params of an element that takes none.
_NO_PARAMS = MappingProxyType({})


@dataclass(frozen=True, eq=False, slots=True)
class Element:
    """One circuit primitive bound to an ordered tuple of modes.

    The factories below give ``params`` as a read-only mapping, so an
    element can be shared, as the plans of a scenario share theirs.
    Elements compare and hash by identity.
    """

    kind: ElementKind
    modes: tuple
    params: MappingProxyType = field(default_factory=lambda: _NO_PARAMS)

    @property
    def kept_port(self):
        """Kept probe port of a router element (None for other kinds)."""
        if self.kind not in (ElementKind.PQR_IDEAL, ElementKind.PQR_DECOMPOSED):
            return None
        orientation = self.params["orientation"]
        if orientation is RouterOrientation.REFLECT_ON_MATCH:
            return self.modes[1]
        return self.modes[0]


_SET_KIND = Element.kind.__set__
_SET_MODES = Element.modes.__set__
_SET_PARAMS = Element.params.__set__


def _element(kind, modes, params=_NO_PARAMS):
    """``Element(kind, modes, params)``, its slots set directly rather
    than through the frozen ``__init__``'s ``object.__setattr__``."""
    element = object.__new__(Element)
    _SET_KIND(element, kind)
    _SET_MODES(element, modes)
    _SET_PARAMS(element, params)
    return element


# The entries of a beamsplitter's and a tunneling element's 2 x 2 mode
# matrix, row by row.
def _bs_entries(r):
    t = math.sqrt(1.0 - r)
    return math.sqrt(r), 1j * t, 1j * t, math.sqrt(r)


def _tunnel_entries(theta):
    c, s = math.cos(theta), math.sin(theta)
    return c, -1j * s, -1j * s, c


def bs_matrix(r):
    return np.array(_bs_entries(r), dtype=complex).reshape(2, 2)


def tunnel_matrix(theta):
    return np.array(_tunnel_entries(theta), dtype=complex).reshape(2, 2)


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


def _pair(mode_a, mode_b):
    if mode_a == mode_b:
        raise BadParam(f"element modes {(mode_a, mode_b)} must be distinct")
    return (mode_a, mode_b)


def beamsplitter(r, mode_a, mode_b):
    """Beamsplitter of reflectivity ``r`` on two modes."""
    if not 0.0 <= r <= 1.0:
        raise BadParam(f"reflectivity {r} outside [0, 1]")
    return _element(ElementKind.BS, _pair(mode_a, mode_b),
                    MappingProxyType({"r": float(r)}))


def phase_shifter(angle, mode_):
    """Single-mode phase shifter: n photons acquire exp(i*n*angle)."""
    return _element(ElementKind.PHASE, (mode_,),
                    MappingProxyType({"angle": _finite_angle(angle)}))


def ns_single(mode_):
    """Idealized unit-success nonlinear-sign gate on one mode."""
    return _element(ElementKind.NS_SINGLE, (mode_,))


def ns_two_mode(mode_a, mode_b):
    """Two-mode NS gate: a sign flip of |1,1>.

    Built as a balanced beamsplitter, a single-mode NS gate on each arm,
    and the inverse beamsplitter.  On two photons it maps |1,1> to -|1,1>
    and exchanges |2,0> and |0,2> with amplitude one; states of at most
    one photon pass unchanged.
    """
    return _element(ElementKind.NS_TWO_MODE, _pair(mode_a, mode_b))


def _router(kind, probe_a, probe_b, control, orientation):
    if len({probe_a, probe_b, control}) != 3:
        raise BadParam("router needs three distinct modes")
    return _element(kind, (probe_a, probe_b, control),
                    MappingProxyType(
                        {"orientation": RouterOrientation(orientation)}))


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
    return _element(ElementKind.TUNNEL, _pair(mode_a, mode_b),
                    MappingProxyType({"theta": _finite_angle(theta)}))


def relabel(mapping):
    """Permutation of modes (pure occupation bookkeeping).

    ``mapping`` must be a bijection on some subset of modes; unmapped modes
    stay put.
    """
    keys = list(mapping.keys())
    values = list(mapping.values())
    if len(set(keys)) != len(keys) or set(keys) != set(values):
        raise BadParam("relabel mapping must be a bijection")
    mapping = MappingProxyType(dict(mapping))
    return _element(ElementKind.RELABEL, tuple(keys),
                    MappingProxyType({"mapping": mapping}))


def mode_unitary(u, modes):
    """Generic linear-optical element given directly by its mode matrix.

    Raises NotUnitary here, when the element is built, if ``u`` is not
    unitary; applying the element does not check it again.
    """
    modes = _distinct(modes)
    u = _check_unitary(u, len(modes))
    return _element(ElementKind.MODE_UNITARY, modes,
                    MappingProxyType({"matrix": u}))


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
    or more.
    """
    ia, ib, ic = map(sectors.state._index.__getitem__, element.modes)
    # |2> in each bound mode, then |1 1> on the probe pair.
    amps = sectors.two[[ia, ib, ic, ia], [ia, ib, ic, ib]]
    amps[3] *= math.sqrt(2.0)
    over = (abs(amps) >= PRUNE_EPSILON).tolist()
    if True in over:
        occupations = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)]
        raise UnsupportedSector(
            f"router applied outside its sector: occupations "
            f"{occupations[over.index(True)]} on (probe_a, "
            "probe_b, control)"
        )
    return ia, ib, ic


def _ns_rule(sectors, element):
    # Sign flip of |2_m>, the S_mm entry: real, so self-adjoint.
    m = sectors.state._index[element.modes[0]]
    sectors.two[m, m] = -sectors.two[m, m]


def _ns_two_mode_rule(sectors, element):
    # (B† N N B)† = B† N N B: the composite is self-adjoint.
    evolve(sectors, _ns_two_mode_parts(*element.modes))


def _router_rule(sectors, element):
    # A photon in the control swaps probe_a and probe_b: the two-photon
    # entries S[a, c] and S[b, c] trade places.  An involution, so
    # self-adjoint.
    ia, ib, ic = _router_positions(sectors, element)
    two = sectors.two
    two[[ia, ib], ic] = two[[ib, ia], ic]
    two[ic, [ia, ib]] = two[ic, [ib, ia]]


def _decomposed_router_rule(sectors, element):
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


def _pair_matrices(elements, adjoint):
    """The 2 x 2 mode matrices of the beamsplitters and tunneling elements
    among ``elements``, in their order, as one (k, 2, 2) array, or their
    adjoints; None if there are none.  Each entry is the scalar that
    :func:`bs_matrix` or :func:`tunnel_matrix` computes."""
    entries = []
    for element in elements:
        kind = element.kind
        if kind is ElementKind.BS:
            entries += _bs_entries(element.params["r"])
        elif kind is ElementKind.TUNNEL:
            entries += _tunnel_entries(element.params["theta"])
    if not entries:
        return None
    matrices = np.array(entries, dtype=complex).reshape(-1, 2, 2)
    return matrices.conj().transpose(0, 2, 1) if adjoint else matrices


_PAIRED = (ElementKind.BS, ElementKind.TUNNEL)


def evolve(sectors, elements, adjoint=False):
    """Apply ``elements``, or their adjoint, to ``sectors`` in place; see
    :func:`apply_schedule`.

    ``run`` is the mode matrix of the current run of linear elements and
    relabels (None for the identity).  Each element of the run updates
    only its own rows of it: a beamsplitter or tunneling element
    multiplies its two rows by its matrix from ``_pair_matrices``, a
    phase shifter scales its row and a relabel moves rows.
    """
    index = sectors.state._index
    if adjoint:
        elements = elements[::-1]
    pairs = _pair_matrices(elements, adjoint)
    k = 0  # the next of ``pairs``
    run = None
    for element in elements:
        kind = element.kind
        rule = _RULES.get(kind)
        if rule is not None:
            if run is not None:
                sectors.apply_mode_matrix(run)
                run = None
            rule(sectors, element)
            continue
        if run is None:
            run = _identity(len(sectors.one)).copy()
        modes = element.modes
        if kind in _PAIRED:
            # Rows i and j, in that order, as one strided view.
            i, j = index[modes[0]], index[modes[1]]
            rows = run[i::j - i][:2]
            rows[:] = pairs[k] @ rows
            k += 1
        elif kind is ElementKind.PHASE:
            phase = cmath.exp(1j * element.params["angle"])
            run[index[modes[0]]] *= phase.conjugate() if adjoint else phase
        elif kind is ElementKind.RELABEL:
            # The photons of mode ``src`` move to mode ``dst``.
            mapping = element.params["mapping"]
            src = [index[m] for m in mapping.keys()]
            dst = [index[m] for m in mapping.values()]
            if adjoint:
                src, dst = dst, src
            run[dst] = run[src]
        else:
            u = element.params["matrix"]
            u = u.conj().T if adjoint else u
            positions = [index[m] for m in modes]
            if len(modes) == 1:
                run[positions[0]] *= u[0, 0]
            elif len(modes) == 2:
                i, j = positions
                rows = run[i::j - i][:2]
                rows[:] = u @ rows
            else:
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
