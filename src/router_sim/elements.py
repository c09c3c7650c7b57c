"""Circuit primitives: beamsplitters, phase shifters, NS gates and routers.

Elements are immutable descriptions bound to specific modes; application is
a pure function on :class:`~router_sim.fock.FockState`, computed on its
sector form (:class:`~router_sim.fock.Sectors`) once per schedule.  Each
run of consecutive linear elements and relabels is composed into one mode
matrix, which acts on the sector form once, ahead of the NS gate or router
that ends the run.  The run's matrix starts as the identity and each
element updates only its own rows, by its width: a relabel swaps or moves
them; a two-mode element multiplies them by its 2 x 2 matrix, taken from
one array that :func:`evolve` builds for the whole schedule from the
scalar entries of :func:`bs_matrix`, :func:`tunnel_matrix` and the
unitaries; a one-mode element scales its row, and a wider unitary gathers
and scatters its rows.  The beamsplitter uses the symmetric convention

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
from dataclasses import FrozenInstanceError, dataclass, field
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


# The kinds read per element, as module names: on Python 3.11 each read of
# a member from its Enum class takes about 0.1 us.
_BS, _PHASE, _NS, _TUNNEL, _RELABEL, _MODE_UNITARY = (
    ElementKind.BS, ElementKind.PHASE, ElementKind.NS_SINGLE,
    ElementKind.TUNNEL, ElementKind.RELABEL, ElementKind.MODE_UNITARY)


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


def _frozen_slots(cls):
    """Frozen dataclass ``cls`` with slots, whose writes and deletes of a
    name that is not a field raise FrozenInstanceError, not TypeError."""
    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot set or delete {name!r}")
    cls.__setattr__ = cls.__delattr__ = refuse
    return cls


@_frozen_slots
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

    def __init__(self, kind, modes, params=_NO_PARAMS):
        # Slots set directly, not by the frozen __init__'s object.__setattr__.
        _SET_KIND(self, kind)
        _SET_MODES(self, modes)
        _SET_PARAMS(self, params)

    def __reduce__(self):
        # A mappingproxy neither pickles nor deep-copies: the params, and a
        # relabel's mapping in them, travel as dicts (_rebuilt).
        return _rebuilt, (self.kind, self.modes, {
            key: dict(value) if type(value) is MappingProxyType else value
            for key, value in self.params.items()})

    @property
    def kept_port(self):
        """Kept probe port of a router element (None for other kinds)."""
        if self.kind not in (ElementKind.PQR_IDEAL, ElementKind.PQR_DECOMPOSED):
            return None
        orientation = self.params["orientation"]
        if orientation is RouterOrientation.REFLECT_ON_MATCH:
            return self.modes[1]
        return self.modes[0]


_SET_KIND, _SET_MODES, _SET_PARAMS = (
    getattr(Element, name).__set__ for name in Element.__slots__)


def _rebuilt(kind, modes, params):
    """The element :meth:`Element.__reduce__` took apart, read-only again."""
    return Element(kind, modes, MappingProxyType({
        key: MappingProxyType(value) if type(value) is dict else value
        for key, value in params.items()}) if params else _NO_PARAMS)


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
    return Element(_BS, _pair(mode_a, mode_b),
                   MappingProxyType({"r": float(r)}))


def phase_shifter(angle, mode_):
    """Single-mode phase shifter: n photons acquire exp(i*n*angle)."""
    return Element(_PHASE, (mode_,),
                   MappingProxyType({"angle": _finite_angle(angle)}))


def ns_single(mode_):
    """Idealized unit-success nonlinear-sign gate on one mode."""
    return Element(_NS, (mode_,))


def ns_two_mode(mode_a, mode_b):
    """Two-mode NS gate: a sign flip of |1,1>.

    Built as a balanced beamsplitter, a single-mode NS gate on each arm,
    and the inverse beamsplitter.  On two photons it maps |1,1> to -|1,1>
    and exchanges |2,0> and |0,2> with amplitude one; states of at most
    one photon pass unchanged.
    """
    return Element(ElementKind.NS_TWO_MODE, _pair(mode_a, mode_b))


def _router(kind, probe_a, probe_b, control, orientation):
    if len({probe_a, probe_b, control}) != 3:
        raise BadParam("router needs three distinct modes")
    return Element(kind, (probe_a, probe_b, control),
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
    return Element(_TUNNEL, _pair(mode_a, mode_b),
                   MappingProxyType({"theta": _finite_angle(theta)}))


def relabel(mapping):
    """Permutation of modes (pure occupation bookkeeping).

    ``mapping`` must be a bijection on some subset of modes; unmapped modes
    stay put.
    """
    # The keys of a dict are distinct, so the values are too if they are
    # the same set.
    mapping = dict(mapping)
    if mapping.keys() != set(mapping.values()):
        raise BadParam("relabel mapping must be a bijection")
    return Element(_RELABEL, tuple(mapping),
                   MappingProxyType({"mapping": MappingProxyType(mapping)}))


def mode_unitary(u, modes):
    """Generic linear-optical element given directly by its mode matrix.

    Raises NotUnitary here, when the element is built, if ``u`` is not
    unitary; applying the element does not check it again.
    """
    modes = _distinct(modes)
    u = _check_unitary(u, len(modes))
    return Element(_MODE_UNITARY, modes, MappingProxyType({"matrix": u}))


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
    two = sectors.two
    # |2> in each bound mode, then |1 1> on the probe pair, read as scalars.
    amps = (two[ia, ia], two[ib, ib], two[ic, ic],
            two[ia, ib] * math.sqrt(2.0))
    for occupations, amp in zip([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)],
                                amps):
        if abs(amp) >= PRUNE_EPSILON:
            raise UnsupportedSector(
                f"router applied outside its sector: occupations "
                f"{occupations} on (probe_a, probe_b, control)"
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
    two[ia, ic], two[ib, ic] = two[ib, ic], two[ia, ic]
    two[ic, ia], two[ic, ib] = two[ic, ib], two[ic, ia]


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


def _pair_matrices(elements, adjoint):
    """The 2 x 2 mode matrices of the two-mode linear elements among
    ``elements``, in their order, as one (k, 2, 2) array, or their
    adjoints; None if there are none.  Each entry is the scalar that
    :func:`bs_matrix` or :func:`tunnel_matrix` computes, or the unitary's."""
    entries = []
    for element in elements:
        kind = element.kind
        if kind is _BS:
            entries += _bs_entries(element.params["r"])
        elif kind is _TUNNEL:
            entries += _tunnel_entries(element.params["theta"])
        elif kind is _MODE_UNITARY and len(element.modes) == 2:
            entries += element.params["matrix"].flat
    if not entries:
        return None
    matrices = np.array(entries, dtype=complex).reshape(-1, 2, 2)
    return matrices.conj().transpose(0, 2, 1) if adjoint else matrices


def evolve(sectors, elements, adjoint=False):
    """Apply ``elements``, or their adjoint, to ``sectors`` in place; see
    :func:`apply_schedule`.

    ``run`` is the mode matrix of the current run of linear elements and
    relabels (None for the identity).  Each element of the run updates
    only its own rows of it, by its width: a two-mode relabel swaps its
    two rows and a wider one moves rows, a two-mode linear element
    multiplies its two rows by its matrix from ``_pair_matrices``, a
    one-mode element scales its row and a wider :func:`mode_unitary`
    gathers and scatters its rows.
    """
    index = sectors.state._index
    identity = np.eye(len(sectors.one), dtype=complex)
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
            run = identity.copy()
        modes = element.modes
        if len(modes) == 2:
            # Rows i and j, in that order, as one strided view.
            i, j = index[modes[0]], index[modes[1]]
            rows = run[i::j - i][:2]
            if kind is not _RELABEL:
                rows[:] = pairs[k] @ rows
                k += 1
            elif element.params["mapping"][modes[0]] != modes[0]:
                # A swap, its own inverse: the two rows trade places.
                rows[:] = rows[::-1]
        elif kind is _RELABEL:
            # The photons of mode ``src`` move to mode ``dst``.
            mapping = element.params["mapping"]
            src = [index[m] for m in mapping.keys()]
            dst = [index[m] for m in mapping.values()]
            if adjoint:
                src, dst = dst, src
            run[dst] = run[src]
        elif len(modes) == 1:
            factor = (cmath.exp(1j * element.params["angle"])
                      if kind is _PHASE
                      else element.params["matrix"][0, 0])
            run[index[modes[0]]] *= factor.conjugate() if adjoint else factor
        else:
            u = element.params["matrix"]
            u = u.conj().T if adjoint else u
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
