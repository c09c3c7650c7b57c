"""The per-element ``elements.evolve`` loop, kept as the reference of the
stacked one.

``evolve`` once built a fresh mode matrix for every linear element: a 2 x 2
``np.array`` per beamsplitter and tunneling element and a 1 x 1 one per
phase shifter, conjugate-transposed one at a time for the adjoint, and it
applied a relabel as a full row permutation of the run.
``elements.evolve`` now builds a schedule's 2 x 2 matrices in one array and
takes a phase as a scalar.  The loop here is the old one, so that tests can
hold the new one to it bit for bit.
"""

import cmath
import math

import numpy as np

from router_sim import elements
from router_sim.elements import ElementKind


def mode_matrix(element):
    """Mode matrix of a linear element (BS, PHASE, TUNNEL, MODE_UNITARY)."""
    kind, params = element.kind, element.params
    if kind is ElementKind.BS:
        r = params["r"]
        t = math.sqrt(1.0 - r)
        return np.array([[math.sqrt(r), 1j * t], [1j * t, math.sqrt(r)]],
                        dtype=complex)
    if kind is ElementKind.PHASE:
        return np.array([[cmath.exp(1j * params["angle"])]])
    if kind is ElementKind.TUNNEL:
        c, s = math.cos(params["theta"]), math.sin(params["theta"])
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    return params["matrix"]


def _ns_two_mode(sectors, element):
    evolve(sectors, elements._ns_two_mode_parts(*element.modes))


def _decomposed_router(sectors, element):
    elements._router_positions(sectors, element)
    evolve(sectors, elements._pqr_decomposed_parts(*element.modes))


RULES = {
    ElementKind.NS_SINGLE: elements._ns_rule,
    ElementKind.NS_TWO_MODE: _ns_two_mode,
    ElementKind.PQR_IDEAL: elements._router_rule,
    ElementKind.PQR_DECOMPOSED: _decomposed_router,
}


def evolve(sectors, schedule, adjoint=False):
    """Apply ``schedule``, or its adjoint, to ``sectors`` in place, one
    element's mode matrix at a time."""
    index = sectors.state._index
    run = None
    for element in reversed(schedule) if adjoint else schedule:
        kind, modes = element.kind, element.modes
        rule = RULES.get(kind)
        if rule is not None:
            if run is not None:
                sectors.apply_mode_matrix(run)
                run = None
            rule(sectors, element)
            continue
        if run is None:
            run = np.eye(len(sectors.one), dtype=complex)
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
        u = mode_matrix(element)
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
