"""The numpy and ``FockState`` steps that scalar code replaced, kept as the
reference of it.

A ``postselect_state`` target and a shutter state were built through
``register_modes``, ``superposition_source``, ``normalized`` and, for the
target, ``Sectors``; ``Sectors.add_photon`` took its norms with
``np.linalg.norm``; the router rule swapped its entries by fancy indexing;
a few floats were added through ``running_sum``'s array; a weight was
tried as a complex literal before a real one; and
``Sectors.postselect_state`` filled the symmetric pair matrix before it
read the rows of the projected modes.  The functions here are those steps,
so that tests can hold the code that replaced them to them bit for bit.
"""

import cmath
import math

import numpy as np

from router_sim import dsl
from router_sim.errors import PhotonBudget
from router_sim.fock import (
    PHOTON_BUDGET,
    Sectors,
    _layout,
    pruned,
    register_modes,
    superposition_source,
)

_SQRT2 = math.sqrt(2.0)


def target_vector(modes, weights):
    """The one-photon vector of the target of ``postselect_state`` over
    ``modes`` at ``weights``."""
    target = superposition_source(register_modes(modes),
                                  dict(zip(modes, weights)))
    return Sectors(target).one


def shutter_state(weights, modes=("SA", "SB", "SC")):
    """``tsvf.shutter_state`` as ``superposition_source`` on a vacuum."""
    return superposition_source(register_modes(modes),
                                {m: w for m, w in zip(modes, weights)})


def sequential_sum(terms):
    """``running_sum`` of a list of floats: the last entry of
    ``np.add.accumulate``, 0.0 for no terms; an overflow or inf - inf
    gives no warning, as float addition gives none."""
    terms = np.asarray(terms, dtype=float)
    if not terms.size:
        return terms.sum()
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.accumulate(terms)[-1]


def add_photon(sectors, weights):
    """``Sectors.add_photon`` with a fancy-index scatter and
    ``np.linalg.norm``."""
    if sectors.two.any():
        raise PhotonBudget(f"source exceeds photon budget {PHOTON_BUDGET}")
    w = np.zeros(len(sectors.one), dtype=complex)
    w[[sectors.state.index_of(m) for m in weights]] = list(weights.values())
    one = sectors.vacuum * w
    norm = np.linalg.norm(one) if sectors.vacuum else 0.0
    if sectors.one.any():
        pair = np.outer(sectors.one, w)
        two = (pair + pair.T) / _SQRT2
        norm = math.hypot(norm, np.linalg.norm(two))
        sectors.two = two / norm
    sectors.vacuum, sectors.one = 0j, one / norm


def router_swap(two, ia, ib, ic):
    """The router rule's swap of S[a, c] and S[b, c] by fancy indexing."""
    two[[ia, ib], ic] = two[[ib, ia], ic]
    two[ic, [ia, ib]] = two[ic, [ib, ia]]


def parse_weight(token):
    """``dsl.parse_weight`` trying the complex form first."""
    if m := dsl._COMPLEX_RE.match(token):
        value = complex(float(m.group(1)), float(m.group(2)))
    elif m := dsl._IMAG_RE.match(token):
        value = complex(0.0, float(m.group(1)))
    elif dsl._REAL_RE.match(token):
        value = complex(float(token), 0.0)
    else:
        return None
    return value if cmath.isfinite(value) else None


def postselect_state(sectors, amplitudes, modes, target):
    """``Sectors.postselect_state`` through the filled pair matrix."""
    n = len(sectors.one)
    layout = _layout(n)
    sub = np.array([sectors.state.index_of(m) for m in modes])
    bra = target.conj()
    pairs = np.zeros((n, n), dtype=complex)
    pairs[layout.rows, layout.cols] = amplitudes[1 + n:]
    pairs[layout.cols, layout.rows] = amplitudes[1 + n:]
    rest = np.zeros_like(amplitudes)
    rest[0] = bra @ amplitudes[1 + sub]
    rest[1:1 + n] = bra @ pairs[sub]
    rest[1 + sub] = 0
    return pruned(rest), float(np.sum(np.abs(rest) ** 2))
