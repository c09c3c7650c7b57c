"""Fock states of at most two photons over named optical modes.

A state is a sparse map from occupation-number tuples (one entry per
registered mode) to complex amplitudes; a mode is identified by its name, a
non-empty string.  Every state holds at most :data:`PHOTON_BUDGET` = 2
photons, one shutter photon plus one probe photon, so circuits propagate
on the sector form of a state (:class:`Sectors`): a vacuum amplitude, a
one-photon vector ``v`` and a symmetric two-photon matrix ``S`` with the
amplitude of |2_i> equal to S_ii and that of |1_i 1_j> equal to
sqrt(2)*S_ij.  A mode unitary U then acts as v -> U v and S -> U S U^T,
the two-photon case of the permanent rule.  All public operations are pure
functions returning new states; a ``FockState`` is never mutated after
construction.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import (
    BadParam,
    BadPartition,
    DuplicateMode,
    ModeMismatch,
    NotPhase,
    NotUnitary,
    PhotonBudget,
    UnknownMode,
)

# Amplitudes below this modulus are dropped from the sparse map.
PRUNE_EPSILON = 1e-14
# Conditioning denominators below this are treated as exactly zero.
CONDITION_EPSILON = 1e-24
# Maximum allowed entrywise deviation of u†u from the identity.
UNITARITY_TOL = 1e-10
# Total-photon budget of every state: one shutter photon plus one probe
# photon.  Two is also the minimum for the nonlinear-sign gates to be
# nontrivial, and the most that the sector form holds.
PHOTON_BUDGET = 2
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ProjectionOutcome:
    """Renormalized post-measurement state together with its probability."""

    state: "FockState"
    probability: float


class _ModeIndex(dict):
    """Mode name to position; a name not registered raises UnknownMode."""

    def __missing__(self, label):
        raise UnknownMode(f"mode {label!r} is not registered")


class FockState:
    """Pure state over an ordered tuple of registered modes.

    Parameters
    ----------
    modes:
        Ordered mode names; their order fixes the occupation-tuple layout.
    amplitudes:
        Sparse map from occupation tuples to complex amplitudes, held
        read-only.  Entries with modulus below :data:`PRUNE_EPSILON` are
        dropped; a non-finite one raises :class:`BadParam`.

    The constructor validates its input, including that no configuration
    holds more than :data:`PHOTON_BUDGET` photons; states that operations
    derive from an existing state over the same modes are built by
    :meth:`_derived`, which skips those checks.
    """

    __slots__ = ("modes", "amplitudes", "_index")

    def __init__(self, modes, amplitudes):
        modes = tuple(modes)
        index = _mode_index(modes)
        checked = {}
        n_modes = len(modes)
        for config, amp in amplitudes.items():
            config = tuple(int(n) for n in config)
            if len(config) != n_modes:
                raise BadParam(
                    f"occupation tuple {config} does not match {n_modes} modes"
                )
            if any(n < 0 for n in config):
                raise BadParam(f"negative occupation in {config}")
            if sum(config) > PHOTON_BUDGET:
                raise PhotonBudget(
                    f"configuration {config} exceeds photon budget "
                    f"{PHOTON_BUDGET}"
                )
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise BadParam(f"amplitude {amp} of {config} is not finite")
            checked[config] = amp
        self._set(modes, index, checked)

    def _set(self, modes, index, amplitudes):
        clean = {}
        for config, amp in amplitudes.items():
            amp = complex(amp)
            if abs(amp) >= PRUNE_EPSILON:
                clean[config] = amp
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "amplitudes", MappingProxyType(clean))
        object.__setattr__(self, "_index", index)

    def _derived(self, amplitudes):
        """State over these modes from ``amplitudes`` computed from valid
        configurations, converted and pruned as in the constructor but not
        checked."""
        state = object.__new__(FockState)
        state._set(self.modes, self._index, amplitudes)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("FockState is immutable")

    def index_of(self, label):
        """Position of ``label`` in the registered mode order."""
        return self._index[label]

    def amplitude(self, config):
        return self.amplitudes.get(tuple(config), 0j)

    def norm(self):
        return math.sqrt(scalar_sum(
            [abs(a) ** 2 for a in self.amplitudes.values()]))

    @property
    def is_zero(self):
        return not self.amplitudes

    def normalized(self):
        """Unit-norm copy; the zero state is returned unchanged."""
        n = self.norm()
        if n < PRUNE_EPSILON:
            return self._derived({})
        return self._derived({c: a / n for c, a in self.amplitudes.items()})

    def __repr__(self):
        return (
            f"FockState({len(self.modes)} modes, {len(self.amplitudes)} "
            f"configurations, norm={self.norm():.6g})"
        )


def _mode_index(modes):
    """The :class:`_ModeIndex` of the mode names ``modes``, checked."""
    index = _ModeIndex()
    for i, label in enumerate(modes):
        if not isinstance(label, str) or not label:
            raise BadParam(f"mode {label!r} is not a non-empty name")
        if label in index:
            raise DuplicateMode(f"duplicate mode label {label!r}")
        index[label] = i
    return index


def register_modes(labels):
    """Return the vacuum state over the mode names ``labels``.

    Raises :class:`DuplicateMode` if a name repeats and :class:`BadParam`
    if there are no modes or a mode is not a non-empty string.
    """
    labels = tuple(labels)
    if not labels:
        raise BadParam("at least one mode is required")
    return FockState(labels, {(0,) * len(labels): 1 + 0j})


def superposition_source(state, weights):
    """Add one photon in a coherent superposition of modes.

    ``weights`` maps mode names to finite complex amplitudes; the injected
    photon is sum_m w_m a†_m acting on the current state, renormalized
    afterwards.  Raises :class:`PhotonBudget` if the state already holds
    :data:`PHOTON_BUDGET` photons.
    """
    if not weights:
        raise BadParam("superposition source needs at least one mode")
    positions = {state.index_of(m): complex(w) for m, w in weights.items()}
    if not all(map(cmath.isfinite, positions.values())):
        raise BadParam("superposition weights are not finite")
    out = defaultdict(complex)
    for config, amp in state.amplitudes.items():
        if sum(config) + 1 > PHOTON_BUDGET:
            raise PhotonBudget(f"source exceeds photon budget {PHOTON_BUDGET}")
        for pos, w in positions.items():
            if w == 0:
                continue
            lifted = list(config)
            lifted[pos] += 1
            out[tuple(lifted)] += amp * w * math.sqrt(lifted[pos])
    result = state._derived(out)
    if result.is_zero:
        raise BadParam("superposition weights are all zero")
    return result.normalized()


def one_photon_amplitudes(weights):
    """The amplitudes of ``superposition_source(vacuum, weights)`` on its
    one-photon configurations, over modes one per entry of the sequence
    ``weights``, in its order, 0j where it has none: the same multiply,
    prune, sequential norm and divide, in Python scalars.  Raises
    :class:`BadParam` where that call does."""
    # There the vacuum amplitude 1 times w times sqrt(1) is added to a 0j
    # entry.  For a finite w the products change at most the sign of a
    # zero part, and that sum makes every zero part +0.0, as 0j + w does.
    lifted = [0j + complex(w) for w in weights]
    if not lifted:
        raise BadParam("superposition source needs at least one mode")
    if not all(map(cmath.isfinite, lifted)):
        raise BadParam("superposition weights are not finite")
    lifted = [a if abs(a) >= PRUNE_EPSILON else 0j for a in lifted]
    if not any(lifted):
        raise BadParam("superposition weights are all zero")
    norm = math.sqrt(scalar_sum([abs(a) ** 2 for a in lifted]))
    scaled = [a / norm for a in lifted]
    return [a if abs(a) >= PRUNE_EPSILON else 0j for a in scaled]


def _check_unitary(u, k):
    u = np.asarray(u, dtype=complex)
    if u.shape != (k, k):
        raise BadParam(f"expected a {k}x{k} matrix, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise NotUnitary("matrix has non-finite entries")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(k)))
    if defect > UNITARITY_TOL:
        raise NotUnitary(f"matrix deviates from unitarity by {defect:.3e}")
    return u


class Sectors:
    """Mutable sector form of a :class:`FockState` (see the module
    docstring): ``vacuum``, ``one`` (the vector v) and ``two`` (the
    symmetric n x n matrix S, all zeros while the state has no photon
    pair).

    Its Fock amplitudes are read in one flat layout over the n modes: the
    vacuum, one photon in each mode, then two photons in modes (i, j),
    i <= j, row-major, with S read from its upper triangle.
    :meth:`fock_amplitudes` prunes them below :data:`PRUNE_EPSILON`;
    :meth:`to_state` and the measurements start from there, and nothing
    is pruned in between.
    """

    __slots__ = ("state", "vacuum", "one", "two")

    def __init__(self, state):
        n = len(state.modes)
        self.state = state
        self.vacuum = 0j
        self.one = np.zeros(n, dtype=complex)
        self.two = np.zeros((n, n), dtype=complex)
        for config, amp in state.amplitudes.items():
            photons = sum(config)
            if photons == 0:
                self.vacuum = amp
            elif photons == 1:
                self.one[config.index(1)] = amp
            else:
                if 2 in config:
                    i = j = config.index(2)
                else:
                    i = config.index(1)
                    j = config.index(1, i + 1)
                    amp /= _SQRT2
                self.two[i, j] = self.two[j, i] = amp

    def copy(self):
        """A copy to evolve apart from this form."""
        twin = object.__new__(Sectors)
        twin.state, twin.vacuum = self.state, self.vacuum
        twin.one = self.one.copy()
        twin.two = self.two.copy()
        return twin

    def add_photon(self, weights):
        """Add a photon sum_m w_m a†_m, w_m finite and not all zero, as
        :func:`superposition_source` does: S <- (v w^T + w v^T)/sqrt(2) and
        v <- vacuum*w, renormalized; a third photon raises PhotonBudget."""
        if self.two.any():
            raise PhotonBudget(f"source exceeds photon budget {PHOTON_BUDGET}")
        w = np.zeros(len(self.one), dtype=complex)
        for mode, weight in weights.items():
            w[self.state.index_of(mode)] = weight
        one = self.vacuum * w
        # A sector with no photons to lift is empty: its norm is 0.0,
        # however it is computed.
        norm = np.linalg.norm(one) if self.vacuum else 0.0
        if self.one.any():
            pair = np.outer(self.one, w)
            two = (pair + pair.T) / _SQRT2
            norm = math.hypot(norm, np.linalg.norm(two))
            self.two = two / norm
        self.vacuum, self.one = 0j, one / norm

    def apply_mode_matrix(self, u):
        """v <- U v and S <- U S U^T for an n x n mode matrix ``u`` over
        all modes, trusted to be unitary."""
        self.one = u @ self.one
        self.two = u @ self.two @ u.T

    def fock_amplitudes(self):
        """Fock amplitude of every configuration, in the flat layout, with
        those of modulus below PRUNE_EPSILON set to zero."""
        n = len(self.one)
        layout = _layout(n)
        amps = np.zeros(layout.occupations.shape[1], dtype=complex)
        amps[0] = self.vacuum
        amps[1:1 + n] = self.one
        amps[1 + n:] = self.two[layout.rows, layout.cols] * layout.weights
        return pruned(amps)

    def to_state(self):
        amps = self.fock_amplitudes()
        kept = np.flatnonzero(amps)
        configs = _layout(len(self.one)).occupations[:, kept].T.tolist()
        return self.state._derived(
            dict(zip(map(tuple, configs), amps[kept].tolist())))

    def matches(self, pattern):
        """Mask over the flat layout of the configurations that hold the
        counts ``pattern`` (mode name to photon count)."""
        occupations = _layout(len(self.one)).occupations
        index = self.state._index
        mask = None
        for mode, count in pattern.items():
            # No configuration holds more than PHOTON_BUDGET photons.
            holds = occupations[index[mode]] == min(count, PHOTON_BUDGET + 1)
            mask = holds if mask is None else mask & holds
        return np.ones(occupations.shape[1], bool) if mask is None else mask

    def postselect_state(self, amplitudes, modes, target):
        """Project ``modes``, some of these modes, onto the one-photon
        state of amplitudes ``target`` over them, as
        :func:`postselect_subsystem` does; ``amplitudes`` are this form's
        :meth:`fock_amplitudes`.

        Returns the rest state in the flat layout, with no photon in
        ``modes`` and pruned, and its Born probability, taken before that
        pruning.
        """
        n = len(self.one)
        sub = np.array([self.state.index_of(m) for m in modes])
        bra = target.conj()
        rest = np.zeros_like(amplitudes)
        rest[0] = bra @ amplitudes[1 + sub]
        rest[1:1 + n] = bra @ amplitudes[_layout(n).pairs[sub]]
        rest[1 + sub] = 0
        return pruned(rest), float(np.sum(np.abs(rest) ** 2))


class _Layout(NamedTuple):
    rows: np.ndarray  # S's upper triangle, row-major
    cols: np.ndarray
    weights: np.ndarray  # turns each entry into its Fock amplitude
    occupations: np.ndarray  # photons of each mode (row) per configuration
    pairs: np.ndarray  # (i, j) to the configuration of photons in i and j


@functools.lru_cache(maxsize=64)
def _layout(n):
    """The flat configuration layout over n modes (see :class:`Sectors`)."""
    rows, cols = np.triu_indices(n)
    none, modes = np.full(1 + n, -1), np.arange(n)[:, None]
    first = np.concatenate([none[:1], np.arange(n), rows])
    second = np.concatenate([none, cols])
    pairs = np.empty((n, n), dtype=np.intp)
    pairs[rows, cols] = pairs[cols, rows] = np.arange(1 + n, len(first))
    return _Layout(rows, cols, np.where(rows == cols, 1.0, _SQRT2),
                   np.add(first == modes, second == modes, dtype=np.int8),
                   pairs)


def pruned(amplitudes):
    """``amplitudes`` with each entry of modulus below PRUNE_EPSILON set to
    zero, as a :class:`FockState` drops it."""
    return np.where(np.abs(amplitudes) < PRUNE_EPSILON, 0j, amplitudes)


def row_norms(rows):
    """The 2-norm of each row of the complex matrix ``rows``, as an (n, 1)
    column, bit for bit as :func:`numpy.linalg.norm` computes it one row at
    a time: two stacked dot products, unlike ``norm(axis=1)``."""
    re, im = rows.real, rows.imag
    return np.sqrt(re[:, None, :] @ re[:, :, None]
                   + im[:, None, :] @ im[:, :, None])[:, 0]


def running_sum(terms, axis=-1):
    """The sum of the real ``terms`` along ``axis``, adding one term after
    another from the first.  ``np.sum`` adds eight or more terms in pairs,
    and Python's ``sum`` compensates float additions from 3.12 on
    (Neumaier): both can round differently.  A list of a few floats adds
    in :func:`scalar_sum`, without an array."""
    terms = np.asarray(terms, dtype=float)
    if not terms.size:
        return terms.sum(axis=axis)
    return np.add.accumulate(terms, axis=axis).take(-1, axis=axis)


def scalar_sum(terms):
    """The sum of the list of floats ``terms`` as :func:`running_sum` adds
    them, one after another from the first, in Python floats: the same
    bits, but +0.0 where every term is -0.0.  An overflow is inf, without
    a warning."""
    return functools.reduce(operator.add, terms, 0.0)


def normalized_rows(amplitudes):
    """Each row of ``amplitudes`` as :meth:`FockState.normalized` leaves
    it: divided by its norm and pruned, or zero when that norm is below
    PRUNE_EPSILON."""
    norms = np.sqrt(np.sum(np.abs(amplitudes) ** 2, axis=-1, keepdims=True))
    live = norms >= PRUNE_EPSILON
    return pruned(
        np.where(live, amplitudes / np.where(live, norms, 1.0), 0j)
    )


def apply_mode_unitary(state, labels, u):
    """Apply a k-mode unitary through the Fock-space homomorphism:
    v -> U v and S -> U S U^T on the modes ``labels``.  Total photon
    number is conserved exactly."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise BadParam("mode list for a unitary must not repeat")
    u = _check_unitary(u, len(labels))
    positions = [state.index_of(m) for m in labels]
    full = np.eye(len(state.modes), dtype=complex)
    full[np.ix_(positions, positions)] = u
    sectors = Sectors(state)
    sectors.apply_mode_matrix(full)
    return sectors.to_state()


def apply_fock_phase(state, label, phases):
    """Multiply each configuration by ``phases[n]`` for its count at ``label``.

    Every entry must have unit modulus.  The list must cover the largest
    occupation present on the mode.
    """
    phases = [complex(p) for p in phases]
    for p in phases:
        if abs(abs(p) - 1.0) > UNITARITY_TOL:
            raise NotPhase(f"phase entry {p} does not have unit modulus")
    pos = state.index_of(label)
    out = {}
    for config, amp in state.amplitudes.items():
        n = config[pos]
        if n >= len(phases):
            raise NotPhase(
                f"phase list of length {len(phases)} does not cover "
                f"occupation {n}"
            )
        out[config] = amp * phases[n]
    return state._derived(out)


def inner_product(a, b):
    """Hermitian inner product <a|b> over identical mode lists, summed in
    the order of ``a``'s configurations."""
    if a.modes != b.modes:
        raise ModeMismatch("states are defined over different mode lists")
    total = 0j
    for config, amp in a.amplitudes.items():
        other = b.amplitudes.get(config)
        if other is not None:
            total += amp.conjugate() * other
    return total


def fidelity(a, b):
    """|<a|b>|² for normalized states (global phase drops out)."""
    return abs(inner_product(a, b)) ** 2


def select(state, predicate):
    """Fock-diagonal selection: the part of ``state`` whose configurations
    satisfy ``predicate(config)``, unnormalized, and its probability.

    The predicate must depend on occupation numbers only.
    """
    kept = {c: a for c, a in state.amplitudes.items() if predicate(c)}
    probability = scalar_sum([abs(a) ** 2 for a in kept.values()])
    return state._derived(kept), probability


def matches(state, pattern):
    """Predicate of the configurations of ``state`` that hold the counts
    ``pattern`` (mode name to photon count) on its modes."""
    constraints = [(state.index_of(m), int(n)) for m, n in pattern.items()]
    return lambda config: all(config[p] == n for p, n in constraints)


def project_pattern(state, pattern):
    """Project onto configurations matching a partial occupation pattern.

    ``pattern`` maps mode names to required photon counts; unconstrained
    modes are left free.  A probability of zero is a valid outcome and
    returns the flagged zero state.
    """
    return project_predicate(state, matches(state, pattern))


def project_predicate(state, predicate):
    """Project onto configurations satisfying ``predicate(config)``.

    The predicate must depend on occupation numbers only, so the projector
    is Fock-diagonal.
    """
    kept, probability = select(state, predicate)
    return ProjectionOutcome(kept.normalized(), probability)


def postselect_subsystem(state, target):
    """Project the modes of ``target`` onto it and return the rest.

    ``target`` is a normalized state over a proper subset of ``state``'s
    modes.  The returned outcome carries the renormalized conditional state
    of the remaining modes and the Born probability |(<t| ⊗ 1)|state>|².
    """
    sub_labels = set(target.modes)
    if not sub_labels or sub_labels == set(state.modes):
        raise BadPartition("target must cover a proper nonempty mode subset")
    sub_positions = [state.index_of(m) for m in target.modes]
    rest_positions = [
        i for i, m in enumerate(state.modes) if m not in sub_labels
    ]
    rest_modes = tuple(state.modes[i] for i in rest_positions)

    out = defaultdict(complex)
    for config, amp in state.amplitudes.items():
        sub = tuple(config[p] for p in sub_positions)
        t_amp = target.amplitudes.get(sub)
        if t_amp is None:
            continue
        rest = tuple(config[p] for p in rest_positions)
        out[rest] += t_amp.conjugate() * amp
    probability = scalar_sum([abs(a) ** 2 for a in out.values()])
    conditional = FockState(rest_modes, out).normalized()
    return ProjectionOutcome(conditional, probability)


def schmidt_spectrum(state, partition):
    """Squared Schmidt coefficients across ``partition`` versus the rest.

    The amplitude map is reshaped into a matrix over the two configuration
    subspaces and its singular values are squared.  For a normalized state
    the spectrum is descending and sums to one; a product state gives [1].
    """
    part = set(partition)
    if not part or part == set(state.modes):
        raise BadPartition("partition must be a proper nonempty mode subset")
    left_positions = sorted(state.index_of(m) for m in part)
    right_positions = [
        i for i, m in enumerate(state.modes) if m not in part
    ]

    left_index, right_index = {}, {}
    entries = []
    for config, amp in state.amplitudes.items():
        lc = tuple(config[p] for p in left_positions)
        rc = tuple(config[p] for p in right_positions)
        li = left_index.setdefault(lc, len(left_index))
        ri = right_index.setdefault(rc, len(right_index))
        entries.append((li, ri, amp))
    matrix = np.zeros((len(left_index), len(right_index)), dtype=complex)
    for li, ri, amp in entries:
        matrix[li, ri] = amp
    return spectrum_of(spectra_of(matrix))


def spectrum_of(row):
    """One row of :func:`spectra_of` as a list, without its zero
    padding."""
    return [s for s in row.tolist() if s]


def spectra_of(matrices):
    """Squared Schmidt coefficients of amplitude matrices, one row per
    matrix of the stack ``matrices``: the squares of its singular values
    above :data:`PRUNE_EPSILON`, largest first, then zeros.
    ``np.float_power`` squares by libm's ``pow``, as ``float ** 2`` does; a
    product ``s * s`` differs from it in the last bit of about one square
    in a thousand."""
    squares = np.float_power(np.linalg.svd(matrices, compute_uv=False), 2)
    return np.where(squares > PRUNE_EPSILON, squares, 0.0)
