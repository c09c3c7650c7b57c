"""Fock states of at most two photons over named optical modes.

A state is a sparse map from occupation-number tuples (one entry per
registered mode) to complex amplitudes; a mode is identified by its name, a
non-empty string.  The photon budget is 0, 1 or 2: one shutter photon plus
one probe photon.  Circuits propagate on the sector form of a state
(:class:`Sectors`): a vacuum amplitude, a one-photon vector ``v`` and a
symmetric two-photon matrix ``S`` with the amplitude of |2_i> equal to
S_ii and that of |1_i 1_j> equal to sqrt(2)*S_ij.  A mode unitary U then
acts as v -> U v and S -> U S U^T, the two-photon case of the permanent
rule.  All public operations are pure functions returning new states; a
``FockState`` is never mutated after construction, so states can be shared
freely between threads.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass
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
# Maximum allowed entrywise deviation of u†u from the identity.
UNITARITY_TOL = 1e-10
# Default and largest total-photon budget: one shutter photon plus one
# probe photon.  Two is also the minimum for the nonlinear-sign gates to be
# nontrivial, and the most that the sector form holds.
DEFAULT_PHOTON_BUDGET = 2
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ProjectionOutcome:
    """Renormalized post-measurement state together with its probability."""

    state: "FockState"
    probability: float


class FockState:
    """Pure state over an ordered tuple of registered modes.

    Parameters
    ----------
    modes:
        Ordered mode names; their order fixes the occupation-tuple layout.
    amplitudes:
        Sparse map from occupation tuples to complex amplitudes.  Entries
        with modulus below :data:`PRUNE_EPSILON` are dropped.
    n_total_max:
        Total-photon budget enforced on every stored configuration: 0, 1
        or 2.

    The constructor validates its input; states that operations derive from
    an existing state over the same modes are built by :meth:`_derived`,
    which skips those checks.
    """

    __slots__ = ("modes", "amplitudes", "n_total_max", "_index")

    def __init__(self, modes, amplitudes, n_total_max=DEFAULT_PHOTON_BUDGET):
        if n_total_max not in (0, 1, 2):
            raise BadParam(f"photon budget {n_total_max!r} is not 0, 1 or 2")
        modes = tuple(modes)
        index = {}
        for i, label in enumerate(modes):
            if not isinstance(label, str) or not label:
                raise BadParam(f"mode {label!r} is not a non-empty name")
            if label in index:
                raise DuplicateMode(f"duplicate mode label {label!r}")
            index[label] = i
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
            if sum(config) > n_total_max:
                raise PhotonBudget(
                    f"configuration {config} exceeds photon budget {n_total_max}"
                )
            checked[config] = amp
        self._set(modes, index, checked, n_total_max)

    def _set(self, modes, index, amplitudes, n_total_max):
        clean = {}
        for config, amp in amplitudes.items():
            amp = complex(amp)
            if abs(amp) >= PRUNE_EPSILON:
                clean[config] = amp
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "amplitudes", clean)
        object.__setattr__(self, "n_total_max", int(n_total_max))
        object.__setattr__(self, "_index", index)

    def _derived(self, amplitudes):
        """State over these modes and budget from ``amplitudes`` computed
        from valid configurations, converted and pruned as in the
        constructor but not checked."""
        state = object.__new__(FockState)
        state._set(self.modes, self._index, amplitudes, self.n_total_max)
        return state

    def __setattr__(self, name, value):
        raise AttributeError("FockState is immutable")

    def index_of(self, label):
        """Position of ``label`` in the registered mode order."""
        try:
            return self._index[label]
        except KeyError:
            raise UnknownMode(f"mode {label!r} is not registered") from None

    def amplitude(self, config):
        return self.amplitudes.get(tuple(config), 0j)

    def norm(self):
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    @property
    def is_zero(self):
        return not self.amplitudes

    def normalized(self):
        """Unit-norm copy; the zero state is returned unchanged."""
        n = self.norm()
        if n < PRUNE_EPSILON:
            return self._derived({})
        return self._derived({c: a / n for c, a in self.amplitudes.items()})

    def scaled(self, factor):
        return self._derived(
            {c: a * factor for c, a in self.amplitudes.items()}
        )

    def __repr__(self):
        return (
            f"FockState({len(self.modes)} modes, {len(self.amplitudes)} "
            f"configurations, norm={self.norm():.6g})"
        )


def register_modes(labels, n_total_max=DEFAULT_PHOTON_BUDGET):
    """Return the vacuum state over the mode names ``labels``.

    Raises :class:`DuplicateMode` if a name repeats and :class:`BadParam`
    if a mode is not a non-empty string or the budget is not 0, 1 or 2.
    """
    labels = tuple(labels)
    if not labels:
        raise BadParam("at least one mode is required")
    vacuum = (0,) * len(labels)
    return FockState(labels, {vacuum: 1.0 + 0j}, n_total_max)


def basis_state(template, config):
    """Basis state with the given occupation tuple over ``template``'s modes."""
    return FockState(template.modes, {tuple(config): 1.0 + 0j}, template.n_total_max)


def inject_photon(state, label):
    """Apply the normalized creation operator on ``label``.

    Each configuration's count at the mode increments and its amplitude picks
    up the bosonic sqrt(n+1) factor; the result is renormalized.  Injecting
    into the vacuum yields the one-photon basis state.
    """
    return superposition_source(state, {label: 1})


def superposition_source(state, weights):
    """Add one photon in a coherent superposition of modes.

    ``weights`` maps mode names to complex amplitudes; the injected photon
    is sum_m w_m a†_m acting on the current state, renormalized afterwards.
    """
    if not weights:
        raise BadParam("superposition source needs at least one mode")
    positions = {state.index_of(m): complex(w) for m, w in weights.items()}
    out = defaultdict(complex)
    for config, amp in state.amplitudes.items():
        if sum(config) + 1 > state.n_total_max:
            raise PhotonBudget(
                f"source exceeds photon budget {state.n_total_max}"
            )
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


def _check_unitary(u, k):
    u = np.asarray(u, dtype=complex)
    if u.shape != (k, k):
        raise BadParam(f"expected a {k}x{k} matrix, got shape {u.shape}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(k)))
    if defect > UNITARITY_TOL:
        raise NotUnitary(f"matrix deviates from unitarity by {defect:.3e}")
    return u


class Sectors:
    """Mutable sector form of a :class:`FockState` (see the module
    docstring): ``vacuum``, ``one`` (the vector v) and ``two`` (the
    symmetric matrix S, or None while the state has no two-photon part).

    :meth:`to_state` turns it back into a state over the same modes and
    budget and prunes Fock amplitudes below :data:`PRUNE_EPSILON`; nothing
    is pruned in between.
    """

    __slots__ = ("state", "vacuum", "one", "two")

    def __init__(self, state):
        n = len(state.modes)
        self.state = state
        self.vacuum = 0j
        self.one = np.zeros(n, dtype=complex)
        self.two = None
        for config, amp in state.amplitudes.items():
            photons = sum(config)
            if photons == 0:
                self.vacuum = amp
            elif photons == 1:
                self.one[config.index(1)] = amp
            else:
                if self.two is None:
                    self.two = np.zeros((n, n), dtype=complex)
                if 2 in config:
                    i = j = config.index(2)
                else:
                    i = config.index(1)
                    j = config.index(1, i + 1)
                    amp /= _SQRT2
                self.two[i, j] = self.two[j, i] = amp

    def two_photon_amplitude(self, i, j):
        """Fock amplitude of |2_i> (i == j) or |1_i 1_j>."""
        if self.two is None:
            return 0j
        amp = self.two[i, j]
        return amp if i == j else _SQRT2 * amp

    def apply_linear(self, positions, u):
        """v[pos] <- U v[pos], S[pos, :] <- U S[pos, :],
        S[:, pos] <- S[:, pos] U^T; ``u`` is trusted to be unitary."""
        self.one[positions] = u @ self.one[positions]
        two = self.two
        if two is not None:
            two[positions, :] = u @ two[positions, :]
            two[:, positions] = two[:, positions] @ u.T

    def to_state(self):
        n = len(self.state.modes)
        zeros = [0] * n
        out = {}
        if abs(self.vacuum) >= PRUNE_EPSILON:
            out[tuple(zeros)] = self.vacuum
        one = self.one
        for i in np.flatnonzero(np.abs(one) >= PRUNE_EPSILON).tolist():
            config = zeros.copy()
            config[i] = 1
            out[tuple(config)] = one[i]
        if self.two is not None:
            rows, cols, weights = _upper_triangle(n)
            amps = self.two[rows, cols] * weights
            kept = np.flatnonzero(np.abs(amps) >= PRUNE_EPSILON)
            for i, j, amp in zip(rows[kept].tolist(), cols[kept].tolist(),
                                 amps[kept].tolist()):
                config = zeros.copy()
                config[i] += 1
                config[j] += 1
                out[tuple(config)] = amp
        return self.state._derived(out)


@functools.lru_cache(maxsize=64)
def _upper_triangle(n):
    """Row and column indices of S's upper triangle, row-major, and the
    factor that turns each entry into its Fock amplitude."""
    rows, cols = np.triu_indices(n)
    return rows, cols, np.where(rows == cols, 1.0, _SQRT2)


def apply_mode_unitary(state, labels, u):
    """Apply a k-mode unitary through the Fock-space homomorphism:
    v -> U v and S -> U S U^T on the modes ``labels``.  Total photon
    number is conserved exactly."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise BadParam("mode list for a unitary must not repeat")
    u = _check_unitary(u, len(labels))
    sectors = Sectors(state)
    sectors.apply_linear([state.index_of(m) for m in labels], u)
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
    """Hermitian inner product <a|b> over identical mode lists."""
    if a.modes != b.modes:
        raise ModeMismatch("states are defined over different mode lists")
    small, big = (a, b) if len(a.amplitudes) <= len(b.amplitudes) else (b, a)
    total = 0j
    for config, amp in small.amplitudes.items():
        other = big.amplitudes.get(config)
        if other is None:
            continue
        if small is a:
            total += amp.conjugate() * other
        else:
            total += other.conjugate() * amp
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
    probability = sum(abs(a) ** 2 for a in kept.values())
    return state._derived(kept), float(probability)


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
    kept, probability = select(state, matches(state, pattern))
    return ProjectionOutcome(kept.normalized(), probability)


def project_predicate(state, predicate):
    """Project onto configurations satisfying ``predicate(config)``.

    The predicate must depend on occupation numbers only, so the projector
    is Fock-diagonal.
    """
    kept, probability = select(state, predicate)
    return ProjectionOutcome(kept.normalized(), probability)


def project_onto(state, target):
    """Rank-one projection onto ``target`` (same full mode list)."""
    overlap = inner_product(target, state)
    return ProjectionOutcome(target, float(abs(overlap) ** 2))


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
    probability = sum(abs(a) ** 2 for a in out.values())
    conditional = FockState(rest_modes, out, state.n_total_max).normalized()
    return ProjectionOutcome(conditional, float(probability))


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
    singular = np.linalg.svd(matrix, compute_uv=False)
    spectrum = [float(s) ** 2 for s in singular if s**2 > PRUNE_EPSILON]
    return spectrum
