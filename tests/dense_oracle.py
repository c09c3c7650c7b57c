"""Brute-force dense Fock-space propagation, independent of the engine.

The dense route builds ladder-operator matrices over an explicitly
enumerated occupation basis and exponentiates the quadratic Hamiltonian
h = -i log(u) of each mode matrix, instead of transforming the engine's
one- and two-photon sectors.  Routers are densified through their Mach-Zehnder
decomposition, not the ideal routing rule, so scenario-level comparisons
exercise both the propagation engine and the router equivalence.
"""

import numpy as np
import scipy.linalg

from router_sim.elements import ElementKind, bs_matrix, tunnel_matrix
from router_sim.fock import PHOTON_BUDGET


def ns_phases(n_total_max):
    """Fock phases of the nonlinear-sign gate: -1 on two photons."""
    return [-1.0 if n == 2 else 1.0 for n in range(n_total_max + 1)]


def enumerate_basis(n_modes, n_total_max):
    """Occupation tuples of ``n_modes`` modes holding at most
    ``n_total_max`` photons in total, in lexicographic order, and their
    positions.  Each mode is appended in turn with every count the
    remaining budget allows, so no over-budget tuple is ever built."""
    configs = [()]
    for _ in range(n_modes):
        configs = [
            c + (n,) for c in configs for n in range(n_total_max + 1 - sum(c))
        ]
    index = {c: i for i, c in enumerate(configs)}
    return configs, index


def state_to_vector(state, configs, index):
    vec = np.zeros(len(configs), dtype=complex)
    for config, amp in state.amplitudes.items():
        vec[index[config]] = amp
    return vec


def annihilator(mode_pos, configs, index):
    dim = len(configs)
    op = np.zeros((dim, dim), dtype=complex)
    for i, config in enumerate(configs):
        n = config[mode_pos]
        if n == 0:
            continue
        lowered = list(config)
        lowered[mode_pos] -= 1
        op[index[tuple(lowered)], i] = np.sqrt(n)
    return op


def unitary_log(u):
    """Hermitian h with u = exp(i h), via the Schur form (robust for
    degenerate eigenvalues)."""
    t, z = scipy.linalg.schur(np.asarray(u, dtype=complex), output="complex")
    angles = np.angle(np.diag(t))
    return z @ np.diag(angles) @ z.conj().T


def dense_mode_unitary(u, positions, configs, index):
    """Fock-space matrix of a mode unitary via exp of sum h_jk a†_j a_k."""
    h = unitary_log(u)
    dim = len(configs)
    ladders = {p: annihilator(p, configs, index) for p in positions}
    big_h = np.zeros((dim, dim), dtype=complex)
    for j, pj in enumerate(positions):
        for k, pk in enumerate(positions):
            if h[j, k] == 0:
                continue
            big_h += h[j, k] * (ladders[pj].conj().T @ ladders[pk])
    return scipy.linalg.expm(1j * big_h)


def dense_fock_phase(phases, mode_pos, configs, index):
    dim = len(configs)
    diag = np.ones(dim, dtype=complex)
    for i, config in enumerate(configs):
        diag[i] = phases[config[mode_pos]]
    return np.diag(diag)


def _positions(state_modes, element_modes):
    lookup = {m: i for i, m in enumerate(state_modes)}
    return [lookup[m] for m in element_modes]


def dense_element(element, state_modes, configs, index, n_total_max):
    kind = element.kind
    if kind is ElementKind.BS:
        u = bs_matrix(element.params["r"])
        return dense_mode_unitary(
            u, _positions(state_modes, element.modes), configs, index
        )
    if kind is ElementKind.PHASE:
        u = np.array([[np.exp(1j * element.params["angle"])]])
        return dense_mode_unitary(
            u, _positions(state_modes, element.modes), configs, index
        )
    if kind is ElementKind.TUNNEL:
        u = tunnel_matrix(element.params["theta"])
        return dense_mode_unitary(
            u, _positions(state_modes, element.modes), configs, index
        )
    if kind is ElementKind.MODE_UNITARY:
        return dense_mode_unitary(
            element.params["matrix"],
            _positions(state_modes, element.modes),
            configs,
            index,
        )
    if kind is ElementKind.NS_SINGLE:
        pos = _positions(state_modes, element.modes)[0]
        return dense_fock_phase(ns_phases(n_total_max), pos, configs, index)
    if kind is ElementKind.NS_TWO_MODE:
        pa, pb = _positions(state_modes, element.modes)
        return _dense_ns_two_mode(pa, pb, configs, index, n_total_max)
    if kind in (ElementKind.PQR_IDEAL, ElementKind.PQR_DECOMPOSED):
        a, b, c = _positions(state_modes, element.modes)
        return _dense_router(a, b, c, configs, index, n_total_max)
    if kind is ElementKind.RELABEL:
        return _dense_relabel(element, state_modes, configs, index)
    raise ValueError(f"no dense form for {kind}")


def _dense_ns_two_mode(pa, pb, configs, index, n_total_max):
    bs = dense_mode_unitary(bs_matrix(0.5), [pa, pb], configs, index)
    ns = dense_fock_phase(ns_phases(n_total_max), pa, configs, index)
    ns2 = dense_fock_phase(ns_phases(n_total_max), pb, configs, index)
    return bs.conj().T @ ns2 @ ns @ bs


def _dense_router(a, b, c, configs, index, n_total_max):
    """Router densified through its MZI decomposition."""
    minus = dense_mode_unitary(
        np.array([[np.exp(-0.5j * np.pi)]]), [b], configs, index
    )
    plus = dense_mode_unitary(
        np.array([[np.exp(0.5j * np.pi)]]), [b], configs, index
    )
    outer = dense_mode_unitary(bs_matrix(0.5), [a, b], configs, index)
    inner = _dense_ns_two_mode(b, c, configs, index, n_total_max)
    return plus @ outer.conj().T @ inner @ outer @ minus


def _dense_relabel(element, state_modes, configs, index):
    mapping = element.params["mapping"]
    lookup = {m: i for i, m in enumerate(state_modes)}
    dim = len(configs)
    op = np.zeros((dim, dim), dtype=complex)
    for i, config in enumerate(configs):
        permuted = list(config)
        for src, dst in mapping.items():
            permuted[lookup[dst]] = config[lookup[src]]
        op[index[tuple(permuted)], i] = 1.0
    return op


def dense_propagate(state, schedule):
    """Propagate a sparse initial state densely through a schedule."""
    configs, index = enumerate_basis(len(state.modes), PHOTON_BUDGET)
    vec = state_to_vector(state, configs, index)
    for element in schedule:
        matrix = dense_element(
            element, state.modes, configs, index, PHOTON_BUDGET
        )
        vec = matrix @ vec
    return vec, configs, index


def max_amplitude_deviation(sparse_state, dense_vec, configs, index):
    worst = 0.0
    for i, config in enumerate(configs):
        worst = max(
            worst, abs(sparse_state.amplitude(config) - dense_vec[i])
        )
    return worst
