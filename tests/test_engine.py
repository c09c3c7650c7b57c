"""The propagation engine against the independent dense oracle on seeded
random circuits of at most five modes and two photons.

A circuit has two phases.  Its modes are split into control modes C and
probe modes P, and the initial state mixes the vacuum, one photon anywhere
and two photons with one in C and one in P.  The first phase keeps that
structure, so its routers (probes in P, control in C) stay in their sector:
linear elements and relabels act inside C or inside P, and the NS gates act
on a probe and a control mode.  The second phase mixes all modes and holds
no routers, so single-mode NS gates meet |2_m> components.
"""

import numpy as np
import pytest

from router_sim import elements, fock
from router_sim.elements import RouterOrientation, apply_schedule
from router_sim.errors import UnsupportedSector
from dense_oracle import (
    dense_element,
    enumerate_basis,
    max_amplitude_deviation,
    state_to_vector,
)

TOL = 1e-12
SEEDS = range(40)


def random_unitary(rng, k):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pick(rng, names, k):
    return [str(m) for m in rng.choice(names, size=k, replace=False)]


def random_linear(rng, names):
    """A bs, ps, tunnel or unitary element on modes drawn from ``names``."""
    kind = rng.choice(["bs", "ps", "tunnel", "unitary"] if len(names) > 1
                      else ["ps", "unitary"])
    if kind == "bs":
        return elements.beamsplitter(rng.random(), *pick(rng, names, 2))
    if kind == "ps":
        return elements.phase_shifter(rng.uniform(-np.pi, np.pi),
                                      pick(rng, names, 1)[0])
    if kind == "tunnel":
        return elements.tunneling(rng.uniform(-np.pi, np.pi),
                                  *pick(rng, names, 2))
    k = int(rng.integers(1, len(names) + 1))
    return elements.mode_unitary(random_unitary(rng, k), pick(rng, names, k))


def random_relabel(rng, names):
    chosen = pick(rng, names, int(rng.integers(1, len(names) + 1)))
    return elements.relabel(dict(zip(chosen, rng.permutation(chosen).tolist())))


def random_router(rng, probes, controls):
    a, b = pick(rng, probes, 2)
    c = pick(rng, controls, 1)[0]
    build = elements.pqr_ideal if rng.random() < 0.5 else elements.pqr_decomposed
    orientation = rng.choice(list(RouterOrientation))
    return build(a, b, c, orientation)


def random_circuit(rng, probes, controls):
    names = probes + controls
    schedule = []
    for _ in range(int(rng.integers(4, 12))):
        roll = rng.random()
        if roll < 0.35:
            schedule.append(random_router(rng, probes, controls))
        elif roll < 0.45:
            schedule.append(elements.ns_two_mode(pick(rng, probes, 1)[0],
                                                 pick(rng, controls, 1)[0]))
        elif roll < 0.5:
            schedule.append(elements.ns_single(pick(rng, names, 1)[0]))
        elif roll < 0.6:
            block = probes if rng.random() < 0.5 else controls
            schedule.append(random_relabel(rng, block))
        else:
            block = probes if rng.random() < 0.5 else controls
            schedule.append(random_linear(rng, block))
    for _ in range(int(rng.integers(0, 8))):
        roll = rng.random()
        if roll < 0.2:
            schedule.append(elements.ns_single(pick(rng, names, 1)[0]))
        elif roll < 0.3:
            schedule.append(elements.ns_two_mode(*pick(rng, names, 2)))
        elif roll < 0.4:
            schedule.append(random_relabel(rng, names))
        else:
            schedule.append(random_linear(rng, names))
    return schedule


def random_state(rng, names, probes, controls, budget):
    """Random normalized superposition of the vacuum, one photon on any
    mode and (budget 2) one photon in ``controls`` with one in
    ``probes``; some sectors are left out at random."""
    n = len(names)
    amps = {}

    def put(counts, amp):
        config = [0] * n
        for m in counts:
            config[names.index(m)] += 1
        amps[tuple(config)] = amp

    def draw():
        return complex(rng.normal(), rng.normal())

    if rng.random() < 0.5:
        put([], draw())
    for m in names:
        if rng.random() < 0.6:
            put([m], draw())
    if budget == 2:
        for p in probes:
            for c in controls:
                if rng.random() < 0.6:
                    put([p, c], draw())
    if not amps:
        put([names[0]], 1.0)
    return fock.FockState(names, amps).normalized()


def dense_matrix(schedule, names, budget):
    configs, index = enumerate_basis(len(names), budget)
    total = np.eye(len(configs), dtype=complex)
    for element in schedule:
        total = dense_element(element, names, configs, index, budget) @ total
    return total, configs, index


def vector_to_state(vec, names, configs):
    return fock.FockState(
        names, {c: a for c, a in zip(configs, vec) if a != 0}
    )


def assert_same_state(a, b):
    for config in set(a.amplitudes) | set(b.amplitudes):
        assert abs(a.amplitude(config) - b.amplitude(config)) <= TOL, config


def draw_setup(seed):
    rng = np.random.default_rng(seed)
    n_controls = int(rng.integers(1, 3))
    n_probes = int(rng.integers(2, 6 - n_controls))
    probes = [f"P{i}" for i in range(n_probes)]
    controls = [f"C{i}" for i in range(n_controls)]
    names = [str(m) for m in rng.permutation(probes + controls)]
    budget = 2 if seed % 4 else 1
    return rng, names, probes, controls, budget


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_dense_oracle(seed):
    rng, names, probes, controls, budget = draw_setup(seed)
    schedule = random_circuit(rng, probes, controls)
    matrix, configs, index = dense_matrix(schedule, names, budget)

    psi = random_state(rng, names, probes, controls, budget)
    out = apply_schedule(psi, schedule)
    expected = matrix @ state_to_vector(psi, configs, index)
    assert max_amplitude_deviation(out, expected, configs, index) <= TOL

    phi_vec = matrix @ state_to_vector(
        random_state(rng, names, probes, controls, budget), configs, index
    )
    phi = vector_to_state(phi_vec, names, configs)
    back = apply_schedule(phi, schedule, adjoint=True)
    expected = matrix.conj().T @ state_to_vector(phi, configs, index)
    assert max_amplitude_deviation(back, expected, configs, index) <= TOL

    assert_same_state(apply_schedule(out, schedule, adjoint=True), psi)


@pytest.mark.parametrize("seed", SEEDS)
def test_router_builds_agree_on_random_superpositions(seed):
    """The ideal and decomposed routers give the same amplitudes on an
    in-sector random superposition (probes in P, control in C), for both
    orientations, forward and adjoint."""
    rng, names, probes, controls, budget = draw_setup(seed)
    psi = random_state(rng, names, probes, controls, budget)
    a, b = pick(rng, probes, 2)
    c = pick(rng, controls, 1)[0]
    for orientation in RouterOrientation:
        ideal = elements.pqr_ideal(a, b, c, orientation)
        decomposed = elements.pqr_decomposed(a, b, c, orientation)
        for adjoint in (False, True):
            assert_same_state(apply_schedule(psi, [ideal], adjoint),
                              apply_schedule(psi, [decomposed], adjoint))


def test_random_circuits_cover_every_kind():
    kinds, orientations = set(), set()
    for seed in SEEDS:
        rng, _, probes, controls, _ = draw_setup(seed)
        for element in random_circuit(rng, probes, controls):
            kinds.add(element.kind)
            if element.kind is elements.ElementKind.PQR_IDEAL:
                orientations.add(element.params["orientation"])
    assert kinds == set(elements.ElementKind)
    assert orientations == set(RouterOrientation)


OUT_OF_SECTOR = {
    "two-in-probe_a": ("a", "a"),
    "two-in-probe_b": ("b", "b"),
    "two-in-control": ("c", "c"),
    "one-in-each-probe": ("a", "b"),
}


@pytest.mark.parametrize("build", [elements.pqr_ideal, elements.pqr_decomposed])
@pytest.mark.parametrize("pair", OUT_OF_SECTOR.values(), ids=OUT_OF_SECTOR)
def test_router_rejects_out_of_sector_input(build, pair):
    names = ["a", "b", "c", "d"]
    config = [0, 0, 0, 0]
    for m in pair:
        config[names.index(m)] += 1
    state = fock.FockState(
        names, {(0, 0, 0, 0): 0.5, (1, 0, 0, 0): 0.5, (1, 0, 1, 0): 0.5,
                tuple(config): 0.5},
    )
    with pytest.raises(UnsupportedSector):
        apply_schedule(state, [build("a", "b", "c")])
    with pytest.raises(UnsupportedSector):
        apply_schedule(state, [build("a", "b", "c")], adjoint=True)
