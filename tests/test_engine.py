"""The propagation engine and the measurements of ``dsl.execute`` against
the independent dense oracle on seeded random circuits.

An engine circuit has at most five modes and two photons, and two phases.
Its modes are split into control modes C and probe modes P, and the
initial state mixes the vacuum, one photon anywhere and two photons with
one in C and one in P.  The first phase keeps that structure, so its
routers (probes in P, control in C) stay in their sector: linear elements
and relabels act inside C or inside P, and the NS gates act on a probe and
a control mode.  The second phase mixes all modes and holds no routers, so
single-mode NS gates meet |2_m> components.  Each phase holds a run of ten
or more linear elements and relabels, which the engine applies as one mode
matrix.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

import evolve_reference
from router_sim import dsl, elements, fock
from router_sim.elements import RouterOrientation, apply_schedule
from router_sim.errors import UnsupportedSector
from dense_oracle import (
    dense_element,
    dense_propagate,
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


def random_run(rng, blocks):
    """10 to 15 linear elements and relabels, each inside one of
    ``blocks``; the engine composes such a run into one mode matrix."""
    run = []
    for _ in range(int(rng.integers(10, 16))):
        block = blocks[int(rng.integers(len(blocks)))]
        if rng.random() < 0.2:
            run.append(random_relabel(rng, block))
        else:
            run.append(random_linear(rng, block))
    return run


def random_ns(rng, names):
    if rng.random() < 0.5:
        return elements.ns_single(pick(rng, names, 1)[0])
    return elements.ns_two_mode(*pick(rng, names, 2))


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
    at = int(rng.integers(0, len(schedule) + 1))
    schedule[at:at] = random_run(rng, [probes, controls])
    schedule.append(random_ns(rng, names))
    schedule += random_run(rng, [names])
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
    """Amplitudes agree with the dense matrix, and the norm of a
    normalized state is kept, forward and adjoint."""
    rng, names, probes, controls, budget = draw_setup(seed)
    schedule = random_circuit(rng, probes, controls)
    matrix, configs, index = dense_matrix(schedule, names, budget)

    psi = random_state(rng, names, probes, controls, budget)
    out = apply_schedule(psi, schedule)
    expected = matrix @ state_to_vector(psi, configs, index)
    assert max_amplitude_deviation(out, expected, configs, index) <= TOL
    assert abs(out.norm() - 1.0) <= TOL

    phi_vec = matrix @ state_to_vector(
        random_state(rng, names, probes, controls, budget), configs, index
    )
    phi = vector_to_state(phi_vec, names, configs)
    back = apply_schedule(phi, schedule, adjoint=True)
    expected = matrix.conj().T @ state_to_vector(phi, configs, index)
    assert max_amplitude_deviation(back, expected, configs, index) <= TOL
    assert abs(back.norm() - 1.0) <= TOL

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
    """Every kind and both ideal-router orientations occur, and each
    circuit holds at least two runs of ten or more consecutive linear
    elements and relabels."""
    linear = {elements.ElementKind.BS, elements.ElementKind.PHASE,
              elements.ElementKind.TUNNEL, elements.ElementKind.MODE_UNITARY,
              elements.ElementKind.RELABEL}
    kinds, orientations = set(), set()
    for seed in SEEDS:
        rng, _, probes, controls, _ = draw_setup(seed)
        schedule = random_circuit(rng, probes, controls)
        for element in schedule:
            kinds.add(element.kind)
            if element.kind is elements.ElementKind.PQR_IDEAL:
                orientations.add(element.params["orientation"])
        runs = [len(list(run)) for is_linear, run in itertools.groupby(
            schedule, key=lambda e: e.kind in linear) if is_linear]
        assert sum(length >= 10 for length in runs) >= 2, seed
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


# ---------------------------------------------------------------------------
# run composition: each way an element enters the run's mode matrix
# ---------------------------------------------------------------------------

KERNEL_NAMES = [f"M{i}" for i in range(6)]


def assert_matches_dense_both_ways(schedule, rng):
    """The schedule and its adjoint on a random state of up to two photons
    over KERNEL_NAMES agree with the dense matrix to TOL."""
    matrix, configs, index = dense_matrix(schedule, KERNEL_NAMES, 2)
    vec = rng.normal(size=len(configs)) + 1j * rng.normal(size=len(configs))
    psi = vector_to_state(vec / np.linalg.norm(vec), KERNEL_NAMES, configs)
    expected = state_to_vector(psi, configs, index)
    for adjoint, dense in ((False, matrix), (True, matrix.conj().T)):
        out = apply_schedule(psi, schedule, adjoint)
        assert max_amplitude_deviation(
            out, dense @ expected, configs, index) <= TOL


KERNEL_CASES = {
    # A non-symmetric 2 x 2 matrix, so that reading its rows in register
    # order without flipping it gives a different element.
    "two modes, first after second": lambda rng: [
        elements.mode_unitary(random_unitary(rng, 2), ("M4", "M1"))],
    "two modes in register order": lambda rng: [
        elements.mode_unitary(random_unitary(rng, 2), ("M0", "M5"))],
    "one mode": lambda rng: [
        elements.phase_shifter(rng.uniform(-np.pi, np.pi), "M3")],
    "three modes": lambda rng: [
        elements.mode_unitary(random_unitary(rng, 3), ("M5", "M0", "M2"))],
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
@pytest.mark.parametrize("seed", range(3))
def test_single_element_run_matches_dense_oracle(case, seed):
    rng = np.random.default_rng([seed, 17])
    assert_matches_dense_both_ways(KERNEL_CASES[case](rng), rng)


def test_long_linear_run_matches_dense_oracle():
    """120 linear elements and relabels with no NS gate or router: one
    mode matrix composed over the whole schedule."""
    rng = np.random.default_rng(23)
    schedule = [random_relabel(rng, KERNEL_NAMES) if rng.random() < 0.2
                else random_linear(rng, KERNEL_NAMES) for _ in range(120)]
    assert not any(e.kind in elements._RULES for e in schedule)
    assert {len(e.modes) for e in schedule} >= {1, 2, 3}
    assert_matches_dense_both_ways(schedule, rng)


# ---------------------------------------------------------------------------
# elements.evolve against the per-element loop it replaced, bit for bit
# ---------------------------------------------------------------------------

def assert_same_bits(got, want):
    assert got.vacuum == want.vacuum
    assert np.array_equal(got.one, want.one)
    assert np.array_equal(got.two, want.two)


def evolve_both_ways(sectors, schedule):
    """The schedule on ``sectors`` by ``elements.evolve`` and by the
    reference, then its adjoint on the reference's result by both."""
    got, want = sectors.copy(), sectors.copy()
    elements.evolve(got, schedule)
    evolve_reference.evolve(want, schedule)
    assert_same_bits(got, want)
    got, back = want.copy(), want.copy()
    elements.evolve(got, schedule, adjoint=True)
    evolve_reference.evolve(back, schedule, adjoint=True)
    assert_same_bits(got, back)


@pytest.mark.parametrize("seed", SEEDS)
def test_evolve_matches_the_per_element_loop(seed):
    """Random circuits of every element kind, forward and adjoint."""
    rng, names, probes, controls, budget = draw_setup(seed)
    schedule = random_circuit(rng, probes, controls)
    psi = random_state(rng, names, probes, controls, budget)
    evolve_both_ways(fock.Sectors(psi), schedule)


def test_evolve_matches_the_per_element_loop_on_24_modes():
    """The pinned 24-mode, 120-element circuit of the golden test."""
    path = Path(__file__).parent / "circuits" / "gen00.circuit"
    compiled = dsl.compile_doc(dsl.parse(path.read_text(encoding="utf-8")))
    evolve_both_ways(compiled.initial, compiled.schedule)


def cycle_lengths(mapping):
    lengths, seen = set(), set()
    for start in mapping:
        length, m = 0, start
        while m not in seen:
            seen.add(m)
            m, length = mapping[m], length + 1
        if length:
            lengths.add(length)
    return lengths


def test_reference_circuits_cover_cycles_and_unitary_sizes():
    """Relabels of 2- and 3-cycles and unitaries on 1, 2 and 3 modes occur
    among the circuits of the reference test."""
    cycles, sizes = set(), set()
    for seed in SEEDS:
        rng, _, probes, controls, _ = draw_setup(seed)
        for element in random_circuit(rng, probes, controls):
            if element.kind is elements.ElementKind.RELABEL:
                cycles |= cycle_lengths(element.params["mapping"])
            elif element.kind is elements.ElementKind.MODE_UNITARY:
                sizes.add(len(element.modes))
    assert cycles >= {2, 3}
    assert sizes >= {1, 2, 3}


# ---------------------------------------------------------------------------
# dsl.execute: measurements on the sector form against dense projections
# ---------------------------------------------------------------------------

def random_compiled(seed):
    """A compiled circuit of three to eight modes with one source photon
    (odd seeds) or two, linear runs between NS gates, and post-selections
    and detections of every kind: a pattern, a pattern with count 2, a
    pattern of probability 0 and a one-photon state; a detection of a mode
    the state post-selection consumes, one with count 2 and one of an empty
    mode."""
    rng = np.random.default_rng([seed, 9])
    names = [f"M{i}" for i in range(int(rng.integers(3, 9)))]
    sources = 2 - seed % 2
    initial = fock.register_modes(names)
    for _ in range(sources):
        chosen = pick(rng, names, int(rng.integers(1, len(names) + 1)))
        initial = fock.superposition_source(
            initial, {m: complex(rng.normal(), rng.normal()) for m in chosen}
        )
    schedule = []
    for _ in range(int(rng.integers(1, 3))):
        schedule += random_run(rng, [names])
        schedule.append(random_ns(rng, names))
    schedule += random_run(rng, [names])

    a, b, c = pick(rng, names, 3)
    sub = pick(rng, names, int(rng.integers(1, len(names))))
    target = fock.superposition_source(
        fock.register_modes(sub),
        {m: complex(rng.normal(), rng.normal()) for m in sub},
    )
    # Two photons never leave the vacuum; one never fills two modes.
    impossible = ({m: 0 for m in names} if sources == 2 else {a: 1, b: 1})
    rest = [m for m in names if m not in sub]
    postselects = [("pattern", {a: 1}), ("pattern", {b: 2}),
                   ("pattern", impossible),
                   ("state", (target.modes, fock.Sectors(target).one))]
    detects = [("consumed", {sub[0]: 1, rest[0]: 1}), ("bunch", {c: 2}),
               ("empty", {a: 0, c: 0})]
    return dsl.CompiledCircuit(fock.Sectors(initial), schedule, postselects,
                               detects)


def dense_measure(amplitudes, modes, pattern):
    """Probability of ``pattern`` in {config: amplitude} over ``modes``."""
    positions = [(modes.index(m), n) for m, n in pattern.items()]
    return sum(abs(a) ** 2 for config, a in amplitudes.items()
               if all(config[p] == n for p, n in positions))


def dense_report(compiled):
    """Every probability ``dsl.execute`` reports, from the dense vector:
    (post-selection probabilities, [(detection, conditionals)])."""
    initial = compiled.initial.to_state()
    vec, configs, _ = dense_propagate(initial, compiled.schedule)
    names = list(initial.modes)
    final = dict(zip(configs, vec))
    posts, conditioned = [], []
    for kind, payload in compiled.postselects:
        if kind == "pattern":
            modes = names
            kept = {c: a for c, a in final.items()
                    if dense_measure({c: 1}, names, payload)}
        else:
            # One photon over the target modes, one amplitude per mode.
            target = dict(zip(*payload))
            rest = [i for i, m in enumerate(names) if m not in target]
            modes = [names[i] for i in rest]
            kept = {}
            for config, amp in final.items():
                photons = [m for m in target
                           for _ in range(config[names.index(m)])]
                bra = np.conj(target[photons[0]]) if len(photons) == 1 else 0
                key = tuple(config[p] for p in rest)
                kept[key] = kept.get(key, 0j) + bra * amp
        p = dense_measure(kept, modes, {})
        posts.append(p)
        conditioned.append((kept, modes, p))
    detections = []
    for _, pattern in compiled.detects:
        conditional = [
            dense_measure(kept, modes, {m: n for m, n in pattern.items()
                                        if m in modes}) / p if p > 0 else 0.0
            for kept, modes, p in conditioned
        ]
        detections.append((dense_measure(final, names, pattern), conditional))
    return posts, detections


@pytest.mark.parametrize("seed", range(20))
def test_execute_matches_dense_projections(seed):
    """Every probability ``dsl.execute`` reports matches the dense
    projections to TOL, and the impossible pattern reads exactly 0."""
    compiled = random_compiled(seed)
    report = dsl.execute(compiled)
    posts, detections = dense_report(compiled)
    got = [p["probability"] for p in report["postselections"]]
    assert np.allclose(got, posts, rtol=0, atol=TOL)
    assert got[2] == 0.0
    for det, (probability, conditional) in zip(report["detections"],
                                               detections):
        assert abs(det["probability"] - probability) <= TOL
        assert np.allclose(det["conditional"], conditional, rtol=0, atol=TOL)
        assert det["conditional"][2] == 0.0
