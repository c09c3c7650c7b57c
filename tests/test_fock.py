import itertools
import math

import numpy as np
import pytest

from router_sim import fock
from router_sim.errors import (
    BadParam,
    BadPartition,
    DuplicateMode,
    ModeMismatch,
    NotPhase,
    NotUnitary,
    PhotonBudget,
    UnknownMode,
)
from dense_oracle import (
    basis_state,
    dense_mode_unitary,
    enumerate_basis,
    max_amplitude_deviation,
    state_to_vector,
)

BS = np.array([[1, 1j], [1j, 1]]) / math.sqrt(2)


def modes(*names):
    return [n for n in names]


def add_photon(state, label):
    """One more photon on ``label``: the normalized creation operator."""
    return fock.superposition_source(state, {label: 1})


def random_unitary(rng, k):
    z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# ---------------------------------------------------------------------------
# registration and injection
# ---------------------------------------------------------------------------

def test_register_single_mode_vacuum():
    state = fock.register_modes(modes("A"))
    assert state.amplitude((0,)) == 1.0


def test_register_three_modes_vacuum():
    state = fock.register_modes(modes("A", "B", "C"))
    assert state.amplitude((0, 0, 0)) == 1.0
    assert len(state.amplitudes) == 1


def test_register_duplicate_raises():
    with pytest.raises(DuplicateMode):
        fock.register_modes(modes("A", "A"))
    with pytest.raises(BadParam, match="at least one mode"):
        fock.register_modes([])


@pytest.mark.parametrize("names, amplitudes, error", [
    (("A", "A"), {(0, 0): 1.0}, DuplicateMode),
    (("A", "B"), {(1,): 1.0}, BadParam),
    (("A", "B"), {(-1, 1): 1.0}, BadParam),
    (("A", "B"), {(2, 1): 1.0}, PhotonBudget),
    (("A", 3), {(0, 0): 1.0}, BadParam),
    (("A", ""), {(0, 0): 1.0}, BadParam),
], ids=["duplicate", "length", "negative", "budget", "not-str", "empty"])
def test_constructor_validates(names, amplitudes, error):
    with pytest.raises(error):
        fock.FockState(names, amplitudes)


NON_FINITE = [math.nan, math.inf, complex(0.0, math.nan)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_constructor_rejects_non_finite_amplitude(bad):
    # NaN fails every modulus comparison, so pruning alone would drop it.
    with pytest.raises(BadParam, match="not finite"):
        fock.FockState(("a", "b"), {(1, 0): bad, (0, 1): 1.0})


def test_register_non_str_mode_raises():
    with pytest.raises(BadParam):
        fock.register_modes(["A", ("B", "aux")])


def test_derived_states_share_modes_and_budget():
    ms = modes("A", "B")
    state = fock.register_modes(ms)
    two = add_photon(add_photon(state, "A"), "B")
    out = fock.apply_mode_unitary(two, ms, BS)
    assert out.modes is state.modes
    assert out.index_of("B") == 1
    assert {sum(c) for c in out.amplitudes} == {fock.PHOTON_BUDGET}
    with pytest.raises(PhotonBudget):
        add_photon(out, "A")


def test_inject_into_vacuum():
    ms = modes("A", "B")
    state = add_photon(fock.register_modes(ms), ms[0])
    assert state.amplitude((1, 0)) == pytest.approx(1.0)


def test_inject_second_photon_renormalizes():
    ms = modes("A", "B")
    state = fock.register_modes(ms)
    state = add_photon(state, ms[0])
    state = add_photon(state, ms[0])
    assert state.amplitude((2, 0)) == pytest.approx(1.0)
    assert state.norm() == pytest.approx(1.0)


def test_inject_budget_exceeded():
    ms = modes("A", "B")
    state = fock.register_modes(ms)
    for _ in range(fock.PHOTON_BUDGET):
        state = add_photon(state, ms[0])
    with pytest.raises(PhotonBudget):
        add_photon(state, ms[1])


def test_inject_unknown_mode():
    state = fock.register_modes(modes("A"))
    with pytest.raises(UnknownMode):
        add_photon(state, "Z")


def test_superposition_source_weights():
    ms = modes("A", "B", "C")
    state = fock.superposition_source(
        fock.register_modes(ms), {ms[0]: 1, ms[1]: 1j, ms[2]: 1}
    )
    s3 = 1 / math.sqrt(3)
    assert state.amplitude((1, 0, 0)) == pytest.approx(s3)
    assert state.amplitude((0, 1, 0)) == pytest.approx(1j * s3)
    assert state.amplitude((0, 0, 1)) == pytest.approx(s3)
    vacuum = fock.register_modes(ms)
    with pytest.raises(BadParam, match="at least one mode"):
        fock.superposition_source(vacuum, {})
    with pytest.raises(BadParam, match="all zero"):
        fock.superposition_source(vacuum, {ms[0]: 0, ms[1]: 0j})
    # A weight below PRUNE_EPSILON adds no amplitude.
    with pytest.raises(BadParam, match="all zero"):
        fock.superposition_source(vacuum, {ms[0]: 1e-15, ms[1]: 0})


@pytest.mark.parametrize("bad", NON_FINITE)
def test_superposition_source_rejects_non_finite_weight(bad):
    vacuum = fock.register_modes(modes("a", "b"))
    with pytest.raises(BadParam, match="not finite"):
        fock.superposition_source(vacuum, {"a": bad, "b": 1.0})


def test_one_photon_amplitudes_need_a_weight():
    with pytest.raises(BadParam, match="at least one mode"):
        fock.one_photon_amplitudes([])


SOURCE_NAMES = [f"M{i}" for i in range(7)]

# Supports of the first and the second photon: disjoint, overlapping, both
# in one mode (the |2_m> amplitude), and equal.
SOURCE_SUPPORTS = [
    ([0, 1, 2], [3, 4]),
    ([0, 2, 4, 6], [1, 2, 6]),
    ([5], [5]),
    ([1, 3, 5], [1, 3, 5]),
]


def random_weights(rng, support):
    return {SOURCE_NAMES[i]: complex(rng.normal(), rng.normal())
            for i in support}


def assert_same_sectors(got, state):
    """``got`` holds the sector form of ``state`` to 1e-15."""
    want = fock.Sectors(state)
    assert abs(got.vacuum - want.vacuum) <= 1e-15
    assert np.max(np.abs(got.one - want.one)) <= 1e-15
    assert np.max(np.abs(got.two - want.two)) <= 1e-15


def test_sectors_of_a_state_with_no_pair_have_a_zero_two_photon_part():
    n = len(SOURCE_NAMES)
    vacuum = fock.register_modes(SOURCE_NAMES)
    one = fock.superposition_source(vacuum, {"M0": 1, "M3": 1j})
    lifted = fock.Sectors(vacuum)
    lifted.add_photon({"M0": 1, "M3": 1j})
    for sectors in (fock.Sectors(vacuum), fock.Sectors(one), lifted):
        assert sectors.two.shape == (n, n)
        assert not sectors.two.any()


@pytest.mark.parametrize("supports", SOURCE_SUPPORTS)
@pytest.mark.parametrize("seed", range(4))
def test_add_photon_equals_superposition_source(supports, seed):
    """One photon, then a second, added on the sector form; then a third
    exceeds the budget, as for the sparse state."""
    rng = np.random.default_rng([seed, 31])
    state = fock.register_modes(SOURCE_NAMES)
    sectors = fock.Sectors(state)
    for support in supports:
        weights = random_weights(rng, support)
        state = fock.superposition_source(state, weights)
        sectors.add_photon(weights)
        assert_same_sectors(sectors, state)
    weights = random_weights(rng, [0])
    with pytest.raises(PhotonBudget):
        fock.superposition_source(state, weights)
    with pytest.raises(PhotonBudget):
        sectors.add_photon(weights)


@pytest.mark.parametrize("seed", range(4))
def test_add_photon_to_vacuum_and_one_photon_mixture(seed):
    """The vacuum part gains one photon and the one-photon part a second."""
    rng = np.random.default_rng([seed, 37])
    amplitudes = {(0,) * len(SOURCE_NAMES): complex(rng.normal(), 1.0)}
    for i in (0, 2, 3):
        config = [0] * len(SOURCE_NAMES)
        config[i] = 1
        amplitudes[tuple(config)] = complex(rng.normal(), rng.normal())
    state = fock.FockState(SOURCE_NAMES, amplitudes).normalized()
    weights = random_weights(rng, [2, 3, 6])
    sectors = fock.Sectors(state)
    sectors.add_photon(weights)
    assert_same_sectors(sectors, fock.superposition_source(state, weights))


# ---------------------------------------------------------------------------
# mode unitaries
# ---------------------------------------------------------------------------

def test_balanced_beamsplitter_single_photon():
    ms = modes("a", "b")
    one = add_photon(fock.register_modes(ms), ms[0])
    out = fock.apply_mode_unitary(one, ms, BS)
    assert out.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 1)) == pytest.approx(1j / math.sqrt(2))


def test_identity_leaves_state():
    ms = modes("a", "b")
    state = fock.superposition_source(
        fock.register_modes(ms), {ms[0]: 0.6, ms[1]: 0.8j}
    )
    out = fock.apply_mode_unitary(state, ms, np.eye(2))
    for config in state.amplitudes:
        assert out.amplitude(config) == pytest.approx(state.amplitude(config))


def test_hong_ou_mandel_bunching():
    """Two photons on a balanced splitter bunch; checked against the dense
    exponential of the quadratic Hamiltonian."""
    ms = modes("a", "b")
    state = fock.register_modes(ms)
    state = add_photon(state, ms[0])
    state = add_photon(state, ms[1])
    out = fock.apply_mode_unitary(state, ms, BS)
    assert out.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert out.amplitude((2, 0)) == pytest.approx(1j / math.sqrt(2))
    assert out.amplitude((0, 2)) == pytest.approx(1j / math.sqrt(2))

    configs, index = enumerate_basis(2, 2)
    dense = dense_mode_unitary(BS, [0, 1], configs, index)
    expected = dense @ state_to_vector(state, configs, index)
    assert max_amplitude_deviation(out, expected, configs, index) < 1e-12


def test_non_unitary_rejected():
    ms = modes("a", "b")
    state = fock.register_modes(ms)
    with pytest.raises(NotUnitary):
        fock.apply_mode_unitary(state, ms, np.array([[1, 0], [0, 2]]))
    with pytest.raises(BadParam, match="must not repeat"):
        fock.apply_mode_unitary(state, [ms[0], ms[0]], BS)


def test_unitary_norm_preserved():
    rng = np.random.default_rng(11)
    ms = modes("a", "b", "c")
    for _ in range(20):
        state = fock.register_modes(ms)
        state = fock.superposition_source(
            state, {m: w for m, w in zip(ms, rng.normal(size=3) + 1j * rng.normal(size=3))}
        )
        if rng.random() < 0.5:
            state = add_photon(state, ms[int(rng.integers(3))])
        u = random_unitary(rng, 3)
        out = fock.apply_mode_unitary(state, ms, u)
        assert out.norm() == pytest.approx(state.norm(), abs=1e-10)


def test_photon_number_distribution_invariant():
    rng = np.random.default_rng(5)
    ms = modes("a", "b", "c")
    state = fock.register_modes(ms)
    state = add_photon(state, ms[0])
    state = add_photon(state, ms[1])
    u = random_unitary(rng, 3)
    out = fock.apply_mode_unitary(state, ms, u)
    assert all(sum(c) == 2 for c in out.amplitudes)
    total = sum(abs(a) ** 2 for a in out.amplitudes.values())
    assert total == pytest.approx(1.0, abs=1e-10)


def test_homomorphism_on_two_photon_basis():
    """Applying U then V equals applying V @ U on every <=2-photon basis
    state (1e-10)."""
    rng = np.random.default_rng(3)
    ms = modes("a", "b", "c")
    vac = fock.register_modes(ms)
    u, v = random_unitary(rng, 3), random_unitary(rng, 3)
    configs, _ = enumerate_basis(3, 2)
    for config in configs:
        basis = basis_state(vac, config)
        two_step = fock.apply_mode_unitary(
            fock.apply_mode_unitary(basis, ms, u), ms, v
        )
        one_step = fock.apply_mode_unitary(basis, ms, v @ u)
        for c in set(two_step.amplitudes) | set(one_step.amplitudes):
            assert two_step.amplitude(c) == pytest.approx(
                one_step.amplitude(c), abs=1e-10
            )


def test_sparse_equals_dense_oracle():
    """Sparse propagation matches the brute-force dense Fock matrix for
    <=4 modes and <=2 photons, per amplitude within 1e-12."""
    rng = np.random.default_rng(42)
    ms = modes("a", "b", "c", "d")
    vac = fock.register_modes(ms)
    configs, index = enumerate_basis(4, 2)
    for _ in range(5):
        u = random_unitary(rng, 4)
        dense = dense_mode_unitary(u, [0, 1, 2, 3], configs, index)
        for config in configs:
            basis = basis_state(vac, config)
            sparse_out = fock.apply_mode_unitary(basis, ms, u)
            dense_out = dense @ state_to_vector(basis, configs, index)
            assert (
                max_amplitude_deviation(sparse_out, dense_out, configs, index)
                < 1e-12
            )


def test_enumerate_basis_equals_filtered_product():
    for n_modes in range(1, 7):
        for budget in range(4):
            configs, index = enumerate_basis(n_modes, budget)
            expected = [
                c for c in itertools.product(range(budget + 1), repeat=n_modes)
                if sum(c) <= budget
            ]
            assert configs == expected
            assert index == {c: i for i, c in enumerate(expected)}


# ---------------------------------------------------------------------------
# Fock phases
# ---------------------------------------------------------------------------

def test_ns_phase_flips_two_photon_component():
    ms = modes("a")
    state = fock.register_modes(ms)
    state = add_photon(state, ms[0])
    state = add_photon(state, ms[0])
    out = fock.apply_fock_phase(state, ms[0], (1, 1, -1))
    assert out.amplitude((2,)) == pytest.approx(-1.0)


def test_ns_phase_trivial_below_two():
    ms = modes("a")
    one = add_photon(fock.register_modes(ms), ms[0])
    out = fock.apply_fock_phase(one, ms[0], (1, 1, -1))
    assert out.amplitude((1,)) == pytest.approx(1.0)


def test_componentwise_phase():
    ms = modes("a")
    state = fock.superposition_source(
        fock.register_modes(ms), {ms[0]: 1.0}
    )
    state = fock.FockState(
        state.modes, {(0,): 0.6, (1,): 0.8}
    )
    out = fock.apply_fock_phase(state, ms[0], (1, 1j, -1))
    assert out.amplitude((0,)) == pytest.approx(0.6)
    assert out.amplitude((1,)) == pytest.approx(0.8j)


def test_nonunit_phase_rejected():
    ms = modes("a")
    state = fock.register_modes(ms)
    with pytest.raises(NotPhase):
        fock.apply_fock_phase(state, ms[0], (1, 0.5, 1))
    with pytest.raises(NotPhase, match="does not cover occupation 1"):
        fock.apply_fock_phase(add_photon(state, ms[0]), ms[0], (1,))


# ---------------------------------------------------------------------------
# inner products and projections
# ---------------------------------------------------------------------------

def test_inner_product_vacuum():
    state = fock.register_modes(modes("a", "b"))
    assert fock.inner_product(state, state) == pytest.approx(1.0)


def test_inner_product_orthogonal_basis():
    ms = modes("a", "b")
    vac = fock.register_modes(ms)
    left = add_photon(vac, ms[0])
    right = add_photon(vac, ms[1])
    assert fock.inner_product(left, right) == pytest.approx(0.0)


def test_inner_product_normalized_self():
    ms = modes("a", "b")
    state = fock.superposition_source(
        fock.register_modes(ms), {ms[0]: 1, ms[1]: 1j}
    )
    assert fock.inner_product(state, state) == pytest.approx(1.0)


def test_inner_product_mode_mismatch():
    a = fock.register_modes(modes("a"))
    b = fock.register_modes(modes("b"))
    with pytest.raises(ModeMismatch):
        fock.inner_product(a, b)


def test_project_pattern_born_rule():
    ms = modes("a", "b")
    state = fock.superposition_source(
        fock.register_modes(ms), {ms[0]: 1, ms[1]: 1j}
    )
    outcome = fock.project_pattern(state, {ms[0]: 1})
    assert outcome.probability == pytest.approx(0.5)
    assert outcome.state.amplitude((1, 0)) == pytest.approx(1.0)


def test_project_pattern_full_support():
    ms = modes("a", "b")
    state = add_photon(fock.register_modes(ms), ms[0])
    outcome = fock.project_pattern(state, {ms[0]: 1, ms[1]: 0})
    assert outcome.probability == pytest.approx(1.0)
    assert outcome.state.amplitude((1, 0)) == pytest.approx(1.0)


def test_project_pattern_impossible_outcome():
    ms = modes("a", "b")
    state = add_photon(fock.register_modes(ms), ms[0])
    outcome = fock.project_pattern(state, {ms[1]: 1})
    assert outcome.probability == 0.0
    assert outcome.state.is_zero


# The rank-one projection onto a full-register state succeeds with
# probability |<target|state>|², the fidelity.

def test_project_onto_self():
    ms = modes("a", "b")
    state = fock.superposition_source(
        fock.register_modes(ms), {ms[0]: 0.6, ms[1]: 0.8}
    )
    assert fock.fidelity(state, state) == pytest.approx(1.0)


def test_project_onto_three_mode_overlap():
    # oracle: plain 3-vector arithmetic
    s3 = 1 / math.sqrt(3)
    left = np.array([-1, 1j, 1]) * s3
    right = np.array([1, 1j, 1]) * s3
    expected = abs(np.vdot(left, right)) ** 2
    assert expected == pytest.approx(1 / 9)

    ms = modes("A", "B", "C")
    vac = fock.register_modes(ms)
    state = fock.superposition_source(vac, {ms[0]: 1, ms[1]: 1j, ms[2]: 1})
    target = fock.superposition_source(vac, {ms[0]: -1, ms[1]: 1j, ms[2]: 1})
    assert fock.fidelity(target, state) == pytest.approx(1 / 9)


def test_project_onto_orthogonal():
    ms = modes("a", "b")
    vac = fock.register_modes(ms)
    left = add_photon(vac, ms[0])
    right = add_photon(vac, ms[1])
    assert fock.fidelity(right, left) == pytest.approx(0.0)


def test_postselect_subsystem_product_state():
    ms = modes("s", "p")
    state = fock.register_modes(ms)
    state = add_photon(state, ms[0])
    state = add_photon(state, ms[1])
    target = add_photon(fock.register_modes([ms[0]]), ms[0])
    outcome = fock.postselect_subsystem(state, target)
    assert outcome.probability == pytest.approx(1.0)
    assert outcome.state.amplitude((1,)) == pytest.approx(1.0)


def test_postselect_subsystem_partial_overlap():
    ms = modes("s1", "s2", "p")
    state = fock.register_modes(ms)
    state = fock.superposition_source(state, {ms[0]: 0.6, ms[1]: 0.8})
    state = add_photon(state, ms[2])
    sub = fock.superposition_source(
        fock.register_modes(ms[:2]), {ms[0]: 1 / math.sqrt(2), ms[1]: 1 / math.sqrt(2)}
    )
    outcome = fock.postselect_subsystem(state, sub)
    assert outcome.probability == pytest.approx(abs(0.6 / math.sqrt(2) + 0.8 / math.sqrt(2)) ** 2)
    assert outcome.state.amplitude((1,)) == pytest.approx(1.0)


def test_postselect_subsystem_drops_what_the_target_does_not_hold():
    # Only the configuration with the photon in "a" meets the target |1_a>:
    # 0.6 |1_a 0_b> + 0.8i |0_a 1_b> leaves 0.6 on |0_b>, probability 0.36.
    state = fock.FockState(("a", "b"), {(1, 0): 0.6, (0, 1): 0.8j})
    target = fock.FockState(("a",), {(1,): 1.0})
    outcome = fock.postselect_subsystem(state, target)
    assert outcome.probability == pytest.approx(0.36, abs=1e-15)
    assert outcome.state.modes == ("b",)
    assert outcome.state.amplitudes == {(0,): pytest.approx(1.0, abs=1e-15)}


def test_fock_state_repr_counts_modes_and_configurations():
    state = fock.FockState(("a", "b", "c"), {(1, 0, 0): 0.6, (0, 1, 1): 0.8j})
    assert repr(state) == "FockState(3 modes, 2 configurations, norm=1)"


# ---------------------------------------------------------------------------
# Schmidt spectrum
# ---------------------------------------------------------------------------

def test_schmidt_product_state():
    ms = modes("a", "c")
    state = fock.register_modes(ms)
    state = add_photon(state, ms[0])
    state = add_photon(state, ms[1])
    assert fock.schmidt_spectrum(state, {ms[0]}) == pytest.approx([1.0])


def test_schmidt_maximally_entangled_pair():
    ms = modes("a1", "a2", "b1", "b2")
    vac = fock.register_modes(ms)
    state = fock.FockState(
        vac.modes,
        {(1, 0, 0, 1): 1 / math.sqrt(2), (0, 1, 1, 0): 1 / math.sqrt(2)},
    )
    spectrum = fock.schmidt_spectrum(state, set(ms[:2]))
    assert spectrum == pytest.approx([0.5, 0.5])


def test_schmidt_spectrum_matches_reduced_density_matrix():
    """Spectrum equals the dense eigendecomposition of the reduced density
    matrix of the probe-shutter entangled state."""
    from router_sim import scenarios
    from router_sim.elements import apply_schedule

    plan = scenarios.build_three_box(1 / math.sqrt(2), 1 / math.sqrt(2))
    joint = apply_schedule(plan.initial, plan.schedule)
    shutter = set(plan.shutter_post.modes)
    spectrum = fock.schmidt_spectrum(joint, shutter)

    # dense reduced density matrix over shutter configurations
    left, right = {}, {}
    for config in joint.amplitudes:
        lc = tuple(c for m, c in zip(joint.modes, config) if m in shutter)
        rc = tuple(c for m, c in zip(joint.modes, config) if m not in shutter)
        left.setdefault(lc, len(left))
        right.setdefault(rc, len(right))
    mat = np.zeros((len(left), len(right)), dtype=complex)
    for config, amp in joint.amplitudes.items():
        lc = tuple(c for m, c in zip(joint.modes, config) if m in shutter)
        rc = tuple(c for m, c in zip(joint.modes, config) if m not in shutter)
        mat[left[lc], right[rc]] = amp
    rho = mat @ mat.conj().T
    eigen = sorted((float(x) for x in np.linalg.eigvalsh(rho)), reverse=True)
    eigen = [x for x in eigen if x > 1e-12]
    assert spectrum == pytest.approx(eigen, abs=1e-10)
    assert len(spectrum) >= 2
    assert sum(spectrum) == pytest.approx(1.0, abs=1e-10)


def test_schmidt_rejects_trivial_partition():
    ms = modes("a", "b")
    state = fock.register_modes(ms)
    with pytest.raises(BadPartition):
        fock.schmidt_spectrum(state, set(ms))
    with pytest.raises(BadPartition):
        fock.schmidt_spectrum(state, set())
    # The target of a post-selection must be over a proper subset too.
    for target in (fock.FockState((), {(): 1.0}), state):
        with pytest.raises(BadPartition, match="target must cover"):
            fock.postselect_subsystem(state, target)
