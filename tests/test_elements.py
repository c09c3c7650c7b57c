import itertools
import math

import numpy as np
import pytest
import scipy.stats

from router_sim import elements, fock
from router_sim.elements import RouterOrientation, apply_element
from router_sim.errors import BadParam, NotUnitary, UnsupportedSector
from dense_oracle import (
    basis_state,
    dense_element,
    enumerate_basis,
    max_amplitude_deviation,
    state_to_vector,
)


def modes(*names):
    return [n for n in names]


def add_photon(state, label):
    return fock.superposition_source(state, {label: 1})


# ---------------------------------------------------------------------------
# beamsplitters and phase shifters
# ---------------------------------------------------------------------------

def test_full_reflection_is_identity_like():
    ms = modes("a", "b")
    state = add_photon(fock.register_modes(ms), ms[0])
    out = apply_element(state, elements.beamsplitter(1.0, *ms))
    assert out.amplitude((1, 0)) == pytest.approx(1.0)


def test_balanced_split_moduli():
    ms = modes("a", "b")
    state = add_photon(fock.register_modes(ms), ms[0])
    out = apply_element(state, elements.beamsplitter(0.5, *ms))
    assert abs(out.amplitude((1, 0))) == pytest.approx(abs(out.amplitude((0, 1))))


def test_one_third_reflectivity():
    ms = modes("a", "b")
    state = add_photon(fock.register_modes(ms), ms[0])
    out = apply_element(state, elements.beamsplitter(1 / 3, *ms))
    assert abs(out.amplitude((1, 0))) ** 2 == pytest.approx(1 / 3)


def test_bad_reflectivity():
    ms = modes("a", "b")
    with pytest.raises(BadParam):
        elements.beamsplitter(1.5, *ms)


def test_phase_shifter_photon_number_scaling():
    ms = modes("a")
    state = fock.register_modes(ms)
    state = add_photon(state, ms[0])
    state = add_photon(state, ms[0])
    out = apply_element(state, elements.phase_shifter(math.pi / 2, ms[0]))
    assert out.amplitude((2,)) == pytest.approx(np.exp(1j * math.pi))


# ---------------------------------------------------------------------------
# NS gates
# ---------------------------------------------------------------------------

def test_ns_single_action():
    ms = modes("a")
    vac = fock.register_modes(ms)
    gate = elements.ns_single(ms[0])
    assert apply_element(vac, gate).amplitude((0,)) == pytest.approx(1.0)
    one = add_photon(vac, ms[0])
    assert apply_element(one, gate).amplitude((1,)) == pytest.approx(1.0)
    two = add_photon(one, ms[0])
    assert apply_element(two, gate).amplitude((2,)) == pytest.approx(-1.0)


def test_ns_two_mode_sign_flip_on_11():
    """|1,1> -> -|1,1>, checked against the dense two-photon matrix
    product of the composite."""
    ms = modes("a", "b")
    vac = fock.register_modes(ms)
    state = add_photon(add_photon(vac, ms[0]), ms[1])
    gate = elements.ns_two_mode(*ms)
    out = apply_element(state, gate)
    assert out.amplitude((1, 1)) == pytest.approx(-1.0)
    assert sum(abs(a) ** 2 for a in out.amplitudes.values()) == pytest.approx(1.0)

    configs, index = enumerate_basis(2, 2)
    dense = dense_element(gate, tuple(ms), configs, index, 2)
    expected = dense @ state_to_vector(state, configs, index)
    assert max_amplitude_deviation(out, expected, configs, index) < 1e-12


def test_ns_two_mode_on_every_two_photon_configuration():
    """|1,1> -> -|1,1>; |2,0> and |0,2> trade places with amplitude one."""
    ms = modes("a", "b")
    vac = fock.register_modes(ms)
    gate = elements.ns_two_mode(*ms)
    images = {(2, 0): ((0, 2), 1.0), (1, 1): ((1, 1), -1.0),
              (0, 2): ((2, 0), 1.0)}
    for config, (image, amplitude) in images.items():
        out = apply_element(basis_state(vac, config), gate)
        assert set(out.amplitudes) == {image}, config
        assert abs(out.amplitudes[image] - amplitude) <= 1e-12, config


def test_ns_two_mode_single_photon_passthrough():
    ms = modes("a", "b")
    vac = fock.register_modes(ms)
    gate = elements.ns_two_mode(*ms)
    one = add_photon(vac, ms[0])
    out = apply_element(one, gate)
    assert out.amplitude((1, 0)) == pytest.approx(1.0)
    other = add_photon(vac, ms[1])
    assert apply_element(other, gate).amplitude((0, 1)) == pytest.approx(1.0)


def test_ns_two_mode_vacuum_invariant():
    ms = modes("a", "b")
    vac = fock.register_modes(ms)
    out = apply_element(vac, elements.ns_two_mode(*ms))
    assert out.amplitude((0, 0)) == pytest.approx(1.0)


def test_ns_two_mode_self_inverse():
    ms = modes("a", "b")
    vac = fock.register_modes(ms)
    gate = elements.ns_two_mode(*ms)
    for config in ((0, 0), (1, 0), (0, 1), (1, 1)):
        basis = basis_state(vac, config)
        twice = apply_element(apply_element(basis, gate), gate)
        assert twice.amplitude(config) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# routers
# ---------------------------------------------------------------------------

def router_register():
    ms = modes("a", "b", "c", "spec")
    return ms, fock.register_modes(ms)


def test_router_reflects_on_match():
    ms, vac = router_register()
    state = add_photon(add_photon(vac, ms[0]), ms[2])
    out = apply_element(state, elements.pqr_ideal(ms[0], ms[1], ms[2]))
    assert out.amplitude((0, 1, 1, 0)) == pytest.approx(1.0)


def test_router_transmits_on_mismatch():
    ms, vac = router_register()
    state = add_photon(vac, ms[0])
    out = apply_element(state, elements.pqr_ideal(ms[0], ms[1], ms[2]))
    assert out.amplitude((1, 0, 0, 0)) == pytest.approx(1.0)


def test_router_vacuum_passthrough():
    ms, vac = router_register()
    out = apply_element(vac, elements.pqr_ideal(ms[0], ms[1], ms[2]))
    assert out.amplitude((0, 0, 0, 0)) == pytest.approx(1.0)


def test_router_unsupported_sector():
    ms, vac = router_register()
    two = add_photon(add_photon(vac, ms[0]), ms[0])
    with pytest.raises(UnsupportedSector):
        apply_element(two, elements.pqr_ideal(ms[0], ms[1], ms[2]))


@pytest.mark.parametrize("kind", [elements.pqr_ideal, elements.pqr_decomposed])
def test_router_sector_is_judged_on_fock_amplitudes(kind):
    ms, vac = router_register()
    router = kind(ms[0], ms[1], ms[2])
    sectors = fock.Sectors(vac)
    sectors.vacuum = 0j
    sectors.two[0, 2] = sectors.two[2, 0] = 1 / math.sqrt(2.0)
    # |2_a> has amplitude S_aa, here below PRUNE_EPSILON ...
    sectors.two[0, 0] = 0.8 * fock.PRUNE_EPSILON
    elements.evolve(sectors.copy(), [router])
    # ... but |1_a 1_b> has sqrt(2) S_ab, here above it.
    sectors.two[0, 0] = 0
    sectors.two[0, 1] = sectors.two[1, 0] = 0.8 * fock.PRUNE_EPSILON
    with pytest.raises(UnsupportedSector, match=r"\(1, 1, 0\)"):
        elements.evolve(sectors, [router])


def test_router_orientation_designates_ports():
    ms, _ = router_register()
    reflecting = elements.pqr_ideal(ms[0], ms[1], ms[2])
    assert reflecting.kept_port == ms[1]
    transmitting = elements.pqr_ideal(
        ms[0], ms[1], ms[2], RouterOrientation.TRANSMIT_ON_MATCH
    )
    assert transmitting.kept_port == ms[0]


def test_decomposed_router_routes_with_control():
    ms, vac = router_register()
    state = add_photon(add_photon(vac, ms[0]), ms[2])
    out = apply_element(state, elements.pqr_decomposed(ms[0], ms[1], ms[2]))
    assert out.amplitude((0, 1, 1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_decomposed_router_transmits_without_control():
    ms, vac = router_register()
    state = add_photon(vac, ms[0])
    out = apply_element(state, elements.pqr_decomposed(ms[0], ms[1], ms[2]))
    assert out.amplitude((1, 0, 0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_decomposed_equals_ideal_on_supported_sector():
    """Exhaustive sweep of <=2-photon basis configurations: identical
    amplitudes (common global phase one) and identical sector errors."""
    ms, vac = router_register()
    ideal = elements.pqr_ideal(ms[0], ms[1], ms[2])
    decomposed = elements.pqr_decomposed(ms[0], ms[1], ms[2])
    checked = 0
    for config in itertools.product(range(3), repeat=4):
        if sum(config) > 2:
            continue
        basis = basis_state(vac, config)
        try:
            out_ideal = apply_element(basis, ideal)
        except UnsupportedSector:
            with pytest.raises(UnsupportedSector):
                apply_element(basis, decomposed)
            continue
        out_decomposed = apply_element(basis, decomposed)
        support = set(out_ideal.amplitudes) | set(out_decomposed.amplitudes)
        for c in support:
            assert out_ideal.amplitude(c) == pytest.approx(
                out_decomposed.amplitude(c), abs=1e-10
            )
        fid = abs(fock.inner_product(out_ideal, out_decomposed)) ** 2
        assert fid >= 1 - 1e-10
        checked += 1
    assert checked >= 10


# ---------------------------------------------------------------------------
# tunneling and relabel
# ---------------------------------------------------------------------------

def test_tunneling_even_split_at_quarter_pi():
    ms = modes("A", "B")
    state = add_photon(fock.register_modes(ms), ms[0])
    out = apply_element(state, elements.tunneling(math.pi / 4, *ms))
    assert out.amplitude((1, 0)) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude((0, 1)) == pytest.approx(-1j / math.sqrt(2))


def test_tunneling_full_transfer_at_half_pi():
    ms = modes("A", "B")
    state = add_photon(fock.register_modes(ms), ms[0])
    out = apply_element(state, elements.tunneling(math.pi / 2, *ms))
    assert out.amplitude((0, 1)) == pytest.approx(-1j)


def test_tunneling_zero_is_identity():
    ms = modes("A", "B")
    state = add_photon(fock.register_modes(ms), ms[0])
    out = apply_element(state, elements.tunneling(0.0, *ms))
    assert out.amplitude((1, 0)) == pytest.approx(1.0)


def test_tunneling_group_property():
    rng = np.random.default_rng(9)
    ms = modes("A", "B")
    state = fock.superposition_source(
        fock.register_modes(ms), {ms[0]: 0.6, ms[1]: 0.8j}
    )
    for _ in range(10):
        t1, t2 = rng.uniform(-math.pi, math.pi, size=2)
        stepped = apply_element(
            apply_element(state, elements.tunneling(t1, *ms)),
            elements.tunneling(t2, *ms),
        )
        direct = apply_element(state, elements.tunneling(t1 + t2, *ms))
        for c in set(stepped.amplitudes) | set(direct.amplitudes):
            assert stepped.amplitude(c) == pytest.approx(
                direct.amplitude(c), abs=1e-10
            )


def test_relabel_identity():
    ms = modes("a", "b")
    state = add_photon(fock.register_modes(ms), ms[0])
    out = apply_element(state, elements.relabel({ms[0]: ms[0]}))
    assert out.amplitude((1, 0)) == pytest.approx(1.0)


def test_relabel_swap():
    ms = modes("a", "b")
    state = add_photon(fock.register_modes(ms), ms[0])
    out = apply_element(state, elements.relabel({ms[0]: ms[1], ms[1]: ms[0]}))
    assert out.amplitude((0, 1)) == pytest.approx(1.0)


def test_relabel_preserves_amplitudes():
    ms = modes("c1", "c2")
    state = fock.superposition_source(
        fock.register_modes(ms), {ms[0]: 0.6, ms[1]: 0.8j}
    )
    out = apply_element(state, elements.relabel({ms[0]: ms[1], ms[1]: ms[0]}))
    assert out.amplitude((0, 1)) == pytest.approx(0.6)
    assert out.amplitude((1, 0)) == pytest.approx(0.8j)


def test_mode_unitary_rejects_non_unitary_at_construction():
    with pytest.raises(NotUnitary):
        elements.mode_unitary([[1, 0], [0, 2]], ("a", "b"))
    with pytest.raises(BadParam):
        elements.mode_unitary(np.eye(3), ("a", "b"))


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0, math.nan)],
                         ids=["nan", "inf", "nan-imaginary"])
def test_mode_unitary_rejects_non_finite_entries(entry):
    with pytest.raises(NotUnitary):
        elements.mode_unitary([[entry]], ("a",))
    with pytest.raises(NotUnitary):
        elements.mode_unitary([[1, 0], [0, entry]], ("a", "b"))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(angle):
    with pytest.raises(BadParam):
        elements.phase_shifter(angle, "a")
    with pytest.raises(BadParam):
        elements.tunneling(angle, "a", "b")


@pytest.mark.parametrize("build", [
    lambda: elements.beamsplitter(0.5, "a", "a"),
    lambda: elements.tunneling(0.3, "a", "a"),
    lambda: elements.ns_two_mode("a", "a"),
    lambda: elements.mode_unitary(np.eye(2), ("a", "a")),
], ids=["bs", "tunnel", "ns2", "unitary"])
def test_repeated_element_modes_rejected_at_construction(build):
    with pytest.raises(BadParam):
        build()


def test_relabel_rejects_non_bijection():
    ms = modes("a", "b", "c")
    with pytest.raises(BadParam):
        elements.relabel({ms[0]: ms[1]})


# ---------------------------------------------------------------------------
# generic element properties
# ---------------------------------------------------------------------------

def all_test_elements(ms):
    return [
        elements.beamsplitter(0.3, ms[0], ms[1]),
        elements.phase_shifter(1.1, ms[0]),
        elements.ns_single(ms[0]),
        elements.ns_two_mode(ms[0], ms[1]),
        elements.pqr_ideal(ms[0], ms[1], ms[2]),
        elements.pqr_decomposed(ms[0], ms[1], ms[2]),
        elements.tunneling(0.7, ms[0], ms[1]),
        elements.relabel({ms[0]: ms[2], ms[2]: ms[0]}),
        elements.mode_unitary(
            scipy.stats.unitary_group.rvs(3, random_state=23), ms
        ),
    ]


def test_elements_preserve_norm():
    rng = np.random.default_rng(21)
    ms = modes("a", "b", "c")
    for element in all_test_elements(ms):
        state = fock.register_modes(ms)
        state = fock.superposition_source(
            state,
            {m: w for m, w in zip(ms, rng.normal(size=3) + 1j * rng.normal(size=3))},
        )
        out = apply_element(state, element)
        assert out.norm() == pytest.approx(1.0, abs=1e-10)


def test_elements_adjoint_inverts():
    rng = np.random.default_rng(22)
    ms = modes("a", "b", "c")
    for element in all_test_elements(ms):
        state = fock.register_modes(ms)
        state = fock.superposition_source(
            state,
            {m: w for m, w in zip(ms, rng.normal(size=3) + 1j * rng.normal(size=3))},
        )
        back = apply_element(apply_element(state, element), element, adjoint=True)
        for c in set(back.amplitudes) | set(state.amplitudes):
            assert back.amplitude(c) == pytest.approx(
                state.amplitude(c), abs=1e-10
            )
