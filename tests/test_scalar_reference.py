"""The scalar steps of ``simulate`` and of the shutter states, held bit for
bit to the numpy and ``FockState`` steps they replaced
(:mod:`scalar_reference`).

Bits are compared as bytes, so a zero's sign counts; a NaN matches any
NaN.  Where the reference raises, the replacement raises the same
exception with the same message.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import router_sim
import scalar_reference
from router_sim import dsl, elements, fock, tsvf

SETTINGS = settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CIRCUIT_FILES = sorted(
    [*(Path(router_sim.__file__).parent / "circuits").glob("*.circuit"),
     *(Path(__file__).parent / "circuits").glob("*.circuit")])


def bits(value):
    """The dtype, shape and bytes of ``value`` as an array."""
    array = np.asarray(value)
    return array.dtype.str, array.shape, array.tobytes()


def outcome(function, *args):
    """The bits of ``function(*args)``, or what it raised."""
    try:
        return bits(function(*args))
    except Exception as exc:
        return type(exc), str(exc)


# Parts of a weight: exact and signed zeros, entries below the prune
# threshold of 1e-14, and ordinary values, so that sets come unnormalized;
# each set is scaled by 1, 1e-200 (squares underflow) or 1e154 (squares
# near the float range, their sum past it).
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-14, -1e-14, 0.6, 0.8]),
    st.floats(-2e-14, 2e-14),
    st.floats(-1e3, 1e3),
)
SCALES = st.sampled_from([1.0, 1e-200, 1e154])


@st.composite
def weight_lists(draw, min_size=1, max_size=5):
    scale = draw(SCALES)
    size = draw(st.integers(min_size, max_size))
    return [complex(draw(PARTS) * scale, draw(PARTS) * scale)
            for _ in range(size)]


EDGE_WEIGHTS = [
    [0j, 1],
    [complex(-0.0, 1.0), complex(0.5, -0.0)],
    [complex(-0.0, -0.0), 1j],
    [1e-15, 1],
    [1e-200, 1e-200],
    [1e154, 1e154j],
    [1e154, 1.3e154, 0],
    [2, 2j, -2],
    [0j],
    [1, math.nan],
    [complex(0.0, math.inf), 1],
]


def modes_of(weights):
    return tuple(f"M{i}" for i in range(len(weights)))


@pytest.mark.parametrize("weights", EDGE_WEIGHTS)
def test_target_vector_is_the_superposition_source_one_at_edges(weights):
    assert (outcome(lambda w: np.array(fock.one_photon_amplitudes(w)),
                    weights)
            == outcome(scalar_reference.target_vector, modes_of(weights),
                       weights))


@SETTINGS
@given(weight_lists())
def test_target_vector_is_the_superposition_source_one(weights):
    assert (outcome(lambda w: np.array(fock.one_photon_amplitudes(w)),
                    weights)
            == outcome(scalar_reference.target_vector, modes_of(weights),
                       weights))


@pytest.mark.parametrize("path", CIRCUIT_FILES, ids=lambda p: p.name)
def test_compiled_targets_are_the_superposition_source_ones(path):
    doc = dsl.parse(path.read_text())
    compiled = dsl.compile_doc(doc)
    states = [ps for ps in doc.postselects
              if isinstance(ps, dsl.PostselectState)]
    targets = [payload for kind, payload in compiled.postselects
               if kind == "state"]
    assert len(targets) == len(states)
    for ps, (modes, target) in zip(states, targets):
        assert modes == tuple(m for m, _ in ps.weights)
        want = scalar_reference.target_vector(
            modes, [w for _, w in ps.weights])
        assert bits(target) == bits(want)


def shutter_items(state):
    """The modes, configurations in order and amplitude bits of a
    shutter state."""
    return (state.modes, list(state.amplitudes),
            bits(list(state.amplitudes.values())))


def shutter_outcome(function, weights):
    try:
        return shutter_items(function(weights))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("weights", [
    (1 / math.sqrt(3),) * 3,
    (1 / math.sqrt(3), 1j / math.sqrt(3), 1 / math.sqrt(3)),
    (-1 / math.sqrt(3), -1j / math.sqrt(3), 1 / math.sqrt(3)),
    (1 / math.sqrt(2), 1j / math.sqrt(2), 0.0),
    (1, 0, 0),
    (0, 0, 0),
    (1e-15, 1, -0.0),
])
def test_shutter_state_is_the_superposition_source_one_at_edges(weights):
    assert (shutter_outcome(tsvf.shutter_state, weights)
            == shutter_outcome(scalar_reference.shutter_state, weights))


@SETTINGS
@given(weight_lists(min_size=3, max_size=3))
def test_shutter_state_is_the_superposition_source_one(weights):
    assert (shutter_outcome(tsvf.shutter_state, weights)
            == shutter_outcome(scalar_reference.shutter_state, weights))


def test_shutter_state_keeps_its_mode_checks():
    with pytest.raises(fock.DuplicateMode):
        tsvf.shutter_state((1, 0, 0), ("SA", "SA", "SC"))


# ---------------------------------------------------------------------------
# sums and norms
# ---------------------------------------------------------------------------

TERMS = st.lists(st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]),
), max_size=20)


@SETTINGS
@given(TERMS)
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([-0.0, 0.0])
@example([1e308, 1e308])
@example([math.inf, -math.inf])
@example([math.nan, 1.0])
@example([0.1] * 10)
def test_scalar_sum_is_the_running_sum(terms):
    got = fock.scalar_sum(terms)
    assert type(got) is float
    # Only a sum of negative zeros differs: it is +0.0 here.
    want = float(scalar_reference.sequential_sum(terms)) + 0.0
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert bits(got) == bits(want)
        with np.errstate(over="ignore", invalid="ignore"):
            array_sum = float(fock.running_sum(terms))
        assert bits(got) == bits(array_sum + 0.0)


SOURCE_NAMES = tuple(f"M{i}" for i in range(7))


def sectors_items(sectors):
    return bits(sectors.vacuum), bits(sectors.one), bits(sectors.two)


@pytest.mark.parametrize("seed", range(20))
def test_add_photon_is_the_linalg_one(seed):
    """One photon, then a second, then a third that exceeds the budget,
    from the vacuum or from a vacuum and one-photon mixture."""
    rng = np.random.default_rng([seed, 47])
    state = fock.register_modes(SOURCE_NAMES)
    if seed % 2:
        amplitudes = {(0,) * 7: complex(rng.normal(), rng.normal()),
                      (0, 1, 0, 0, 0, 0, 0): complex(rng.normal(), 0.0)}
        state = fock.FockState(SOURCE_NAMES, amplitudes).normalized()
    got, want = fock.Sectors(state), fock.Sectors(state)
    for _ in range(3):
        support = rng.choice(7, size=int(rng.integers(1, 5)), replace=False)
        weights = {SOURCE_NAMES[i]: complex(rng.normal(), rng.normal())
                   for i in support}
        results = []
        for sectors, add in ((got, fock.Sectors.add_photon),
                             (want, scalar_reference.add_photon)):
            try:
                add(sectors, weights)
                results.append(sectors_items(sectors))
            except fock.PhotonBudget as exc:
                results.append(str(exc))
        assert results[0] == results[1]


# ---------------------------------------------------------------------------
# the router swap, parse_weight and postselect_state
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_router_swap_is_the_fancy_swap(seed):
    rng = np.random.default_rng([seed, 53])
    n = int(rng.integers(3, 12))
    names = tuple(f"M{i}" for i in range(n))
    sectors = fock.Sectors(fock.register_modes(names))
    two = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    two[rng.random((n, n)) < 0.2] = complex(-0.0, 0.0)
    two = np.triu(two) + np.triu(two, 1).T
    ia, ib, ic = (int(i) for i in rng.choice(n, size=3, replace=False))
    # Inside the router's sector: no |2> in a bound mode, no |1 1> on the
    # probe pair.
    for i, j in ((ia, ia), (ib, ib), (ic, ic), (ia, ib), (ib, ia)):
        two[i, j] = 0
    sectors.two = two
    want = sectors.two.copy()
    elements._router_rule(sectors,
                          elements.pqr_ideal(names[ia], names[ib], names[ic]))
    scalar_reference.router_swap(want, ia, ib, ic)
    assert bits(sectors.two) == bits(want)


WEIGHT_TOKENS = st.one_of(
    st.from_regex(dsl._REAL_RE, fullmatch=True),
    st.from_regex(dsl._COMPLEX_RE, fullmatch=True),
    st.from_regex(dsl._IMAG_RE, fullmatch=True),
    st.text(alphabet="0123456789.+-eEijnaf_ ", max_size=12),
)


@SETTINGS
@given(WEIGHT_TOKENS)
@example("1e400")
@example("1e400i")
@example("1-1e400i")
@example("-0.0-0.0i")
@example("i")
@example("")
def test_parse_weight_is_the_complex_first_one(token):
    want = scalar_reference.parse_weight(token)
    got = dsl.parse_weight(token)
    assert (None if got is None else bits(got)) == (
        None if want is None else bits(want))


@pytest.mark.parametrize("path", CIRCUIT_FILES, ids=lambda p: p.name)
def test_postselect_state_is_the_pair_matrix_one_on_circuits(path):
    compiled = dsl.compile_doc(dsl.parse(path.read_text()))
    final = compiled.initial.copy()
    elements.evolve(final, compiled.schedule)
    amplitudes = final.fock_amplitudes()
    for kind, payload in compiled.postselects:
        if kind == "state":
            got = final.postselect_state(amplitudes, *payload)
            want = scalar_reference.postselect_state(final, amplitudes,
                                                     *payload)
            assert bits(got[0]) == bits(want[0])
            assert bits(got[1]) == bits(want[1])


@pytest.mark.parametrize("seed", range(20))
def test_postselect_state_is_the_pair_matrix_one(seed):
    rng = np.random.default_rng([seed, 59])
    n = int(rng.integers(2, 10))
    names = tuple(f"M{i}" for i in range(n))
    sectors = fock.Sectors(fock.register_modes(names))
    sectors.vacuum = complex(rng.normal(), rng.normal())
    sectors.one = rng.normal(size=n) + 1j * rng.normal(size=n)
    two = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    sectors.two = two + two.T
    amplitudes = sectors.fock_amplitudes()
    k = int(rng.integers(1, n))
    modes = tuple(names[i] for i in rng.choice(n, size=k, replace=False))
    target = rng.normal(size=k) + 1j * rng.normal(size=k)
    got = sectors.postselect_state(amplitudes, modes, target)
    want = scalar_reference.postselect_state(sectors, amplitudes, modes,
                                             target)
    assert bits(got[0]) == bits(want[0])
    assert bits(got[1]) == bits(want[1])
