"""The fused block steps of a scenario run, held bit for bit to the steps
they replaced (:mod:`measure_reference`): the router runs of
``scenarios._propagate`` gathered by one index permutation each, the
stacked post-selection of ``scenarios._measure`` and the completion table
of ``scenarios.unitary_with_first_row``, on every plan of
``scenarios._TABLES`` at stacks of 1, 7 and 300 coefficient vectors.

Bits are compared as bytes, so a zero's sign counts.
"""

import numpy as np
import pytest

import measure_reference
from router_sim import scenarios
from router_sim.errors import UndefinedConditioning
from router_sim.fock import row_norms

PLANS = [(name, perturbation) for name, table in scenarios._TABLES.items()
         for perturbation in table]
STACKS = (1, 7, 300)


def bits(value):
    """The dtype, shape and bytes of ``value`` as an array."""
    array = np.asarray(value)
    return array.dtype.str, array.shape, array.tobytes()


def random_rows(rng, n, k):
    """``n`` random unit rows of length ``k``, normalized to within the
    rounding of a division."""
    rows = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
    return rows / row_norms(rows)


def plan_of(name, perturbation):
    return scenarios._build(name, perturbation, None)


@pytest.mark.parametrize("n", STACKS)
@pytest.mark.parametrize("name,perturbation", PLANS)
def test_propagate_and_measure_are_the_router_by_router_ones(
        name, perturbation, n):
    plan = plan_of(name, perturbation)
    seed = [n, PLANS.index((name, perturbation))]
    points = random_rows(np.random.default_rng(seed), n, len(plan.probes))
    if n > 1:
        # The plan's own coefficients, at both ends of the stack.
        points[0] = points[-1] = plan.alphas
    joint = scenarios._propagate(plan, points)
    assert bits(joint) == bits(measure_reference.propagate(plan, points))
    got = scenarios._measure(plan, points, joint)
    want = measure_reference.measure(plan, points, joint)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:], strict=True):
        assert bits(g) == bits(w)


def test_programs_alternate_router_runs_and_tunneling_runs():
    for name, perturbation in PLANS:
        plan = plan_of(name, perturbation)
        steps = scenarios._program(plan).steps
        kinds = [step.ndim for step in steps]
        assert all(a != b for a, b in zip(kinds, kinds[1:])), (name, kinds)
        routers = sum(type(s) is tuple for s in measure_reference.steps(plan))
        assert (1 in kinds) == bool(routers), (name, perturbation)
        for step in steps:
            assert not step.flags.writeable
            if step.ndim == 1:
                assert sorted(step) == list(range(step.size))


def test_a_failed_post_selection_raises_as_it_did():
    plan = plan_of("disappearing_full", "remove-shutter-C-t2")
    points = np.array([[0, 1, 0, 0, 0], scenarios.equal_alphas(5)],
                      dtype=complex)
    joint = scenarios._propagate(plan, points)
    for measure in (scenarios._measure, measure_reference.measure):
        with pytest.raises(UndefinedConditioning,
                           match="never succeeds in scenario "
                                 "disappearing_full"):
            measure(plan, points, joint)


def largest_at_each_position(k):
    """Rows of length ``k`` whose largest modulus sits at each position in
    turn, then rows where it is tied between every pair of positions and
    across the whole row, each also unnormalized."""
    rows = []
    for j in range(k):
        row = np.full(k, 0.3 - 0.1j)
        row[j] = 0.9j
        rows.append(row)
    for i in range(k):
        for j in range(i + 1, k):
            row = np.full(k, 0.2 + 0.0j)
            row[i], row[j] = 0.7, -0.7
            rows.append(row)
    rows.append(np.full(k, 1.0 + 1.0j))
    rows = np.array(rows, dtype=complex)
    normalized = rows / row_norms(rows)
    return np.concatenate([normalized, rows, normalized * (1 + 1e-11)])


@pytest.mark.parametrize("k", range(1, 8))
def test_completion_table_is_the_arange_compare(k):
    rows = largest_at_each_position(k)
    assert {int(j) for j in np.argmax(np.abs(rows), axis=-1)} == set(range(k))
    for stack in (rows, rows[:1], rows[-1:]):
        assert (bits(scenarios.unitary_with_first_row(stack))
                == bits(measure_reference.unitary_with_first_row(stack)))


@pytest.mark.parametrize("n", STACKS)
@pytest.mark.parametrize("k", (2, 5, 6, 7))
def test_completion_table_is_the_arange_compare_on_random_rows(k, n):
    rows = random_rows(np.random.default_rng([k, n]), n, k).conj()
    assert (bits(scenarios.unitary_with_first_row(rows))
            == bits(measure_reference.unitary_with_first_row(rows)))
