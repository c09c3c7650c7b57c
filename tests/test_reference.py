"""Scenario numbers held to the sparse-state computation, to 1e-12.

``run_plan`` and the Bell functions measure each final state on its dense
shutter x probe amplitude block.  This module keeps the dict ``FockState``
path as an independent reference: ``apply_schedule``, then
``postselect_subsystem``, ``fidelity``, ``project_pattern`` /
``project_predicate`` and ``schmidt_spectrum`` for the scenarios, and
``select`` / ``matches`` / ``postselect_subsystem`` on the collected state
for the Bell tables.  Random beam tables are held to it as well, the small
ones also to the dense oracle, and their sweeps to their runs bit for bit.
Every named perturbation is held to both the sparse and the dense path.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from dense_oracle import dense_propagate
from router_sim import scenarios, tsvf
from router_sim.elements import (
    RouterOrientation,
    apply_schedule,
    pqr_ideal,
    tunneling,
)
from router_sim.errors import UndefinedConditioning, UnsupportedSector
from router_sim.fock import (
    FockState,
    fidelity,
    matches,
    postselect_subsystem,
    project_pattern,
    project_predicate,
    schmidt_spectrum,
    select,
)

TOL = 1e-12
S3 = math.sqrt(3.0)


def random_alphas(rng, n):
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return vec / np.linalg.norm(vec)


def one_photon(modes, weights):
    """Unnormalized one-photon state over ``modes`` with the given
    ``{mode: amplitude}`` weights."""
    amps = {}
    for mode, weight in weights.items():
        config = [0] * len(modes)
        config[modes.index(mode)] = 1
        amps[tuple(config)] = complex(weight)
    return FockState(modes, amps)


def reference_run(plan, propagate=apply_schedule):
    """Outcome partition, fidelity, Schmidt spectrum and conditioned probe
    state of ``plan`` on the sparse-state path, its states propagated by
    ``propagate(state, elements)``."""
    joint = propagate(plan.initial, plan.schedule)
    spectrum = schmidt_spectrum(joint, set(plan.shutter_post.modes))
    merged = (joint if plan.merge is None
              else propagate(joint, [plan.merge]))
    post = postselect_subsystem(merged, plan.shutter_post)
    probe = postselect_subsystem(joint, plan.shutter_post).state

    target = one_photon(probe.modes, dict(zip(plan.kept_ports, plan.alphas)))
    fid = 0.0 if probe.is_zero else fidelity(target, probe)
    if plan.merge is not None:
        q = project_pattern(post.state, {plan.kept_ports[0]: 1}).probability
    else:
        positions = [post.state.index_of(m) for m in plan.kept_ports]
        q = project_predicate(
            post.state, lambda c: sum(c[p] for p in positions) == 1
        ).probability
    p, label = post.probability, plan.outcome_label
    conditionals = {
        "postselection_success": p,
        f"{label}_given_postselection": q,
        f"postselected_and_{label}": p * q,
        f"postselected_not_{label}": p * (1.0 - q),
        "postselection_failed": 1.0 - p,
    }
    return conditionals, fid, spectrum, probe


def assert_same_state(a, b):
    assert a.modes == b.modes
    for config in set(a.amplitudes) | set(b.amplitudes):
        assert abs(a.amplitude(config) - b.amplitude(config)) <= TOL, config


def assert_run_matches_reference(plan, propagate=apply_schedule):
    result = scenarios.run_plan(plan)
    conditionals, fid, spectrum, probe = reference_run(plan, propagate)
    assert list(result.conditional_probabilities) == list(conditionals)
    for key, value in conditionals.items():
        assert abs(result.conditional_probabilities[key] - value) <= TOL, key
    assert abs(result.fidelity_to_target - fid) <= TOL
    assert len(result.schmidt_spectrum) == len(spectrum)
    assert np.allclose(result.schmidt_spectrum, spectrum, rtol=0, atol=TOL)
    assert_same_state(result.conditioned_probe_state, probe)


BUILDERS = {
    "three_box_shutter": lambda p: scenarios.build_three_box(0.6, 0.8j),
    "disappearing_full": lambda p: scenarios.build_disappearing(None, p),
    "simplified_3path": lambda p: scenarios.build_simplified_3path(p),
    "simplest_2path": lambda p: scenarios.build_simplest_2path(p),
    "absence_test": lambda p: scenarios.build_absence_test(p),
    "stricter_6beam": lambda p: scenarios.build_stricter_6beam(None, p),
}


@pytest.mark.parametrize("name,perturbation", [
    (name, perturbation)
    for name in BUILDERS
    for perturbation in (None,) + scenarios.SCENARIOS[name].perturbations
])
def test_run_plan_matches_the_sparse_path(name, perturbation):
    assert_run_matches_reference(BUILDERS[name](perturbation))


@pytest.mark.parametrize("name,perturbation", [
    (name, perturbation)
    for name in BUILDERS
    for perturbation in scenarios.SCENARIOS[name].perturbations
])
def test_perturbed_plans_match_the_dense_oracle(name, perturbation):
    # The dense oracle propagates every named perturbation too, as
    # test_criterion_09 propagates the unperturbed plans.
    assert_run_matches_reference(BUILDERS[name](perturbation), dense_schedule)


@pytest.mark.parametrize("build,arity", [
    (lambda a: scenarios.build_three_box(*a), 2),
    (lambda a: scenarios.build_disappearing(a), 5),
    (lambda a: scenarios.build_disappearing(a, "remove-shutter-C-t2"), 5),
    (lambda a: scenarios.build_disappearing(a, "extra-beam-B-t2"), 5),
    (lambda a: scenarios.build_stricter_6beam(a), 6),
    (lambda a: scenarios.build_stricter_6beam(a, "flip-A-t2"), 6),
])
def test_run_plan_matches_the_sparse_path_at_random_alphas(build, arity):
    rng = np.random.default_rng(1000 + arity)
    for _ in range(8):
        assert_run_matches_reference(build(random_alphas(rng, arity)))


# ---------------------------------------------------------------------------
# Bell tables
# ---------------------------------------------------------------------------

def reference_collected(alphas):
    """The collected Bell state as a ``FockState``, with its cavities and
    shutter modes."""
    plan = scenarios.build_disappearing(alphas)
    cavities = plan.kept_ports
    shutter = plan.shutter_post.modes
    joint = apply_schedule(plan.initial, plan.schedule)
    positions = [joint.index_of(c) for c in cavities]
    collected = project_predicate(
        joint, lambda c: sum(c[p] for p in positions) == 1
    )
    return collected.state, cavities, shutter


def reference_table(state, cavities, shutter, alice_setting, bob_setting):
    alice_super = tsvf.shutter_state((1 / S3,) * 3, shutter)
    probe_modes = tuple(m for m in state.modes if m not in set(shutter))
    k = len(cavities)
    bob_super = one_photon(probe_modes, {c: 1 / math.sqrt(k)
                                         for c in cavities})
    table = {}
    if (alice_setting, bob_setting) == (scenarios.OPEN_BOXES,
                                        scenarios.OPEN_CAVITIES):
        for box, s_mode in zip("ABC", shutter):
            for cavity in cavities:
                _, p = select(state, matches(state, {s_mode: 1, cavity: 1}))
                table[(box, cavity)] = p
    elif alice_setting == scenarios.OPEN_BOXES:
        for box, s_mode in zip("ABC", shutter):
            sliced, p_box = select(state, matches(state, {s_mode: 1}))
            p_match = postselect_subsystem(sliced, bob_super).probability
            table[(box, "match")] = p_match
            table[(box, "rest")] = p_box - p_match
    elif bob_setting == scenarios.OPEN_CAVITIES:
        for cavity in cavities:
            sliced, p_cavity = select(state, matches(state, {cavity: 1}))
            p_match = postselect_subsystem(sliced, alice_super).probability
            table[("match", cavity)] = p_match
            table[("rest", cavity)] = p_cavity - p_match
    else:
        conditional = postselect_subsystem(state, alice_super)
        p_alice = conditional.probability
        p_bob = postselect_subsystem(state, bob_super).probability
        p_both = p_alice * fidelity(bob_super, conditional.state)
        table[("match", "match")] = p_both
        table[("match", "rest")] = p_alice - p_both
        table[("rest", "match")] = p_bob - p_both
        table[("rest", "rest")] = 1.0 - p_alice - p_bob + p_both
    return {key: max(float(v), 0.0) for key, v in table.items()}


SETTINGS = [(a, b) for a in (scenarios.OPEN_BOXES, scenarios.SUPERPOSE)
            for b in (scenarios.OPEN_CAVITIES, scenarios.SUPERPOSE)]


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("settings", SETTINGS)
def test_bell_tables_match_the_sparse_path(settings, stacked):
    rng = np.random.default_rng(77)
    points = [None] + [random_alphas(rng, 5) for _ in range(6)]
    if stacked:
        # Every point in one stack, as a Bell sweep evolves them.
        stacked, _, padded = scenarios._bell_report(scenarios._bell_states(
            [scenarios.equal_alphas(5) if a is None else a for a in points]))
        tables = [scenarios._table(stacked, i, settings)
                  for i in range(len(points))]
        spectra = [row[row > 0] for row in padded]
    else:
        tables = [scenarios.bell_test(a, *settings) for a in points]
        spectra = [scenarios.bell_scenario(a, *settings).schmidt_spectrum
                   for a in points]
    for alphas, table, got in zip(points, tables, spectra, strict=True):
        state, cavities, shutter = reference_collected(alphas)
        expected = reference_table(state, cavities, shutter, *settings)
        assert list(table) == list(expected)
        for key, value in expected.items():
            assert abs(table[key] - value) <= TOL, key
        spectrum = schmidt_spectrum(state, set(shutter))
        assert len(got) == len(spectrum)
        assert np.allclose(got, spectrum, rtol=0, atol=TOL)


# ---------------------------------------------------------------------------
# Random beam tables
# ---------------------------------------------------------------------------

def dense_schedule(state, elements):
    """``state`` after ``elements`` on the dense oracle, as a FockState."""
    vec, configs, _ = dense_propagate(state, elements)
    return FockState(state.modes, dict(zip(configs, vec.tolist())))


def random_beam_table(rng, max_beams):
    """A random plan of :func:`scenarios._beam_table_plan`, built outside
    its cache: a shutter, one to ``max_beams`` beams at random boxes,
    checkpoints and orientations, each flag at random, and random unit
    coefficients."""
    shutter = ("three_box", "disappearing",
               "remove-shutter-C-t2")[rng.integers(3)]
    checkpoints = sorted(scenarios._spec(shutter).checkpoints)
    orientations = list(RouterOrientation)
    beams = []
    for i in range(rng.integers(1, max_beams + 1)):
        box = "ABC"[rng.integers(3)]
        beams.append((f"{box}{i}", box,
                      checkpoints[rng.integers(len(checkpoints))],
                      orientations[rng.integers(len(orientations))]))
    routers, probe_photon, recombine = map(
        bool, rng.random(3) < (0.8, 0.8, 0.7))
    plan = scenarios._beam_table_plan.__wrapped__(
        "random", shutter, tuple(beams), routers=routers,
        probe_photon=probe_photon, recombine=recombine)
    return replace(plan, alphas=random_alphas(rng, len(beams)))


@pytest.mark.parametrize("seed", range(24))
def test_random_beam_tables_match_the_reference_and_sweep_as_they_run(seed):
    rng = np.random.default_rng(2300 + seed)
    plan = random_beam_table(rng, 6)
    points = np.array([random_alphas(rng, len(plan.probes))
                       for _ in range(5)])
    if reference_run(plan)[0]["postselection_success"] < 1e-24:
        # The shutter without box C, with no router on the way to its
        # post-state: no post-selection succeeds, at any coefficients.
        with pytest.raises(UndefinedConditioning):
            scenarios.run_plan(plan)
        with pytest.raises(UndefinedConditioning):
            scenarios.sweep_plan(plan, points)
        return
    assert_run_matches_reference(plan)
    if len(plan.probes) <= 3:
        assert_run_matches_reference(plan, dense_schedule)
    fields, values, spectra = scenarios.sweep_plan(plan, points)
    for point, row, spectrum in zip(points, values, spectra, strict=True):
        run = scenarios.run_plan(replace(plan, alphas=point))
        assert fields == (*run.conditional_probabilities, "fidelity")
        expected = [*run.conditional_probabilities.values(),
                    run.fidelity_to_target]
        assert row.tobytes() == np.array(expected).tobytes()
        assert spectrum[spectrum > 0].tolist() == run.schmidt_spectrum


@pytest.mark.parametrize("seed", range(16))
def test_random_schedules_that_leave_the_block_are_unsupported(seed):
    # A router between shutter modes, or tunneling between a shutter mode
    # and a probe mode, moves amplitude out of the shutter x probe block.
    rng = np.random.default_rng(4600 + seed)
    plan = random_beam_table(rng, 4)
    shutter = plan.spec.post.modes
    a, b = (shutter[i] for i in rng.choice(len(shutter), 2, replace=False))
    if seed % 2:
        controls = [m for m in shutter + plan.probe_modes if m not in (a, b)]
        bad = pqr_ideal(a, b, controls[rng.integers(len(controls))])
    else:
        probe = plan.probe_modes[rng.integers(len(plan.probe_modes))]
        bad = tunneling(rng.uniform(0.1, 1.5),
                        *((a, probe) if rng.random() < 0.5 else (probe, a)))
    at = rng.integers(len(plan.schedule) + 1)
    plan = replace(plan, schedule=plan.schedule[:at] + (bad,)
                   + plan.schedule[at:])
    with pytest.raises(UnsupportedSector, match="not a router"):
        scenarios.run_plan(plan)
    with pytest.raises(UnsupportedSector, match="not a router"):
        scenarios.sweep_plan(plan, plan.alphas[None])
