import functools
import io
import itertools
import math
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import router_sim
from router_sim import cli, dsl, elements, scenarios, tsvf
from router_sim.elements import (
    ElementKind,
    RouterOrientation,
    apply_schedule,
    beamsplitter,
    pqr_decomposed,
    pqr_ideal,
)
from router_sim.errors import BadCoefficients, BadParam, UnsupportedSector
from router_sim.fock import FockState, postselect_subsystem
from sweep_reference import bell_report, records

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)


def random_alphas(rng, n):
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return vec / np.linalg.norm(vec)


def per_process_caches():
    """The caches of the scenario layer, by name."""
    return {name: value for name, value in vars(scenarios).items()
            if hasattr(value, "cache_clear")}


def clear_caches():
    """Empty the scenario layer's caches, as a fresh process has them."""
    for cache in per_process_caches().values():
        cache.cache_clear()


def conditional(result):
    keys = [
        k
        for k in result.conditional_probabilities
        if k.endswith("_given_postselection")
    ]
    assert len(keys) == 1
    return result.conditional_probabilities[keys[0]]


def outcome_partition_sum(result):
    probs = result.conditional_probabilities
    label = [
        k for k in probs if k.startswith("postselected_and_")
    ][0].removeprefix("postselected_and_")
    return (
        probs[f"postselected_and_{label}"]
        + probs[f"postselected_not_{label}"]
        + probs["postselection_failed"]
    )


# ---------------------------------------------------------------------------
# three-box shutter
# ---------------------------------------------------------------------------

def test_three_box_equal_weights():
    result = scenarios.three_box_shutter(1 / S2, 1 / S2)
    assert result.fidelity_to_target == pytest.approx(1.0, abs=1e-10)
    assert conditional(result) == pytest.approx(1.0, abs=1e-10)
    state = result.conditioned_probe_state
    reflected = {m: i for i, m in enumerate(state.modes)}
    config_ra = tuple(
        1 if i == reflected["RA"] else 0 for i in range(len(state.modes))
    )
    assert abs(state.amplitude(config_ra)) == pytest.approx(1 / S2)


def test_three_box_single_branch():
    result = scenarios.three_box_shutter(1.0, 0.0)
    assert result.fidelity_to_target == pytest.approx(1.0, abs=1e-10)
    state = result.conditioned_probe_state
    occupied = [c for c, a in state.amplitudes.items() if abs(a) > 1e-9]
    assert len(occupied) == 1


def three_box_joint_reference(plan):
    """Expected joint state after the routers, built by hand.

    Reflected rails carry the matching-shutter branches, transmitted rails
    carry the other two shutter branches, all weighted 1/sqrt(3).
    """
    modes = plan.initial.modes
    a1, a2 = plan.alphas
    amps = {}

    def put(occupied, amplitude):
        config = [0] * len(modes)
        for name in occupied:
            config[plan.initial.index_of(name)] = 1
        amps[tuple(config)] = amplitude

    put(("RA", "SA"), a1 / S3)
    put(("RB", "SB"), a2 / S3)
    put(("PA", "SB"), a1 / S3)
    put(("PA", "SC"), a1 / S3)
    put(("PB", "SA"), a2 / S3)
    put(("PB", "SC"), a2 / S3)
    return FockState(modes, amps)


def joint_state_max_deviation(plan, joint):
    reference = three_box_joint_reference(plan)
    return max(
        abs(joint.amplitude(c) - reference.amplitude(c))
        for c in set(joint.amplitudes) | set(reference.amplitudes)
    )


def test_three_box_joint_state_matches_reference():
    rng = np.random.default_rng(31)
    for _ in range(5):
        a = random_alphas(rng, 2)
        plan = scenarios.build_three_box(a[0], a[1])
        joint = apply_schedule(plan.initial, plan.schedule)
        assert joint_state_max_deviation(plan, joint) < 1e-10


def test_three_box_postselection_success_is_one_ninth():
    rng = np.random.default_rng(32)
    for _ in range(5):
        a = random_alphas(rng, 2)
        result = scenarios.three_box_shutter(a[0], a[1])
        assert result.conditional_probabilities[
            "postselection_success"
        ] == pytest.approx(1 / 9, abs=1e-10)


def test_three_box_rejects_non_normalized():
    with pytest.raises(BadParam):
        scenarios.three_box_shutter(1.0, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_coefficients_must_be_finite(bad):
    # sum |a|^2 is NaN for a NaN coefficient, and a NaN passes the
    # normalization check.
    with pytest.raises(BadParam, match="not finite"):
        scenarios.as_alpha_vector([bad, 1.0], 2)
    with pytest.raises(BadParam, match="not finite"):
        scenarios.three_box_shutter(bad, 1.0)


def test_coefficients_must_have_the_scenario_arity():
    with pytest.raises(BadCoefficients, match="expected 3 coefficients"):
        scenarios.as_alpha_vector([1, 0], 3)


def test_one_vector_is_checked_by_the_stacked_rule():
    # A run's message names no point, since it has only one.
    with pytest.raises(BadCoefficients,
                       match=r"not normalized: sum \|a\|\^2 = 2\.0$"):
        scenarios.as_alpha_vector([1, 1], 2)
    with pytest.raises(BadCoefficients, match="not normalized"):
        scenarios.as_alpha_vector([0, 0], 2)
    assert scenarios.as_alpha_vector([0.6, 0.8j], 2).tolist() == [0.6, 0.8j]


def test_three_box_carries_tsvf_values():
    result = scenarios.three_box_shutter(1 / S2, 1 / S2)
    assert result.abl_values[("A", "t")] == pytest.approx(1.0)
    assert result.abl_values[("B", "t")] == pytest.approx(1.0)
    assert result.weak_values[("C", "t")] == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# disappearing-reappearing, full five-beam scheme
# ---------------------------------------------------------------------------

def test_disappearing_equal_alphas_restores():
    result = scenarios.disappearing_full()
    assert conditional(result) == pytest.approx(1.0, abs=1e-10)
    assert result.fidelity_to_target == pytest.approx(1.0, abs=1e-10)
    assert result.conditional_probabilities[
        "postselection_success"
    ] == pytest.approx(1 / 9, abs=1e-10)


def test_disappearing_single_branch():
    result = scenarios.disappearing_full([1, 0, 0, 0, 0])
    assert conditional(result) == pytest.approx(1.0, abs=1e-10)
    state = result.conditioned_probe_state
    occupied = [c for c, a in state.amplitudes.items() if abs(a) > 1e-9]
    assert len(occupied) == 1


def test_disappearing_random_alphas_restore():
    rng = np.random.default_rng(33)
    for _ in range(20):
        result = scenarios.disappearing_full(random_alphas(rng, 5))
        assert conditional(result) == pytest.approx(1.0, abs=1e-9)


def test_disappearing_modified_preparation_breaks_certainty():
    """Removing the shutter's C support ruins the restoration; the exact
    value (|a1|^2 + |a4|^2)/2 comes from branch bookkeeping."""
    result = scenarios.disappearing_full(
        perturbation="remove-shutter-C-t2"
    )
    assert conditional(result) == pytest.approx(0.2, abs=1e-10)
    assert conditional(result) < 1 - 1e-6


def test_disappearing_extra_beam_is_not_maximal():
    for perturbation in ("extra-beam-A-t2", "extra-beam-B-t2"):
        result = scenarios.disappearing_full(perturbation=perturbation)
        value = conditional(result)
        assert value == pytest.approx(25 / 36, abs=1e-10)
        assert value < 1 - 1e-6


def test_disappearing_attaches_tsvf_values():
    result = scenarios.disappearing_full()
    assert result.abl_values[("C", "t2")] == pytest.approx(1.0)
    assert result.weak_values[("B", "t1")] == pytest.approx(-1.0)
    assert result.weak_values[("A", "t3")] == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# simplified and absence schemes
# ---------------------------------------------------------------------------

def test_simplified_3path_default():
    assert conditional(scenarios.simplified_3path()) == pytest.approx(
        1.0, abs=1e-10
    )


def test_simplified_3path_identity_routers():
    # no interaction: the probe never reaches the reflected rails
    assert conditional(
        scenarios.simplified_3path("identity-routers")
    ) == pytest.approx(0.0, abs=1e-12)


def test_simplified_3path_wrong_box():
    value = conditional(scenarios.simplified_3path("wrong-box-t2"))
    assert value == pytest.approx(4 / 9, abs=1e-10)
    assert value < 1 - 1e-6


def test_simplest_2path_default():
    assert conditional(scenarios.simplest_2path()) == pytest.approx(
        1.0, abs=1e-10
    )


def test_simplest_2path_swapped_slots():
    value = conditional(scenarios.simplest_2path("swapped-slots"))
    assert value == pytest.approx(0.25, abs=1e-10)
    assert value < 1 - 1e-6


def test_simplest_2path_vacuum_probe():
    result = scenarios.simplest_2path("vacuum-probe")
    assert conditional(result) == pytest.approx(0.0, abs=1e-12)


def test_absence_test_default():
    assert conditional(scenarios.absence_test()) == pytest.approx(
        1.0, abs=1e-10
    )


def test_absence_test_wrong_times():
    for variant in ("at-t1", "at-t3"):
        value = conditional(scenarios.absence_test(variant))
        assert value == pytest.approx(1 / 3, abs=1e-10)
        assert value < 1 - 1e-6


def test_absence_test_reflect_orientation():
    value = conditional(scenarios.absence_test("reflect-orientation"))
    assert value == pytest.approx(0.0, abs=1e-12)
    assert value < 1 - 1e-6


# ---------------------------------------------------------------------------
# stricter six-beam scheme
# ---------------------------------------------------------------------------

def test_stricter_6beam_default():
    result = scenarios.stricter_6beam()
    assert conditional(result) == pytest.approx(1.0, abs=1e-10)
    assert result.fidelity_to_target == pytest.approx(1.0, abs=1e-10)


def test_stricter_6beam_random_alphas():
    rng = np.random.default_rng(34)
    for _ in range(10):
        result = scenarios.stricter_6beam(random_alphas(rng, 6))
        assert conditional(result) == pytest.approx(1.0, abs=1e-9)


def test_stricter_6beam_flips_break_certainty():
    for flip in ("flip-A-t2", "flip-B-t2"):
        value = conditional(scenarios.stricter_6beam(flip=flip))
        assert value == pytest.approx(25 / 36, abs=1e-10)
        assert value < 1 - 1e-6


def test_stricter_zeroed_t2_matches_disappearing():
    """Zeroing the t2 beams reduces the six-beam scheme to the five-beam
    scheme with its own t2 beam removed: the conditioned states agree
    rail by rail."""
    s = 1 / 2.0
    six = scenarios.stricter_6beam([s, s, 0, 0, s, s])
    five = scenarios.disappearing_full([s, s, 0, s, s])
    six_state = six.conditioned_probe_state
    five_state = five.conditioned_probe_state

    def rail_amplitudes(state):
        amps = {}
        for config, amp in state.amplitudes.items():
            occupied = [
                m for m, c in zip(state.modes, config) if c == 1
            ]
            if len(occupied) == 1:
                amps[occupied[0]] = amp
        return amps

    six_amps = rail_amplitudes(six_state)
    five_amps = rail_amplitudes(five_state)
    for rail in ("RA1", "RC1", "RB3", "RC3"):
        assert six_amps[rail] == pytest.approx(five_amps[rail], abs=1e-10)


# ---------------------------------------------------------------------------
# cross-cutting invariants
# ---------------------------------------------------------------------------

def test_outcome_partitions_sum_to_one():
    runs = [
        scenarios.three_box_shutter(0.6, 0.8j),
        scenarios.disappearing_full(),
        scenarios.disappearing_full(perturbation="remove-shutter-C-t2"),
        scenarios.simplified_3path(),
        scenarios.simplified_3path("wrong-box-t2"),
        scenarios.simplest_2path(),
        scenarios.absence_test(),
        scenarios.absence_test("at-t1"),
        scenarios.stricter_6beam(),
        scenarios.stricter_6beam(flip="flip-A-t2"),
    ]
    for result in runs:
        assert outcome_partition_sum(result) == pytest.approx(1.0, abs=1e-9)


def test_final_state_norm_is_one():
    plan = scenarios.build_disappearing()
    final = apply_schedule(plan.initial, plan.full_schedule)
    assert final.norm() == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Bell-type validation
# ---------------------------------------------------------------------------

def test_bell_open_open_matches_born_oracle():
    """Joint table equals the Born rule on the explicitly constructed
    collected state."""
    rng = np.random.default_rng(35)
    alphas = random_alphas(rng, 5)
    table = scenarios.bell_test(alphas)

    # hand-built collected state: rail k carries alpha_k and the shutter
    # branch it reflected from, evolved to the final slot
    s3 = 1 / math.sqrt(3)
    attached = {
        "RA1": ("B", -1j * s3),
        "RC1": ("C", s3),
        "RC2": ("C", s3),
        "RB3": ("B", -1j * s3),
        "RC3": ("C", s3),
    }
    norm2 = sum(
        abs(alphas[i] * attached[rail][1]) ** 2
        for i, rail in enumerate(attached)
    )
    for i, rail in enumerate(("RA1", "RC1", "RC2", "RB3", "RC3")):
        box, weight = attached[rail]
        expected = abs(alphas[i] * weight) ** 2 / norm2
        assert table[(box, rail)] == pytest.approx(expected, abs=1e-10)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)


def test_bell_tables_sum_to_one_all_settings():
    for alice in (scenarios.OPEN_BOXES, scenarios.SUPERPOSE):
        for bob in (scenarios.OPEN_CAVITIES, scenarios.SUPERPOSE):
            table = scenarios.bell_test(None, alice, bob)
            assert sum(table.values()) == pytest.approx(1.0, abs=1e-10)
            assert all(v >= 0 for v in table.values())


@pytest.mark.parametrize("alice,bob,message", [
    ("OPEN_CAVITIES", scenarios.OPEN_CAVITIES, "unknown Alice setting"),
    (scenarios.OPEN_BOXES, "OPEN_BOXES", "unknown Bob setting"),
])
def test_bell_test_rejects_unknown_settings(alice, bob, message):
    with pytest.raises(BadParam, match=message):
        scenarios.bell_test(None, alice, bob)


def test_bell_marginals_rejects_unknown_sides():
    table = scenarios.bell_test()
    assert list(scenarios.bell_marginals(table, "alice")) == list("ABC")
    assert (list(scenarios.bell_marginals(table, "bob"))
            == list(scenarios._CAVITIES))
    for side in ("Alice", "BOB", "", None):
        with pytest.raises(BadParam, match="unknown side"):
            scenarios.bell_marginals(table, side)


def test_bell_no_signaling():
    rng = np.random.default_rng(36)
    for _ in range(3):
        result = scenarios.bell_scenario(random_alphas(rng, 5))
        assert result.metadata["no_signaling_gap"] <= 1e-10


def test_bell_joint_state_is_entangled_for_generic_alphas():
    rng = np.random.default_rng(37)
    for _ in range(5):
        result = scenarios.bell_scenario(random_alphas(rng, 5))
        spectrum = result.schmidt_spectrum
        assert len(spectrum) >= 2
        assert spectrum[1] > 1e-6


def test_chsh_reported_in_valid_range():
    value = scenarios.bell_scenario().metadata["chsh"]
    assert -4.0 <= value <= 4.0


def test_bell_scenario_builds_its_state_once(monkeypatch):
    calls = {"build_disappearing": 0, "merge": 0}

    def spy(attr, key):
        original = getattr(scenarios, attr)

        def counting(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(scenarios, attr, counting)

    spy("build_disappearing", "build_disappearing")
    spy("unitary_with_first_row", "merge")
    clear_caches()
    builds = scenarios._beam_table_plan.cache_info
    alphas = random_alphas(np.random.default_rng(38), 5)
    result = scenarios.bell_scenario(
        alphas, scenarios.SUPERPOSE, scenarios.OPEN_CAVITIES
    )
    # One plan, built on first use, and no merge: the Bell analysis never
    # reads it.
    assert builds().misses == 1
    assert calls == {"build_disappearing": 0, "merge": 0}
    table = scenarios.bell_test(
        alphas, scenarios.SUPERPOSE, scenarios.OPEN_CAVITIES
    )
    # The plan is kept for the process.
    assert builds().misses == 1
    assert calls == {"build_disappearing": 0, "merge": 0}
    assert result.conditional_probabilities == {
        f"shutter={a}|probe={b}": p for (a, b), p in table.items()
    }
    open_open = scenarios.bell_scenario(alphas).metadata
    assert (result.metadata["no_signaling_gap"]
            == open_open["no_signaling_gap"])
    assert result.metadata["chsh"] == open_open["chsh"]


def test_disappearing_full_propagates_each_checkpoint_once(monkeypatch):
    calls = {"forward_state": 0, "backward_state": 0}
    for name in calls:
        original = getattr(tsvf.TwoStateSpec, name)

        def counting(self, boundary, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, boundary)

        monkeypatch.setattr(tsvf.TwoStateSpec, name, counting)
    result = scenarios.disappearing_full()
    assert calls["forward_state"] <= 3
    assert calls["backward_state"] <= 3
    assert len(result.abl_values) == len(result.weak_values) == 9


def recorded_blocks(monkeypatch):
    """The list that each later ``scenarios._propagate`` call appends its
    stacked blocks to."""
    blocks = []
    original = scenarios._propagate

    def recording(plan, points):
        blocks.append(original(plan, points))
        return blocks[-1]

    monkeypatch.setattr(scenarios, "_propagate", recording)
    return blocks


def read_block(plan, state):
    """The amplitude block of ``state``, a state over ``plan``'s modes with
    one shutter photon and at most one probe photon: row s is shutter mode
    s, column 0 the probe vacuum and column 1 + p probe mode p."""
    shutter, probes = plan.spec.post.modes, plan.probe_modes
    block = np.zeros((len(shutter), 1 + len(probes)), dtype=complex)
    for config, amp in state.amplitudes.items():
        occupied = [m for m, n in zip(state.modes, config) for _ in range(n)]
        s = [shutter.index(m) for m in occupied if m in shutter]
        p = [1 + probes.index(m) for m in occupied if m in probes]
        assert len(s) == 1 and len(p) <= 1 and len(occupied) <= 2, config
        block[s[0], p[0] if p else 0] = amp
    return block


def reference_block(plan):
    """The block of ``plan``'s state ahead of the merge, on the sparse
    path."""
    return read_block(plan, apply_schedule(plan.initial, plan.schedule))


def test_three_box_shutter_propagates_once(monkeypatch):
    blocks = recorded_blocks(monkeypatch)
    scenarios.three_box_shutter(0.6, 0.8)
    (block,) = blocks
    assert block.shape[0] == 1
    plan = scenarios.build_three_box(0.6, 0.8)
    expected = read_block(plan, three_box_joint_reference(plan))
    assert np.max(np.abs(block[0] - expected)) < 1e-10


def test_run_and_sweep_build_no_state_or_merge_they_never_read(monkeypatch):
    calls = {"FockState": 0, "superposition_source": 0, "mode_unitary": 0,
             "unitary_with_first_row": 0}
    for attr in calls:
        original = getattr(scenarios, attr)

        def counting(*args, _attr=attr, _original=original, **kwargs):
            calls[_attr] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(scenarios, attr, counting)
    # No plan's initial state, no probe state and no plan merge: a
    # recombining run (disappearing_full, of the three) computes its merge
    # unitary once, as a sweep computes each point's.
    for name in ("disappearing_full", "three_box_shutter", "bell_test"):
        assert cli.main(["run", name], io.StringIO()) == cli.EXIT_OK
    assert calls == {"FockState": 0, "superposition_source": 0,
                     "mode_unitary": 0, "unitary_with_first_row": 1}
    # One merge call per recombining sweep, for all its points.
    for name in COMPILED:
        argv = ["sweep", name, "--random", "3"]
        assert cli.main(argv, io.StringIO()) == cli.EXIT_OK
    assert calls["mode_unitary"] == 0
    assert calls["unitary_with_first_row"] == 3
    # Built on first read, once, with the values the run computed.
    result = scenarios.disappearing_full([1, 0, 0, 0, 0])
    state = result.conditioned_probe_state
    assert state is result.conditioned_probe_state
    assert calls["FockState"] == 1
    plan = scenarios.build_disappearing([1, 0, 0, 0, 0])
    assert calls["mode_unitary"] == 0
    assert plan.initial is plan.initial
    assert calls["superposition_source"] == 1
    assert plan.merge is plan.merge and calls["mode_unitary"] == 1
    assert state.modes == plan.probe_modes
    assert state.amplitudes == {
        tuple(int(m == "RA1") for m in plan.probe_modes): pytest.approx(1)}


# ---------------------------------------------------------------------------
# every plan runs the two-state spec it carries
# ---------------------------------------------------------------------------

BUILDERS = {
    "three_box_shutter": lambda p: scenarios.build_three_box(0.6, 0.8j),
    "disappearing_full": lambda p: scenarios.build_disappearing(None, p),
    "simplified_3path": lambda p: scenarios.build_simplified_3path(p),
    "simplest_2path": lambda p: scenarios.build_simplest_2path(p),
    "absence_test": lambda p: scenarios.build_absence_test(p),
    "stricter_6beam": lambda p: scenarios.build_stricter_6beam(None, p),
}

PLAN_CASES = [
    (name, perturbation)
    for name in BUILDERS
    for perturbation in (None,) + scenarios.SCENARIOS[name].perturbations
]


@pytest.mark.parametrize("name,perturbation", PLAN_CASES)
def test_plan_runs_the_spec_it_carries(name, perturbation):
    """The plan's shutter is its spec: same pre- and post-state, the
    spec's segments in order between the routers, and each router
    controlled by its box's mode at its checkpoint."""
    plan = BUILDERS[name](perturbation)
    spec = plan.spec
    assert isinstance(spec, tsvf.TwoStateSpec)
    assert plan.shutter_post is spec.post
    assert postselect_subsystem(plan.initial, spec.pre).probability == (
        pytest.approx(1.0, abs=1e-12)
    )

    segment_ends = list(itertools.accumulate(len(s) for s in spec.segments))
    others, routers = [], []
    for element in plan.schedule:
        if element.kind is ElementKind.PQR_IDEAL:
            boundary = sum(end <= len(others) for end in segment_ends)
            routers.append((element, boundary))
        else:
            others.append(element)
    in_segments = [e for segment in spec.segments for e in segment]
    assert len(others) == len(in_segments)
    assert all(a is b for a, b in zip(others, in_segments))

    for router, boundary in routers:
        probe, rail, control = router.modes
        tag = probe.removeprefix("P")
        # the extra probe beam "X2" names its box in the perturbation
        box = tag[0] if tag[0] in spec.box_modes else perturbation[11]
        assert control == spec.box_modes[box]
        reflect = (router.params["orientation"]
                   is RouterOrientation.REFLECT_ON_MATCH)
        assert rail == ("R" if reflect else "X") + tag
        if tag[1:]:
            checkpoint = "t" + tag[1:]
        elif name == "absence_test":
            # "at-t1" and "at-t3" move the absence test's slot from t2
            checkpoint = {"at-t1": "t1", "at-t3": "t3"}.get(perturbation,
                                                            "t2")
        else:
            checkpoint = "t"
        assert boundary == spec.boundary(checkpoint)


def test_remove_shutter_perturbation_carries_its_preparation():
    plan = scenarios.build_disappearing(perturbation="remove-shutter-C-t2")
    assert set(plan.spec.pre.amplitudes) == {(1, 0, 0), (0, 1, 0)}
    result = scenarios.disappearing_full(perturbation="remove-shutter-C-t2")
    assert result.abl_values == result.weak_values == {}


@pytest.mark.parametrize("name,evaluate", [
    ("disappearing_full", lambda: scenarios.disappearing_full()),
    ("three_box_shutter", lambda: scenarios.three_box_shutter(0.6, 0.8j)),
])
def test_tsvf_values_come_from_the_plans_spec(name, evaluate, monkeypatch):
    # The values are computed once per process: on a cold cache and on a
    # warm one, they are those of the spec the evaluated plan carries.
    builder = {"disappearing_full": "build_disappearing",
               "three_box_shutter": "build_three_box"}[name]
    plans = []
    build = getattr(scenarios, builder)

    def building(*args, **kwargs):
        plans.append(build(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(scenarios, builder, building)
    clear_caches()
    for _ in ("cold", "warm"):
        result = evaluate()
        plan = plans.pop()
        expected_abl, expected_weak = {}, {}
        for time in plan.spec.checkpoints:
            for box, (abl, weak) in tsvf.checkpoint_values(plan.spec,
                                                           time).items():
                expected_abl[(box, time)] = abl
                expected_weak[(box, time)] = weak
        assert result.abl_values == expected_abl
        assert result.weak_values == expected_weak
    assert not plans


@pytest.mark.parametrize("circuit,build", [
    ("fig2b", scenarios.build_disappearing),
    ("fig3a", scenarios.build_simplified_3path),
    ("fig3b", scenarios.build_simplest_2path),
    ("fig4", scenarios.build_stricter_6beam),
])
def test_shipped_circuit_declares_its_plans_modes(circuit, build):
    path = Path(router_sim.__file__).parent / "circuits" / f"{circuit}.circuit"
    doc = dsl.parse(path.read_text(encoding="utf-8"))
    assert tuple(decl.name for decl in doc.modes) == build().initial.modes


# ---------------------------------------------------------------------------
# compiled sweeps against the per-point path
# ---------------------------------------------------------------------------

COMPILED = {
    "three_box_shutter": "build_three_box",
    "disappearing_full": "build_disappearing",
    "stricter_6beam": "build_stricter_6beam",
}

coefficient_parts = st.floats(min_value=-1.0, max_value=1.0,
                              allow_nan=False, allow_subnormal=False)


@st.composite
def sweep_points(draw, arity):
    """A few normalized coefficient vectors: random ones, and the grid
    end points alpha1 = +-1, where every other coefficient is zero."""
    points = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            vec = np.zeros(arity, dtype=complex)
            vec[0] = draw(st.sampled_from([1.0, -1.0]))
        else:
            vec = np.array([complex(draw(coefficient_parts),
                                    draw(coefficient_parts))
                            for _ in range(arity)])
            norm = np.linalg.norm(vec)
            assume(norm > 1e-3)
            vec = vec / norm
        points.append(vec)
    return points


def test_compiled_scenarios_are_the_beam_table_sweeps():
    # Every scenario that takes coefficients sweeps them from one
    # propagation: the beam tables through sweep_plan, bell_test
    # through bell_sweep.
    swept = {name for name, entry in scenarios.SCENARIOS.items()
             if entry.sweep is not None}
    assert swept == set(COMPILED) | {"bell_test"}
    assert swept == {name for name, entry in scenarios.SCENARIOS.items()
                     if entry.arity}


@pytest.mark.parametrize("name", COMPILED)
@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(data=st.data())
def test_compiled_sweep_matches_each_point(name, data):
    entry = scenarios.SCENARIOS[name]
    points = data.draw(sweep_points(entry.arity))
    open_open = (scenarios.OPEN_BOXES, scenarios.OPEN_CAVITIES)
    swept = records(*entry.sweep(points))
    for point, (summary, schmidt) in zip(points, swept, strict=True):
        result = entry.evaluate(point, None, open_open)
        expected = {**result.conditional_probabilities,
                    "fidelity": result.fidelity_to_target}
        assert list(summary) == list(expected)
        for key, value in expected.items():
            assert abs(summary[key] - value) <= 1e-12, key
        assert len(schmidt) == len(result.schmidt_spectrum)
        assert np.allclose(schmidt, result.schmidt_spectrum,
                           rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", COMPILED)
@pytest.mark.parametrize("count", [1, 9])
def test_compiled_sweep_builds_and_propagates_once(name, count, monkeypatch):
    calls = {"build": 0, "propagate": 0, "merge": 0, "checkpoint_values": 0}
    stacks = []

    def spy(module, attr, key):
        original = getattr(module, attr)

        def counting(*args, **kwargs):
            calls[key] += 1
            if key == "propagate":
                stacks.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)

    spy(scenarios, COMPILED[name], "build")
    spy(scenarios, "_propagate", "propagate")
    spy(scenarios, "mode_unitary", "merge")
    spy(tsvf, "checkpoint_values", "checkpoint_values")
    stream = io.StringIO()
    argv = ["sweep", name, "--random", str(count)]
    assert cli.main(argv, stream) == cli.EXIT_OK
    assert stream.getvalue().count('"index"') == count
    # One propagation of every beam's block, stacked, and no plan merge.
    assert calls == {"build": 1, "propagate": 1, "merge": 0,
                     "checkpoint_values": 0}
    assert stacks == [scenarios.SCENARIOS[name].arity]


def cli_points(argv):
    """The coefficient vectors of the ``router-sim sweep`` options."""
    args = cli.build_parser().parse_args(["sweep", "bell_test"] + argv)
    return cli._sweep_points(args, 5)


def bell_records_point_by_point(points):
    """Sweep records of ``bell_scenario`` run at each point alone."""
    records = []
    for point in points:
        result = scenarios.bell_scenario(point)
        records.append(({key: result.metadata[key]
                         for key in ("no_signaling_gap", "chsh")},
                        result.schmidt_spectrum))
    return records


def same_bits(records, expected):
    """Assert that two lists of sweep records hold the same float bits."""
    assert len(records) == len(expected)
    for (summary, spectrum), (want, want_spectrum) in zip(records, expected):
        assert list(summary) == list(want)
        got = np.array(list(summary.values()) + spectrum)
        ref = np.array(list(want.values()) + want_spectrum)
        assert got.tobytes() == ref.tobytes()


@pytest.fixture(scope="module")
def bell_reference():
    """257 seeded points and their records."""
    points = cli_points(["--random", "257", "--seed", "11"])
    return points, bell_records_point_by_point(points)


@pytest.mark.parametrize("count", [1, 3, 255, 256, 257])
def test_bell_sweep_is_bell_scenario_point_by_point(count, bell_reference):
    points, expected = bell_reference
    swept = records(*scenarios.SCENARIOS["bell_test"].sweep(points[:count]))
    assert len(swept) == count
    same_bits(swept, expected[:count])


@pytest.mark.parametrize("grid", ["0:1:11", "-1:1:33", "0:1:5"])
def test_bell_grid_sweep_is_bell_scenario_point_by_point(grid):
    points = cli_points([f"--alpha1-grid={grid}"])
    same_bits(records(*scenarios.SCENARIOS["bell_test"].sweep(points)),
              bell_records_point_by_point(points))


@pytest.mark.parametrize("count", [1, 256, 257, 600])
def test_bell_sweep_builds_once_and_evolves_once_per_slice(count,
                                                           monkeypatch):
    calls = {"build_disappearing": 0, "merge": 0, "propagate": 0,
             "bell_scenario": 0}
    stacks = []

    def spy(attr, key):
        original = getattr(scenarios, attr)

        def counting(*args, **kwargs):
            calls[key] += 1
            if key == "propagate":
                stacks.append(len(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(scenarios, attr, counting)

    spy("build_disappearing", "build_disappearing")
    spy("unitary_with_first_row", "merge")
    spy("_propagate", "propagate")
    spy("bell_scenario", "bell_scenario")
    clear_caches()
    stream = io.StringIO()
    argv = ["sweep", "bell_test", "--random", str(count)]
    assert cli.main(argv, stream) == cli.EXIT_OK
    assert stream.getvalue().count('"index"') == count
    # The plan is built once, without the merge that the sweep never reads,
    # and every point is propagated in one stack.
    assert scenarios._beam_table_plan.cache_info().misses == 1
    assert calls == {"build_disappearing": 0, "merge": 0,
                     "propagate": 1, "bell_scenario": 0}
    assert stacks == [count]


@pytest.mark.parametrize("argv", [
    ["--random", "1", "--seed", "3"],
    ["--random", "2000", "--seed", "1"],
    ["--alpha1-grid=-1:1:101"],
])
def test_bell_report_is_the_per_state_reference_bit_for_bit(argv):
    # The stacked tables, gap, CHSH value and spectra hold the bits that
    # the dict tables of one state at a time give.
    states = scenarios._bell_states(cli_points(argv))
    tables, values, spectra = scenarios._bell_report(states)
    assert tables.shape == (len(states), 4, 15)
    fields = scenarios._BELL_SUMMARY
    for state, table, (summary, spectrum) in zip(
            states, tables, records(fields, values, spectra), strict=True):
        want_tables, want_summary, want_spectrum = bell_report(state)
        for pair, want in want_tables.items():
            got = scenarios._table(table, *pair)
            assert list(got) == list(want)
            assert (np.array(list(got.values())).tobytes()
                    == np.array(list(want.values())).tobytes()), pair
            # The padding past the table's entries is zero.
            index = list(scenarios._BELL_OUTCOMES).index(pair)
            assert not table[index, len(want):].any()
        same_bits([(summary, spectrum)], [(want_summary, want_spectrum)])


SWEPT = ("three_box_shutter", "disappearing_full", "stricter_6beam",
         "bell_test")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", SWEPT)
@pytest.mark.parametrize("bad,message", [
    ("zero", r"not normalized: sum \|a\|\^2 = 0\.0 at point 1$"),
    ("nan", "not finite"),
    ("inf", "not finite"),
    ("norm2", r"not normalized: sum \|a\|\^2 = 2\.0\d* at point 1$"),
    ("arity", "expected rows of"),
    ("flat", "expected rows of"),
], ids=["zero", "nan", "inf", "norm2", "arity", "flat"])
def test_sweeps_check_their_points_at_entry(name, bad, message):
    entry = scenarios.SCENARIOS[name]
    points = np.tile(scenarios.equal_alphas(entry.arity), (3, 1))
    if bad == "zero":
        points[1] = 0
    elif bad in ("nan", "inf"):
        points[1, 0] = complex(bad)
    elif bad == "norm2":
        points[1] *= S2
    elif bad == "arity":
        points = points[:, 1:]
    else:
        points = points[0]
    with pytest.raises(BadCoefficients, match=message):
        entry.sweep(points)


def test_bell_clamp_removes_almost_no_probability(monkeypatch):
    # _clamp raises each negative probability of the tables to zero;
    # record what it removes.
    removed, shapes = [], []
    original = scenarios._clamp

    def clamp(tables):
        shapes.append(tables.shape)
        removed.append(np.maximum(-tables, 0.0).sum())
        return original(tables)

    monkeypatch.setattr(scenarios, "_clamp", clamp)
    points = np.concatenate([
        cli_points(["--random", "200", "--seed", "4"]),
        cli_points(["--alpha1-grid=0:1:11"]),
    ])
    scenarios.SCENARIOS["bell_test"].sweep(points)
    # One clamp of the four tables (15, 6, 10 and 4 entries, padded to 15)
    # of every point.
    assert shapes == [(len(points), 4, 15)]
    assert sum(removed) < 1e-12


def per_beam_basis(plan):
    """The block of ``plan``'s state with the coefficients of each beam
    alone, on the sparse path."""
    return np.stack([
        reference_block(replace(plan, alphas=alphas))
        for alphas in np.eye(len(plan.probes), dtype=complex)
    ])


@pytest.mark.parametrize("name,perturbation", PLAN_CASES)
def test_batched_compile_equals_one_propagation_per_beam(name, perturbation,
                                                         monkeypatch):
    # Every block the scenario layer propagates is the sparse path's state
    # read into a block: each beam's in a compiled sweep, and the plan's
    # own in a run, at random coefficients, which the start normalizes as
    # superposition_source does.
    plan = BUILDERS[name](perturbation)
    basis = scenarios._propagate(plan, np.eye(len(plan.probes)))
    expected = per_beam_basis(plan)
    assert basis.shape == expected.shape == (
        len(plan.probes), len(plan.spec.post.modes),
        1 + len(plan.probe_modes))
    assert np.max(np.abs(basis - expected)) <= 1e-12
    blocks = recorded_blocks(monkeypatch)
    rng = np.random.default_rng(sum(map(ord, f"{name}{perturbation}")))
    for _ in range(8):
        alphas = rng.uniform(0.5, 2.0) * random_alphas(rng, len(plan.probes))
        run = replace(plan, alphas=alphas)
        scenarios.run_plan(run)
        assert np.max(np.abs(blocks[-1][0] - reference_block(run))) <= 1e-12


def test_bell_blocks_equal_the_sparse_path(monkeypatch):
    blocks = recorded_blocks(monkeypatch)
    points = cli_points(["--random", "300", "--seed", "5"])
    assert scenarios._bell_states(points).shape == (300, 3, 5)
    assert [len(each) for each in blocks] == [300]
    for point, block in zip(points, blocks[0]):
        plan = scenarios.build_disappearing(point)
        assert np.max(np.abs(block - reference_block(plan))) <= 1e-12


def test_compile_rejects_amplitude_outside_the_block():
    # A beamsplitter between a shutter mode and a probe rail moves
    # amplitude to zero shutter photons and two probe photons.
    plan = scenarios.build_disappearing()
    leaky = replace(plan, schedule=plan.schedule + (
        beamsplitter(0.5, "SA", plan.kept_ports[0]),
    ))
    with pytest.raises(UnsupportedSector, match="not a router"):
        scenarios.sweep_plan(leaky, plan.alphas[None])
    with pytest.raises(UnsupportedSector, match="not a router"):
        scenarios.run_plan(leaky)


@pytest.mark.parametrize("router", [
    lambda probes: pqr_ideal(probes[0], probes[1], probes[2]),
    lambda probes: pqr_ideal(probes[0], "RZ9", "SA"),
    lambda probes: pqr_ideal("SB", probes[0], "SA"),
    lambda probes: pqr_ideal(probes[0], probes[1], "SZ"),
    lambda probes: pqr_decomposed(probes[0], probes[-1], "SA"),
    lambda probes: elements.tunneling(0.3, "SA", probes[0]),
], ids=["probe-control", "port-outside-plan", "port-on-shutter",
        "control-outside-plan", "decomposed-router", "tunnel-into-probe"])
def test_plan_validation_rejects_elements_outside_the_block(router):
    plan = scenarios.build_stricter_6beam()
    for at in (0, len(plan.schedule)):
        bad = replace(plan, schedule=plan.schedule[:at]
                      + (router(plan.probe_modes),) + plan.schedule[at:])
        with pytest.raises(UnsupportedSector, match="not a router"):
            scenarios.run_plan(bad)
        with pytest.raises(UnsupportedSector, match="not a router"):
            scenarios.sweep_plan(bad, plan.alphas[None])


@pytest.mark.parametrize("name", ["disappearing_full", "stricter_6beam"])
def test_compiled_restoration_is_exact_where_each_point_is(name):
    # Pruned where the per-point states prune, the merged probe is one
    # amplitude, so restoration comes out exactly 1 and its complement 0.
    entry = scenarios.SCENARIOS[name]
    rng = np.random.default_rng(2024)
    points = [random_alphas(rng, entry.arity) for _ in range(40)]
    open_open = (scenarios.OPEN_BOXES, scenarios.OPEN_CAVITIES)
    swept = records(*entry.sweep(points))
    for point, (summary, _) in zip(points, swept, strict=True):
        expected = entry.evaluate(point, None, open_open)
        probabilities = expected.conditional_probabilities
        for key in ("restored_given_postselection",
                    "postselected_not_restored"):
            assert summary[key] == probabilities[key] == float(
                key.startswith("restored"))


# ---------------------------------------------------------------------------
# per-process plans: the caches change no result and hold a fixed set
# ---------------------------------------------------------------------------

def result_bits(result):
    """Every number of a ScenarioResult, as exact text (repr round-trips
    a float's bits)."""
    probe = result.probe and (result.probe[0], result.probe[1].tobytes())
    return repr((
        result.name, result.conditional_probabilities,
        result.fidelity_to_target, sorted(result.weak_values.items()),
        sorted(result.abl_values.items()), result.schmidt_spectrum,
        result.metadata, probe,
    ))


def cold_and_warm_cases():
    """``(id, evaluation)`` pairs: every scenario under every perturbation,
    30 seeded coefficient vectors for each scenario that takes them, each
    Bell setting pair and a sweep of each beam-table scenario."""
    settings_ = (scenarios.OPEN_BOXES, scenarios.OPEN_CAVITIES)
    cases = []
    for name, entry in scenarios.SCENARIOS.items():
        alphas = scenarios.equal_alphas(entry.arity) if entry.arity else []
        for perturbation in (None,) + entry.perturbations:
            cases.append((f"{name}-{perturbation}", functools.partial(
                entry.evaluate, alphas, perturbation, settings_)))
    rng = np.random.default_rng(1818)
    for name in ("disappearing_full", "stricter_6beam", "three_box_shutter"):
        entry = scenarios.SCENARIOS[name]
        for i in range(30):
            cases.append((f"{name}-alphas{i}", functools.partial(
                entry.evaluate, random_alphas(rng, entry.arity), None,
                settings_)))
    for alice in (scenarios.OPEN_BOXES, scenarios.SUPERPOSE):
        for bob in (scenarios.OPEN_CAVITIES, scenarios.SUPERPOSE):
            cases.append((f"bell_test-{alice}-{bob}", functools.partial(
                scenarios.bell_scenario, random_alphas(rng, 5), alice, bob)))
    for name in COMPILED:
        entry = scenarios.SCENARIOS[name]
        points = np.array([random_alphas(rng, entry.arity)
                           for _ in range(7)])
        cases.append((f"{name}-sweep", functools.partial(entry.sweep,
                                                         points)))
    return cases


def test_results_are_bit_identical_on_cold_and_warm_caches():
    for case, evaluate in cold_and_warm_cases():
        clear_caches()
        cold = evaluate()
        warm = evaluate()
        if isinstance(cold, tuple):  # a sweep's arrays
            fields, values, spectra = cold
            assert (fields, values.tobytes(), spectra.tobytes()) == (
                warm[0], warm[1].tobytes(), warm[2].tobytes()), case
        else:
            assert result_bits(cold) == result_bits(warm), case


@pytest.mark.parametrize("name,perturbation", PLAN_CASES)
def test_mutating_a_returned_plan_changes_no_later_run(name, perturbation):
    entry = scenarios.SCENARIOS[name]
    alphas = (random_alphas(np.random.default_rng(7), entry.arity)
              if entry.arity else [])

    def evaluate():
        return entry.evaluate(alphas, perturbation, (None, None))

    expected = result_bits(evaluate())
    plan = BUILDERS[name](perturbation)
    result = evaluate()
    # A plan's coefficients and a result's tables are its own.
    plan.alphas[:] = 0
    result.abl_values.clear()
    result.weak_values.clear()
    result.conditional_probabilities.clear()
    assert result_bits(evaluate()) == expected
    # What plans share is immutable: the plan itself and its tuples,
    for field in fields(plan):
        with pytest.raises(FrozenInstanceError):
            setattr(plan, field.name, getattr(plan, field.name))
    for sequence in (plan.schedule, plan.probes, plan.kept_ports):
        with pytest.raises(AttributeError):
            sequence.reverse()
        with pytest.raises(TypeError):
            sequence[0] = sequence[-1]
    # and the spec, its states and its elements.
    spec = plan.spec
    with pytest.raises(AttributeError):
        spec.pre = spec.post
    with pytest.raises(AttributeError):
        spec.segments.clear()
    with pytest.raises(TypeError):
        spec.segments[0] = ()
    with pytest.raises(TypeError):
        spec.checkpoints["t9"] = 0
    with pytest.raises(TypeError):
        spec.box_modes["A"] = "SB"
    with pytest.raises(AttributeError):
        spec.post.modes = ()
    for state in (spec.pre, spec.post):
        with pytest.raises(AttributeError):
            state.amplitudes.clear()
        with pytest.raises(TypeError):
            state.amplitudes[next(iter(state.amplitudes))] = 0
    with pytest.raises(AttributeError):
        plan.schedule[0].modes = ()
    for element in [*plan.schedule, *itertools.chain(*spec.segments)]:
        with pytest.raises(TypeError):
            element.params["theta"] = 0.0
        with pytest.raises(AttributeError):
            element.params.clear()
    assert result_bits(evaluate()) == expected


def test_a_plan_cannot_change_the_first_run_of_another():
    # Every plan of the disappearing shutter shares its spec, so one built
    # later starts from the same states: writing them must fail.
    clear_caches()
    expected = result_bits(scenarios.simplest_2path())
    clear_caches()
    spec = scenarios.build_disappearing().spec
    with pytest.raises(AttributeError):
        spec.pre.amplitudes.clear()
    with pytest.raises(TypeError):
        spec.segments[0][0].params["theta"] = 0.0
    assert result_bits(scenarios.simplest_2path()) == expected


def test_repeated_runs_add_no_cache_entries():
    rng = np.random.default_rng(99)
    scenarios.disappearing_full(perturbation="remove-shutter-C-t2")
    for name in ("disappearing_full", "stricter_6beam", "bell_test"):
        scenarios.SCENARIOS[name].evaluate(random_alphas(rng, 5 + (
            name == "stricter_6beam")), None, (scenarios.OPEN_BOXES,
                                              scenarios.OPEN_CAVITIES))
    scenarios.three_box_shutter(0.6, 0.8)

    def entries():
        return {name: cache.cache_info().currsize
                for name, cache in per_process_caches().items()}

    before = entries()
    for _ in range(1000):
        scenarios.disappearing_full(perturbation="remove-shutter-C-t2")
    for i in range(1000):
        name = ("disappearing_full", "stricter_6beam", "bell_test",
                "three_box_shutter")[i % 4]
        entry = scenarios.SCENARIOS[name]
        entry.evaluate(random_alphas(rng, entry.arity), None,
                       (scenarios.OPEN_BOXES, scenarios.OPEN_CAVITIES))
    assert entries() == before
