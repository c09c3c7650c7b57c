"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

import router_sim
from router_sim import dsl, elements, fock, scenarios, tsvf
from router_sim.elements import apply_element, apply_schedule
from router_sim.errors import UnsupportedSector
from router_sim.tsvf import ProjectorSpec
from dense_oracle import (
    basis_state,
    dense_propagate,
    max_amplitude_deviation,
)

CIRCUITS = Path(router_sim.__file__).parent / "circuits"

TOL_CERTAINTY = 1e-9
TOL_PERTURBED = 1e-6
TOL_ROUTER = 1e-10
TOL_ORACLE = 1e-12
TOL_NO_SIGNALING = 1e-10
TOL_DSL = 1e-10


def report(number, text):
    print(f"[PASS] criterion {number}: {text}")


def random_unit(rng, n):
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return vec / np.linalg.norm(vec)


def conditional(result):
    key = [
        k
        for k in result.conditional_probabilities
        if k.endswith("_given_postselection")
    ][0]
    return result.conditional_probabilities[key]


def test_criterion_01_three_box_fidelity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(100):
        a = random_unit(rng, 2)
        result = scenarios.three_box_shutter(a[0], a[1])
        assert abs(result.fidelity_to_target - 1.0) <= TOL_CERTAINTY
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"100 runs took {elapsed:.3f}s"
    report(1, f"100 random three-box runs, fidelity 1 within 1e-9 "
              f"({elapsed:.3f}s)")


def test_criterion_02_abl_predictions():
    spec = tsvf.disappearing_spec()
    expected = {
        ("A", "t1"): 1.0,
        ("C", "t1"): 1.0,
        ("A", "t2"): 0.0,
        ("B", "t2"): 0.0,
        ("C", "t2"): 1.0,
        ("B", "t3"): 1.0,
        ("C", "t3"): 1.0,
    }
    for (box, when), value in expected.items():
        got = tsvf.abl_probability(spec, ProjectorSpec(box, when))
        assert abs(got - value) <= TOL_CERTAINTY, (box, when, got)
    report(2, "all seven conditioned box-opening probabilities at their "
              "0/1 values within 1e-9")


def test_criterion_03_weak_values():
    spec = tsvf.disappearing_spec()
    assert abs(
        tsvf.weak_value(spec, ProjectorSpec("B", "t1")) - (-1.0)
    ) <= TOL_CERTAINTY
    assert abs(
        tsvf.weak_value(spec, ProjectorSpec("A", "t3")) - (-1.0)
    ) <= TOL_CERTAINTY
    for when in ("t1", "t2", "t3"):
        total = tsvf.weak_value(spec, ProjectorSpec("A", when)) + \
            tsvf.weak_value(spec, ProjectorSpec("B", when))
        assert abs(total) <= TOL_CERTAINTY
    report(3, "weak values -1 at B(t1) and A(t3); A+B weak values vanish "
              "at every checkpoint within 1e-9")


def test_criterion_04_postselection_odds():
    spec = tsvf.disappearing_spec()
    plain = tsvf.postselection_success(spec)
    boosted = tsvf.postselection_success(spec, ProjectorSpec("C", "t2"))
    assert abs(plain - 1 / 9) <= TOL_CERTAINTY
    assert abs(boosted - 1 / 3) <= TOL_CERTAINTY
    report(4, f"post-selection odds {plain:.6f} -> {boosted:.6f} "
              "(1/9 -> 1/3 within 1e-9)")


def test_criterion_05_full_scheme_restoration():
    rng = np.random.default_rng(105)
    slowest = 0.0
    for _ in range(100):
        alphas = random_unit(rng, 5)
        start = time.perf_counter()
        result = scenarios.disappearing_full(alphas)
        elapsed = time.perf_counter() - start
        slowest = max(slowest, elapsed)
        assert abs(conditional(result) - 1.0) <= TOL_CERTAINTY
        assert elapsed < 0.1, f"single run took {elapsed:.3f}s"
    report(5, f"100 random five-beam runs, conditional probability 1 "
              f"within 1e-9 (slowest {slowest * 1000:.1f}ms)")


def test_criterion_06_simplified_schemes_and_absence():
    for result in (
        scenarios.simplified_3path(),
        scenarios.simplest_2path(),
        scenarios.absence_test(),
    ):
        assert abs(conditional(result) - 1.0) <= TOL_CERTAINTY, result.name
    perturbed = [
        (scenarios.simplified_3path, "wrong-box-t2"),
        (scenarios.simplest_2path, "swapped-slots"),
        (scenarios.absence_test, "at-t1"),
        (scenarios.absence_test, "at-t3"),
        (scenarios.absence_test, "reflect-orientation"),
    ]
    for scenario, variant in perturbed:
        result = scenario(variant)
        assert conditional(result) < 1.0 - TOL_PERTURBED, (
            f"{scenario.__name__} {variant}")
    report(6, "simplified/absence schemes certain; every wrong-box, "
              "wrong-time and switched-router variant strictly below "
              "1 - 1e-6")


def test_criterion_07_stricter_scheme():
    assert abs(conditional(scenarios.stricter_6beam()) - 1.0) <= TOL_CERTAINTY
    for flip in ("flip-A-t2", "flip-B-t2"):
        value = conditional(scenarios.stricter_6beam(flip=flip))
        assert value < 1.0 - TOL_PERTURBED
    report(7, "six-beam scheme certain in transmit orientation; either "
              "flipped router drops it below 1 - 1e-6")


def test_criterion_08_router_equivalence():
    labels = [n for n in ("a", "b", "c", "spec")]
    vacuum = fock.register_modes(labels)
    ideal = elements.pqr_ideal(labels[0], labels[1], labels[2])
    decomposed = elements.pqr_decomposed(labels[0], labels[1], labels[2])
    checked = 0
    for config in itertools.product(range(3), repeat=4):
        if sum(config) > 2:
            continue
        basis = basis_state(vacuum, config)
        try:
            out_ideal = apply_element(basis, ideal)
        except UnsupportedSector:
            with pytest.raises(UnsupportedSector):
                apply_element(basis, decomposed)
            continue
        out_decomposed = apply_element(basis, decomposed)
        fid = abs(fock.inner_product(out_ideal, out_decomposed)) ** 2
        assert fid >= 1.0 - TOL_ROUTER, config
        # amplitude-level agreement: the shared global phase is one
        for c in set(out_ideal.amplitudes) | set(out_decomposed.amplitudes):
            assert abs(
                out_ideal.amplitude(c) - out_decomposed.amplitude(c)
            ) <= 1e-10, (config, c)
        checked += 1
    report(8, f"decomposed router matches ideal on all {checked} supported "
              "basis configurations, fidelity >= 1 - 1e-10, common global "
              "phase")


def test_criterion_09_dense_oracle_equivalence():
    plans = [
        scenarios.build_three_box(0.6, 0.8j),
        scenarios.build_disappearing(),
        scenarios.build_simplified_3path(),
        scenarios.build_simplest_2path(),
        scenarios.build_absence_test(),
        scenarios.build_stricter_6beam(),
    ]
    worst = 0.0
    for plan in plans:
        sparse = apply_schedule(plan.initial, plan.full_schedule)
        vec, configs, index = dense_propagate(plan.initial, plan.full_schedule)
        deviation = max_amplitude_deviation(sparse, vec, configs, index)
        assert deviation <= TOL_ORACLE, (plan.name, deviation)
        worst = max(worst, deviation)
    report(9, f"sparse equals brute-force dense propagation on all "
              f"{len(plans)} scenarios (worst amplitude deviation "
              f"{worst:.2e} <= 1e-12)")


def test_criterion_10_entanglement_and_no_signaling():
    rng = np.random.default_rng(110)
    for _ in range(10):
        alphas = random_unit(rng, 5)
        plan = scenarios.build_disappearing(alphas)
        joint = apply_schedule(plan.initial, plan.schedule)
        spectrum = fock.schmidt_spectrum(joint, set(plan.shutter_post.modes))
        assert len(spectrum) >= 2 and spectrum[1] > 1e-6
        gap = scenarios.bell_scenario(alphas).metadata["no_signaling_gap"]
        assert gap <= TOL_NO_SIGNALING
    chsh = scenarios.bell_scenario().metadata["chsh"]
    report(10, f"joint state entangled for random coefficients; "
               f"no-signaling within 1e-10 on all setting pairs "
               f"(CHSH reported: {chsh:.4f})")


def test_criterion_11_dsl_equivalence():
    programmatic = {
        "fig2b": scenarios.disappearing_full(),
        "fig3a": scenarios.simplified_3path(),
        "fig3b": scenarios.simplest_2path(),
        "fig4": scenarios.stricter_6beam(),
    }
    for name, result in programmatic.items():
        text = (CIRCUITS / f"{name}.circuit").read_text(encoding="utf-8")
        doc = dsl.parse(text)
        assert dsl.parse(dsl.render(doc)) == doc, f"{name} round-trip"
        run = dsl.execute(dsl.compile_doc(doc))
        post = run["postselections"][0]["probability"]
        detected = run["detections"][0]["conditional"][0]
        assert abs(
            post - result.conditional_probabilities["postselection_success"]
        ) <= TOL_DSL
        assert abs(
            detected
            - result.conditional_probabilities["restored_given_postselection"]
        ) <= TOL_DSL
    report(11, "all four shipped circuit files round-trip and reproduce "
               "their scenarios' numbers to 1e-10")
