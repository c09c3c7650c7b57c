import math
from dataclasses import replace

import numpy as np
import pytest

from router_sim import tsvf
from router_sim.elements import tunneling
from router_sim.errors import BadParam, UndefinedConditioning
from router_sim.tsvf import ProjectorSpec

S2 = math.sqrt(2.0)
S3 = math.sqrt(3.0)

CHECKPOINTS = ("t1", "t2", "t3")
BOXES = ("A", "B", "C")


def static_spec(pre, post):
    """Two-state spec of single-photon ``pre`` and ``post`` states over the
    three box modes with no evolution and one checkpoint ``t``."""
    return tsvf.TwoStateSpec(
        pre=pre,
        post=post,
        segments=[],
        checkpoints={"t": 0},
        box_modes=dict(zip(BOXES, pre.modes)),
    )


def retrodiction(pre, post, box):
    """ABL probability of finding the particle in one box, no evolution."""
    return tsvf.abl_probability(static_spec(pre, post), ProjectorSpec(box, "t"))


def explicit_disappearing_spec():
    """:func:`tsvf.disappearing_spec` with the final pi/2 tunneling step
    made explicit: the selection (-|A> + i|B> + |C>)/sqrt3 is measured at
    the final time instead of directly after t3."""
    spec = tsvf.disappearing_spec()
    modes = tsvf.shutter_modes()
    return tsvf.TwoStateSpec(
        pre=spec.pre,
        post=tsvf.shutter_state((-1 / S3, 1j / S3, 1 / S3), modes),
        segments=spec.segments + ((tunneling(math.pi / 2, *modes[:2]),),),
        checkpoints=spec.checkpoints,
        box_modes=spec.box_modes,
    )


def abl_direct(pre, post, box_index):
    """Direct dichotomic formula on plain 3-vectors (independent oracle)."""
    yes = np.conj(post[box_index]) * pre[box_index]
    total = np.vdot(post, pre)
    no = total - yes
    return abs(yes) ** 2 / (abs(yes) ** 2 + abs(no) ** 2)


# ---------------------------------------------------------------------------
# disappearing-reappearing evolution
# ---------------------------------------------------------------------------

def test_abl_certainties_at_all_checkpoints():
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
    for (box, time), value in expected.items():
        got = tsvf.abl_probability(spec, ProjectorSpec(box, time))
        assert got == pytest.approx(value, abs=1e-9), (box, time)


def test_weak_values_minus_one():
    spec = tsvf.disappearing_spec()
    assert tsvf.weak_value(spec, ProjectorSpec("B", "t1")) == pytest.approx(
        -1.0, abs=1e-9
    )
    assert tsvf.weak_value(spec, ProjectorSpec("A", "t3")) == pytest.approx(
        -1.0, abs=1e-9
    )


def test_weak_values_a_plus_b_vanishes_always():
    spec = tsvf.disappearing_spec()
    for time in CHECKPOINTS:
        total = tsvf.weak_value(spec, ProjectorSpec("A", time)) + tsvf.weak_value(
            spec, ProjectorSpec("B", time)
        )
        assert total == pytest.approx(0.0, abs=1e-9), time


def test_weak_value_completeness():
    spec = tsvf.disappearing_spec()
    for time in CHECKPOINTS:
        total = sum(
            tsvf.weak_value(spec, ProjectorSpec(box, time)) for box in BOXES
        )
        assert total == pytest.approx(1.0, abs=1e-10), time


def test_weak_eigenvalue_coincidence_implies_abl():
    """Where a weak value hits 0 or 1, the ABL probability matches it."""
    spec = tsvf.disappearing_spec()
    seen = 0
    for time in CHECKPOINTS:
        for box in BOXES:
            proj = ProjectorSpec(box, time)
            wv = tsvf.weak_value(spec, proj)
            for eigen in (0.0, 1.0):
                if abs(wv - eigen) < 1e-10:
                    assert tsvf.abl_probability(spec, proj) == pytest.approx(
                        eigen, abs=1e-10
                    )
                    seen += 1
    assert seen >= 5


def test_abl_complement_sums_to_one():
    spec = tsvf.disappearing_spec()
    for time in CHECKPOINTS:
        for box in BOXES:
            proj = ProjectorSpec(box, time)
            total = tsvf.abl_probability(spec, proj) + tsvf.abl_probability(
                spec, proj, complement=True
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def test_postselection_success_odds():
    spec = tsvf.disappearing_spec()
    assert tsvf.postselection_success(spec) == pytest.approx(1 / 9, abs=1e-9)
    boosted = tsvf.postselection_success(spec, ProjectorSpec("C", "t2"))
    assert boosted == pytest.approx(1 / 3, abs=1e-9)


def test_postselection_success_trivial():
    spec = tsvf.three_box_spec()
    spec_same = tsvf.TwoStateSpec(
        pre=spec.pre,
        post=spec.pre,
        segments=[],
        checkpoints={"t": 0},
        box_modes=spec.box_modes,
    )
    assert tsvf.postselection_success(spec_same) == pytest.approx(1.0)


def test_embedded_and_full_final_segment_agree():
    """The selection measured right after t3 and the equivalent selection
    carried through the extra evolution give identical conditioning."""
    embedded = tsvf.disappearing_spec()
    explicit = explicit_disappearing_spec()
    for time in CHECKPOINTS:
        for box in BOXES:
            proj = ProjectorSpec(box, time)
            assert tsvf.abl_probability(embedded, proj) == pytest.approx(
                tsvf.abl_probability(explicit, proj), abs=1e-12
            )
            assert tsvf.weak_value(embedded, proj) == pytest.approx(
                tsvf.weak_value(explicit, proj), abs=1e-12
            )
    assert tsvf.postselection_success(embedded) == pytest.approx(
        tsvf.postselection_success(explicit), abs=1e-12
    )


def test_forward_backward_states_match_analytic():
    spec = tsvf.disappearing_spec()
    fwd_t2 = spec.forward_state(spec.boundary("t2"))
    # (sqrt2, 0, 1)/sqrt3 in (A, B, C)
    assert fwd_t2.amplitude((1, 0, 0)) == pytest.approx(S2 / S3)
    assert fwd_t2.amplitude((0, 1, 0)) == pytest.approx(0.0, abs=1e-12)
    assert fwd_t2.amplitude((0, 0, 1)) == pytest.approx(1 / S3)
    bwd_t2 = spec.backward_state(spec.boundary("t2"))
    assert bwd_t2.amplitude((1, 0, 0)) == pytest.approx(0.0, abs=1e-12)
    assert bwd_t2.amplitude((0, 1, 0)) == pytest.approx(-1j * S2 / S3)
    assert bwd_t2.amplitude((0, 0, 1)) == pytest.approx(1 / S3)


# ---------------------------------------------------------------------------
# static three-box retrodiction
# ---------------------------------------------------------------------------

def test_three_box_retrodiction_certainty():
    modes = tsvf.shutter_modes()
    pre = tsvf.shutter_state((1 / S3, 1 / S3, 1 / S3), modes)
    post = tsvf.shutter_state((1 / S3, 1 / S3, -1 / S3), modes)
    assert retrodiction(pre, post, "A") == pytest.approx(1.0)
    assert retrodiction(pre, post, "B") == pytest.approx(1.0)


def test_three_box_retrodiction_post_equals_pre():
    """With post = pre the dichotomic formula conditions on a re-selection
    that is biased by the collapse; the direct-formula oracle fixes the
    expected value."""
    vec = np.array([1, 1, 1]) / S3
    expected = abl_direct(vec, vec, 0)
    assert expected == pytest.approx(0.2)

    modes = tsvf.shutter_modes()
    pre = tsvf.shutter_state((1 / S3, 1 / S3, 1 / S3), modes)
    assert retrodiction(pre, pre, "A") == pytest.approx(
        expected, abs=1e-12
    )


def test_abl_matches_direct_formula_on_random_pairs():
    rng = np.random.default_rng(17)
    modes = tsvf.shutter_modes()
    for _ in range(25):
        pre_vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        post_vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        pre_vec /= np.linalg.norm(pre_vec)
        post_vec /= np.linalg.norm(post_vec)
        pre = tsvf.shutter_state(pre_vec, modes)
        post = tsvf.shutter_state(post_vec, modes)
        for i, box in enumerate(BOXES):
            assert retrodiction(pre, post, box) == pytest.approx(
                abl_direct(pre_vec, post_vec, i), abs=1e-10
            )


def test_abl_reduces_to_born_for_unbiased_dichotomy():
    """With post proportional to the evolved pre-state, the dichotomic ABL
    value agrees with the Born probability exactly when that probability
    is 0, 1/2 or 1."""
    modes = tsvf.shutter_modes()
    even = tsvf.shutter_state((1 / S2, 1 / S2, 0), modes)
    assert retrodiction(even, even, "A") == pytest.approx(0.5)
    only_a = tsvf.shutter_state((1, 0, 0), modes)
    assert retrodiction(only_a, only_a, "A") == pytest.approx(1.0)
    assert retrodiction(only_a, only_a, "B") == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# error conditions
# ---------------------------------------------------------------------------

def test_orthogonal_selection_raises():
    modes = tsvf.shutter_modes()
    pre = tsvf.shutter_state((1, 0, 0), modes)
    post = tsvf.shutter_state((0, 1, 0), modes)
    with pytest.raises(UndefinedConditioning):
        retrodiction(pre, post, "C")


def test_weak_value_zero_denominator_raises():
    modes = tsvf.shutter_modes()
    pre = tsvf.shutter_state((1, 0, 0), modes)
    post = tsvf.shutter_state((0, 1, 0), modes)
    spec = tsvf.TwoStateSpec(
        pre=pre,
        post=post,
        segments=[],
        checkpoints={"t": 0},
        box_modes={b: m for b, m in zip(BOXES, modes)},
    )
    with pytest.raises(UndefinedConditioning):
        tsvf.weak_value(spec, ProjectorSpec("A", "t"))


@pytest.mark.parametrize("proj,message", [
    (ProjectorSpec("A", "t9"), "unknown checkpoint 't9'"),
    (ProjectorSpec("D", "t2"), "unknown box 'D'"),
])
def test_unknown_checkpoint_or_box_raises(proj, message):
    spec = tsvf.disappearing_spec()
    for query in (tsvf.abl_probability, tsvf.weak_value,
                  tsvf.postselection_success):
        with pytest.raises(BadParam, match=message):
            query(spec, proj)


def test_imposed_projector_that_never_fires_raises():
    # Prepared without box C, the shutter is never found there at t2.
    spec = replace(tsvf.disappearing_spec(),
                   pre=tsvf.shutter_state((1 / S2, 1j / S2, 0)))
    with pytest.raises(UndefinedConditioning, match="never fires"):
        tsvf.postselection_success(spec, ProjectorSpec("C", "t2"))


@pytest.mark.parametrize("make_spec", [
    tsvf.three_box_spec,
    tsvf.disappearing_spec,
    lambda: explicit_disappearing_spec(),
])
def test_checkpoint_values_equal_single_queries(make_spec):
    spec = make_spec()
    for time in spec.checkpoints:
        values = tsvf.checkpoint_values(spec, time)
        assert list(values) == ["A", "B", "C"]
        for box, (abl, weak) in values.items():
            proj = tsvf.ProjectorSpec(box, time)
            assert abl == tsvf.abl_probability(spec, proj)
            assert weak == tsvf.weak_value(spec, proj)
