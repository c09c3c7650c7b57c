"""The beam atlas (:mod:`atlas`) in part, and every beam-table scenario's
verdict derived from the two-state rule rather than written by hand.

The whole atlas, 19,708 tables, runs as ``python tests/atlas.py``; here a
seeded sample of the disappearing shutter's tables, every table there that
the rule calls certain, and all 26 three-box tables.
"""

import numpy as np
import pytest

import atlas
from router_sim import scenarios

SAMPLE = 2000

#: Perturbations that change no beam: the rule says nothing of routers
#: left out, of a probe with no photon, or of a shutter whose two-state
#: values are undefined.  Each keeps its own test.
OUTSIDE_RULE = {"identity-routers", "vacuum-probe", atlas.SKIPPED_SHUTTER}


def test_the_atlas_walks_every_table():
    assert atlas.shutters() == {"disappearing": True, "three_box": False}
    assert len(atlas.tables("disappearing")) == 3 ** 9 - 1
    assert len(atlas.tables("three_box")) == 3 ** 3 - 1


def test_three_box_tables_follow_the_rule():
    walked = atlas.tables("three_box")
    broken, largest = atlas.violations(
        "three_box", False, walked, np.random.default_rng(atlas.SEED))
    assert broken == []
    assert largest < 1 - atlas.TOL
    assert sum(atlas.predicted("three_box", beams) for beams in walked) == 3


def test_sampled_disappearing_tables_follow_the_rule():
    walked = atlas.tables("disappearing")
    rng = np.random.default_rng(atlas.SEED)
    sample = [walked[i] for i in rng.choice(len(walked), SAMPLE,
                                            replace=False)]
    broken, _ = atlas.violations("disappearing", True, sample, rng)
    assert broken == []


def test_disappearing_tables_certain_by_the_rule_are_restored():
    certain = [beams for beams in atlas.tables("disappearing")
               if atlas.predicted("disappearing", beams)]
    # Seven positions have ABL 0 or 1: A, C at t1, C at t2, B, C at t3 are
    # certainly occupied, A and B at t2 certainly empty.
    assert len(certain) == 2 ** 7 - 1
    broken, _ = atlas.violations("disappearing", True, certain,
                                 np.random.default_rng(atlas.SEED))
    assert broken == []


RULED = [(name, perturbation)
         for name, table in scenarios._TABLES.items()
         for perturbation in table if perturbation not in OUTSIDE_RULE]


def test_the_rule_covers_every_beam_changing_perturbation():
    assert {p for _, p in RULED} - {None} == {
        "extra-beam-A-t2", "extra-beam-B-t2", "wrong-box-t2",
        "swapped-slots", "at-t1", "at-t3", "reflect-orientation",
        "flip-A-t2", "flip-B-t2"}


@pytest.mark.parametrize("name, perturbation", RULED)
def test_scenario_verdicts_follow_the_rule(name, perturbation):
    table = scenarios._TABLES[name]
    args = {**table[None], **table[perturbation]}
    beams = args["beams"]
    if "extra" in args:
        at, beam, _ = args["extra"]
        beams = beams[:at] + (beam,) + beams[at:]
    want = atlas.predicted(args["shutter"], beams)
    # Unperturbed, each scenario is certain; perturbed, none is.
    assert want is (perturbation is None)
    result = scenarios.run_plan(scenarios._build(name, perturbation, None))
    assert scenarios.SCENARIOS[name].certain(result, 1e-9) == want
