"""The beam atlas: every table of beams on a shutter, run and held to the
two-state rule.

A reflect beam at (box X, checkpoint t) is restored with certainty iff the
shutter is certainly in X at t (ABL probability 1), and a transmit beam
iff it is certainly absent (ABL 0).  Certain strong measurements do not
disturb one another, so a table of beams is restored with certainty iff
every beam's condition holds (Aharonov, Bergmann and Lebowitz 1964).  The
rule is stated for coefficients with no zero entry: a beam with no probe
amplitude cannot fail.

Each of a shutter's (box, checkpoint) positions holds no beam, a reflect
beam or a transmit beam: 3^9 - 1 = 19,682 tables on the disappearing
shutter and 3^3 - 1 = 26 on the three-box one.  Each table is built as
:func:`router_sim.scenarios._beam_table_plan` builds a scenario's, with the
recombination of the scenarios on its shutter, and swept at two coefficient
vectors: equal ones and one seeded complex vector.

Run as a script it walks every table of every shutter, prints a line per
shutter and exits 1 on any table that breaks the rule:

    PYTHONPATH=src python tests/atlas.py
"""

import itertools
import sys

import numpy as np

from router_sim import scenarios

#: Restored with certainty: the outcome probability above 1 - TOL.  An ABL
#: probability within TOL of 0 or 1 is that value.
TOL = 1e-9

REFLECT = scenarios._REFLECT
TRANSMIT = scenarios._TRANSMIT
WANTED_ABL = {REFLECT: 1.0, TRANSMIT: 0.0}

#: Its pre-state is orthogonal to its selection, so its ABL probabilities
#: are undefined and the rule says nothing of it.
SKIPPED_SHUTTER = "remove-shutter-C-t2"

SEED = 36


def shutters():
    """``{shutter: recombine}`` of every shutter that a beam-table scenario
    or perturbation runs, but :data:`SKIPPED_SHUTTER`."""
    found = {}
    for table in scenarios._TABLES.values():
        for perturbation in table:
            args = {**table[None], **table[perturbation]}
            found[args["shutter"]] = args.get("recombine", True)
    del found[SKIPPED_SHUTTER]
    return found


def tables(shutter):
    """Every table of beams on ``shutter`` with at least one beam, as
    :func:`~router_sim.scenarios._beam_table_plan` takes them; beam
    ``(box, checkpoint)`` is tagged by the box and the checkpoint's
    number."""
    spec = scenarios._spec(shutter)
    positions = [(box, time) for time in sorted(spec.checkpoints)
                 for box in spec.box_modes]
    found = []
    for choice in itertools.product((None, REFLECT, TRANSMIT),
                                    repeat=len(positions)):
        beams = tuple((box + time[1:], box, time, orientation)
                      for (box, time), orientation in zip(positions, choice)
                      if orientation is not None)
        if beams:
            found.append(beams)
    return found


def predicted(shutter, beams):
    """Whether the rule calls the table ``beams`` on ``shutter`` restored
    with certainty."""
    abl = scenarios._tsvf_values(shutter)
    return all(abs(abl[box, time][0] - WANTED_ABL[orientation]) <= TOL
               for _, box, time, orientation in beams)


def points(n, rng):
    """Two coefficient vectors over ``n`` beams: equal, then complex from
    ``rng`` with no zero entry."""
    alphas = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert alphas.all()
    return np.stack([scenarios.equal_alphas(n),
                     alphas / np.linalg.norm(alphas)])


def outcomes(shutter, recombine, beams, rng):
    """The probability of the table's outcome given the post-selection at
    each of its two :func:`points`."""
    plan = scenarios._beam_table_plan.__wrapped__(
        "atlas", shutter, beams, recombine=recombine)
    fields, values, _ = scenarios.sweep_plan(plan, points(len(beams), rng))
    return values[:, fields.index(f"{plan.outcome_label}_given_postselection")]


def violations(shutter, recombine, walked, rng):
    """The tables of ``walked`` whose outcome at either point disagrees
    with the rule, and the largest outcome probability of a table that
    the rule calls not certain (0.0 if there is none)."""
    broken, largest_failing = [], 0.0
    for beams in walked:
        got = outcomes(shutter, recombine, beams, rng)
        want = predicted(shutter, beams)
        if any((p > 1 - TOL) != want for p in got):
            broken.append(beams)
        if not want:
            largest_failing = max(largest_failing, float(got.max()))
    return broken, largest_failing


def main():
    rng = np.random.default_rng(SEED)
    failed = False
    for shutter, recombine in shutters().items():
        walked = tables(shutter)
        broken, largest = violations(shutter, recombine, walked, rng)
        certain = sum(predicted(shutter, beams) for beams in walked)
        print(f"{shutter}: {len(walked)} tables, {certain} certain by the "
              f"rule, {len(broken)} violations; largest outcome where the "
              f"rule predicts failure {largest!r}")
        for beams in broken[:10]:
            print(f"  violates the rule: {beams}")
        failed = failed or bool(broken)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
