"""Every number of a scenario run and sweep, pinned to the bit.

The golden outputs print probabilities to 12 significant digits, so a
change in their last bits would pass there.  Here each number is held as
``float.hex``, in ``run_bits.json``: every outcome probability, fidelity,
Schmidt coefficient, Bell summary value and post-selected probe amplitude
of every scenario under every perturbation (``bell_test`` at each setting
pair), at its default coefficients and at seeded random ones; and every
value and Schmidt coefficient of a seeded sweep of each sweepable
scenario.  A run that raises is pinned by its exception and message.
Regenerate deliberately, after checking that a difference is intended:

    PYTHONPATH=src python tests/test_run_bits.py --regenerate
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from router_sim import scenarios
from router_sim.fock import row_norms

HERE = Path(__file__).parent
PINNED = HERE / "run_bits.json"
# Seeds of the random coefficient vectors of each run, and of each sweep.
RUN_SEEDS = (1, 2, 3)
SWEEP_SEED, SWEEP_POINTS = 34, 300
SETTINGS = [(alice, bob)
            for alice in (scenarios.OPEN_BOXES, scenarios.SUPERPOSE)
            for bob in (scenarios.OPEN_CAVITIES, scenarios.SUPERPOSE)]


def random_points(seed, count, arity):
    """``count`` unit coefficient vectors of length ``arity``, drawn as
    ``router-sim sweep --random`` draws them."""
    parts = np.random.default_rng(seed).normal(size=(count, 2, arity))
    vecs = parts[:, 0] + 1j * parts[:, 1]
    return vecs / row_norms(vecs)


def run_cases():
    """``{key: (scenario, perturbation, settings, alphas)}`` of every run
    this file pins."""
    cases = {}
    for name, entry in scenarios.SCENARIOS.items():
        alphas = {}
        if entry.arity:
            alphas["equal"] = scenarios.equal_alphas(entry.arity)
            for seed in RUN_SEEDS:
                alphas[f"seed{seed}"] = random_points(seed, 1, entry.arity)[0]
        else:
            alphas["default"] = []
        settings = SETTINGS if entry.takes_settings else SETTINGS[:1]
        for perturbation in (None, *entry.perturbations):
            for alice, bob in settings:
                for label, point in alphas.items():
                    key = f"{name}|{perturbation}|{alice}/{bob}|{label}"
                    cases[key] = (name, perturbation, (alice, bob), point)
    return cases


RUNS = run_cases()
SWEEPS = [name for name, entry in scenarios.SCENARIOS.items() if entry.sweep]


def hexes(values):
    return [float(v).hex() for v in values]


def run_bits(key):
    """The pinned numbers of run ``key``, each as ``float.hex``."""
    name, perturbation, settings, alphas = RUNS[key]
    try:
        result = scenarios.SCENARIOS[name].evaluate(alphas, perturbation,
                                                    settings)
    except Exception as exc:
        return {"raises": [type(exc).__name__, str(exc)]}
    probe = None
    if result.probe is not None:
        row = result.probe[1]
        probe = [hexes(row.real), hexes(row.imag)]
    fidelity = result.fidelity_to_target
    return {
        "outcomes": [[label, float(p).hex()] for label, p
                     in result.conditional_probabilities.items()],
        "fidelity": None if fidelity is None else float(fidelity).hex(),
        "schmidt": hexes(result.schmidt_spectrum),
        "metadata": [[k, float(v).hex()] for k, v in result.metadata.items()],
        "probe": probe,
    }


def sweep_bits(name):
    """The fields of a seeded sweep of ``name`` and, per point, its values
    then its Schmidt coefficients as ``float.hex``, one string per row."""
    entry = scenarios.SCENARIOS[name]
    points = random_points(SWEEP_SEED, SWEEP_POINTS, entry.arity)
    fields, values, spectra = entry.sweep(points)
    return {"fields": list(fields),
            "rows": [" ".join(hexes(v) + hexes(s))
                     for v, s in zip(values, spectra)]}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_every_run_and_sweep_is_pinned(pinned):
    assert sorted(pinned["runs"]) == sorted(RUNS)
    assert sorted(pinned["sweeps"]) == sorted(SWEEPS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_run_keeps_every_bit(key, pinned):
    assert run_bits(key) == pinned["runs"][key]


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_keeps_every_bit(name, pinned):
    assert sweep_bits(name) == pinned["sweeps"][name]


def _regenerate():
    document = {"runs": {key: run_bits(key) for key in sorted(RUNS)},
                "sweeps": {name: sweep_bits(name) for name in SWEEPS}}
    PINNED.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    _regenerate()
