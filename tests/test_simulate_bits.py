"""Every probability of ``dsl.simulate_text``, pinned to the bit.

The golden outputs print probabilities to 12 significant digits, so a
change in their last bits would pass there.  Here each probability is held
as ``float.hex``, in ``simulate_bits.json``, on the pinned 24-mode circuit
``circuits/gen00.circuit``, the four shipped circuits and six circuits that
``perfbench/workloads.py``'s ``generate_circuit`` draws at fixed seeds
(``circuits/bits-*.circuit``).  Regenerate deliberately, after checking
that a difference is intended:

    PYTHONPATH=src python tests/test_simulate_bits.py --regenerate
"""

import json
import sys
from pathlib import Path

import pytest

import router_sim
from router_sim import dsl

HERE = Path(__file__).parent
PINNED = HERE / "simulate_bits.json"
SHIPPED = Path(router_sim.__file__).parent / "circuits"
# Generated circuit: (numpy seed, modes, modes each source photon spans).
GENERATED = {
    "bits-s1": (1, 24, 12),
    "bits-s2": (2, 24, 12),
    "bits-s3": (3, 24, 12),
    "bits-s4": (4, 24, 12),
    "bits-s5": (5, 12, 6),
    "bits-s6": (6, 12, 3),
}
CIRCUITS = {
    "gen00": HERE / "circuits" / "gen00.circuit",
    **{name: SHIPPED / f"{name}.circuit"
       for name in ("fig2b", "fig3a", "fig3b", "fig4")},
    **{name: HERE / "circuits" / f"{name}.circuit" for name in GENERATED},
}


def bits(path):
    """The report of ``simulate_text`` on the file at ``path``, each
    probability as ``float.hex``."""
    report = dsl.simulate_text(path.read_text(encoding="utf-8"))
    return {
        "postselections": [post["probability"].hex()
                           for post in report["postselections"]],
        "detections": [[det["name"], det["probability"].hex(),
                        [p.hex() for p in det["conditional"]]]
                       for det in report["detections"]],
    }


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text(encoding="utf-8"))


def test_every_circuit_is_pinned(pinned):
    assert sorted(pinned) == sorted(CIRCUITS)


@pytest.mark.parametrize("name", sorted(CIRCUITS))
def test_simulate_keeps_every_bit(name, pinned):
    assert bits(CIRCUITS[name]) == pinned[name]


def _regenerate():
    import numpy as np

    sys.path.insert(0, str(HERE.parent))
    from perfbench.workloads import CIRCUIT_ELEMENTS, generate_circuit

    for name, (seed, modes, width) in GENERATED.items():
        text, _ = generate_circuit(np.random.default_rng(seed), modes,
                                   CIRCUIT_ELEMENTS, width)
        CIRCUITS[name].write_text(text, encoding="utf-8")
    PINNED.write_text(json.dumps({name: bits(path) for name, path
                                  in sorted(CIRCUITS.items())}, indent=1)
                      + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    _regenerate()
