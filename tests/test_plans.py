"""Every scenario plan, element for element, pinned against
``golden/plans.json``.

A plan is all a run takes from its scenario besides the coefficients'
arithmetic, so two builders whose plans hold the same schedule, layout,
flags, coefficient bits and shutter spec give the same output bits.  The
file describes each scenario's plan under each of its perturbations, at
the default coefficients and at a fixed uneven vector where the scenario
takes coefficients, and the unperturbed five-beam plan of the Bell
analysis.  Floats are written as ``float.hex``, so a description matches
bit for bit.  Regenerate deliberately, after checking that a difference is
intended:

    PYTHONPATH=src python tests/test_plans.py --regenerate
"""

import enum
import json
import sys
from pathlib import Path

from router_sim import scenarios

PLANS = Path(__file__).parent / "golden" / "plans.json"

#: Unit coefficient vectors of each arity with every entry exact in
#: binary, so the inputs themselves cannot differ between platforms.
UNEVEN = {
    2: (0.6, 0.8j),
    5: (0.5, 0.5j, -0.5, 0.25 + 0.25j, 0.25 - 0.25j),
    6: (0.5, 0.5j, -0.5, 0.25 + 0.25j, 0.25j, -0.25),
}

BUILDERS = {
    "three_box_shutter": lambda a, p: scenarios.build_three_box(*a),
    "disappearing_full": scenarios.build_disappearing,
    "simplified_3path": lambda a, p: scenarios.build_simplified_3path(p),
    "simplest_2path": lambda a, p: scenarios.build_simplest_2path(p),
    "absence_test": lambda a, p: scenarios.build_absence_test(p),
    "stricter_6beam": scenarios.build_stricter_6beam,
}


def _value(value):
    """A parameter or amplitude as JSON: an enum by its name, a number as
    the ``float.hex`` of its real and imaginary parts."""
    if isinstance(value, enum.Enum):
        return value.name
    value = complex(value)
    return [value.real.hex(), value.imag.hex()]


def _state(state):
    return {"modes": list(state.modes),
            "amplitudes": [[list(c), _value(a)]
                           for c, a in state.amplitudes.items()]}


def describe(plan):
    """Everything of ``plan`` that its run reads, as JSON data."""
    spec = plan.spec
    return {
        "name": plan.name,
        "schedule": [[e.kind.value, list(e.modes),
                      {k: _value(v) for k, v in e.params.items()}]
                     for e in plan.schedule],
        "probes": list(plan.probes),
        "probe_modes": list(plan.probe_modes),
        "kept_ports": list(plan.kept_ports),
        "alphas": (None if plan.alphas is None
                   else plan.alphas.tobytes().hex()),
        "recombine": plan.recombine,
        "probe_photon": plan.probe_photon,
        "spec": {"pre": _state(spec.pre), "post": _state(spec.post),
                 "checkpoints": dict(spec.checkpoints),
                 "box_modes": dict(spec.box_modes)},
    }


def bell_plan():
    """The plan :func:`scenarios._bell_states` propagates."""
    seen = []
    propagate = scenarios._propagate

    def spy(plan, points):
        seen.append(plan)
        return propagate(plan, points)

    scenarios._propagate = spy
    try:
        scenarios._bell_states(scenarios.equal_alphas(5)[None])
    finally:
        scenarios._propagate = propagate
    (plan,) = seen
    return plan


def plans():
    """``{id: plan}`` of every pinned plan."""
    out = {}
    for name, build in BUILDERS.items():
        arity = scenarios.SCENARIOS[name].arity
        # three_box_shutter has no default coefficients.
        vectors = {} if name == "three_box_shutter" else {"default": None}
        if arity:
            vectors["uneven"] = UNEVEN[arity]
        for perturbation in (None,) + scenarios.SCENARIOS[name].perturbations:
            for label, alphas in vectors.items():
                out[f"{name}-{perturbation}-{label}"] = build(alphas,
                                                               perturbation)
    out["bell_test-five-beam"] = bell_plan()
    return out


def describe_all():
    return {key: describe(plan) for key, plan in plans().items()}


def test_every_plan_is_the_pinned_plan():
    expected = json.loads(PLANS.read_text(encoding="utf-8"))
    actual = describe_all()
    assert list(actual) == list(expected)
    for key in expected:
        assert actual[key] == expected[key], key


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    PLANS.write_text(json.dumps(describe_all(), indent=1) + "\n",
                     encoding="utf-8")
