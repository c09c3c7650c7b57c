"""The payload-dict path of a ``run`` document, kept as the reference of
the template writer.

``router-sim run`` once built one payload dict per run and wrote it
through a recursive JSON writer.  It now fills a template made once per
shape of run (``cli._run_text``).  ``run_text`` here is the dict path
through the stdlib encoder, so that tests can hold the template writer to
it byte for byte.
"""

import json

from stdlib_json import round12


def payload(result, parameters):
    """The document of a run as a dict: ``parameters`` and the outcomes,
    fidelity, weak and ABL values (by time, then box) and Schmidt spectrum
    of the ``ScenarioResult`` ``result``."""
    outcomes = [
        {"label": label, "probability": prob}
        for label, prob in result.conditional_probabilities.items()
    ]
    weak = [
        {"box": box, "time": time, "re": value.real, "im": value.imag}
        for (box, time), value in sorted(result.weak_values.items(),
                                         key=lambda kv: (kv[0][1], kv[0][0]))
    ]
    abl = [
        {"box": box, "time": time, "p": value}
        for (box, time), value in sorted(result.abl_values.items(),
                                         key=lambda kv: (kv[0][1], kv[0][0]))
    ]
    return {
        "name": result.name,
        "parameters": parameters,
        "outcomes": outcomes,
        "conditioned_fidelity": result.fidelity_to_target,
        "weak_values": weak,
        "abl": abl,
        "schmidt": list(result.schmidt_spectrum or []),
    }


def run_text(result, alphas, settings):
    """The stdlib's indented JSON of the rounded payload dict of
    ``result``, a run at the coefficients ``alphas`` with the ``(key,
    value)`` pairs ``settings`` after them among its parameters."""
    parameters = {"alphas": [complex(a) for a in alphas], **dict(settings)}
    return json.dumps(round12(payload(result, parameters)), indent=2)
