"""The JSON of the command line as the stdlib writes it, the reference
its templates are held to.

A document is ``json.dumps(..., indent=2)`` of its payload with every
float rounded to 12 significant digits and every complex number written
as ``[re, im]``.
"""

import json


def round12(obj):
    """``obj`` as the stdlib encoder is to see it: floats rounded to 12
    significant digits, complex numbers as ``[re, im]``, tuples as lists."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, complex):
        return [round12(obj.real), round12(obj.imag)]
    if isinstance(obj, dict):
        return {k: round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round12(v) for v in obj]
    return obj


def stdlib_json(obj):
    """The document of the payload ``obj``, with its final newline."""
    return json.dumps(round12(obj), indent=2) + "\n"
