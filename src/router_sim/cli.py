"""Command-line front end: run scenarios, simulate circuit files, sweep.

Exit codes are a stable contract: 0 success, 1 output closed early (the
reader of standard output went away), 2 built-in assertion failure or a
result that is undefined (a ``SimulationError``: a post-selection that
never succeeds, or a router outside its sector), 3 usage error, 4
parse/compile error.  JSON output is schema-stable with a
fixed field set and 12-significant-digit numbers; identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
import warnings
from json.encoder import encode_basestring_ascii as _escape

import numpy as np

from . import dsl, scenarios
from .errors import BadCoefficients, BadParam, CompileError, SimulationError
from .fock import row_norms

DEFAULT_TOL = 1e-9

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_ASSERTION = 2
EXIT_USAGE = 3
EXIT_PARSE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Take a word that starts with "-" and a digit, such as
        # "-0.6,0.8,0,0,0" or "-0.6i", as an option's value rather than as
        # an unknown option; no option of this parser looks like that.
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise UsageError(message)


_ALICE = {"open": scenarios.OPEN_BOXES, "superpose": scenarios.SUPERPOSE}
_BOB = {"open": scenarios.OPEN_CAVITIES, "superpose": scenarios.SUPERPOSE}


def _float_text(value):
    """JSON text of ``value`` rounded to 12 significant digits, as the
    stdlib encoder writes ``float(f"{value:.12g}")``."""
    text = f"{value:.12g}"
    if "." in text and "e" not in text:
        return text
    special = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    return special.get(text) or repr(float(text))


def _json_text(obj, newline="\n"):
    """``obj`` as the stdlib JSON encoder indents it by two spaces, each
    float rounded by :func:`_float_text` and a complex number as ``[re,
    im]``; ``newline`` breaks a line at the depth of ``obj``."""
    if isinstance(obj, float):
        return _float_text(obj)
    kind = type(obj)
    if kind is str:
        return _escape(obj)
    if kind is dict or kind is list or kind is tuple:
        if not obj:
            return "{}" if kind is dict else "[]"
        inner = newline + "  "
        if kind is dict:
            items = [_escape(k) + ": " + _json_text(v, inner)
                     for k, v in obj.items()]
            return "{" + inner + ("," + inner).join(items) + newline + "}"
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, complex):
        inner = newline + "  "
        return (f"[{inner}{_float_text(obj.real)},{inner}"
                f"{_float_text(obj.imag)}{newline}]")
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    return int.__repr__(obj)  # a TypeError unless obj is an int


def _result_payload(result, parameters):
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


def _emit_json(payload, stream):
    stream.write(_json_text(payload))
    # Unbuffered, a write the reader cut short is not an error; this next
    # write is, so a closed stdout is noticed either way.
    stream.write("\n")


def _emit_outcomes_csv(rows, stream):
    """The ``(label, probability)`` pairs ``rows`` as CSV rows under their
    header, the probability as ``%.12g``; no label holds a character that
    CSV quotes."""
    texts = _texts("%.12g", [probability for _, probability in rows])
    stream.write("label,probability\r\n" + "".join(
        f"{label},{text}\r\n" for (label, _), text in zip(rows, texts)))


def _scenario(name):
    try:
        return scenarios.SCENARIOS[name]
    except KeyError:
        raise UsageError(
            f"unknown scenario {name!r}; valid names: "
            f"{', '.join(scenarios.SCENARIOS)}"
        ) from None


def _reject_unused_flags(args, entry):
    """Usage error for a flag the scenario does not read.

    ``--alpha1``/``--alpha2`` name the coefficients of a two-coefficient
    scenario; ``--alice``/``--bob`` are measurement settings.
    """
    unused = []
    if args.alphas is not None and not entry.arity:
        unused.append("--alphas")
    if (args.alpha1, args.alpha2) != (None, None) and entry.arity != 2:
        unused.append("--alpha1/--alpha2")
    if (args.alice, args.bob) != (None, None) and not entry.takes_settings:
        unused.append("--alice/--bob")
    if unused:
        raise UsageError(
            f"scenario {args.scenario!r} takes no {', '.join(unused)}"
        )


def _run_alphas(args, arity):
    """Coefficients of a run, the scenario's default when none are given;
    the scenario validates them."""
    if not arity:
        return []
    if args.alpha1 is not None or args.alpha2 is not None:
        if args.alphas is not None:
            raise UsageError("give --alphas or --alpha1/--alpha2, not both")
        parts = ["0" if a is None else a for a in (args.alpha1, args.alpha2)]
    elif args.alphas is None or args.alphas == "equal":
        return scenarios.equal_alphas(arity)
    else:
        parts = [p.strip() for p in args.alphas.split(",")]
    values = []
    for part in parts:
        value = dsl.parse_weight(part)
        if value is None:
            raise UsageError(f"invalid coefficient {part!r}")
        values.append(value)
    if len(values) != arity:
        raise UsageError(
            f"expected {arity} comma-separated coefficients, got {len(values)}"
        )
    return values


def cmd_run(args, stream):
    if not 0 <= args.tol < math.inf:
        raise UsageError(f"tolerance {args.tol} is not a finite number >= 0")
    entry = _scenario(args.scenario)
    _reject_unused_flags(args, entry)
    try:
        scenarios.check_perturbation(args.scenario, args.perturb)
        alphas = _run_alphas(args, entry.arity)
    except BadParam as exc:
        raise UsageError(str(exc)) from None
    alice, bob = args.alice or "open", args.bob or "open"
    try:
        # The scenario validates the coefficients, as it does for every
        # caller: unnormalized or non-finite ones are a usage error.
        result = entry.evaluate(alphas, args.perturb,
                                (_ALICE[alice], _BOB[bob]))
    except BadCoefficients as exc:
        raise UsageError(str(exc)) from None
    params = {"alphas": [complex(a) for a in alphas]}
    if entry.takes_settings:
        params.update(alice_setting=alice, bob_setting=bob)
    else:
        params["perturbation"] = args.perturb
    if args.format == "csv":
        _emit_outcomes_csv(
            list(result.conditional_probabilities.items()), stream
        )
    else:
        _emit_json(_result_payload(result, params), stream)
    if args.perturb is None and not entry.certain(result, args.tol):
        return EXIT_ASSERTION
    return EXIT_OK


def cmd_simulate(args, stream):
    try:
        with open(args.file, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(str(exc)) from exc
    # The parser warns where it normalizes weights; each warning is one
    # stderr line, printed even if a later line fails.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        try:
            report = dsl.simulate_text(text)
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    if args.format == "csv":
        rows = []
        for det in report["detections"]:
            rows.append((det["name"], det["probability"]))
            for i, value in enumerate(det["conditional"]):
                rows.append((f"{det['name']}|postselect{i}", value))
        _emit_outcomes_csv(rows, stream)
    else:
        payload = {
            "file": os.path.basename(args.file),
            "postselections": report["postselections"],
            "detections": report["detections"],
        }
        _emit_json(payload, stream)
    return EXIT_OK


def _sweep_points(args, arity):
    """The coefficient vectors of a sweep, one per row; raises UsageError
    for a malformed request or one with more points than fit in memory."""
    if args.random is not None and args.alpha1_grid is not None:
        raise UsageError("give --random or --alpha1-grid, not both")
    if args.random is not None:
        if args.random <= 0:
            raise UsageError("--random needs a positive count")
        if args.seed is not None and args.seed < 0:
            raise UsageError("--seed must be a non-negative integer")
        count = args.random
    elif args.alpha1_grid is not None:
        if args.seed is not None:
            raise UsageError("--seed applies to --random only")
        try:
            start, stop, count = args.alpha1_grid.split(":")
            start, stop, count = float(start), float(stop), int(count)
        except ValueError as exc:
            raise UsageError(
                "--alpha1-grid expects start:stop:count"
            ) from exc
        if count <= 0:
            raise UsageError("empty sweep grid")
        if not (-1.0 <= start <= 1.0 and -1.0 <= stop <= 1.0):
            raise UsageError("--alpha1-grid endpoints must lie in [-1, 1]")
    else:
        raise UsageError(
            "sweep needs --random N or --alpha1-grid start:stop:count")
    try:
        if args.random is not None:
            rng = np.random.default_rng(args.seed or 0)
            # The stream of a real then an imaginary part draw per point.
            parts = rng.normal(size=(count, 2, arity))
            vecs = parts[:, 0] + 1j * parts[:, 1]
            return vecs / row_norms(vecs)
        a1 = np.linspace(start, stop, count)
        vecs = np.empty((count, arity), dtype=complex)
        vecs[:] = np.sqrt(np.maximum(0.0, 1.0 - a1 * a1)
                          / (arity - 1))[:, None]
        vecs[:, 0] = a1
        return vecs
    except (MemoryError, ValueError):
        # numpy refuses a size past its index range with ValueError.
        raise UsageError(
            f"a sweep of {count} points does not fit in memory") from None


def _texts(form, values):
    """``form % value`` for each float of the list ``values``, in one
    ``%`` call."""
    return (f"{form}\0" * len(values) % tuple(values)).split("\0")[:-1]


def _float_texts(values):
    """:func:`_float_text` of each float of the list ``values``, rounded
    in one ``%`` call.  Only a text with no "." (an integer, NaN or an
    infinity) or with an exponent goes through :func:`_float_text`, once
    per distinct text, since its result depends on nothing else."""
    texts = _texts("%.12g", values)
    fixed = {}
    for i, text in enumerate(texts):
        if "." not in text or "e" in text:
            if text not in fixed:
                fixed[text] = _float_text(values[i])
            texts[i] = fixed[text]
    return texts


def _record_template(fmt, arity, fields, count):
    """One sweep record with ``count`` Schmidt coefficients, each number
    a ``%s`` slot: a CSV row, or the JSON object that :func:`_json_text`
    writes inside the records list."""
    if fmt == "csv":
        return ",".join(["%s", ";".join(["%s"] * arity), *["%s"] * len(fields),
                         ";".join(["%s"] * count)]) + "\r\n"
    skeleton = {"index": "%s", "alphas": [["%s", "%s"]] * arity,
                "summary": dict.fromkeys(fields, "%s"),
                "schmidt": ["%s"] * count}
    text = _json_text(skeleton, "\n    ").replace("%", "%%")
    return text.replace('"%%s"', "%s")


def _sweep_text(fmt, scenario, points, fields, values, spectra):
    """The text of a sweep of ``scenario`` at the (n, arity) ``points``
    from what :attr:`scenarios.Scenario.sweep` returns: the JSON document
    without its final newline, or the CSV rows under their header.

    It equals what :func:`_json_text` writes for the records, or what a
    ``csv.writer`` writes for the rows, without a dict or a recursive call
    per record: every number of the sweep is one slot of a record template
    made once per sweep for each length of Schmidt spectrum, and the
    numbers are rounded in one ``%`` call.  JSON rounds through
    :func:`_float_texts`; CSV writes the summary and spectra as ``%.12g``,
    the coefficients by :func:`dsl.render_weight`, and the summary columns
    in name order.
    """
    n, arity = points.shape
    kept = spectra > 0
    if fmt == "csv":
        order = sorted(range(len(fields)), key=fields.__getitem__)
        fields = tuple(fields[i] for i in order)
        head = ",".join(["index", "alphas", *fields, "schmidt"]) + "\r\n"
        numbers = np.hstack([values[:, order], spectra])
        cells = np.empty((n, 1 + arity + numbers.shape[1]), dtype=object)
        cells[:, 1:1 + arity] = np.array(
            list(map(dsl.render_weight, points.ravel().tolist())),
            dtype=object).reshape(n, arity)
        cells[:, 1 + arity:] = np.array(
            _texts("%.12g", numbers.ravel().tolist()),
            dtype=object).reshape(numbers.shape)
        separator, tail = "", ""
    else:
        head = ('{\n  "scenario": ' + _escape(scenario) + ',\n  "records": ['
                + ("\n    " if n else ""))
        floats = np.hstack([np.ascontiguousarray(points).view(float),
                            values, spectra])
        cells = np.empty((n, 1 + floats.shape[1]), dtype=object)
        cells[:, 1:] = np.array(_float_texts(floats.ravel().tolist()),
                                dtype=object).reshape(floats.shape)
        separator, tail = ",\n    ", ("\n  ]" if n else "]") + "\n}"
    cells[:, 0] = list(map(str, range(n)))
    filled = np.ones(cells.shape, dtype=bool)
    filled[:, cells.shape[1] - kept.shape[1]:] = kept
    counts = kept.sum(axis=1)
    templates = np.empty(kept.shape[1] + 1, dtype=object)
    for count in np.flatnonzero(np.bincount(counts)).tolist():
        templates[count] = _record_template(fmt, arity, fields, count)
    # One % call makes the whole text, so no copy of it is made afterwards
    # while the number texts are still alive.
    records = separator.join(templates[counts].tolist())
    return (head.replace("%", "%%") + records + tail) % tuple(cells[filled])


def cmd_sweep(args, stream):
    entry = _scenario(args.scenario)
    if entry.sweep is None:
        raise UsageError(
            f"scenario {args.scenario!r} takes no coefficient sweep"
        )
    points = _sweep_points(args, entry.arity)
    try:
        text = _sweep_text(args.format, args.scenario, points,
                           *entry.sweep(points))
    except MemoryError:
        # The whole text exists before any write.
        raise UsageError(f"a sweep of {len(points)} points does not fit in "
                         "memory") from None
    stream.write(text)
    if args.format == "json":
        stream.write("\n")  # in a write of its own, as _emit_json writes it
    return EXIT_OK


def cmd_list(args, stream):
    for name in scenarios.SCENARIOS:
        stream.write(name + "\n")
    return EXIT_OK


def build_parser():
    """The command-line parser, built once per process; each call sets the
    ``run --tol`` default from ``ROUTER_SIM_TOL`` as it stands."""
    parser, tol = _parser()
    # A string default goes through ``type`` only when --tol is absent, so
    # a malformed ROUTER_SIM_TOL is a usage error of ``run`` alone.
    tol.default = os.environ.get("ROUTER_SIM_TOL", str(DEFAULT_TOL))
    return parser


@functools.cache
def _parser():
    """The parser and its ``run --tol`` action."""
    parser = _Parser(
        prog="router-sim",
        description=(
            "Exact simulator for pre-/post-selected photonic router circuits"
        ),
    )
    sub = parser.add_subparsers(dest="command")

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    run = sub.add_parser("run", help="run a built-in scenario")
    run.add_argument("scenario")
    run.add_argument("--alphas", help='"equal" or comma-separated weights')
    run.add_argument("--alpha1")
    run.add_argument("--alpha2")
    run.add_argument("--perturb", help="named perturbation variant")
    run.add_argument("--alice", choices=tuple(_ALICE), help="default: open")
    run.add_argument("--bob", choices=tuple(_BOB), help="default: open")
    add_format(run)
    tol = run.add_argument(
        "--tol", type=float,
        help="tolerance for built-in certainty assertions "
             "(default: $ROUTER_SIM_TOL or 1e-9)",
    )

    simulate = sub.add_parser("simulate", help="simulate a .circuit file")
    simulate.add_argument("file")
    add_format(simulate)

    sweep = sub.add_parser("sweep", help="evaluate a scenario over a grid")
    sweep.add_argument("scenario")
    sweep.add_argument("--random", type=int, help="number of random points")
    sweep.add_argument("--seed", type=int, help="seed of --random (default 0)")
    sweep.add_argument("--alpha1-grid", help="start:stop:count for alpha1")
    add_format(sweep)

    sub.add_parser("list", help="list scenario names")
    return parser, tol


_COMMANDS = {"run": cmd_run, "simulate": cmd_simulate, "sweep": cmd_sweep,
             "list": cmd_list}

# Exit code of each error a command may end with, most specific first.
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    dsl.ParseError: EXIT_PARSE,
    CompileError: EXIT_PARSE,
    SimulationError: EXIT_ASSERTION,
}


def main(argv=None, stream=None):
    stream = stream or sys.stdout
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError(f"a command is required ({', '.join(_COMMANDS)})")
        code = _COMMANDS[args.command](args, stream)
        stream.flush()
        return code
    except BrokenPipeError:
        if stream is not sys.stdout:
            raise
        # The reader is gone; the flush at exit must not fail again.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_CLOSED
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(
            code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind)
        )


if __name__ == "__main__":
    sys.exit(main())
