"""Line-oriented text format for router-network circuits.

A ``.circuit`` document declares modes, injects photons, lists elements in
schedule order and names post-selections and detection patterns:

    mode SA A none shutter
    mode PA A t1 probe_in
    source SA 1
    bs 0.5 PA PB          # beamsplitter, reflectivity first
    pqr reflect PA RA SA  # orientation, probe_in, probe_out, control
    postselect_state SA 0.5773502691896258 SB 0+0.5773502691896258i
    detect spd2 RA=1

Comments run from ``#`` to end of line.  Complex weights are written
``a+bi`` with optional parts (``1``, ``0.5i``, ``1-0.5i``).  Parsing is a
pure function of the text; rendering produces a canonical form whose
re-parse is structurally identical.
"""

from __future__ import annotations

import cmath
import math
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .elements import (
    beamsplitter,
    evolve,
    ns_single,
    ns_two_mode,
    phase_shifter,
    pqr_ideal,
    relabel,
    tunneling,
)
from .errors import CompileError
from .fock import (
    PHOTON_BUDGET,
    Sectors,
    normalized_rows,
    register_modes,
    superposition_source,
)

_WEIGHT_NORM_TOL = 1e-9

# Tags of a mode declaration.  They annotate the document only: a compiled
# circuit identifies each mode by its name.
_BOX_TAGS = {"A", "B", "C", "aux"}
_TIME_TAGS = {"t1", "t2", "t3", "tf", "none"}
_ROLE_TAGS = {"shutter", "probe_in", "probe_r", "probe_t", "detector",
              "internal"}

_REAL = r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_SIGNED_REAL = r"[+-](?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_REAL_RE = re.compile(rf"^{_REAL}$")
_COMPLEX_RE = re.compile(rf"^({_REAL})({_SIGNED_REAL})i$")
_IMAG_RE = re.compile(rf"^({_REAL})i$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_ASSIGN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)=(\d+)$")


class ParseError(Exception):
    """Parse failure with a 1-based position and the offending token."""

    def __init__(self, line, column, message, token=""):
        super().__init__(f"line {line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message
        self.token = token


@dataclass(frozen=True)
class ModeDecl:
    name: str
    box: str
    time_slot: str
    role: str


@dataclass(frozen=True)
class SourceStmt:
    weights: tuple  # ((mode_name, complex), ...)


@dataclass(frozen=True)
class ElementStmt:
    op: str
    params: tuple  # numeric parameters / orientation keyword
    modes: tuple


@dataclass(frozen=True)
class PostselectPattern:
    pattern: tuple  # ((mode_name, int), ...)


@dataclass(frozen=True)
class PostselectState:
    weights: tuple


@dataclass(frozen=True)
class DetectStmt:
    name: str
    pattern: tuple


@dataclass(frozen=True)
class CircuitDoc:
    modes: tuple
    sources: tuple
    elements: tuple
    postselects: tuple  # PostselectPattern | PostselectState, in order
    detects: tuple


def parse_weight(token):
    """Parse a complex literal of the form REAL, REALi or REAL±REALi;
    None if ``token`` is not one or a part overflows to infinity."""
    if m := _COMPLEX_RE.match(token):
        value = complex(float(m.group(1)), float(m.group(2)))
    elif m := _IMAG_RE.match(token):
        value = complex(0.0, float(m.group(1)))
    elif _REAL_RE.match(token):
        value = complex(float(token), 0.0)
    else:
        return None
    return value if cmath.isfinite(value) else None


def render_weight(value):
    """Canonical complex literal; floats keep full round-trip precision."""
    re_part, im_part = value.real, value.imag
    if im_part == 0.0:
        return repr(re_part)
    if re_part == 0.0:
        return f"{im_part!r}i"
    sign = "+" if im_part >= 0 else "-"
    return f"{re_part!r}{sign}{abs(im_part)!r}i"


class _LineParser:
    def __init__(self, line_number, text):
        self.line_number = line_number
        self.text = text
        self.tokens = text.split()
        self.pos = 0

    def fail(self, message, token="", index=None):
        """Raise at token ``index``, by default the next one or line end."""
        index = self.pos if index is None else index
        # str.split() and \S+ break a line at the same characters.
        starts = [m.start() for m in re.finditer(r"\S+", self.text)]
        column = (starts + [len(self.text)])[index] + 1
        raise ParseError(self.line_number, column, message, token)

    def next(self, expected):
        """The next token and its index."""
        if self.exhausted:
            self.fail(f"expected {expected}")
        self.pos += 1
        return self.tokens[self.pos - 1], self.pos - 1

    def rest(self, expected):
        """The remaining ``(token, index)`` pairs, at least one."""
        if self.exhausted:
            self.fail(f"expected {expected}")
        remaining = [(token, i) for i, token in
                     enumerate(self.tokens[self.pos:], self.pos)]
        self.pos = len(self.tokens)
        return remaining

    @property
    def exhausted(self):
        return self.pos >= len(self.tokens)


def _parse_pairs(parser, items, what):
    """``(name, weight)`` pairs of ``(token, index)`` items."""
    if len(items) % 2 != 0:
        parser.fail(f"{what} takes mode/weight pairs")
    pairs = []
    for (name, name_index), (raw, raw_index) in zip(items[::2], items[1::2]):
        if not _IDENT_RE.match(name):
            parser.fail(f"invalid mode name {name!r}", name, name_index)
        weight = parse_weight(raw)
        if weight is None:
            parser.fail(f"invalid complex weight {raw!r}", raw, raw_index)
        pairs.append((name, weight))
    return pairs


def _normalize_pairs(pairs, line_number, what):
    try:
        total = sum(abs(w) ** 2 for _, w in pairs)
    except OverflowError:
        raise ParseError(line_number, 1, f"{what} weights overflow") from None
    largest = max(abs(w) for _, w in pairs)
    if largest == 0.0:
        raise ParseError(line_number, 1, f"{what} weights are all zero")
    if abs(total - 1.0) > _WEIGHT_NORM_TOL:
        warnings.warn(
            f"line {line_number}: {what} weights normalized "
            f"(sum of squares was {total:.12g})",
            stacklevel=2,
        )
        # Divided by the largest modulus, the squares can no longer
        # underflow: 1e-200 and 1e-200 become an equal split.
        pairs = [(n, w / largest) for n, w in pairs]
        norm = math.sqrt(sum(abs(w) ** 2 for _, w in pairs))
        pairs = [(n, w / norm) for n, w in pairs]
    return tuple(pairs)


def _real(parser):
    token, index = parser.next("a real parameter")
    if not _REAL_RE.match(token) or not math.isfinite(float(token)):
        parser.fail(f"invalid real literal {token!r}", token, index)
    return float(token)


def _orientation(parser):
    token, index = parser.next("an orientation (reflect or transmit)")
    if token not in ("reflect", "transmit"):
        parser.fail(f"unknown orientation {token!r}", token, index)
    return token


# op: (parameter readers, mode count, constructor).  The constructor takes
# the parsed parameters followed by the mode names.
_ELEMENT_OPS = {
    "bs": ((_real,), 2, beamsplitter),
    "ps": ((_real,), 1, phase_shifter),
    "ns": ((), 1, ns_single),
    "ns2": ((), 2, ns_two_mode),
    "pqr": ((_orientation,), 3,
            lambda orientation, *modes: pqr_ideal(*modes, orientation)),
    "relabel": ((), 2, lambda a, b: relabel({a: b, b: a})),
    "tunnel": ((_real,), 2, tunneling),
}

_MODE_WORDS = {1: "one mode", 2: "two modes", 3: "three modes"}


def parse(text):
    """Parse a circuit document; raises :class:`ParseError` on the first
    violation."""
    modes, sources, elements, postselects, detects = [], [], [], [], []
    declared = set()

    def require_declared(parser, name, index, seen=()):
        """Fail unless ``name`` is declared and not in ``seen``."""
        if name not in declared:
            parser.fail(f"undeclared mode {name!r}", name, index)
        if name in seen:
            parser.fail(f"repeated mode {name!r}", name, index)

    def counts(parser):
        pattern = {}
        for item, index in parser.rest("mode=count pairs"):
            m = _ASSIGN_RE.match(item)
            if not m:
                parser.fail(f"expected mode=count, got {item!r}", item, index)
            require_declared(parser, m.group(1), index, pattern)
            pattern[m.group(1)] = int(m.group(2))
        return tuple(pattern.items())

    def weights(parser, what):
        items = parser.rest("mode/weight pairs")
        pairs = _parse_pairs(parser, items, what)
        for i, (name, index) in enumerate(items[::2]):
            require_declared(parser, name, index, dict(pairs[:i]))
        return _normalize_pairs(pairs, parser.line_number, what)

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        parser = _LineParser(line_number, line)
        directive, _ = parser.next("a directive")

        if directive == "mode":
            name, index = parser.next("a mode name")
            if not _IDENT_RE.match(name):
                parser.fail(f"invalid mode name {name!r}", name, index)
            if name in declared:
                parser.fail(
                    f"duplicate declaration of mode {name!r}", name, index
                )
            box, index = parser.next("a box tag (A, B, C or aux)")
            if box not in _BOX_TAGS:
                parser.fail(f"unknown box tag {box!r}", box, index)
            slot, index = parser.next("a time tag (t1, t2, t3, tf or none)")
            if slot not in _TIME_TAGS:
                parser.fail(f"unknown time tag {slot!r}", slot, index)
            role, index = parser.next("a role tag")
            if role not in _ROLE_TAGS:
                parser.fail(f"unknown role tag {role!r}", role, index)
            if not parser.exhausted:
                parser.fail("trailing tokens after mode declaration")
            declared.add(name)
            modes.append(ModeDecl(name, box, slot, role))

        elif directive == "source":
            sources.append(SourceStmt(weights(parser, "source")))

        elif directive in _ELEMENT_OPS:
            readers, n_modes, _ = _ELEMENT_OPS[directive]
            params = tuple(read(parser) for read in readers)
            mode_args = []
            for _ in range(n_modes):
                if parser.exhausted:
                    parser.fail(
                        f"{directive} requires {_MODE_WORDS[n_modes]}"
                    )
                token, index = parser.next("a mode name")
                require_declared(parser, token, index)
                mode_args.append(token)
            if not parser.exhausted:
                parser.fail(f"trailing tokens after {directive}")
            elements.append(ElementStmt(directive, params, tuple(mode_args)))

        elif directive == "postselect":
            postselects.append(PostselectPattern(counts(parser)))

        elif directive == "postselect_state":
            postselects.append(
                PostselectState(weights(parser, "postselect_state"))
            )

        elif directive == "detect":
            name, index = parser.next("an outcome name")
            if not _IDENT_RE.match(name):
                parser.fail(f"invalid outcome name {name!r}", name, index)
            if any(det.name == name for det in detects):
                parser.fail(f"repeated outcome name {name!r}", name, index)
            detects.append(DetectStmt(name, counts(parser)))

        else:
            parser.fail(f"unknown directive {directive!r}", directive, 0)

    return CircuitDoc(
        tuple(modes), tuple(sources), tuple(elements),
        tuple(postselects), tuple(detects),
    )


def render(doc):
    """Canonical pretty-print; ``parse(render(doc))`` equals ``doc``."""
    lines = []
    for decl in doc.modes:
        lines.append(f"mode {decl.name} {decl.box} {decl.time_slot} {decl.role}")
    for source in doc.sources:
        pairs = " ".join(
            f"{name} {render_weight(w)}" for name, w in source.weights
        )
        lines.append(f"source {pairs}")
    for element in doc.elements:
        params = " ".join(
            p if isinstance(p, str) else repr(p) for p in element.params
        )
        mode_args = " ".join(element.modes)
        middle = f"{params} " if params else ""
        lines.append(f"{element.op} {middle}{mode_args}")
    for ps in doc.postselects:
        if isinstance(ps, PostselectPattern):
            pairs = " ".join(f"{n}={c}" for n, c in ps.pattern)
            lines.append(f"postselect {pairs}")
        else:
            pairs = " ".join(
                f"{name} {render_weight(w)}" for name, w in ps.weights
            )
            lines.append(f"postselect_state {pairs}")
    for det in doc.detects:
        pairs = " ".join(f"{n}={c}" for n, c in det.pattern)
        lines.append(f"detect {det.name} {pairs}")
    return "\n".join(lines) + "\n"


@dataclass
class CompiledCircuit:
    initial: Sectors
    schedule: list
    postselects: list  # ("pattern", {mode: count}) | ("state", FockState)
    detects: list  # (name, {mode: count})


def compile_doc(doc):
    """Lower a parsed document to an initial state plus element schedule."""
    names = [decl.name for decl in doc.modes]
    if not names:
        raise CompileError(0, "circuit declares no modes")
    if len(doc.sources) > PHOTON_BUDGET:
        raise CompileError(
            len(doc.modes) + len(doc.sources),
            f"{len(doc.sources)} source photons exceed the photon budget "
            f"{PHOTON_BUDGET}",
        )

    used = set()
    for source in doc.sources:
        used.update(name for name, _ in source.weights)
    for element in doc.elements:
        used.update(element.modes)
    for ps in doc.postselects:
        pairs = ps.pattern if isinstance(ps, PostselectPattern) else ps.weights
        used.update(name for name, _ in pairs)
    for det in doc.detects:
        used.update(name for name, _ in det.pattern)
    dangling = sorted(set(names) - used)
    if dangling:
        raise CompileError(0, f"modes declared but never used: {dangling}")

    initial = Sectors(register_modes(names))
    for source in doc.sources:
        initial.add_photon(dict(source.weights))

    schedule = []
    for index, element in enumerate(doc.elements):
        if element.op not in _ELEMENT_OPS:
            raise CompileError(index, f"unknown element {element.op!r}")
        construct = _ELEMENT_OPS[element.op][2]
        try:
            schedule.append(construct(*element.params, *element.modes))
        except Exception as exc:
            raise CompileError(index, str(exc)) from exc

    postselects = []
    for index, ps in enumerate(doc.postselects):
        if isinstance(ps, PostselectPattern):
            postselects.append(("pattern", dict(ps.pattern)))
        else:
            if len(ps.weights) == len(names):
                raise CompileError(
                    index,
                    "postselect_state must leave at least one declared mode "
                    "unselected",
                )
            sub = register_modes([n for n, _ in ps.weights])
            sub = superposition_source(sub, dict(ps.weights))
            postselects.append(("state", sub))
    detects = [(det.name, dict(det.pattern)) for det in doc.detects]
    return CompiledCircuit(initial, schedule, postselects, detects)


def execute(compiled):
    """Run a compiled circuit and report detection probabilities.

    Detect-pattern probabilities are reported unconditionally and
    conditioned on each post-selection statement separately.  Every
    request is answered on the final sector form, pruned where a
    :class:`~router_sim.fock.FockState` of it would be.
    """
    final = compiled.initial.copy()
    evolve(final, compiled.schedule)
    amplitudes = final.fock_amplitudes()
    probabilities = np.abs(amplitudes) ** 2
    postselections = []
    conditioned = []  # (probabilities of the conditional state, its modes)
    for kind, payload in compiled.postselects:
        if kind == "pattern":
            mask = final.matches(payload)
            kept = np.where(mask, amplitudes, 0j)
            probability = float(np.sum(probabilities[mask]))
            modes = final.state.modes
        else:
            kept, probability = final.postselect_state(payload)
            modes = [m for m in final.state.modes if m not in payload.modes]
        postselections.append({"kind": kind, "probability": probability})
        conditioned.append((np.abs(normalized_rows(kept)) ** 2, modes))

    detections = []
    for name, pattern in compiled.detects:
        # Detection patterns refer to probe modes, which survive a
        # subsystem post-selection; a zero state detects with probability 0.
        conditional = [
            float(np.sum(given[final.matches(
                {m: c for m, c in pattern.items() if m in modes}
            )]))
            for given, modes in conditioned
        ]
        detections.append({
            "name": name,
            "probability": float(
                np.sum(probabilities[final.matches(pattern)])
            ),
            "conditional": conditional,
        })
    return {"postselections": postselections, "detections": detections}


def simulate_text(text):
    """Parse, compile and execute a circuit document in one call."""
    return execute(compile_doc(parse(text)))
