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
from dataclasses import dataclass, field

import numpy as np

from .elements import (
    _frozen_slots,
    _pair,
    beamsplitter,
    evolve,
    ns_single,
    ns_two_mode,
    phase_shifter,
    pqr_ideal,
    relabel,
    tunneling,
)
from .errors import CompileError, ParseError
from .fock import (
    PHOTON_BUDGET,
    Sectors,
    normalized_rows,
    register_modes,
    scalar_sum,
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


# A statement's ``line`` is the 1-based line it was parsed from, for compile
# errors; it is not compared, so parse(render(doc)) == doc.  Mode and element
# statements, tens per file, set their slots without object.__setattr__.
@_frozen_slots
@dataclass(frozen=True, slots=True)
class ModeDecl:
    name: str
    box: str
    time_slot: str
    role: str
    line: int = field(default=0, compare=False, repr=False)

    def __init__(self, name, box, time_slot, role, line=0):
        _SET_NAME(self, name)
        _SET_BOX(self, box)
        _SET_TIME_SLOT(self, time_slot)
        _SET_ROLE(self, role)
        _SET_DECL_LINE(self, line)


_SET_NAME, _SET_BOX, _SET_TIME_SLOT, _SET_ROLE, _SET_DECL_LINE = (
    getattr(ModeDecl, name).__set__ for name in ModeDecl.__slots__)


@dataclass(frozen=True)
class SourceStmt:
    weights: tuple  # ((mode_name, complex), ...)
    line: int = field(default=0, compare=False, repr=False)


@_frozen_slots
@dataclass(frozen=True, slots=True)
class ElementStmt:
    op: str
    params: tuple  # numeric parameters / orientation keyword
    modes: tuple
    line: int = field(default=0, compare=False, repr=False)

    def __init__(self, op, params, modes, line=0):
        _SET_OP(self, op)
        _SET_PARAMS(self, params)
        _SET_MODES(self, modes)
        _SET_LINE(self, line)


_SET_OP, _SET_PARAMS, _SET_MODES, _SET_LINE = (
    getattr(ElementStmt, name).__set__ for name in ElementStmt.__slots__)


@dataclass(frozen=True)
class PostselectPattern:
    pattern: tuple  # ((mode_name, int), ...)
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class PostselectState:
    weights: tuple
    line: int = field(default=0, compare=False, repr=False)


@dataclass(frozen=True)
class DetectStmt:
    name: str
    pattern: tuple
    line: int = field(default=0, compare=False, repr=False)


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
    # Only the complex and imaginary forms end in "i"; the complex form
    # would backtrack through each digit of a real literal before failing.
    if token.endswith("i"):
        if not (_COMPLEX_RE.match(token) or _IMAG_RE.match(token)):
            return None
        # complex() reads each part as float() does, and the real part of
        # an imaginary literal as 0.0.
        value = complex(token[:-1] + "j")
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


def _fail(line_number, text, index, message, token=""):
    """Raise :class:`ParseError` at token ``index`` of the line ``text``,
    or one past its end when the line has no such token."""
    # str.split() and \S+ break a line at the same characters.
    starts = [m.start() for m in re.finditer(r"\S+", text)]
    column = (starts + [len(text.rstrip())])[index] + 1
    raise ParseError(line_number, column, message, token)


def _require(line_number, text, index, name, declared, seen=()):
    """Fail at token ``index`` unless ``name`` is declared and not seen."""
    if name not in declared:
        _fail(line_number, text, index, f"undeclared mode {name!r}", name)
    if name in seen:
        _fail(line_number, text, index, f"repeated mode {name!r}", name)


def _weights(line_number, text, tokens, declared):
    """The normalized ``(mode, weight)`` pairs of a ``source`` or
    ``postselect_state`` line split into ``tokens``."""
    what, n = tokens[0], len(tokens)
    if n == 1:
        _fail(line_number, text, 1, "expected mode/weight pairs")
    if n % 2 == 0:
        _fail(line_number, text, n, f"{what} takes mode/weight pairs")
    pairs = []
    for index in range(1, n, 2):
        name, raw = tokens[index], tokens[index + 1]
        # A declared name is a valid one.
        if name not in declared and not _IDENT_RE.match(name):
            _fail(line_number, text, index, f"invalid mode name {name!r}",
                  name)
        weight = parse_weight(raw)
        if weight is None:
            _fail(line_number, text, index + 1,
                  f"invalid complex weight {raw!r}", raw)
        pairs.append((name, weight))
    names = tokens[1::2]
    if not declared.issuperset(names) or len(set(names)) < len(names):
        for index in range(1, n, 2):
            _require(line_number, text, index, tokens[index], declared,
                     tokens[1:index:2])
    try:
        # A square past the float range raises; a sum past it is inf.
        total = scalar_sum([abs(w) ** 2 for _, w in pairs])
    except OverflowError:
        raise ParseError(line_number, 1, f"{what} weights overflow") from None
    if abs(total - 1.0) > _WEIGHT_NORM_TOL:
        # Weights that are all zero sum to 0.0, far from 1.
        largest = max(abs(w) for _, w in pairs)
        if largest == 0.0:
            raise ParseError(line_number, 1, f"{what} weights are all zero")
        warnings.warn(
            f"line {line_number}: {what} weights normalized "
            f"(sum of squares was {total:.12g})",
            stacklevel=2,
        )
        # Divided by the largest modulus, the squares can no longer
        # underflow: 1e-200 and 1e-200 become an equal split.
        pairs = [(n, w / largest) for n, w in pairs]
        norm = math.sqrt(scalar_sum([abs(w) ** 2 for _, w in pairs]))
        pairs = [(n, w / norm) for n, w in pairs]
    return tuple(pairs)


def _counts(line_number, text, tokens, start, declared):
    """The ``(mode, count)`` pairs of ``tokens[start:]``."""
    if start == len(tokens):
        _fail(line_number, text, start, "expected mode=count pairs")
    pattern = {}
    for index, item in enumerate(tokens[start:], start):
        m = _ASSIGN_RE.match(item)
        if not m:
            _fail(line_number, text, index,
                  f"expected mode=count, got {item!r}", item)
        _require(line_number, text, index, m.group(1), declared, pattern)
        pattern[m.group(1)] = int(m.group(2))
    return tuple(pattern.items())


# A parameter reader takes the parameter's token ("" if the line ends
# before it) and returns its value or raises ValueError saying what is wrong.
def _real(token):
    # A finite float() is a real literal (_REAL) or one with "_" between
    # its digits; "inf", "nan" and an overflow to infinity are not finite.
    try:
        value = math.nan if "_" in token else float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"invalid real literal {token!r}" if token
                         else "expected a real parameter")
    return value


def _orientation(token):
    if token not in ("reflect", "transmit"):
        raise ValueError(f"unknown orientation {token!r}" if token
                         else "expected an orientation (reflect or transmit)")
    return token


def _swap(mode_a, mode_b):
    """The element of a ``relabel`` line: the two modes swapped."""
    return relabel(dict([_pair(mode_a, mode_b), (mode_b, mode_a)]))


# op: (parameter readers, mode count, constructor).  An op takes at most
# one parameter.  The constructor takes the parsed parameter followed by the
# mode names.
_ELEMENT_OPS = {
    "bs": ((_real,), 2, beamsplitter),
    "ps": ((_real,), 1, phase_shifter),
    "ns": ((), 1, ns_single),
    "ns2": ((), 2, ns_two_mode),
    "pqr": ((_orientation,), 3,
            lambda orientation, *modes: pqr_ideal(*modes, orientation)),
    "relabel": ((), 2, _swap),
    "tunnel": ((_real,), 2, tunneling),
}

_MODE_WORDS = {1: "one mode", 2: "two modes", 3: "three modes"}

# The tags of a mode declaration after its name: (allowed, what, hint).
_MODE_TAGS = ((_BOX_TAGS, "box tag", " (A, B, C or aux)"),
              (_TIME_TAGS, "time tag", " (t1, t2, t3, tf or none)"),
              (_ROLE_TAGS, "role tag", ""))


def parse(text):
    """Parse a circuit document; raises :class:`ParseError` on the first
    violation.  Lines end at ``\\n`` only, as ``grep -n`` counts them, and
    tokens are separated by any whitespace."""
    modes, sources, elements, postselects, detects = [], [], [], [], []
    declared, outcomes = set(), set()
    for line_number, line in enumerate(text.split("\n"), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        tokens = line.split()
        if not tokens:
            continue
        directive, n = tokens[0], len(tokens)
        op = _ELEMENT_OPS.get(directive)

        if op is not None:
            readers, n_modes, _ = op
            params = ()
            if readers:
                token = tokens[1] if n > 1 else ""
                try:
                    params = (readers[0](token),)
                except ValueError as exc:
                    _fail(line_number, line, 1, str(exc), token)
            first = 1 + len(readers)
            end = first + n_modes
            names = tokens[first:end]
            if not declared.issuperset(names):
                for index, name in enumerate(names, first):
                    _require(line_number, line, index, name, declared)
            if n != end:
                if n < end:
                    _fail(line_number, line, n,
                          f"{directive} requires {_MODE_WORDS[n_modes]}")
                _fail(line_number, line, end,
                      f"trailing tokens after {directive}")
            elements.append(ElementStmt(directive, params, tuple(names),
                                        line_number))

        elif directive == "mode":
            if n == 1:
                _fail(line_number, line, 1, "expected a mode name")
            name = tokens[1]
            if not _IDENT_RE.match(name):
                _fail(line_number, line, 1, f"invalid mode name {name!r}",
                      name)
            if name in declared:
                _fail(line_number, line, 1,
                      f"duplicate declaration of mode {name!r}", name)
            if (n != 5 or tokens[2] not in _BOX_TAGS
                    or tokens[3] not in _TIME_TAGS
                    or tokens[4] not in _ROLE_TAGS):
                for index, (allowed, what, hint) in enumerate(_MODE_TAGS, 2):
                    if index == n:
                        _fail(line_number, line, n,
                              f"expected a {what}{hint}")
                    if tokens[index] not in allowed:
                        _fail(line_number, line, index,
                              f"unknown {what} {tokens[index]!r}",
                              tokens[index])
                _fail(line_number, line, 5,
                      "trailing tokens after mode declaration")
            declared.add(name)
            modes.append(ModeDecl(*tokens[1:], line_number))

        elif directive == "source":
            sources.append(SourceStmt(
                _weights(line_number, line, tokens, declared), line_number))

        elif directive == "postselect":
            postselects.append(PostselectPattern(
                _counts(line_number, line, tokens, 1, declared), line_number))

        elif directive == "postselect_state":
            postselects.append(PostselectState(
                _weights(line_number, line, tokens, declared), line_number))

        elif directive == "detect":
            if n == 1:
                _fail(line_number, line, 1, "expected an outcome name")
            name = tokens[1]
            if not _IDENT_RE.match(name):
                _fail(line_number, line, 1, f"invalid outcome name {name!r}",
                      name)
            if name in outcomes:
                _fail(line_number, line, 1, f"repeated outcome name {name!r}",
                      name)
            outcomes.add(name)
            detects.append(DetectStmt(
                name, _counts(line_number, line, tokens, 2, declared),
                line_number))

        else:
            _fail(line_number, line, 0, f"unknown directive {directive!r}",
                  directive)

    return CircuitDoc(
        tuple(modes), tuple(sources), tuple(elements),
        tuple(postselects), tuple(detects),
    )


def render(doc):
    """Canonical pretty-print; ``parse(render(doc))`` equals ``doc``."""
    def weights(pairs):
        return " ".join(f"{name} {render_weight(w)}" for name, w in pairs)

    def counts(pairs):
        return " ".join(f"{name}={count}" for name, count in pairs)

    lines = [f"mode {decl.name} {decl.box} {decl.time_slot} {decl.role}"
             for decl in doc.modes]
    lines += [f"source {weights(source.weights)}" for source in doc.sources]
    for element in doc.elements:
        params = [p if isinstance(p, str) else repr(p) for p in element.params]
        lines.append(" ".join([element.op, *params, *element.modes]))
    for ps in doc.postselects:
        lines.append(f"postselect {counts(ps.pattern)}"
                     if isinstance(ps, PostselectPattern)
                     else f"postselect_state {weights(ps.weights)}")
    lines += [f"detect {det.name} {counts(det.pattern)}"
              for det in doc.detects]
    return "\n".join(lines) + "\n"


@dataclass
class CompiledCircuit:
    initial: Sectors
    schedule: list
    # ("pattern", {mode: count}) | ("state", (modes, one-photon amplitudes))
    postselects: list
    detects: list  # (name, {mode: count})


def compile_doc(doc):
    """Lower a parsed document to an initial state plus element schedule;
    :func:`superposition_source` builds each ``postselect_state`` target.

    A :class:`CompileError` names the line of the statement at fault.
    """
    names = [decl.name for decl in doc.modes]
    if not names:
        raise CompileError(None, "circuit declares no modes")
    if len(doc.sources) > PHOTON_BUDGET:
        raise CompileError(
            doc.sources[PHOTON_BUDGET].line,
            f"{len(doc.sources)} source photons exceed the photon budget "
            f"{PHOTON_BUDGET}",
        )

    pairs = [pair for stmt in doc.sources for pair in stmt.weights]
    pairs += [pair for stmt in doc.detects for pair in stmt.pattern]
    for ps in doc.postselects:
        pairs += ps.pattern if isinstance(ps, PostselectPattern) else ps.weights
    used = {name for element in doc.elements for name in element.modes}
    used.update([name for name, _ in pairs])
    dangling = [decl for decl in doc.modes if decl.name not in used]
    if dangling:
        unused = sorted({decl.name for decl in dangling})
        raise CompileError(dangling[0].line,
                           f"modes declared but never used: {unused}")

    initial = Sectors(register_modes(names))
    for source in doc.sources:
        initial.add_photon(dict(source.weights))

    schedule = []
    for element in doc.elements:
        op = _ELEMENT_OPS.get(element.op)
        if op is None:
            raise CompileError(element.line,
                               f"unknown element {element.op!r}")
        try:
            schedule.append(op[2](*element.params, *element.modes))
        except Exception as exc:
            raise CompileError(element.line, str(exc)) from exc

    postselects = []
    for ps in doc.postselects:
        if isinstance(ps, PostselectPattern):
            postselects.append(("pattern", dict(ps.pattern)))
        else:
            if len(ps.weights) == len(names):
                raise CompileError(
                    ps.line,
                    "postselect_state must leave at least one declared mode "
                    "unselected",
                )
            modes = tuple(n for n, _ in ps.weights)
            target = superposition_source(register_modes(modes),
                                          dict(ps.weights))
            postselects.append(("state", (modes, Sectors(target).one)))
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
    # The state each post-selection leaves and the modes it no longer has.
    kept_states, consumed = [], []
    for kind, payload in compiled.postselects:
        if kind == "pattern":
            mask = final.matches(payload)
            kept = np.where(mask, amplitudes, 0j)
            probability = float(probabilities[mask].sum())
            modes = ()
        else:
            modes, target = payload
            kept, probability = final.postselect_state(amplitudes, modes,
                                                       target)
        postselections.append({"kind": kind, "probability": probability})
        kept_states.append(kept)
        consumed.append(modes)
    # The probabilities of each conditional state, one row each.
    conditioned = (np.abs(normalized_rows(np.array(kept_states))) ** 2
                   if kept_states else [])

    detections = []
    for name, pattern in compiled.detects:
        # Detection patterns refer to probe modes, which survive a
        # subsystem post-selection; a zero state detects with probability 0.
        mask = final.matches(pattern)
        conditional = []
        for given, modes in zip(conditioned, consumed):
            kept = mask if pattern.keys().isdisjoint(modes) else final.matches(
                {m: c for m, c in pattern.items() if m not in modes})
            conditional.append(float(given[kept].sum()))
        detections.append({
            "name": name,
            "probability": float(probabilities[mask].sum()),
            "conditional": conditional,
        })
    return {"postselections": postselections, "detections": detections}


def simulate_text(text):
    """Parse, compile and execute a circuit document in one call."""
    return execute(compile_doc(parse(text)))
