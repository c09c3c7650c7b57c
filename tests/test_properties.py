"""Property tests of the circuit DSL and of the JSON the command line
writes, with examples drawn by ``hypothesis``.

Examples are derandomized and bounded in number, so every run checks the
same documents and texts and the suite stays fast.
"""

import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from router_sim import cli, dsl
from router_sim.fock import row_norms

PROPERTY_SETTINGS = settings(
    derandomize=True,
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

NAMES = ("A", "B", "C", "D", "SA", "P_1", "x9")


# ---------------------------------------------------------------------------
# parse(render(doc)) == doc
# ---------------------------------------------------------------------------

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False, allow_subnormal=False)


@st.composite
def normalized_weights(draw, names):
    """``(name, weight)`` pairs over distinct modes of ``names`` whose
    squared moduli sum to one within the parser's tolerance."""
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    raw = [complex(draw(finite), draw(finite)) for _ in chosen]
    norm = math.sqrt(sum(abs(w) ** 2 for w in raw))
    if norm < 1e-3:
        raw, norm = [1.0 + 0j] + [0j] * (len(raw) - 1), 1.0
    return tuple((m, w / norm) for m, w in zip(chosen, raw))


@st.composite
def patterns(draw, names):
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    return tuple((m, draw(st.integers(0, 3))) for m in chosen)


@st.composite
def element_stmts(draw, names):
    op = draw(st.sampled_from(sorted(dsl._ELEMENT_OPS)))
    readers, n_modes, _ = dsl._ELEMENT_OPS[op]
    params = []
    for read in readers:
        if read is dsl._orientation:
            params.append(draw(st.sampled_from(["reflect", "transmit"])))
        else:
            params.append(draw(st.floats(0, 1) | finite))
    modes = tuple(draw(st.lists(st.sampled_from(names), min_size=n_modes,
                                max_size=n_modes, unique=True)))
    return dsl.ElementStmt(op, tuple(params), modes)


@st.composite
def circuit_docs(draw):
    names = tuple(draw(st.lists(st.sampled_from(NAMES), min_size=3,
                                max_size=4, unique=True)))
    modes = tuple(
        dsl.ModeDecl(
            name,
            draw(st.sampled_from(sorted(dsl._BOX_TAGS))),
            draw(st.sampled_from(sorted(dsl._TIME_TAGS))),
            draw(st.sampled_from(sorted(dsl._ROLE_TAGS))),
        )
        for name in names
    )
    sources = tuple(
        dsl.SourceStmt(draw(normalized_weights(names)))
        for _ in range(draw(st.integers(0, 2)))
    )
    elements = tuple(draw(st.lists(element_stmts(names), max_size=6)))
    postselects = tuple(draw(st.lists(st.one_of(
        patterns(names).map(dsl.PostselectPattern),
        normalized_weights(names).map(dsl.PostselectState),
    ), max_size=2)))
    # The first detect names every mode, so that most documents compile.
    detects = (dsl.DetectStmt("all", tuple((m, 0) for m in names)),) + tuple(
        dsl.DetectStmt(f"d{i}", draw(patterns(names)))
        for i in range(draw(st.integers(0, 2)))
    )
    return dsl.CircuitDoc(modes, sources, elements, postselects, detects)


@PROPERTY_SETTINGS
@given(circuit_docs())
def test_render_then_parse_is_identity(doc):
    assert dsl.parse(dsl.render(doc)) == doc


# ---------------------------------------------------------------------------
# fuzzed text through the CLI: only documented exit codes
# ---------------------------------------------------------------------------

REPLACEMENTS = ("1e400", "-1e400", "1e400i", "1-1e400i", "1e200", "1e-400",
                "nan", "inf", "0", "2", "A", "Z", "9A", "A=1", "A=2", "=",
                "#", "reflect", "sideways", "mode", "source")


@st.composite
def fuzz_files(draw):
    """A rendered document with a few token-level mutations: a token
    replaced (overflowing literals, undeclared or malformed names, stray
    words), repeated or deleted, or a line repeated; sometimes with a byte
    that is not UTF-8."""
    lines = [line.split(" ")
             for line in dsl.render(draw(circuit_docs())).splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        words = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(words) - 1))
        action = draw(st.sampled_from(["replace", "repeat", "delete",
                                       "line"]))
        if action == "replace":
            words[at] = draw(st.sampled_from(REPLACEMENTS))
        elif action == "repeat":
            words.insert(at, words[at])
        elif action == "delete" and len(words) > 1:
            del words[at]
        elif action == "line":
            lines.append(list(words))
    data = "".join(" ".join(words) + "\n" for words in lines).encode()
    if draw(st.integers(0, 7)) == 7:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3"])) \
            + data[at:]
    return data


@PROPERTY_SETTINGS
@given(data=fuzz_files())
def test_fuzzed_circuit_exits_with_a_documented_code(data, tmp_path, capsys):
    path = tmp_path / "fuzz.circuit"
    path.write_bytes(data)
    capsys.readouterr()
    stream = io.StringIO()
    code = cli.main(["simulate", str(path)], stream)
    err = capsys.readouterr().err
    assert code in (cli.EXIT_OK, cli.EXIT_ASSERTION, cli.EXIT_USAGE,
                    cli.EXIT_PARSE)
    assert "Traceback" not in err
    error_lines = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert len(error_lines) == (0 if code == cli.EXIT_OK else 1)
    if code != cli.EXIT_OK:
        assert stream.getvalue() == ""


@pytest.mark.parametrize("text", [
    "mode A A t1 shutter\nsource A 1e200\ndetect d A=1\n",
    "mode A A t1 shutter\nsource A 1e200+1e200i\ndetect d A=1\n",
])
def test_overflowing_weight_sum_exits_4(text, tmp_path, capsys):
    path = tmp_path / "huge.circuit"
    path.write_text(text)
    assert cli.main(["simulate", str(path)], io.StringIO()) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: line 2:1:") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# error positions under any whitespace
# ---------------------------------------------------------------------------

# Whitespace inside a line, the line breaks of str.splitlines other than
# \n included, and line ends: a line ends at \n only.
INLINE_SPACE = st.text(alphabet=" \t\x1f\xa0\u2003\u3000\x0b\x0c\x1c\x1d"
                                "\x1e\x85\u2028\u2029",
                       min_size=1, max_size=3)
LINE_BREAKS = st.sampled_from(["\n", "\r\n"])
HEADER_STATEMENTS = [["mode", m, m, "t1", "shutter"] for m in "ABC"]

# Per statement kind: its valid tokens, and the faults it may take as
# (token position, replacement or None to drop the token, error token).
# Some faulty tokens repeat an earlier token of their line.
STATEMENT_FAULTS = {
    "mode": (["mode", "N", "A", "t1", "probe_in"],
             [(1, "9x", "9x"), (1, "A", "A"), (2, "Q", "Q"),
              (3, "t9", "t9"), (3, "A", "A"), (4, "pilot", "pilot")]),
    "bs": (["bs", "0.5", "A", "B"],
           [(1, "x", "x"), (1, "1e400", "1e400"), (2, "Z", "Z"),
            (3, "Z", "Z"), (3, None, "")]),
    "postselect": (["postselect", "A=1", "B=0"],
                   [(1, "A=x", "A=x"), (2, "Z=0", "Z"), (2, "A=1", "A")]),
    "source": (["source", "A", "1"],
               [(1, "9A", "9A"), (1, "Z", "Z"), (2, "zz", "zz"),
                (2, "A", "A")]),
    "detect": (["detect", "d", "C=1"],
               [(1, "9d", "9d"), (2, "C=x", "C=x")]),
}


@st.composite
def spaced_documents(draw):
    """A document whose tokens are separated by mixed Unicode whitespace
    and whose lines end in mixed line breaks, with faults in some
    statements; and the (line, token position, error token) of the first
    fault, or None."""
    statements, first = [], None
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(sorted(STATEMENT_FAULTS)))
        tokens, faults = STATEMENT_FAULTS[kind]
        tokens = list(tokens)
        if kind == "mode":
            tokens[1] = f"N{i}"
        elif kind == "detect":
            tokens[1] = f"d{i}"
        if draw(st.booleans()):
            at, replacement, error_token = draw(st.sampled_from(faults))
            if replacement is None:
                del tokens[at:]
            else:
                tokens[at] = replacement
            if first is None:
                first = (len(HEADER_STATEMENTS) + len(statements), at,
                         error_token)
        statements.append(tokens)
    lines = []
    for tokens in HEADER_STATEMENTS + statements:
        lead = draw(st.sampled_from(["", " ", "\t", "\u3000 "]))
        body = tokens[0]
        for token in tokens[1:]:
            body += draw(INLINE_SPACE) + token
        lines.append(lead + body + draw(st.sampled_from(["", "\xa0", " \t"])))
    text = "".join(line + draw(LINE_BREAKS) for line in lines)
    return text, first


@PROPERTY_SETTINGS
@given(spaced_documents())
def test_error_position_is_that_of_the_whitespace_split_token(case):
    """Every ParseError names the line, the 1-based column and the token
    that ``re.finditer(r"\\S+")`` finds on that line, or the line end for a
    missing token."""
    text, first = case
    if first is None:
        dsl.parse(text)
        return
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(text)
    statement, at, error_token = first
    line = text.split("\n")[statement]
    matches = list(re.finditer(r"\S+", line))
    column = (matches[at].start() if at < len(matches)
              else len(line.rstrip()))
    assert (err.value.line, err.value.column, err.value.token) == (
        statement + 1, column + 1, error_token)


# Tokens that are invalid wherever they stand: as a directive, name, tag,
# parameter, weight or mode=count pair, and never a declared mode.
INVALID_TOKENS = ("9!", "1e400", "=", "A=9x", "-")
# Comment lines holding the other line breaks of str.splitlines.
SPLITLINES_COMMENTS = ("# a\x0bb", "# a\x0cb", "#\x1c\x1d\x1e",
                       "# a\x85b", "# a\u2028b\u2029")


def drop_leaves_an_error(tokens):
    """Whether dropping the last of ``tokens`` leaves an incomplete line:
    every statement but a postselect or detect that has a pair to spare."""
    kind = tokens[0]
    if kind == "postselect":
        return len(tokens) == 2
    return kind != "detect" or len(tokens) == 3


@st.composite
def broken_documents(draw):
    """A rendered valid document with one token replaced by an invalid one,
    or with the last token of a line dropped where that leaves the line
    incomplete, written with mixed whitespace and comment lines; and the
    expected (line, column, token) of the error."""
    statements = [line.split(" ")
                  for line in dsl.render(draw(circuit_docs())).splitlines()]
    broken = draw(st.integers(0, len(statements) - 1))
    tokens = statements[broken]
    if drop_leaves_an_error(tokens) and draw(st.booleans()):
        del tokens[-1]
        at, error_token = len(tokens), ""
    else:
        at = draw(st.integers(0, len(tokens) - 1))
        error_token = tokens[at] = draw(st.sampled_from(INVALID_TOKENS))
    lines, expected = [], None
    for i, tokens in enumerate(statements):
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(SPLITLINES_COMMENTS)))
        line, starts = draw(st.sampled_from(["", " ", "\u3000"])), []
        for token in tokens:
            if starts:
                line += draw(INLINE_SPACE)
            starts.append(len(line))
            line += token
        if i == broken:
            column = starts[at] if at < len(starts) else len(line)
            expected = (len(lines) + 1, column + 1, error_token)
        lines.append(line + draw(st.sampled_from(["", " ", "\t\x0c"])))
    text = "".join(line + draw(LINE_BREAKS) for line in lines)
    return text, expected


@PROPERTY_SETTINGS
@given(broken_documents())
def test_parse_error_points_at_the_broken_token(case):
    """Only ParseError is raised, at the broken token's line and 1-based
    column, or one past the line end for a dropped token, with ``token``
    the text there."""
    text, expected = case
    with pytest.raises(dsl.ParseError) as err:
        dsl.parse(text)
    assert (err.value.line, err.value.column, err.value.token) == expected


# ---------------------------------------------------------------------------
# a real parameter is read as the literal regex reads it
# ---------------------------------------------------------------------------

_REAL_LITERAL = re.compile(r"[+-]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


def regex_real(token):
    """The real-parameter reader that matched its token against the real
    literal before calling ``float``: its value, or the message of the
    ValueError it raised."""
    value = float(token) if _REAL_LITERAL.fullmatch(token) else math.nan
    if not math.isfinite(value):
        return (f"invalid real literal {token!r}" if token
                else "expected a real parameter")
    return value.hex()


def read_real(token):
    try:
        return dsl._real(token).hex()
    except ValueError as exc:
        return str(exc)


# One whitespace-free token, as ``str.split`` leaves a parameter.
tokens = st.one_of(
    st.from_regex(_REAL_LITERAL, fullmatch=True),
    st.text("0123456789+-.eE_ ١٢٣infatyNI", max_size=10),
    st.text(max_size=10),
).filter(lambda token: token.split() in ([token], []))


@settings(PROPERTY_SETTINGS, max_examples=400)
@given(tokens)
@example("")
@example("inf")
@example("-Infinity")
@example("nan")
@example("+NaN")
@example("1_0")
@example("1_0.5e1_0")
@example("١٢.٥")
@example("１e３")
@example("1e400")
@example("-1e400")
@example("1e-400")
@example("5.")
@example(".5e-3")
@example(".")
@example("0x10")
def test_real_parameter_reads_what_the_literal_regex_reads(token):
    assert read_real(token) == regex_real(token)



# ---------------------------------------------------------------------------
# The JSON writer against the stdlib's indented form
# ---------------------------------------------------------------------------

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
    return json.dumps(round12(obj), indent=2) + "\n"


def written(obj):
    stream = io.StringIO()
    cli._emit_json(obj, stream)
    return stream.getvalue()


EDGE_FLOATS = [0.0, -0.0, 1.0, 100.0, -2.5, 1e-5, 9.99999999999e-6,
               1.00000000000049e-5, 1e-4, 1e11, 1e12, 123456789012.5,
               999999999999.5, 1e15, 1e16, 12345678901234567.0, 5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308,
               math.nan, math.inf, -math.inf]
json_floats = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.floats(min_value=1e-6, max_value=1e-4),
    st.floats(min_value=1e11, max_value=1e17),
    st.floats(allow_subnormal=True, min_value=-1e-307, max_value=1e-307),
)
json_strings = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é", "\u2028", "😀",
                     'say "hi"\n\tback\\slash']),
)
json_scalars = st.one_of(
    json_floats,
    json_floats.map(np.float64),
    json_strings,
    st.integers(),
    st.booleans(),
    st.none(),
    st.complex_numbers(),
    st.builds(complex, json_floats, json_floats),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=25,
)


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(json_values)
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": [{}]}})
@example({"s": 'q"\\\n\x01é', "f": [100.0, -0.0, 1e-5, 1e16],
          "z": [complex(1.5, -2.0)], "n": [None, True, False, 7]})
@example([math.nan, math.inf, -math.inf, np.float64(0.1)])
def test_json_writer_matches_the_stdlib_indented_form(obj):
    assert written(obj) == stdlib_json(obj)


def rounding_grid():
    """Floats on both sides of every 12-digit rounding and text-form
    boundary from 1e-20 to 1e20, and the finite edge floats."""
    mantissas = [1.0, 1.5, 2.5e-3, 1 / 3, 2 / 3, 9.999999999995,
                 9.9999999999949, 7.0000000000005, 1.23456789012345,
                 4.99999999999999, 0.1 + 0.2]
    values = []
    for exponent in range(-20, 21):
        for m in mantissas:
            v = m * 10.0 ** exponent
            values += [v, -v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    return values + EDGE_FLOATS[:-3]  # all but NaN and the infinities


def test_float_fast_path_matches_the_rounded_repr():
    for v in rounding_grid():
        assert cli._float_text(v) == repr(float(f"{v:.12g}")), v


def test_batched_float_texts_match_float_text():
    values = [float(v) for v in rounding_grid()] + [
        math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e16,
        123456789012345.0]
    assert cli._float_texts(values) == [cli._float_text(v) for v in values]


# ---------------------------------------------------------------------------
# Row norms
# ---------------------------------------------------------------------------

norm_parts = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False)


@settings(PROPERTY_SETTINGS, max_examples=200)
@given(st.integers(1, 8).flatmap(lambda k: st.lists(
    st.lists(st.builds(complex, norm_parts, norm_parts),
             min_size=k, max_size=k),
    min_size=1, max_size=12)))
def test_row_norms_are_the_per_row_norms_bit_for_bit(rows):
    rows = np.array(rows, dtype=complex)
    expected = np.array([[np.linalg.norm(row)] for row in rows])
    assert row_norms(rows).tobytes() == expected.tobytes()


@pytest.mark.parametrize("k", range(1, 9))
def test_row_norms_of_gaussian_rows_are_the_per_row_norms(k):
    rng = np.random.default_rng(k)
    rows = rng.normal(size=(2000, k)) + 1j * rng.normal(size=(2000, k))
    rows *= 10.0 ** rng.integers(-8, 9, size=(2000, 1))
    expected = np.array([[np.linalg.norm(row)] for row in rows])
    assert row_norms(rows).tobytes() == expected.tobytes()
