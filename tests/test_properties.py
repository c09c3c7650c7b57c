"""Property tests of the circuit DSL, with examples drawn by ``hypothesis``.

Examples are derandomized and bounded in number, so every run checks the
same documents and texts and the suite stays fast.
"""

import io
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from router_sim import cli, dsl

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
