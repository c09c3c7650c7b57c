import io
import math
import warnings

import pytest

from router_sim import cli, dsl
from router_sim.dsl import ParseError, parse, render, compile_doc, simulate_text
from router_sim.elements import Element, ElementKind, RouterOrientation
from router_sim.errors import CompileError

MINIMAL = "mode A A t1 shutter\nsource A 1\n"


def circuit_path(name):
    import router_sim

    from pathlib import Path

    return Path(router_sim.__file__).parent / "circuits" / f"{name}.circuit"


def circuit_text(name):
    return circuit_path(name).read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_document():
    doc = parse(MINIMAL)
    assert len(doc.modes) == 1
    assert len(doc.sources) == 1
    assert doc.sources[0].weights == (("A", (1 + 0j)),)


def test_parse_is_deterministic():
    text = circuit_text("fig2b")
    assert parse(text) == parse(text)


def test_bs_arity_error():
    with pytest.raises(ParseError) as err:
        parse("mode A A t1 shutter\nbs 0.5 A\n")
    assert err.value.line == 2
    assert "two modes" in err.value.message


HEADER = "mode A A t1 shutter\nmode B B t1 shutter\nmode C C t1 shutter\n"


# An error about a token points at that token; an error about a missing
# token points one past the end of the line.
ELEMENT_ERRORS = [
    ("pqr reflect A B", "pqr requires three modes", 16),
    ("pqr sideways A B C", "unknown orientation 'sideways'", 5),
    ("pqr", "expected an orientation (reflect or transmit)", 4),
    ("bs x A B", "invalid real literal 'x'", 4),
    ("tunnel", "expected a real parameter", 7),
    ("ns A B", "trailing tokens after ns", 6),
]


@pytest.mark.parametrize(
    "line,message,column", ELEMENT_ERRORS,
    ids=[f"{line}-{message}" for line, message, _ in ELEMENT_ERRORS],
)
def test_element_statement_errors(line, message, column):
    with pytest.raises(ParseError) as err:
        parse(HEADER + line + "\n")
    assert err.value.line == 4
    assert err.value.message == message
    assert err.value.column == column


@pytest.mark.parametrize("line,message,column,token", [
    ("source A zz", "invalid complex weight 'zz'", 10, "zz"),
    ("source 9A 1", "invalid mode name '9A'", 8, "9A"),
    ("source A 1 Z 1", "undeclared mode 'Z'", 12, "Z"),
    ("source A", "source takes mode/weight pairs", 9, ""),
    ("postselect A=x", "expected mode=count, got 'A=x'", 12, "A=x"),
    ("postselect A=1 Z=0", "undeclared mode 'Z'", 16, "Z"),
    ("mode 9A A t1 probe_in", "invalid mode name '9A'", 6, "9A"),
    ("mode A A t1 probe_in", "duplicate declaration of mode 'A'", 6, "A"),
    ("mode D Q t1 probe_in", "unknown box tag 'Q'", 8, "Q"),
    ("mode D A t9 probe_in", "unknown time tag 't9'", 10, "t9"),
    ("mode D A t1 pilot", "unknown role tag 'pilot'", 13, "pilot"),
    ("mode D A t1 probe_in x", "trailing tokens after mode declaration", 22,
     ""),
    ("pqr reflect A B Z", "undeclared mode 'Z'", 17, "Z"),
    ("detect 9d A=1", "invalid outcome name '9d'", 8, "9d"),
    ("source", "expected mode/weight pairs", 7, ""),
    ("postselect", "expected mode=count pairs", 11, ""),
    ("mode", "expected a mode name", 5, ""),
    ("detect", "expected an outcome name", 7, ""),
    ("source A 0", "source weights are all zero", 1, ""),
])
def test_token_errors_point_at_the_token(line, message, column, token):
    with pytest.raises(ParseError) as err:
        parse(HEADER + line + "\n")
    assert (err.value.line, err.value.column) == (4, column)
    assert err.value.message == message
    assert err.value.token == token


@pytest.mark.parametrize("line,column", [
    ("source A 0.6 B 0.6 A -0.6", 20),
    ("postselect_state A 0.6 A 0.8", 24),
    ("postselect A=1 B=0 A=0", 20),
    ("detect d B=1 B=1", 14),
])
def test_repeated_mode_in_one_statement(line, column):
    with pytest.raises(ParseError) as err:
        parse(HEADER + line + "\n")
    assert err.value.message == f"repeated mode {err.value.token!r}"
    assert (err.value.line, err.value.column) == (4, column)


@pytest.mark.parametrize("statement", [
    "source A 0.6 B 0.6 A -0.6",
    "postselect_state A 0.6 A 0.8",
])
def test_simulate_repeated_mode_exits_4_with_one_line(
        statement, tmp_path, capsys):
    path = tmp_path / "repeated.circuit"
    path.write_text(HEADER + "source C 1\n" + statement + "\ndetect d B=1\n")
    stream = io.StringIO()
    assert cli.main(["simulate", str(path)], stream) == cli.EXIT_PARSE
    assert stream.getvalue() == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "repeated mode 'A'" in err


def test_simulate_repeated_detect_name_exits_4_with_one_line(tmp_path,
                                                             capsys):
    path = tmp_path / "repeated-detect.circuit"
    path.write_text(HEADER + "source C 1\ndetect x A=1\n"
                    "detect\t x B=1  # second x\n")
    stream = io.StringIO()
    assert cli.main(["simulate", str(path)], stream) == cli.EXIT_PARSE
    assert stream.getvalue() == ""
    err = capsys.readouterr().err
    assert err == "error: line 6:9: repeated outcome name 'x'\n"


def test_simulate_postselect_state_over_every_mode_exits_4(tmp_path, capsys):
    path = tmp_path / "all-modes.circuit"
    path.write_text(
        "mode A A t1 shutter\nmode B B t1 probe_in\nsource A 1\n"
        "source B 1\npostselect_state A 0.6 B 0.8\ndetect d B=1\n"
    )
    stream = io.StringIO()
    assert cli.main(["simulate", str(path)], stream) == cli.EXIT_PARSE
    assert stream.getvalue() == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "postselect_state must leave at least one declared mode" in err


@pytest.mark.parametrize("line,column", [
    ("tunnel 1e400 A B", 8),
    ("ps 1e400 A", 4),
    ("source A 1e400", 10),
    ("postselect_state A -1e400i", 20),
])
def test_overflowing_literal_exits_4_at_the_token(line, column, tmp_path,
                                                  capsys):
    text = HEADER + "source C 1\n" + line + "\ndetect d A=1 B=0\n"
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (5, column)
    assert "1e400" in err.value.token
    path = tmp_path / "overflow.circuit"
    path.write_text(text)
    stream = io.StringIO()
    assert cli.main(["simulate", str(path)], stream) == cli.EXIT_PARSE
    assert stream.getvalue() == ""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: line 5:")


@pytest.mark.parametrize("token", ["1e400", "-1e400", "1e400i", "1-1e400i"])
def test_overflowing_weight_literal_is_rejected(token):
    assert dsl.parse_weight(token) is None


def test_unknown_directive_error():
    with pytest.raises(ParseError) as err:
        parse("wibble 1 2\n")
    assert "unknown directive" in err.value.message
    assert err.value.line == 1
    assert err.value.column == 1


def test_undeclared_mode_error():
    with pytest.raises(ParseError) as err:
        parse("mode A A t1 shutter\nsource B 1\n")
    assert "undeclared mode" in err.value.message


def test_duplicate_declaration_error():
    with pytest.raises(ParseError) as err:
        parse("mode A A t1 shutter\nmode A B t2 probe_in\n")
    assert "duplicate declaration" in err.value.message


def test_bad_weight_error():
    with pytest.raises(ParseError) as err:
        parse("mode A A t1 shutter\nsource A 1+2j\n")
    assert "invalid complex weight" in err.value.message


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\nmode A A t1 shutter  # trailing\n\nsource A 1\n"
    doc = parse(text)
    assert len(doc.modes) == 1 and len(doc.sources) == 1


@pytest.mark.parametrize(
    "token,expected",
    [
        ("1", 1 + 0j),
        ("-0.5", -0.5 + 0j),
        ("0.5i", 0.5j),
        ("-2e-3i", -2e-3j),
        ("1+0i", 1 + 0j),
        ("0-0.25i", -0.25j),
        ("12i", 12j),
        ("1.5e2+0.5i", 150 + 0.5j),
    ],
)
def test_weight_literals(token, expected):
    assert dsl.parse_weight(token) == expected


def test_source_normalization_warns():
    with pytest.warns(UserWarning, match="normalized"):
        doc = parse("mode A A t1 shutter\nmode B B t1 shutter\nsource A 1 B 1\n")
    total = sum(abs(w) ** 2 for _, w in doc.sources[0].weights)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_source_in_tolerance_kept_verbatim():
    s3 = repr(1 / math.sqrt(3))
    text = f"mode A A t1 shutter\nmode B B t1 shutter\nmode C C t1 shutter\nsource A {s3} B {s3} C {s3}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = parse(text)
    assert doc.sources[0].weights[0][1] == complex(float(s3))


@pytest.mark.parametrize("statement", ["source", "postselect_state"])
def test_underflowing_weights_normalize_to_an_equal_split(statement):
    # The squares of 1e-200 underflow to zero; the weights are still a
    # valid direction.
    weights = {"source": "SA 0.6 SB 0.8", "postselect_state": "SA 0.6 SB 0.8"}
    weights[statement] = "SA 1e-200 SB 1e-200"
    text = (
        "mode SA A t1 shutter\nmode SB B t1 shutter\nmode P A t1 probe_in\n"
        f"source {weights['source']}\nsource P 1\n"
        f"postselect_state {weights['postselect_state']}\ndetect d P=1\n"
    )
    with pytest.warns(UserWarning, match="normalized"):
        doc = parse(text)
    stmt = doc.sources[0] if statement == "source" else doc.postselects[0]
    assert [m for m, _ in stmt.weights] == ["SA", "SB"]
    for _, w in stmt.weights:
        assert w == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    with pytest.warns(UserWarning, match="normalized"):
        report = simulate_text(text)
    assert report["postselections"][0]["probability"] == pytest.approx(0.98)


# ---------------------------------------------------------------------------
# rendering round-trip
# ---------------------------------------------------------------------------

def synthetic_doc():
    text = "\n".join(
        [
            "mode SA A none shutter",
            "mode SB B none shutter",
            "mode P1 A t1 probe_in",
            "mode P2 aux t2 probe_t",
            "mode R1 A t1 probe_r",
            "source SA 0.7071067811865476 SB 0+0.7071067811865476i",
            "source P1 1",
            "bs 0.5 P1 P2",
            "ps -1.5707963267948966 P2",
            "ns P2",
            "ns2 P1 P2",
            "pqr reflect P1 R1 SA",
            "relabel P2 R1",
            "tunnel 0.7853981633974483 SA SB",
            "postselect SA=1 SB=0",
            "postselect_state SA 1",
            "detect click R1=1 P1=0",
        ]
    )
    return parse(text)


def test_round_trip_synthetic_document():
    doc = synthetic_doc()
    assert parse(render(doc)) == doc


def test_round_trip_is_idempotent():
    doc = synthetic_doc()
    once = render(doc)
    assert render(parse(once)) == once


@pytest.mark.parametrize("name", ["fig2b", "fig3a", "fig3b", "fig4"])
def test_round_trip_shipped_files(name):
    doc = parse(circuit_text(name))
    assert parse(render(doc)) == doc


def test_render_preserves_weights_exactly():
    doc = synthetic_doc()
    again = parse(render(doc))
    for a, b in zip(doc.sources, again.sources):
        for (_, wa), (_, wb) in zip(a.weights, b.weights):
            assert wa == wb  # repr round-trip keeps all bits


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def test_compile_no_elements_gives_vacuum_and_empty_schedule():
    doc = parse("mode A A t1 shutter\npostselect A=0\n")
    compiled = compile_doc(doc)
    assert compiled.schedule == []
    assert compiled.initial.vacuum == 1.0


def test_execute_leaves_the_compiled_initial_state_unchanged():
    # The NS gate flips the |2_A> amplitude of the state it is given.
    compiled = compile_doc(parse(
        "mode A A t1 shutter\nmode B B t1 probe_in\n"
        "source A 0.6 B 0.8i\nsource A 1\nns A\nbs 0.5 A B\ndetect d A=2\n"
    ))
    first = dsl.execute(compiled)
    assert dsl.execute(compiled) == first


def test_compile_budget_violation():
    text = (
        "mode A A t1 shutter\nmode B B t1 shutter\nmode C C t1 shutter\n"
        "source A 1\nsource B 1\nsource C 1\n"
        "bs 0.5 A B\nps 1 C\n"
    )
    with pytest.raises(CompileError, match="photon budget"):
        compile_doc(parse(text))


def test_compile_rejects_unused_mode():
    text = "mode A A t1 shutter\nmode B B t1 shutter\nsource A 1\n"
    with pytest.raises(CompileError, match="never used"):
        compile_doc(parse(text))


ELEMENT_CASES = [
    ("bs 0.3 A B", ElementKind.BS, {"r": 0.3}),
    ("ps -1.25 A", ElementKind.PHASE, {"angle": -1.25}),
    ("ns A", ElementKind.NS_SINGLE, {}),
    ("ns2 A B", ElementKind.NS_TWO_MODE, {}),
    ("pqr transmit A B C", ElementKind.PQR_IDEAL,
     {"orientation": RouterOrientation.TRANSMIT_ON_MATCH}),
    ("relabel A B", ElementKind.RELABEL, {"mapping": {"A": "B", "B": "A"}}),
    ("tunnel 0.7 A B", ElementKind.TUNNEL, {"theta": 0.7}),
]


@pytest.mark.parametrize(
    "line,kind,params", ELEMENT_CASES,
    ids=[line.split()[0] for line, _, _ in ELEMENT_CASES],
)
def test_element_op_round_trips_and_compiles(line, kind, params):
    names = [t for t in line.split() if t in ("A", "B", "C")]
    text = "".join(f"mode {n} A t1 internal\n" for n in names) + line + "\n"
    doc = parse(text)
    assert parse(render(doc)) == doc
    # The parser builds a statement slot by slot: it equals, hashes and
    # prints as the one its class builds, and it is frozen.
    (stmt,) = doc.elements
    built = dsl.ElementStmt(stmt.op, stmt.params, stmt.modes, stmt.line)
    assert (stmt, hash(stmt), repr(stmt)) == (built, hash(built), repr(built))
    with pytest.raises(AttributeError):
        stmt.op = "ns"
    (element,) = compile_doc(doc).schedule
    assert element.kind is kind
    assert element.params == params
    assert element.modes == tuple(names)
    # So is an element, which equals only itself.
    twin = Element(element.kind, element.modes, element.params)
    assert element == element and element != twin
    assert hash(element) == object.__hash__(element)
    with pytest.raises(AttributeError):
        element.modes = ()


def test_compile_unknown_element_op():
    doc = dsl.CircuitDoc(
        modes=(dsl.ModeDecl("A", "A", "t1", "shutter"),),
        sources=(),
        elements=(dsl.ElementStmt("foo", (), ("A",)),),
        postselects=(),
        detects=(),
    )
    with pytest.raises(CompileError, match="unknown element"):
        compile_doc(doc)


# Each compile error names the line of its statement, as grep -n counts it.
COMPILE_HEAD = ("mode A A t1 shutter\nmode B B t1 shutter  # spare\n\n"
                "mode C C t1 probe_in\nsource A 1\n")
COMPILE_TAIL = "detect d A=1 B=0 C=1\n"
COMPILE_ERRORS = [
    ("bs 2 A B", "line 6: reflectivity 2.0 outside [0, 1]"),
    ("tunnel 0.5 A A", "line 6: element modes ('A', 'A') must be distinct"),
    ("pqr reflect A B A", "line 6: router needs three distinct modes"),
    ("relabel A A", "line 6: element modes ('A', 'A') must be distinct"),
    ("postselect_state A 0.6 B 0.8i C 0",
     "line 6: postselect_state must leave at least one declared mode "
     "unselected"),
    ("source B 1\nsource C 1",
     "line 7: 3 source photons exceed the photon budget 2"),
]


@pytest.mark.parametrize(
    "statement,message", COMPILE_ERRORS,
    ids=[statement.split()[0] for statement, _ in COMPILE_ERRORS[:-1]]
    + ["budget"])
def test_compile_error_names_the_statement_line(statement, message,
                                                tmp_path, capsys):
    text = COMPILE_HEAD + statement + "\n" + COMPILE_TAIL
    with pytest.raises(CompileError) as err:
        compile_doc(parse(text))
    assert str(err.value) == message
    assert text.split("\n")[err.value.line - 1] == statement.split("\n")[-1]
    path = tmp_path / "bad.circuit"
    path.write_text(text)
    stream = io.StringIO()
    assert cli.main(["simulate", str(path)], stream) == cli.EXIT_PARSE
    assert stream.getvalue() == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unused_modes_name_the_first_declared():
    text = ("mode A A t1 shutter\nmode Z B t1 shutter\nmode B B t1 shutter\n"
            "source A 1\ndetect d A=1\n")
    with pytest.raises(CompileError) as err:
        compile_doc(parse(text))
    assert str(err.value) == "line 2: modes declared but never used: ['B', 'Z']"


def test_compile_error_of_an_empty_document_names_no_line():
    with pytest.raises(CompileError) as err:
        compile_doc(parse("# nothing\n\n"))
    assert str(err.value) == "circuit declares no modes"
    assert err.value.line is None


def test_statement_lines_do_not_take_part_in_equality():
    doc = parse("mode A A t1 shutter\n\nsource A 1\nps 0.5 A\ndetect d A=1\n")
    assert [doc.modes[0].line, doc.sources[0].line, doc.elements[0].line,
            doc.detects[0].line] == [1, 3, 4, 5]
    again = parse(render(doc))
    assert again == doc and again.elements[0].line == 3
    assert "line" not in repr(doc)


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_lines_end_at_newline_only(brk, tmp_path, capsys):
    # str.splitlines() would also break at ``brk``: at a line end or inside
    # a comment it must not move the next lines, and between tokens it is
    # whitespace.
    text = (f"mode A A t1 shutter{brk}\nmode B{brk}B t1 shutter # a{brk}b\n"
            "bs x A B\n")
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (3, 4)
    # Read through universal newlines, \r\n line ends count the same.
    path = tmp_path / "breaks.circuit"
    path.write_text(text.replace("\n", "\r\n"), encoding="utf-8")
    assert cli.main(["simulate", str(path)], io.StringIO()) == cli.EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: line 3:4: invalid real literal 'x'\n")


def test_relabel_compiles_to_swap():
    text = (
        "mode A A t1 probe_in\nmode B A t2 probe_in\n"
        "source A 1\nrelabel A B\npostselect B=1\n"
    )
    report = simulate_text(text)
    assert report["postselections"][0]["probability"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# scenario equivalence of the shipped files
# ---------------------------------------------------------------------------

def test_fig3b_matches_simplest_2path():
    from router_sim import scenarios

    report = simulate_text(circuit_text("fig3b"))
    result = scenarios.simplest_2path()
    assert report["postselections"][0]["probability"] == pytest.approx(
        result.conditional_probabilities["postselection_success"], abs=1e-10
    )
    assert report["detections"][0]["conditional"][0] == pytest.approx(
        result.conditional_probabilities["restored_given_postselection"],
        abs=1e-10,
    )


def test_fig2b_matches_disappearing_full():
    from router_sim import scenarios

    report = simulate_text(circuit_text("fig2b"))
    result = scenarios.disappearing_full()
    assert report["postselections"][0]["probability"] == pytest.approx(
        result.conditional_probabilities["postselection_success"], abs=1e-10
    )
    assert report["detections"][0]["conditional"][0] == pytest.approx(
        result.conditional_probabilities["restored_given_postselection"],
        abs=1e-10,
    )
