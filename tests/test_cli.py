import argparse
import io
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import router_sim
from router_sim import cli, dsl, scenarios
from router_sim.errors import SimulationError
from run_reference import run_text
from stdlib_json import stdlib_json
from sweep_reference import sweep_text

CIRCUITS = Path(router_sim.__file__).parent / "circuits"

# main loads numpy and the engine before its command runs; tests here call
# the commands' helpers and read their tables directly.
cli._load_engine()

EXPECTED_FIELDS = [
    "name",
    "parameters",
    "outcomes",
    "conditioned_fidelity",
    "weak_values",
    "abl",
    "schmidt",
]


def run_cli(argv):
    stream = io.StringIO()
    code = cli.main(argv, stream=stream)
    return code, stream.getvalue()


def outcome_map(payload):
    return {o["label"]: o["probability"] for o in payload["outcomes"]}


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def test_run_disappearing_equal():
    code, out = run_cli(["run", "disappearing_full", "--alphas", "equal"])
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    outcomes = outcome_map(payload)
    assert abs(outcomes["restored_given_postselection"] - 1.0) < 1e-9
    assert abs(outcomes["postselection_success"] - 1 / 9) < 1e-9


def test_run_three_box_single_branch():
    code, out = run_cli(
        ["run", "three_box_shutter", "--alpha1", "1", "--alpha2", "0"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["conditioned_fidelity"] == pytest.approx(1.0)


def test_run_unknown_scenario_lists_names():
    code, _ = run_cli(["run", "not_a_scenario"])
    assert code == cli.EXIT_USAGE


def test_run_perturbed_does_not_assert():
    code, out = run_cli(
        [
            "run",
            "disappearing_full",
            "--perturb",
            "remove-shutter-C-t2",
        ]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert outcome_map(payload)["restored_given_postselection"] < 1.0


def test_run_json_schema_is_stable():
    _, out = run_cli(["run", "simplified_3path"])
    payload = json.loads(out)
    assert list(payload.keys()) == EXPECTED_FIELDS


def test_run_output_is_byte_identical():
    _, first = run_cli(["run", "disappearing_full"])
    _, second = run_cli(["run", "disappearing_full"])
    assert first == second


def test_run_csv_format():
    code, out = run_cli(["run", "absence_test", "--format", "csv"])
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "label,probability"
    assert any(line.startswith("restored_given_postselection") for line in lines)


def test_run_bell_settings():
    code, out = run_cli(
        ["run", "bell_test", "--alice", "superpose", "--bob", "open"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    total = sum(o["probability"] for o in payload["outcomes"])
    assert total == pytest.approx(1.0, abs=1e-9)


def break_certainty(monkeypatch, scenario):
    """Make every run of ``scenario`` report a conditional probability of
    1/2 for its certain outcome and a no-signaling gap of 1/2."""
    entry = scenarios.SCENARIOS[scenario]

    def evaluate(*args):
        result = entry.evaluate(*args)
        for key in result.conditional_probabilities:
            if key.endswith("_given_postselection"):
                result.conditional_probabilities[key] = 0.5
        if "no_signaling_gap" in result.metadata:
            result.metadata["no_signaling_gap"] = 0.5
        return result

    monkeypatch.setitem(scenarios.SCENARIOS, scenario,
                        replace(entry, evaluate=evaluate))


def test_run_assertion_failure_exits_2(monkeypatch):
    break_certainty(monkeypatch, "disappearing_full")
    code, _ = run_cli(["run", "disappearing_full"])
    assert code == cli.EXIT_ASSERTION


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("ROUTER_SIM_TOL", "0.5")
    parser = cli.build_parser()
    args = parser.parse_args(["run", "disappearing_full"])
    assert args.tol == 0.5


# main reuses one parser per process; nothing of one call may reach the
# next.

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_tol_flag_does_not_reach_the_next_call():
    assert run_cli(["run", "disappearing_full", "--tol", "-1"])[0] == (
        cli.EXIT_USAGE)
    assert run_cli(["run", "disappearing_full"])[0] == cli.EXIT_OK


def test_tolerance_env_is_read_on_every_call(monkeypatch):
    monkeypatch.setenv("ROUTER_SIM_TOL", "-1")
    assert run_cli(["run", "disappearing_full"])[0] == cli.EXIT_USAGE
    monkeypatch.setenv("ROUTER_SIM_TOL", "1e-9")
    assert run_cli(["run", "disappearing_full"])[0] == cli.EXIT_OK
    monkeypatch.delenv("ROUTER_SIM_TOL")
    assert run_cli(["run", "disappearing_full"])[0] == cli.EXIT_OK


@pytest.mark.parametrize("argv", [
    ["run", "disappearing_full"],
    ["simulate", str(CIRCUITS / "fig2b.circuit")],
    ["sweep", "disappearing_full", "--random", "2"],
], ids=lambda argv: argv[0])
def test_csv_format_does_not_reach_the_next_call(argv):
    code, out = run_cli(argv + ["--format", "csv"])
    assert code == cli.EXIT_OK
    assert not out.startswith("{")
    code, out = run_cli(argv)
    assert code == cli.EXIT_OK
    json.loads(out)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_fig2b_matches_run():
    code, sim_out = run_cli(["simulate", str(CIRCUITS / "fig2b.circuit")])
    assert code == cli.EXIT_OK
    sim_payload = json.loads(sim_out)
    _, run_out = run_cli(["run", "disappearing_full"])
    run_payload = json.loads(run_out)
    run_outcomes = outcome_map(run_payload)
    post = sim_payload["postselections"][0]["probability"]
    spd2 = sim_payload["detections"][0]["conditional"][0]
    assert abs(post - run_outcomes["postselection_success"]) < 1e-10
    assert abs(spd2 - run_outcomes["restored_given_postselection"]) < 1e-10


def test_simulate_malformed_file(tmp_path):
    bad = tmp_path / "bad.circuit"
    bad.write_text("mode A A t1 shutter\nbs 0.5 A\n")
    stream = io.StringIO()
    code = cli.main(["simulate", str(bad)], stream=stream)
    assert code == cli.EXIT_PARSE


def test_simulate_csv_rows_per_detect():
    code, out = run_cli(
        ["simulate", str(CIRCUITS / "fig3a.circuit"), "--format", "csv"]
    )
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "label,probability"
    assert len(lines) >= 3  # detect row plus conditional row


def test_simulate_missing_file():
    code, _ = run_cli(["simulate", "/nonexistent/x.circuit"])
    assert code == cli.EXIT_USAGE


def simulate_document(path):
    """The stdlib's JSON of the ``simulate`` payload of the file ``path``."""
    report = dsl.simulate_text(Path(path).read_text(encoding="utf-8-sig"))
    return stdlib_json({"file": os.path.basename(path), **report})


def generated_circuit(rng, posts, detects):
    """A two-photon circuit of 24 modes and 120 elements with the first
    ``posts`` of its two post-selections and ``detects`` detections."""
    names = [f"M{i:02d}" for i in range(24)]

    def weighted(modes):
        w = rng.normal(size=len(modes)) + 1j * rng.normal(size=len(modes))
        w = (w / np.linalg.norm(w)).tolist()
        return " ".join(f"{m} {dsl.render_weight(x)}"
                        for m, x in zip(modes, w))

    lines = [f"mode {m} aux none internal" for m in names]
    lines += ["source " + weighted(rng.choice(names, 12, replace=False))
              for _ in range(2)]
    for kind in rng.choice(["bs", "ps", "tunnel", "ns", "relabel"], 120):
        a, b = rng.choice(names, 2, replace=False)
        angle = f"{rng.uniform(0.05, 0.95):.9f}"
        lines.append({"bs": f"bs {angle} {a} {b}", "ps": f"ps {angle} {a}",
                      "tunnel": f"tunnel {angle} {a} {b}", "ns": f"ns {a}",
                      "relabel": f"relabel {a} {b}"}[kind])
    picks = rng.choice(names, 9, replace=False)
    lines += [f"postselect {picks[0]}=1",
              "postselect_state " + weighted(picks[1:4])][:posts]
    lines += [f"detect coinc {picks[4]}=1 {picks[5]}=1",
              f"detect bunch {picks[6]}=2", f"detect single {picks[7]}=1",
              f"detect pair {picks[1]}=1 {picks[8]}=1"][:detects]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "path", sorted(CIRCUITS.glob("*.circuit"))
    + sorted((Path(__file__).parent / "circuits").glob("*.circuit")),
    ids=lambda path: path.name)
def test_simulate_prints_the_stdlib_document(path):
    # The template of the document's shape, filled with its numbers, is
    # the stdlib's text of the payload.
    assert run_cli(["simulate", str(path)]) == (cli.EXIT_OK,
                                                 simulate_document(path))


@pytest.mark.parametrize("seed", range(20))
def test_simulate_prints_the_stdlib_document_of_generated_circuits(
        seed, tmp_path):
    # Every number of post-selections (0-2) and detections (0-4).
    path = tmp_path / "generated.circuit"
    path.write_text(generated_circuit(np.random.default_rng(seed),
                                      seed % 3, seed % 5))
    assert run_cli(["simulate", str(path)]) == (cli.EXIT_OK,
                                                 simulate_document(path))


def test_simulate_prints_the_stdlib_document_of_an_empty_report(tmp_path):
    path = tmp_path / "bare.circuit"
    path.write_text("mode A A t1 shutter\nsource A 1\n")
    code, out = run_cli(["simulate", str(path)])
    assert (code, out) == (cli.EXIT_OK, simulate_document(path))
    assert json.loads(out) == {"file": "bare.circuit", "postselections": [],
                               "detections": []}


@pytest.mark.parametrize("name", [
    "100%s%d.circuit", 'say "hi".circuit', "back\\slash.circuit",
    "\u00e9t\u00e9.circuit", os.fsdecode(b"byte\xff.circuit"),
], ids=["percent", "quote", "backslash", "non-ascii", "undecodable"])
def test_simulate_writes_any_file_name(name, tmp_path):
    # The file name is the one string slot filled at run time.
    path = tmp_path / name
    path.write_bytes((CIRCUITS / "fig2b.circuit").read_bytes())
    code, out = run_cli(["simulate", str(path)])
    assert (code, out) == (cli.EXIT_OK, simulate_document(path))
    assert json.loads(out)["file"] == name


def test_a_simulate_shape_renders_its_template_once(tmp_path):
    run_cli(["simulate", str(CIRCUITS / "fig3a.circuit")])
    path = tmp_path / "copy.circuit"
    path.write_bytes((CIRCUITS / "fig3a.circuit").read_bytes())
    before = cli._simulate_template.cache_info()
    run_cli(["simulate", str(path)])
    after = cli._simulate_template.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_random_disappearing():
    code, out = run_cli(
        ["sweep", "disappearing_full", "--random", "5", "--seed", "3"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert len(payload["records"]) == 5
    for record in payload["records"]:
        assert abs(
            record["summary"]["restored_given_postselection"] - 1.0
        ) < 1e-9


def test_sweep_alpha1_grid_bell_no_signaling():
    code, out = run_cli(
        ["sweep", "bell_test", "--alpha1-grid", "0:1:11"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert len(payload["records"]) == 11
    for record in payload["records"]:
        assert record["summary"]["no_signaling_gap"] < 1e-10


def test_sweep_single_point_matches_run():
    code, out = run_cli(
        ["sweep", "disappearing_full", "--alpha1-grid", "0.5:0.5:1"]
    )
    assert code == cli.EXIT_OK
    record = json.loads(out)["records"][0]
    alphas = ",".join(
        f"{a[0]}+{a[1]}i" for a in record["alphas"]
    )
    _, run_out = run_cli(["run", "disappearing_full", "--alphas", alphas])
    run_outcomes = outcome_map(json.loads(run_out))
    for key, value in record["summary"].items():
        if key in run_outcomes:
            assert abs(value - run_outcomes[key]) < 1e-9


def test_sweep_empty_grid_is_usage_error():
    code, _ = run_cli(["sweep", "disappearing_full", "--alpha1-grid", "0:1:0"])
    assert code == cli.EXIT_USAGE


def test_sweep_requires_grid():
    code, _ = run_cli(["sweep", "disappearing_full"])
    assert code == cli.EXIT_USAGE


def test_random_sweep_points_are_drawn_real_then_imaginary_per_point():
    args = cli.build_parser().parse_args(
        ["sweep", "stricter_6beam", "--random", "7", "--seed", "5"])
    rng = np.random.default_rng(5)
    for point in cli._sweep_points(args, 6):
        vec = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert (point == vec / np.linalg.norm(vec)).all()


@pytest.mark.parametrize("arity", [2, 5, 6])
@pytest.mark.parametrize("grid", ["0:1:11", "-1:1:33", "-0.3:0.9:17",
                                  "1:-1:4", "0.5:0.5:1"])
def test_grid_sweep_points_match_the_per_point_formula(grid, arity):
    args = cli.build_parser().parse_args(
        ["sweep", "bell_test", f"--alpha1-grid={grid}"])
    start, stop, count = grid.split(":")
    expected = []
    for a1 in np.linspace(float(start), float(stop), int(count)):
        rest = math.sqrt(max(0.0, 1.0 - a1 * a1) / (arity - 1))
        vec = np.full(arity, rest, dtype=complex)
        vec[0] = a1
        expected.append(vec)
    points = cli._sweep_points(args, arity)
    assert points.tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, lines_read", [
    # 200 records are far more than a pipe buffers, so the writer meets
    # the closed pipe in the middle of the payload.
    (["sweep", "disappearing_full", "--random", "200"], 1),
    # One run fits in the stream's buffer: met only when it is flushed.
    (["run", "three_box_shutter"], 0),
])
def test_closed_stdout_exits_1_without_a_traceback(argv, lines_read,
                                                   unbuffered):
    src = str(Path(router_sim.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from router_sim.cli import main; sys.exit(main())",
         *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    for _ in range(lines_read):
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert err == b""
    assert code == 1 == cli.EXIT_CLOSED


def test_sweep_deterministic_order():
    _, first = run_cli(["sweep", "stricter_6beam", "--random", "4", "--seed", "9"])
    _, second = run_cli(["sweep", "stricter_6beam", "--random", "4", "--seed", "9"])
    assert first == second


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------

def test_list_names():
    code, out = run_cli(["list"])
    assert code == cli.EXIT_OK
    names = out.strip().splitlines()
    assert "disappearing_full" in names
    assert "bell_test" in names


# ---------------------------------------------------------------------------
# the run writer
# ---------------------------------------------------------------------------

# Every scenario with each of its perturbations, and bell_test with each
# setting pair: (scenario, perturbation, (alice, bob)).
RUN_SHAPES = [
    (name, perturbation, pair)
    for name, entry in scenarios.SCENARIOS.items()
    for perturbation in (None, *entry.perturbations)
    for pair in (itertools.product(cli._ALICE, cli._BOB)
                 if entry.takes_settings else [("open", "open")])
]


def run_settings(name, perturbation, alice, bob):
    """The (key, value) parameters of a run after its coefficients."""
    if scenarios.SCENARIOS[name].takes_settings:
        return (("alice_setting", alice), ("bob_setting", bob))
    return (("perturbation", perturbation),)


def run_result(name, alphas, perturbation, alice, bob):
    return scenarios.SCENARIOS[name].evaluate(
        alphas, perturbation, (cli._ALICE[alice], cli._BOB[bob]))


def shape_id(shape):
    name, perturbation, pair = shape
    return "-".join([name, perturbation or "-".join(pair)])


@pytest.mark.parametrize("shape", RUN_SHAPES, ids=shape_id)
def test_run_prints_the_payload_text(shape):
    # At the default coefficients, through main.
    name, perturbation, (alice, bob) = shape
    argv = ["run", name]
    if perturbation is not None:
        argv += ["--perturb", perturbation]
    if scenarios.SCENARIOS[name].takes_settings:
        argv += ["--alice", alice, "--bob", bob]
    arity = scenarios.SCENARIOS[name].arity
    alphas = scenarios.equal_alphas(arity) if arity else []
    want = run_text(run_result(name, alphas, perturbation, alice, bob),
                    alphas, run_settings(*shape[:2], alice, bob))
    assert run_cli(argv) == (cli.EXIT_OK, want + "\n")


@pytest.mark.parametrize(
    "shape", [shape for shape in RUN_SHAPES
              if scenarios.SCENARIOS[shape[0]].arity],
    ids=shape_id)
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_run_text_is_the_payload_text_at_any_coefficients(shape, data):
    name, perturbation, (alice, bob) = shape
    arity = scenarios.SCENARIOS[name].arity
    parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(-1.0, 1.0))
    raw = np.array([complex(data.draw(parts), data.draw(parts))
                    for _ in range(arity)])
    norm = math.sqrt(sum(abs(a) ** 2 for a in raw))
    assume(norm > 1e-3)
    alphas = list(raw / norm)
    try:
        result = run_result(name, alphas, perturbation, alice, bob)
    except SimulationError:  # a post-selection that never succeeds
        assume(False)
    parameters = run_settings(name, perturbation, alice, bob)
    assert (cli._run_text(result, alphas, parameters)
            == run_text(result, alphas, parameters))


@pytest.mark.parametrize("count", [0, 1, 2, 3])
@pytest.mark.parametrize("fidelity", [None, 0.0, -0.0, 1.0, 0.1 + 0.2])
@pytest.mark.parametrize("parameters", [
    (("perturbation", None),), (("perturbation", "at-t1"),),
    (("alice_setting", "superpose"), ("bob_setting", "open")),
])
def test_run_text_of_every_shape(count, fidelity, parameters):
    # Schmidt lengths 0-3, a null fidelity and exact zeros and ones, which
    # _float_texts writes through _float_text.
    values = [0.0, -0.0, 1.0, -1.0, 1 / 3, 1e-20, 5e-324, 1e16]
    result = scenarios.ScenarioResult(
        name="disappearing_full",
        conditional_probabilities=dict(zip("abcdefgh", values)),
        fidelity_to_target=fidelity,
        weak_values={("C", "t1"): complex(-0.0, 0.0), ("A", "t2"): -1 + 0j,
                     ("B", "t1"): complex(1.0, -0.0)},
        abl_values={("B", "t3"): 0.0, ("A", "t3"): 1.0, ("A", "t1"): -0.0},
        schmidt_spectrum=[1.0, 0.5, 0.0][:count] or None,
    )
    alphas = [complex(-0.0, 0.0), 1.0, 0j, np.complex128(0.6 - 0.8j)]
    assert (cli._run_text(result, alphas, parameters)
            == run_text(result, alphas, parameters))


def test_a_run_shape_renders_its_template_once():
    run_cli(["run", "bell_test", "--alice", "superpose"])
    before = cli._run_template.cache_info()
    run_cli(["run", "bell_test", "--alice", "superpose",
             "--alphas", "0.6,0,0,0.8i,0"])
    after = cli._run_template.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# ---------------------------------------------------------------------------
# usage errors
# ---------------------------------------------------------------------------

SCENARIOS = ("three_box_shutter", "disappearing_full", "simplified_3path",
             "simplest_2path", "absence_test", "stricter_6beam", "bell_test")

USAGE_ERRORS = (
    # an unknown perturbation, on every scenario
    [["run", name, "--perturb", "bogus"] for name in SCENARIOS]
    # coefficients that are not normalized
    + [
        ["run", "three_box_shutter", "--alphas", "1,1"],
        ["run", "three_box_shutter", "--alpha1", "1", "--alpha2", "1"],
        ["run", "three_box_shutter", "--alpha1", "0.6"],
        ["run", "three_box_shutter", "--alpha2", "0.8i"],
        ["run", "disappearing_full", "--alphas", "1,1,0,0,0"],
        ["run", "stricter_6beam", "--alphas", "1,0,0,0,0,1"],
        ["run", "bell_test", "--alphas", "0.5,0,0,0,0"],
    ]
    # flags the scenario does not take
    + [["run", name, "--alphas", "equal"]
       for name in ("simplified_3path", "simplest_2path", "absence_test")]
    + [["run", name, flag, "1"] for name in SCENARIOS[1:]
       for flag in ("--alpha1", "--alpha2")]
    + [["run", name, flag, "open"] for name in SCENARIOS[:-1]
       for flag in ("--alice", "--bob")]
    # flags that would be ignored: two sources of coefficients or points,
    # and a seed for a grid
    + [
        ["run", "three_box_shutter", "--alphas", "0.6,0.8", "--alpha1", "1"],
        ["run", "three_box_shutter", "--alphas", "equal", "--alpha2", "1"],
        ["sweep", "disappearing_full", "--random", "2",
         "--alpha1-grid", "0:1:5"],
        ["sweep", "disappearing_full", "--alpha1-grid", "0:1:5",
         "--seed", "7"],
    ]
    # numbers that are not finite or out of range
    + [
        ["run", "three_box_shutter", "--alphas", "1e400,0"],
        ["run", "three_box_shutter", "--alphas", "1e200,0"],
        ["sweep", "disappearing_full", "--alpha1-grid", "nan:1:2"],
        ["sweep", "disappearing_full", "--alpha1-grid", "0:inf:2"],
        ["sweep", "disappearing_full", "--alpha1-grid", "-2:2:3"],
        ["sweep", "disappearing_full", "--alpha1-grid", "0:1.5:3"],
        ["sweep", "disappearing_full", "--random", "3", "--seed", "-1"],
    ]
    # point counts whose arrays fail to allocate at once
    + [
        ["sweep", "bell_test", "--random", "100000000000"],
        ["sweep", "bell_test", "--random", "99999999999999999999999"],
        ["sweep", "bell_test", "--alpha1-grid=0:1:100000000000"],
        ["sweep", "stricter_6beam",
         "--alpha1-grid=0:1:99999999999999999999999"],
    ]
    # options that were read by nothing and are gone
    + [
        ["simulate", str(CIRCUITS / "fig2b.circuit"), "--tol", "1e-9"],
        ["sweep", "disappearing_full", "--random", "2", "--tol", "1e-9"],
        ["list", "--format", "json"],
    ]
    # coefficients, counts and grids that are malformed, a sweep of a
    # scenario that takes no coefficients, and no command at all
    + [
        ["run", "disappearing_full", "--alphas", " , "],
        ["run", "three_box_shutter", "--alphas", "0.6,0.8,"],
        ["run", "three_box_shutter", "--alphas", "1,,0"],
        ["run", "three_box_shutter", "--alpha1=", "--alpha2=1"],
        ["sweep", "disappearing_full", "--random", "0"],
        ["sweep", "disappearing_full", "--alpha1-grid", "0:1"],
        ["sweep", "simplest_2path", "--random", "3"],
        [],
    ]
)


VALID_RUNS = [
    ["run", "three_box_shutter"],
    ["run", "three_box_shutter", "--alpha1", "0.6", "--alpha2", "0.8i"],
    ["run", "three_box_shutter", "--alphas", "0.6,-0.8"],
    ["run", "disappearing_full"],
    ["run", "disappearing_full", "--alphas", "0.6,0.8,0,0,0"],
    ["run", "disappearing_full", "--alphas", "0.6,0.8,0,0,0",
     "--perturb", "extra-beam-A-t2"],
    ["run", "stricter_6beam", "--alphas", "0,0,0.6,0.8,0,0"],
    ["run", "bell_test", "--alphas", "0.6,0,0,0.8i,0", "--alice",
     "superpose"],
    ["run", "bell_test"],
]


@pytest.mark.parametrize(
    "argv", VALID_RUNS,
    ids=lambda argv: "-".join(a.lstrip("-") for a in argv[1:]))
def test_run_validates_its_coefficients_once(argv, monkeypatch):
    calls = []
    original = scenarios.as_alpha_vector

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(scenarios, "as_alpha_vector", counting)
    code, _ = run_cli(argv)
    assert code == cli.EXIT_OK
    assert len(calls) == 1


def test_only_coefficient_errors_of_a_run_are_usage_errors(monkeypatch,
                                                          capsys):
    # Any other BadParam raised while the scenario runs keeps the exit
    # code of a simulation error.
    def failing(result, shutter):
        raise scenarios.BadParam("a fault inside the scenario")

    monkeypatch.setattr(scenarios, "_attach_tsvf", failing)
    code, _ = run_cli(["run", "three_box_shutter"])
    assert code == cli.EXIT_ASSERTION
    assert capsys.readouterr().err == "error: a fault inside the scenario\n"


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1


# A numpy RuntimeWarning would print a second stderr line.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv", USAGE_ERRORS,
    ids=lambda argv: " ".join(argv).replace(str(CIRCUITS), "circuits"),
)
def test_usage_error_exits_3_with_one_line(argv, capsys):
    code, out = run_cli(argv)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert_one_line_error(capsys)


# main parses a command word's arguments with that command's parser alone;
# the namespace, output and exit code are those of the full parser.

DISPATCHED = (
    USAGE_ERRORS + VALID_RUNS
    + [[name, "--help"] for name in cli._COMMANDS]
    + [["--help"], ["-h"], ["bogus"], ["bogus", "run"], ["--tol", "1"],
       ["list"], ["simulate", str(CIRCUITS / "fig4.circuit")],
       ["sweep", "bell_test", "--random", "2", "--format", "csv"],
       ["run", "disappearing_full", "--alphas=-0.6,0.8,0,0,0"],
       ["run", "bell_test", "--al", "superpose", "--bob=superpose"],
       ["run"], ["run", "disappearing_full", "extra"],
       ["sweep", "bell_test", "--random", "x"]]
)


@pytest.mark.parametrize(
    "argv", DISPATCHED,
    ids=lambda argv: " ".join(argv).replace(str(CIRCUITS), "circuits"),
)
def test_dispatch_gives_what_the_full_parser_gives(argv, monkeypatch,
                                                   capsys):
    handed = []
    for name, command in list(cli._COMMANDS.items()):
        def recording(args, stream, command=command):
            handed.append(argparse.Namespace(**vars(args)))
            return command(args, stream)
        monkeypatch.setitem(cli._COMMANDS, name, recording)

    def outcome():
        handed.clear()
        stream = io.StringIO()
        try:
            code = cli.main(argv, stream)
        except SystemExit as exc:  # --help
            code = f"SystemExit({exc.code})"
        captured = capsys.readouterr()
        return code, stream.getvalue(), captured.out, captured.err, handed[:]

    dispatched = outcome()
    monkeypatch.setattr(cli, "_parse_args",
                        lambda argv: cli.build_parser().parse_args(argv))
    assert outcome() == dispatched
    assert len(dispatched[-1]) <= 1


@pytest.mark.parametrize("argv", [
    ["list"], ["run", "bell_test", "--bob", "superpose"],
    ["simulate", str(CIRCUITS / "fig2b.circuit")],
    ["sweep", "three_box_shutter", "--random", "2"],
    ["run", "three_box_shutter", "--alphas", "1,1"],
], ids=lambda argv: argv[0])
def test_a_command_word_is_parsed_by_its_own_parser(argv, monkeypatch):
    def unused(*args, **kwargs):
        raise AssertionError("the full parser parsed a command's arguments")

    parser = cli.build_parser()
    monkeypatch.setattr(parser, "parse_args", unused)
    monkeypatch.setattr(parser, "parse_known_args", unused)
    run_cli(argv)


def test_each_command_parser_is_built_once(monkeypatch):
    run_cli(["list"])
    built = []
    original = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting)
    monkeypatch.setenv("ROUTER_SIM_TOL", "1e-6")
    for argv in (["list"], ["run", "bell_test"],
                 ["simulate", str(CIRCUITS / "fig3a.circuit")],
                 ["sweep", "bell_test", "--random", "2"], ["bogus"], []):
        run_cli(argv)
    assert built == []
    parser, commands, _ = cli._parser()
    assert list(commands) == list(cli._COMMANDS)
    assert cli._parser()[1] is commands
    assert all(commands[name].prog == f"router-sim {name}"
               for name in commands)


@pytest.mark.parametrize("argv", [
    ["--alphas", "0.6,0.8,"], ["--alphas", "1,,0"], ["--alphas", " , "],
    ["--alpha1=", "--alpha2=1"], ["--alpha1=0.6", "--alpha2="],
    ["--alpha1= ", "--alpha2=1"],
])
def test_an_empty_coefficient_is_a_usage_error(argv, capsys):
    # An empty field or flag value is no coefficient, not a zero; only an
    # absent --alpha1/--alpha2 reads as 0.
    code, out = run_cli(["run", "three_box_shutter", *argv])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == "error: invalid coefficient ''\n"


@pytest.mark.parametrize("argv", [
    ["--alphas", " 0.6, 0.8i "],
    ["--alpha1", " 0.6", "--alpha2", "0.8i "],
    ["--alpha1= 0.6\t", "--alpha2=\u00a00.8i"],
    ["--alpha2", " 0.8i", "--alpha1", "0.6 "],
    ["--alphas", " equal "],
])
def test_spaces_around_a_coefficient_are_ignored(argv):
    # --alphas and --alpha1/--alpha2 read each coefficient by one rule.
    expected = ["0.6,0.8i", "equal"]["equal" in argv[-1]]
    assert run_cli(["run", "three_box_shutter", *argv]) == run_cli(
        ["run", "three_box_shutter", "--alphas", expected])


def test_a_wrong_coefficient_count_is_a_usage_error(capsys):
    code, out = run_cli(["run", "disappearing_full", "--alphas", "1,0"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert capsys.readouterr().err == (
        "error: expected 5 comma-separated coefficients, got 2\n")


def out_of_memory(*args):
    raise MemoryError


@pytest.mark.parametrize("where", ["sweep", "json"])
@pytest.mark.parametrize("scenario", ["bell_test", "disappearing_full"])
def test_sweep_out_of_memory_exits_3_with_one_line(scenario, where,
                                                   monkeypatch, capsys):
    # A sweep whose points fit but whose evaluation or text does not.
    if where == "sweep":
        entry = replace(scenarios.SCENARIOS[scenario], sweep=out_of_memory)
        monkeypatch.setitem(scenarios.SCENARIOS, scenario, entry)
    else:
        monkeypatch.setattr(cli, "_sweep_text", out_of_memory)
    code, out = run_cli(["sweep", scenario, "--random", "3"])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert capsys.readouterr().err == (
        "error: a sweep of 3 points does not fit in memory\n")


@pytest.fixture(scope="module")
def swept():
    """Each swept scenario's points and arrays, by scenario and options."""
    cache = {}

    def sweep(name, options):
        if (name, options) not in cache:
            args = cli.build_parser().parse_args(["sweep", name, *options])
            points = cli._sweep_points(args, scenarios.SCENARIOS[name].arity)
            cache[name, options] = (points,
                                    scenarios.SCENARIOS[name].sweep(points))
        return cache[name, options]

    return sweep


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("options", [
    ("--random", "1", "--seed", "3"),
    ("--random", "300", "--seed", "5"),
    ("--random", "2000", "--seed", "1"),
    ("--random", "20000", "--seed", "2"),
    ("--alpha1-grid=-1:1:101",),
], ids=["random1", "random300", "random2000", "random20000", "grid101"])
@pytest.mark.parametrize("name", ["three_box_shutter", "disappearing_full",
                                  "stricter_6beam", "bell_test"])
def test_sweep_text_is_the_per_record_text(name, options, fmt, swept):
    # The stacked writer prints what _json_text and csv.writer print from
    # one record dict per point.
    points, arrays = swept(name, options)
    code, out = run_cli(["sweep", name, *options, "--format", fmt])
    assert code == cli.EXIT_OK
    expected = sweep_text(fmt, name, points, arrays)
    assert out == expected + ("\n" if fmt == "json" else "")


def test_sweep_text_of_short_spectra():
    # Spectra of zero to three coefficients in one sweep.
    fields = ("b%s", "a")
    for fmt in ("json", "csv"):
        points = np.array([[1, 0], [0.6, 0.8j], [-1j, 0], [0.6, -0.8]])
        spectra = np.array([[0.5, 0.5, 0], [0, 0, 0], [1, 0, 0],
                            [0.5, 0.25, 0.25]])
        arrays = (fields, np.array([[1, np.nan], [-0.0, np.inf],
                                    [1e16, 1e-5], [0.1, 2.5]]), spectra)
        assert cli._sweep_text(fmt, "x", points, *arrays) == sweep_text(
            fmt, "x", points, arrays)


def test_simulate_non_utf8_file_exits_3_with_one_line(tmp_path, capsys):
    path = tmp_path / "latin1.circuit"
    path.write_bytes("mode A A t1 shutter\nsource A 1 # caf\u00e9\n"
                     .encode("latin-1"))
    code, out = run_cli(["simulate", str(path)])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert_one_line_error(capsys)


def test_alpha1_grid_endpoints_are_kept_exactly():
    code, out = run_cli(
        ["sweep", "disappearing_full", "--alpha1-grid", "-1:1:3"])
    assert code == cli.EXIT_OK
    firsts = [r["alphas"][0] for r in json.loads(out)["records"]]
    assert firsts == [[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]


def test_simulate_compile_error_exits_4_with_one_line(tmp_path, capsys):
    bad = tmp_path / "bad.circuit"
    bad.write_text("mode A A t1 shutter\nmode B B t1 probe_in\nbs 1.5 A B\n")
    code, out = run_cli(["simulate", str(bad)])
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert_one_line_error(capsys)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alphas", ["0,1,0,0,0", "0,0,1,0,0", "0,0,0,0,1"])
def test_postselection_that_never_succeeds_exits_2_with_one_line(alphas,
                                                                 capsys):
    # Prepared without box C, the shutter reaches its post-state only
    # through a router that fires in box A or B; with the probe in a C
    # beam alone none does.
    code, out = run_cli(["run", "disappearing_full", "--perturb",
                         "remove-shutter-C-t2", "--alphas", alphas])
    assert code == cli.EXIT_ASSERTION
    assert out == ""
    assert_one_line_error(capsys)


def test_router_outside_its_sector_exits_2_with_one_line(tmp_path, capsys):
    # Both source photons reach the router's probe pair.
    path = tmp_path / "outside.circuit"
    path.write_text("mode A A t1 probe_in\nmode B B t1 probe_r\n"
                    "mode C C t1 shutter\nsource A 1\nsource B 1\n"
                    "pqr reflect A B C\ndetect d A=1\n")
    code, out = run_cli(["simulate", str(path)])
    assert code == cli.EXIT_ASSERTION
    assert out == ""
    assert_one_line_error(capsys)


@pytest.mark.parametrize("text, warning", [
    ("mode A A t1 shutter\nmode B B t1 probe_in\nsource A 1 B 1\n"
     "detect d A=1\n",
     "line 3: source weights normalized (sum of squares was 2)"),
    ("mode A A t1 shutter\nmode B B t1 probe_in\nmode C C t1 probe_in\n"
     "source A 1\npostselect_state A 1 B 1\ndetect d A=1 C=0\n",
     "line 5: postselect_state weights normalized (sum of squares was 2)"),
], ids=["source", "postselect_state"])
def test_simulate_prints_one_warning_line_per_normalization(
        text, warning, tmp_path, capsys):
    path = tmp_path / "unnormalized.circuit"
    path.write_text(text)
    code, out = run_cli(["simulate", str(path)])
    assert code == cli.EXIT_OK
    assert json.loads(out)["file"] == "unnormalized.circuit"
    assert capsys.readouterr().err == f"warning: {warning}\n"


def test_simulate_reads_past_a_byte_order_mark(tmp_path, capsys):
    text = (CIRCUITS / "fig3b.circuit").read_text()
    (tmp_path / "bom").mkdir()
    (tmp_path / "bom" / "fig3b.circuit").write_bytes(
        b"\xef\xbb\xbf" + text.encode())
    code, out = run_cli(["simulate", str(tmp_path / "bom" / "fig3b.circuit")])
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert out == run_cli(["simulate", str(CIRCUITS / "fig3b.circuit")])[1]


def test_bad_tolerance_env_is_usage_error_of_run_only(monkeypatch, capsys):
    assert run_cli(["run", "disappearing_full"])[0] == cli.EXIT_OK
    monkeypatch.setenv("ROUTER_SIM_TOL", "abc")
    code, out = run_cli(["run", "disappearing_full"])
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert_one_line_error(capsys)
    code, out = run_cli(["list"])
    assert code == cli.EXIT_OK
    assert "disappearing_full" in out
    monkeypatch.delenv("ROUTER_SIM_TOL")
    assert run_cli(["run", "disappearing_full"])[0] == cli.EXIT_OK


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_non_finite_tolerance_is_usage_error(value, monkeypatch, capsys):
    code, out = run_cli(["run", "three_box_shutter", "--tol", value])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert_one_line_error(capsys)
    monkeypatch.setenv("ROUTER_SIM_TOL", value)
    code, out = run_cli(["run", "three_box_shutter"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert_one_line_error(capsys)


@pytest.mark.parametrize("value", ["-1", "-1e-300"])
def test_negative_tolerance_is_usage_error(value, capsys):
    # No run can pass a negative tolerance: a usage error, not an
    # assertion failure after the payload.
    code, out = run_cli(["run", "three_box_shutter", "--tol", value])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert_one_line_error(capsys)


def test_negative_tolerance_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("ROUTER_SIM_TOL", "-1")
    code, out = run_cli(["run", "three_box_shutter"])
    assert (code, out) == (cli.EXIT_USAGE, "")
    assert_one_line_error(capsys)
    # A flag overrides the variable.
    assert run_cli(["run", "three_box_shutter", "--tol", "1e-9"])[0] == (
        cli.EXIT_OK)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_every_unperturbed_run_asserts(scenario, monkeypatch):
    assert run_cli(["run", scenario])[0] == cli.EXIT_OK
    break_certainty(monkeypatch, scenario)
    assert run_cli(["run", scenario])[0] == cli.EXIT_ASSERTION
    # Off by 1/2, so within a tolerance of 0.6.
    assert run_cli(["run", scenario, "--tol", "0.6"])[0] == cli.EXIT_OK


@pytest.mark.parametrize("scenario, options", [
    ("disappearing_full", [("--alphas", "-0.6,0.8,0,0,0")]),
    ("disappearing_full", [("--alphas", "-0.6i,0.8,0,0,0")]),
    ("three_box_shutter", [("--alpha1", "-0.6"), ("--alpha2", "0.8")]),
    ("three_box_shutter", [("--alpha1", "-0.6+0.0i"), ("--alpha2", "-0.8i")]),
])
def test_leading_minus_coefficient_as_own_word(scenario, options):
    spaced = ["run", scenario] + [word for pair in options for word in pair]
    joined = ["run", scenario] + [f"{flag}={value}" for flag, value in options]
    code, out = run_cli(spaced)
    assert code == cli.EXIT_OK
    assert out == run_cli(joined)[1]


def test_commands_reach_scenarios_through_module_names(monkeypatch):
    # Tracing and patching rebind module attributes; the CLI must see them.
    # A run builds its plan once, and so does a compiled sweep of any
    # number of points.
    calls = []
    original = scenarios.build_stricter_6beam

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(scenarios, "build_stricter_6beam", spy)
    run_cli(["run", "stricter_6beam"])
    assert len(calls) == 1
    run_cli(["sweep", "stricter_6beam", "--random", "2"])
    assert len(calls) == 2
