"""What a fresh process loads: parsing the command line, its help and its
usage errors need neither numpy nor the engine, which the first command
that evaluates loads; the package's names resolve on first use."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import router_sim
from router_sim import cli, dsl, elements, errors, fock, tsvf

ENGINE = ["numpy", "router_sim.dsl", "router_sim.elements", "router_sim.fock",
          "router_sim.scenarios", "router_sim.tsvf"]

# In a fresh interpreter: run the statement, then print the exit code it
# gave (None for a value that is not one) and the engine modules loaded.
PROBE = """
import contextlib, io, json, sys
from router_sim import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    try:
        code = {statement}
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code if isinstance(code, int) else None,
                  [name for name in {engine!r} if name in sys.modules]]))
"""


def fresh(code, extra_env=None):
    """The stdout of ``python -W error -c code`` with this package first
    on the path."""
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(router_sim.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True,
                          check=True).stdout


def loaded_by(statement):
    return json.loads(fresh(PROBE.format(statement=statement, engine=ENGINE)))


@pytest.mark.parametrize("statement, code", [
    ("cli.build_parser()", None),
    ('cli.main(["--help"])', cli.EXIT_OK),
    ('cli.main(["run", "--help"])', cli.EXIT_OK),
    ('cli.main(["bogus"])', cli.EXIT_USAGE),
    ('cli.main(["run"])', cli.EXIT_USAGE),
    ("cli.main([])", cli.EXIT_USAGE),
])
def test_parsing_loads_no_engine(statement, code):
    assert loaded_by(statement) == [code, []]


def test_a_command_loads_the_whole_engine():
    # simulate reads no scenario, but the layer trace wraps scenarios too.
    assert loaded_by('cli.main(["list"])') == [cli.EXIT_OK, ENGINE]
    circuit = Path(router_sim.__file__).parent / "circuits" / "fig3b.circuit"
    assert loaded_by(f'cli.main(["simulate", {str(circuit)!r}])') == [
        cli.EXIT_OK, ENGINE]


# The names the package imported from its modules when it loaded them all.
OLD_EXPORTS = {
    elements: "Element ElementKind RouterOrientation apply_element "
              "apply_schedule beamsplitter ns_single ns_two_mode "
              "phase_shifter pqr_decomposed pqr_ideal relabel tunneling",
    fock: "FockState ProjectionOutcome apply_fock_phase apply_mode_unitary "
          "fidelity inner_product postselect_subsystem project_pattern "
          "register_modes schmidt_spectrum superposition_source",
    tsvf: "ProjectorSpec TwoStateSpec abl_probability disappearing_spec "
          "postselection_success three_box_spec weak_value",
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in OLD_EXPORTS.items()
    for name in names.split()])
def test_every_old_export_resolves_to_its_object(module, name):
    assert getattr(router_sim, name) is getattr(module, name)
    namespace = {}
    exec(f"from router_sim import {name}", namespace)
    assert namespace[name] is getattr(module, name)


def test_unknown_names_and_moved_errors():
    assert router_sim.errors is errors and router_sim.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="'router_sim' has no attribute"):
        router_sim.simulate_text
    assert dsl.ParseError is errors.ParseError


def test_a_fresh_package_import_loads_no_engine():
    assert json.loads(fresh(
        "import json, sys, router_sim; print(json.dumps("
        f"[name for name in {ENGINE!r} if name in sys.modules]))")) == []


@pytest.mark.parametrize("given, seen", [(None, "1"), ("3", "3")])
def test_the_console_command_starts_one_blas_thread_unless_told(given, seen):
    code = ("import os, sys; from router_sim import cli; "
            "sys.argv = ['router-sim', 'list']; code = cli.console(); "
            "print(code, os.environ['OPENBLAS_NUM_THREADS'])")
    if given is None:
        code = "import os; os.environ.pop('OPENBLAS_NUM_THREADS', None); " + code
    env = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    assert fresh(code, env).splitlines()[-1] == f"0 {seen}"


def test_main_in_process_leaves_the_environment_alone():
    before = dict(os.environ)
    for argv in (["list"], ["run", "three_box_shutter"], ["bogus"]):
        cli.main(argv, io.StringIO())
    assert dict(os.environ) == before
