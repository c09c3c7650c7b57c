"""Byte-for-byte CLI outputs, pinned against files in ``tests/golden/``.

Each case is one argv; its stdout is stored in ``golden/<id>.out`` and its
exit code in ``golden/exit_codes.json``.  The files were written by the
code before the scenario registry replaced the CLI's per-scenario tables,
so this test is the gate for "the refactor changed no output byte".
Regenerate deliberately, after checking that a difference is intended:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import io
import json
import sys
from pathlib import Path

import pytest

import router_sim
from router_sim import cli

GOLDEN = Path(__file__).parent / "golden"
# Circuit paths in a case's argv are placeholders, so the cases also serve
# an installed ``router-sim`` run from the repository root.
PLACEHOLDERS = {
    "{circuits}": str(Path(router_sim.__file__).parent / "circuits"),
    "{test_circuits}": str(Path(__file__).parent / "circuits"),
}

_PERTURBATIONS = {
    "three_box_shutter": (),
    "disappearing_full": ("remove-shutter-C-t2", "extra-beam-A-t2",
                          "extra-beam-B-t2"),
    "simplified_3path": ("identity-routers", "wrong-box-t2"),
    "simplest_2path": ("swapped-slots", "vacuum-probe"),
    "absence_test": ("at-t1", "at-t3", "reflect-orientation"),
    "stricter_6beam": ("flip-A-t2", "flip-B-t2"),
    "bell_test": (),
}


def _cases():
    cases = {}
    for fmt in ("json", "csv"):
        for scenario, perturbations in _PERTURBATIONS.items():
            cases[f"run-{scenario}-{fmt}"] = [
                "run", scenario, "--format", fmt]
            for p in perturbations:
                cases[f"run-{scenario}-{p}-{fmt}"] = [
                    "run", scenario, "--perturb", p, "--format", fmt]
        for alice in ("open", "superpose"):
            for bob in ("open", "superpose"):
                cases[f"run-bell_test-{alice}-{bob}-{fmt}"] = [
                    "run", "bell_test", "--alice", alice, "--bob", bob,
                    "--format", fmt]
        for name in ("fig2b", "fig3a", "fig3b", "fig4"):
            cases[f"simulate-{name}-{fmt}"] = [
                "simulate", f"{{circuits}}/{name}.circuit", "--format", fmt]
        # 24 modes and 120 elements, written by
        # `perfbench/workloads.py --workload large-circuits --seed 1`.
        cases[f"simulate-gen24-{fmt}"] = [
            "simulate", "{test_circuits}/gen00.circuit", "--format", fmt]
    cases["sweep-disappearing_full-random20-seed7"] = [
        "sweep", "disappearing_full", "--random", "20", "--seed", "7"]
    cases["sweep-stricter_6beam-random5-seed9"] = [
        "sweep", "stricter_6beam", "--random", "5", "--seed", "9"]
    cases["sweep-bell_test-grid0-1-5"] = [
        "sweep", "bell_test", "--alpha1-grid", "0:1:5"]
    cases["sweep-disappearing_full-random20-seed7-csv"] = [
        "sweep", "disappearing_full", "--random", "20", "--seed", "7",
        "--format", "csv"]
    cases["sweep-bell_test-random5-seed3-csv"] = [
        "sweep", "bell_test", "--random", "5", "--seed", "3",
        "--format", "csv"]
    cases["sweep-three_box_shutter-grid-1-1-9"] = [
        "sweep", "three_box_shutter", "--alpha1-grid=-1:1:9"]
    cases["sweep-bell_test-random7-seed2"] = [
        "sweep", "bell_test", "--random", "7", "--seed", "2"]
    cases["list"] = ["list"]
    return cases


CASES = _cases()


def resolve(argv):
    """``argv`` with its circuit placeholders replaced by paths."""
    resolved = []
    for a in argv:
        for placeholder, path in PLACEHOLDERS.items():
            a = a.replace(placeholder, path)
        resolved.append(a)
    return resolved


def _run(argv):
    argv = resolve(argv)
    stream = io.StringIO()
    code = cli.main(argv, stream=stream)
    return code, stream.getvalue()


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((GOLDEN / "exit_codes.json").read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, exit_codes):
    code, out = _run(CASES[case])
    expected = (GOLDEN / f"{case}.out").read_bytes().decode("utf-8")
    assert out == expected
    assert code == exit_codes[case]


def _regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case, argv in sorted(CASES.items()):
        codes[case], out = _run(argv)
        (GOLDEN / f"{case}.out").write_bytes(out.encode("utf-8"))
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    _regenerate()
