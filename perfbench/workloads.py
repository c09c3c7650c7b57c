"""Inputs of the three benchmark workloads and the checks on their outputs.

Every input is a pure function of the workload seed.  ``build`` writes the
files a workload needs into a directory and returns a ``Workload``: the
argv lists of one pass, in order, and the checks that judge their outputs.
Checks compare with the paper's numbers, with properties the method must
have, or with ``reference`` computations; none of them reads a value the
program computed for an earlier run.

Run as a script to regenerate a workload's inputs into a directory:

    python3 perfbench/workloads.py --workload large-circuits --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import reference  # noqa: E402

TOL = 1e-9
# Probabilities printed by the CLI carry 12 significant digits, which is
# far inside this tolerance.
CIRCUIT_TOL = 1e-10
SQRT3 = math.sqrt(3.0)

WORKLOADS = ("one-shot", "alpha-sweep", "large-circuits")

SHIPPED_CIRCUITS = ("fig2b", "fig3a", "fig3b", "fig4")

# one-shot: scenario -> named perturbations or variants (all of them).
PERTURBATIONS = {
    "three_box_shutter": (),
    "disappearing_full": ("remove-shutter-C-t2", "extra-beam-A-t2",
                          "extra-beam-B-t2"),
    "simplified_3path": ("identity-routers", "wrong-box-t2"),
    "simplest_2path": ("swapped-slots", "vacuum-probe"),
    "absence_test": ("at-t1", "at-t3", "reflect-orientation"),
    "stricter_6beam": ("flip-A-t2", "flip-B-t2"),
}
CERTAINTY_LABEL = {name: "restored" for name in PERTURBATIONS}
CERTAINTY_LABEL["three_box_shutter"] = "reflected"
BELL_SETTINGS = (("open", "open"), ("open", "superpose"),
                 ("superpose", "open"), ("superpose", "superpose"))
# Number of seeded random coefficient vectors per alpha-taking scenario.
RANDOM_ALPHA_RUNS = 2

# alpha-sweep: points per sweep command.
SWEEP_POINTS = 20
BELL_SWEEP_POINTS = 3
GRID_POINTS = 11
ALPHA_ARITY = {"three_box_shutter": 2, "disappearing_full": 5,
               "stricter_6beam": 6, "bell_test": 5}

# large-circuits: size of each generated file.
CIRCUIT_FILES = 12
CIRCUIT_MODES = 24
# Element counts per kind; the order and the modes they act on are seeded.
CIRCUIT_ELEMENTS = {"bs": 42, "ps": 24, "tunnel": 24, "ns": 18, "relabel": 12}
# Modes each source photon is spread over.  Half the modes fill the
# two-photon support within the first elements, so every file does about
# the same work and per-file latency does not hinge on the seed.
SOURCE_WIDTH = 12

# Paper values: ABL probabilities that are certainties, and weak values
# of -1, in the disappearing-reappearing scheme.
PAPER_ABL = {("A", "t1"): 1.0, ("C", "t1"): 1.0, ("A", "t2"): 0.0,
             ("B", "t2"): 0.0, ("C", "t2"): 1.0, ("B", "t3"): 1.0,
             ("C", "t3"): 1.0}
PAPER_WEAK_MINUS_ONE = (("B", "t1"), ("A", "t3"))


@dataclass
class Op:
    """One CLI command of a pass and the number of evaluations it makes."""

    argv: list
    evaluations: int
    check: object  # callable(stdout) -> list of messages

    @property
    def key(self):
        return " ".join(self.argv)


@dataclass
class Workload:
    name: str
    ops: list
    # callable(outputs: {key: stdout}) -> list of (key, message)
    group_checks: list = field(default_factory=list)
    description: dict = field(default_factory=dict)

    def check(self, outputs):
        """Messages per op key, for the first stdout of every op."""
        errors = {}
        for op in self.ops:
            out = outputs.get(op.key)
            if out is None:
                continue
            try:
                msgs = op.check(out)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                msgs = [f"unreadable output: {exc!r}"]
            for msg in msgs:
                errors.setdefault(op.key, []).append(msg)
        for group in self.group_checks:
            try:
                found = group(outputs)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                found = [(key, f"unreadable output: {exc!r}")
                         for key in group.keys]
            for key, msg in found:
                errors.setdefault(key, []).append(msg)
        return errors


def _rng(seed, tag):
    return np.random.default_rng([int(seed), sum(map(ord, tag))])


def render_weight(value):
    value = complex(value)
    sign = "+" if value.imag >= 0 else "-"
    return f"{value.real!r}{sign}{abs(value.imag)!r}i"


def _random_unit(rng, k):
    vec = rng.normal(size=k) + 1j * rng.normal(size=k)
    return vec / np.linalg.norm(vec)


def _close(a, b, tol=TOL):
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# one-shot
# ---------------------------------------------------------------------------

def _tsvf_expectations():
    pre3 = np.array([1, 1, 1]) / SQRT3
    post3 = np.array([1, 1, -1]) / SQRT3
    three_box = {(box, "t"): v for box, v in
                 reference.shutter_tsvf(pre3, post3, [], 0).items()}
    step = reference.embed_tunnel(math.pi / 4)
    pre = np.array([1, 1j, 1]) / SQRT3
    post = np.array([-1, -1j, 1]) / SQRT3
    disappearing = {}
    for k, time in enumerate(("t1", "t2", "t3")):
        for box, v in reference.shutter_tsvf(pre, post, [step, step], k).items():
            disappearing[(box, time)] = v
    return {"three_box_shutter": three_box, "disappearing_full": disappearing}


def _check_alphas(payload, alphas):
    if alphas is None:
        return []
    got = [complex(re, im) for re, im in payload["parameters"]["alphas"]]
    if len(got) != len(alphas) or not all(
        _close(g, a, 1e-11) for g, a in zip(got, alphas)
    ):
        return [f"parameters.alphas {got} do not match the inputs"]
    return []


def _check_schmidt(spectrum):
    msgs = []
    if not _close(sum(spectrum), 1.0):
        msgs.append(f"Schmidt spectrum sums to {sum(spectrum)!r}")
    if any(b > a + 1e-12 for a, b in zip(spectrum, spectrum[1:])):
        msgs.append(f"Schmidt spectrum not descending: {spectrum}")
    return msgs


def _run_check(scenario, perturbation, alphas, tsvf_expect):
    label = CERTAINTY_LABEL[scenario]

    def check(stdout):
        payload = json.loads(stdout)
        probs = {o["label"]: o["probability"] for o in payload["outcomes"]}
        msgs = _check_alphas(payload, alphas)
        success = probs["postselection_success"]
        given = probs[f"{label}_given_postselection"]
        parts = (probs[f"postselected_and_{label}"]
                 + probs[f"postselected_not_{label}"]
                 + probs["postselection_failed"])
        if not _close(parts, 1.0):
            msgs.append(f"outcome partition sums to {parts!r}")
        if not _close(probs[f"postselected_and_{label}"], success * given):
            msgs.append("joint outcome is not success x conditional")
        if perturbation is None:
            if not _close(given, 1.0):
                msgs.append(f"{label}_given_postselection = {given!r}, not 1")
            if not _close(success, 1 / 9):
                msgs.append(f"postselection_success = {success!r}, not 1/9")
            fid = payload["conditioned_fidelity"]
            if fid is not None and not _close(fid, 1.0):
                msgs.append(f"conditioned fidelity {fid!r}, not 1")
        elif not given < 1.0 - 1e-6:
            msgs.append(f"perturbed {label}_given_postselection = {given!r}")
        msgs += _check_schmidt(payload["schmidt"])
        expect = tsvf_expect.get(scenario) if perturbation is None else None
        if expect is not None:
            msgs += _check_tsvf(payload, expect, scenario)
        return msgs

    return check


def _check_tsvf(payload, expect, scenario):
    msgs = []
    abl = {(e["box"], e["time"]): e["p"] for e in payload["abl"]}
    weak = {(e["box"], e["time"]): complex(e["re"], e["im"])
            for e in payload["weak_values"]}
    if set(abl) != set(expect) or set(weak) != set(expect):
        return [f"TSVF entries {sorted(abl)} differ from {sorted(expect)}"]
    for key, (p, w) in expect.items():
        if not _close(abl[key], p):
            msgs.append(f"ABL{key} = {abl[key]!r}, expected {p:.12g}")
        if not _close(weak[key], w):
            msgs.append(f"weak value{key} = {weak[key]}, expected {w}")
    if scenario == "disappearing_full":
        for key, p in PAPER_ABL.items():
            if not _close(abl[key], p):
                msgs.append(f"ABL{key} = {abl[key]!r}, paper gives {p}")
        for key in PAPER_WEAK_MINUS_ONE:
            if not _close(weak[key], -1):
                msgs.append(f"weak value{key} = {weak[key]}, paper gives -1")
        for time in ("t1", "t2", "t3"):
            total = weak[("A", time)] + weak[("B", time)]
            if not _close(total, 0):
                msgs.append(f"A+B weak values at {time} sum to {total}")
    return msgs


def _bell_table(stdout):
    payload = json.loads(stdout)
    table = {}
    for o in payload["outcomes"]:
        alice, bob = o["label"].split("|")
        table[(alice.split("=", 1)[1], bob.split("=", 1)[1])] = o["probability"]
    return payload, table


def _bell_check(alphas):
    def check(stdout):
        payload, table = _bell_table(stdout)
        msgs = _check_alphas(payload, alphas)
        total = sum(table.values())
        if not _close(total, 1.0):
            msgs.append(f"Bell table sums to {total!r}")
        if any(p < 0 for p in table.values()):
            msgs.append("negative Bell table entry")
        msgs += _check_schmidt(payload["schmidt"])
        return msgs

    return check


def _marginal(table, side):
    out = {}
    for (a, b), p in table.items():
        key = a if side == 0 else b
        out[key] = out.get(key, 0.0) + p
    return out


def _bell_group_check(keys):
    """No-signaling and Tsirelson bounds from the four settings' tables."""

    def check(outputs):
        tables = {s: _bell_table(outputs[keys[s]])[1] for s in BELL_SETTINGS}
        gap = 0.0
        for mine, side, others in (("open", 0, ("open", "superpose")),
                                   ("superpose", 0, ("open", "superpose")),
                                   ("open", 1, ("open", "superpose")),
                                   ("superpose", 1, ("open", "superpose"))):
            pair = [
                _marginal(tables[(mine, o) if side == 0 else (o, mine)], side)
                for o in others
            ]
            for label in set(pair[0]) | set(pair[1]):
                gap = max(gap, abs(pair[0].get(label, 0.0)
                                   - pair[1].get(label, 0.0)))
        correlations = {}
        for (a_set, b_set), table in tables.items():
            def sign(label, setting, plus):
                if setting == "superpose":
                    return 1.0 if label == "match" else -1.0
                return 1.0 if label in plus else -1.0
            total = sum(table.values())
            correlations[(a_set, b_set)] = sum(
                sign(a, a_set, ("B",)) * sign(b, b_set, ("RA1", "RB3")) * p
                for (a, b), p in table.items()
            ) / total
        chsh = (correlations[("open", "open")]
                + correlations[("open", "superpose")]
                + correlations[("superpose", "open")]
                - correlations[("superpose", "superpose")])
        msgs = []
        if not gap <= 1e-10:
            msgs.append(f"no-signaling gap {gap:.3e} from the four tables")
        if not abs(chsh) <= 2 * math.sqrt(2) + TOL:
            msgs.append(f"|CHSH| = {abs(chsh)!r} exceeds 2*sqrt(2)")
        return [(keys[s], m) for s in BELL_SETTINGS for m in msgs]

    check.keys = list(keys.values())
    return check


def _shipped_check(fmt):
    def check(stdout):
        msgs = []
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(stdout)))[1:]
            conditionals = [float(p) for label, p in rows if "|postselect" in label]
            if not conditionals:
                msgs.append("no conditional detection rows")
            for p in conditionals:
                if not _close(p, 1.0):
                    msgs.append(f"conditional detection {p!r}, not 1")
            return msgs
        payload = json.loads(stdout)
        for post in payload["postselections"]:
            if not _close(post["probability"], 1 / 9):
                msgs.append(f"post-selection {post['probability']!r}, not 1/9")
        for det in payload["detections"]:
            for p in det["conditional"]:
                if not _close(p, 1.0):
                    msgs.append(f"conditional detection {p!r}, not 1")
        return msgs

    return check


def _copy_shipped(root, outdir):
    paths = []
    for name in SHIPPED_CIRCUITS:
        src = os.path.join(root, "src", "router_sim", "circuits", f"{name}.circuit")
        dst = os.path.join(outdir, f"{name}.circuit")
        shutil.copyfile(src, dst)
        paths.append(dst)
    return paths


def build_one_shot(seed, root, outdir):
    tsvf_expect = _tsvf_expectations()
    ops = []
    for scenario, perturbations in PERTURBATIONS.items():
        for perturbation in (None,) + perturbations:
            argv = ["run", scenario]
            if perturbation is not None:
                argv += ["--perturb", perturbation]
            ops.append(Op(argv, 1, _run_check(scenario, perturbation, None,
                                               tsvf_expect)))
    group_checks = []
    bell_alphas = [None, _random_unit(_rng(seed, "bell"), 5)]
    for alphas in bell_alphas:
        keys = {}
        for alice, bob in BELL_SETTINGS:
            argv = ["run", "bell_test", "--alice", alice, "--bob", bob]
            if alphas is not None:
                argv.append("--alphas=" + ",".join(map(render_weight, alphas)))
            op = Op(argv, 1, _bell_check(alphas))
            ops.append(op)
            keys[(alice, bob)] = op.key
        group_checks.append(_bell_group_check(keys))
    for scenario in ("three_box_shutter", "disappearing_full", "stricter_6beam"):
        rng = _rng(seed, scenario)
        for _ in range(RANDOM_ALPHA_RUNS):
            alphas = _random_unit(rng, ALPHA_ARITY[scenario])
            if scenario == "three_box_shutter":
                argv = ["run", scenario,
                        "--alpha1=" + render_weight(alphas[0]),
                        "--alpha2=" + render_weight(alphas[1])]
            else:
                argv = ["run", scenario,
                        "--alphas=" + ",".join(map(render_weight, alphas))]
            ops.append(Op(argv, 1, _run_check(scenario, None, list(alphas),
                                               tsvf_expect)))
    for path in _copy_shipped(root, outdir):
        for fmt in ("json", "csv"):
            ops.append(Op(["simulate", path, "--format", fmt], 1,
                          _shipped_check(fmt)))
    return Workload("one-shot", ops, group_checks,
                    {"commands per pass": len(ops)})


# ---------------------------------------------------------------------------
# alpha-sweep
# ---------------------------------------------------------------------------

def sweep_random_points(scenario, count, sweep_seed):
    """The points ``router-sim sweep --random`` documents: normalized
    complex Gaussian vectors from numpy's default_rng(seed)."""
    rng = np.random.default_rng(sweep_seed)
    arity = ALPHA_ARITY[scenario]
    points = []
    for _ in range(count):
        vec = rng.normal(size=arity) + 1j * rng.normal(size=arity)
        points.append(vec / np.linalg.norm(vec))
    return points


def sweep_grid_points(scenario, start, stop, count):
    """The points ``--alpha1-grid start:stop:count`` documents: alpha1 on a
    linear grid, the remaining weight spread evenly and real."""
    arity = ALPHA_ARITY[scenario]
    points = []
    for a1 in np.linspace(start, stop, count):
        a1 = min(max(a1, -1.0), 1.0)
        rest = math.sqrt(max(0.0, 1.0 - a1 * a1) / (arity - 1))
        vec = np.full(arity, rest, dtype=complex)
        vec[0] = a1
        points.append(vec)
    return points


def _sweep_check(scenario, points):
    label = CERTAINTY_LABEL.get(scenario)

    def check(stdout):
        payload = json.loads(stdout)
        records = payload["records"]
        msgs = []
        if payload["scenario"] != scenario or len(records) != len(points):
            return [f"expected {len(points)} {scenario} records"]
        for i, (record, point) in enumerate(zip(records, points)):
            where = f"record {i}: "
            if record["index"] != i:
                msgs.append(where + "index out of order")
            got = [complex(re, im) for re, im in record["alphas"]]
            if not all(_close(g, p, 1e-11) for g, p in zip(got, point)):
                msgs.append(where + "alphas differ from the seeded points")
            summary = record["summary"]
            msgs += [where + m for m in _check_schmidt(record["schmidt"])]
            if scenario == "bell_test":
                if not summary["no_signaling_gap"] <= 1e-10:
                    msgs.append(where + "no-signaling gap "
                                f"{summary['no_signaling_gap']!r}")
                if not abs(summary["chsh"]) <= 2 * math.sqrt(2) + TOL:
                    msgs.append(where + f"|CHSH| {summary['chsh']!r}")
                continue
            if not _close(summary[f"{label}_given_postselection"], 1.0):
                msgs.append(where + f"{label}_given_postselection = "
                            f"{summary[label + '_given_postselection']!r}")
            if not _close(summary["fidelity"], 1.0):
                msgs.append(where + f"fidelity {summary['fidelity']!r}")
            if not _close(summary["postselection_success"], 1 / 9):
                msgs.append(where + "postselection_success "
                            f"{summary['postselection_success']!r}")
        return msgs

    return check


def build_alpha_sweep(seed, root, outdir):
    ops = []
    for k, (scenario, count) in enumerate((
        ("disappearing_full", SWEEP_POINTS),
        ("stricter_6beam", SWEEP_POINTS),
        ("three_box_shutter", SWEEP_POINTS),
        ("bell_test", BELL_SWEEP_POINTS),
    )):
        sweep_seed = int(seed) * 10 + k
        points = sweep_random_points(scenario, count, sweep_seed)
        argv = ["sweep", scenario, "--random", str(count),
                "--seed", str(sweep_seed)]
        ops.append(Op(argv, count, _sweep_check(scenario, points)))
    rng = _rng(seed, "grid")
    start = round(float(rng.uniform(-1.0, -0.5)), 6)
    stop = round(float(rng.uniform(0.5, 1.0)), 6)
    points = sweep_grid_points("disappearing_full", start, stop, GRID_POINTS)
    argv = ["sweep", "disappearing_full",
            f"--alpha1-grid={start!r}:{stop!r}:{GRID_POINTS}"]
    ops.append(Op(argv, GRID_POINTS, _sweep_check("disappearing_full", points)))
    return Workload("alpha-sweep", ops, [], {
        "commands per pass": len(ops),
        "evaluations per pass": sum(op.evaluations for op in ops),
    })


# ---------------------------------------------------------------------------
# large-circuits
# ---------------------------------------------------------------------------

def generate_circuit(rng, n_modes=CIRCUIT_MODES, counts=CIRCUIT_ELEMENTS,
                     width=SOURCE_WIDTH):
    """One random two-photon circuit as (text, reference inputs)."""
    names = [f"M{i:02d}" for i in range(n_modes)]
    sources = []
    for _ in range(2):
        picks = rng.choice(n_modes, size=width, replace=False)
        weights = _random_unit(rng, width)
        sources.append({names[int(i)]: complex(w) for i, w in zip(picks, weights)})
    # A leading layer of beamsplitters on a random perfect matching uses
    # every mode and spreads both photons early.
    perm = rng.permutation(n_modes)
    elements = [("bs", (round(float(rng.uniform(0.2, 0.8)), 9),),
                 (names[int(perm[i])], names[int(perm[i + 1])]))
                for i in range(0, n_modes - 1, 2)]
    remaining = dict(counts, bs=counts["bs"] - len(elements))
    kinds = [kind for kind, n in remaining.items() for _ in range(n)]
    rng.shuffle(kinds)
    for kind in kinds:
        a, b = (names[int(x)] for x in rng.choice(n_modes, size=2, replace=False))
        if kind == "bs":
            elements.append(("bs", (round(float(rng.uniform(0.05, 0.95)), 9),), (a, b)))
        elif kind == "tunnel":
            elements.append(("tunnel", (round(float(rng.uniform(0.0, math.pi)), 9),), (a, b)))
        elif kind == "ps":
            elements.append(("ps", (round(float(rng.uniform(-math.pi, math.pi)), 9),), (a,)))
        elif kind == "ns":
            elements.append(("ns", (), (a,)))
        else:
            elements.append(("relabel", (), (a, b)))
    picks = [names[int(i)] for i in rng.choice(n_modes, size=9, replace=False)]
    state_weights = _random_unit(rng, 3)
    postselects = [
        ("pattern", {picks[0]: 1}),
        ("state", [(m, complex(w)) for m, w in zip(picks[1:4], state_weights)]),
    ]
    detects = [
        ("coinc", {picks[4]: 1, picks[5]: 1}),
        ("bunch", {picks[6]: 2}),
        ("single", {picks[7]: 1}),
        ("pair", {picks[1]: 1, picks[8]: 1}),
    ]

    lines = [f"# generated two-photon circuit, {n_modes} modes, "
             f"{len(elements)} elements"]
    lines += [f"mode {m} aux none internal" for m in names]
    for src in sources:
        lines.append("source " + " ".join(
            f"{m} {render_weight(w)}" for m, w in src.items()))
    for op, params, modes in elements:
        lines.append(" ".join([op] + [repr(p) for p in params] + list(modes)))
    for kind, payload in postselects:
        if kind == "pattern":
            lines.append("postselect " + " ".join(
                f"{m}={c}" for m, c in payload.items()))
        else:
            lines.append("postselect_state " + " ".join(
                f"{m} {render_weight(w)}" for m, w in payload))
    for name, pattern in detects:
        lines.append(f"detect {name} " + " ".join(
            f"{m}={c}" for m, c in pattern.items()))
    return "\n".join(lines) + "\n", (names, sources, elements, postselects, detects)


def _circuit_check(expected):
    post_probs, detections = expected

    def check(stdout):
        payload = json.loads(stdout)
        msgs = []
        got_posts = [p["probability"] for p in payload["postselections"]]
        if len(got_posts) != len(post_probs):
            return ["wrong number of post-selections"]
        for i, (got, want) in enumerate(zip(got_posts, post_probs)):
            if not _close(got, want, CIRCUIT_TOL):
                msgs.append(f"post-selection {i}: {got!r} vs reference {want!r}")
        if len(payload["detections"]) != len(detections):
            return msgs + ["wrong number of detections"]
        for det, (name, want, want_cond) in zip(payload["detections"], detections):
            if det["name"] != name:
                msgs.append(f"detection {det['name']!r} where {name!r} expected")
            if not _close(det["probability"], want, CIRCUIT_TOL):
                msgs.append(f"{name}: {det['probability']!r} vs reference {want!r}")
            for i, (got, w) in enumerate(zip(det["conditional"], want_cond)):
                if not _close(got, w, CIRCUIT_TOL):
                    msgs.append(f"{name}|post{i}: {got!r} vs reference {w!r}")
        return msgs

    return check


def build_large_circuits(seed, root, outdir):
    rng = _rng(seed, "circuits")
    reference.self_check(_rng(seed, "reference"))
    ops = []
    supports = []
    for k in range(CIRCUIT_FILES):
        text, (names, sources, elements, posts, detects) = generate_circuit(rng)
        path = os.path.join(outdir, f"gen{k:02d}.circuit")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        ref = reference.TwoPhotonCircuit(names, sources, elements)
        if abs(ref.norm() - 1.0) > 1e-12:
            raise AssertionError(f"reference norm {ref.norm()} on {path}")
        supports.append(sum(1 for a in ref.amplitudes().values()
                            if abs(a) >= 1e-14))
        ops.append(Op(["simulate", path], 1,
                      _circuit_check(ref.report(posts, detects))))
    return Workload("large-circuits", ops, [], {
        "commands per pass": len(ops),
        "modes": CIRCUIT_MODES,
        "elements": sum(CIRCUIT_ELEMENTS.values()),
        "photons": 2,
        "final support": supports,
    })


BUILDERS = {
    "one-shot": build_one_shot,
    "alpha-sweep": build_alpha_sweep,
    "large-circuits": build_large_circuits,
}


def build(name, seed, root, outdir):
    return BUILDERS[name](seed, root, outdir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write into")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(args.out, exist_ok=True)
    workload = build(args.workload, args.seed, root, os.path.abspath(args.out))
    with open(os.path.join(args.out, "commands.txt"), "w", encoding="utf-8") as fh:
        for op in workload.ops:
            fh.write("router-sim " + " ".join(op.argv) + "\n")
    print(json.dumps(workload.description))
    return 0


if __name__ == "__main__":
    sys.exit(main())
