"""The per-point sweep path, kept as the reference of the stacked one.

A sweep once built one record dict per point and wrote them through
``cli._json_text`` or ``csv.writer``, and it summarized each Bell state
with four dict tables, a no-signaling gap and a CHSH value of its own.
``router-sim sweep`` now keeps the whole sweep in arrays from the
scenarios to the text (``cli._sweep_text``, ``scenarios._bell_report``).
The functions here are the dict path, so that tests can hold the stacked
path to it bit for bit and byte for byte.
"""

import csv
import io
import math

import numpy as np

from router_sim import cli, dsl, scenarios
from router_sim.fock import PRUNE_EPSILON

OPEN_BOXES, OPEN_CAVITIES = scenarios.OPEN_BOXES, scenarios.OPEN_CAVITIES
SUPERPOSE = scenarios.SUPERPOSE
SETTINGS = [(a, b) for a in (OPEN_BOXES, SUPERPOSE)
            for b in (OPEN_CAVITIES, SUPERPOSE)]


def records(fields, values, spectra):
    """The ``(summary dict, Schmidt spectrum list)`` record of each point
    of the arrays a ``Scenario.sweep`` returns.  Each spectrum row must be
    its coefficients, largest first, and then zeros only."""
    assert values.shape == (len(spectra), len(fields))
    out = []
    for row, spectrum in zip(values.tolist(), spectra.tolist()):
        kept = [s for s in spectrum if s > 0]
        assert spectrum == kept + [0.0] * (len(spectrum) - len(kept))
        assert kept == sorted(kept, reverse=True)
        out.append((dict(zip(fields, row)), kept))
    return out


def sweep_text(fmt, scenario, points, swept):
    """The text ``router-sim sweep`` wrote from per-point record dicts:
    ``cli._json_text`` of the document (without its final newline), or the
    ``csv.writer`` rows with the summary columns in name order."""
    rows = [
        {"index": index, "alphas": [complex(a) for a in point],
         "summary": summary, "schmidt": schmidt}
        for index, (point, (summary, schmidt))
        in enumerate(zip(points, records(*swept)))
    ]
    if fmt == "json":
        return cli._json_text({"scenario": scenario, "records": rows})
    stream = io.StringIO()
    writer = csv.writer(stream)
    keys = sorted(rows[0]["summary"]) if rows else []
    writer.writerow(["index", "alphas"] + keys + ["schmidt"])
    for row in rows:
        writer.writerow(
            [row["index"], ";".join(map(dsl.render_weight, row["alphas"]))]
            + [f"{row['summary'][k]:.12g}" for k in keys]
            + [";".join(f"{s:.12g}" for s in row["schmidt"])]
        )
    return stream.getvalue()


def bell_table(state, alice_setting, bob_setting):
    """Clamped joint probability table of one setting pair on one (3, 5)
    Bell state, as a dict in table order."""
    alice = scenarios._alice_superposition()
    bob = np.full(len(scenarios._CAVITIES), 1 / math.sqrt(5))
    probs = np.abs(state) ** 2
    if alice_setting == OPEN_BOXES and bob_setting == OPEN_CAVITIES:
        table = {(box, cavity): probs[s, c]
                 for s, box in enumerate("ABC")
                 for c, cavity in enumerate(scenarios._CAVITIES)}
    elif alice_setting == OPEN_BOXES:
        p_match = np.abs(state @ bob) ** 2
        table = {}
        for box, p_box, p in zip("ABC", probs.sum(axis=1), p_match):
            table[(box, "match")] = p
            table[(box, "rest")] = p_box - p
    elif bob_setting == OPEN_CAVITIES:
        p_match = np.abs(alice @ state) ** 2
        table = {}
        for cavity, p_cavity, p in zip(scenarios._CAVITIES,
                                       probs.sum(axis=0), p_match):
            table[("match", cavity)] = p
            table[("rest", cavity)] = p_cavity - p
    else:
        bob_given_alice = alice @ state
        p_alice = np.sum(np.abs(bob_given_alice) ** 2)
        p_bob = np.sum(np.abs(state @ bob) ** 2)
        p_both = abs(bob_given_alice @ bob) ** 2
        table = {
            ("match", "match"): p_both,
            ("match", "rest"): p_alice - p_both,
            ("rest", "match"): p_bob - p_both,
            ("rest", "rest"): 1.0 - p_alice - p_bob + p_both,
        }
    return {k: max(float(v), 0.0) for k, v in table.items()}


def no_signaling_gap(tables):
    """Largest change of one side's marginal as the other side switches."""
    gap = 0.0
    for a_setting in (OPEN_BOXES, SUPERPOSE):
        m0 = scenarios.bell_marginals(tables[(a_setting, OPEN_CAVITIES)],
                                      "alice")
        m1 = scenarios.bell_marginals(tables[(a_setting, SUPERPOSE)], "alice")
        for key in set(m0) | set(m1):
            gap = max(gap, abs(m0.get(key, 0.0) - m1.get(key, 0.0)))
    for b_setting in (OPEN_CAVITIES, SUPERPOSE):
        m0 = scenarios.bell_marginals(tables[(OPEN_BOXES, b_setting)], "bob")
        m1 = scenarios.bell_marginals(tables[(SUPERPOSE, b_setting)], "bob")
        for key in set(m0) | set(m1):
            gap = max(gap, abs(m0.get(key, 0.0) - m1.get(key, 0.0)))
    return gap


def chsh(tables):
    """E00 + E01 + E10 - E11: position settings +1 on box B and cavities
    RA1 and RB3, SUPERPOSE +1 on "match"."""
    alice = ((OPEN_BOXES, ("B",)), (SUPERPOSE, ("match",)))
    bob = ((OPEN_CAVITIES, ("RA1", "RB3")), (SUPERPOSE, ("match",)))
    value = 0.0
    for i, (a_setting, a_plus) in enumerate(alice):
        for j, (b_setting, b_plus) in enumerate(bob):
            table = tables[(a_setting, b_setting)]
            e = sum((1.0 if a in a_plus else -1.0)
                    * (1.0 if b in b_plus else -1.0) * p
                    for (a, b), p in table.items())
            value += (-1.0 if i == j == 1 else 1.0) * e / sum(table.values())
    return value


def bell_report(state):
    """The four tables, the summary and the Schmidt spectrum of one Bell
    state, computed one state at a time."""
    tables = {pair: bell_table(state, *pair) for pair in SETTINGS}
    summary = {"no_signaling_gap": no_signaling_gap(tables),
               "chsh": chsh(tables)}
    singular = np.linalg.svd(state, compute_uv=False)
    spectrum = [float(s) ** 2 for s in singular if s**2 > PRUNE_EPSILON]
    return tables, summary, spectrum
