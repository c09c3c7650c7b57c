"""The block steps of a scenario run as they were before routers were
fused, kept as the reference of the fused ones.

A plan's program held each router as a swap of two columns in its control
box's row, applied by a fancy-index assignment, one router after another;
``_measure`` post-selected the blocks ahead of the merge and the merged
blocks in two passes; and ``unitary_with_first_row`` built the columns
that complete a row from ``arange`` and a compare against the row's
largest entry.  The functions here are those steps, so that tests can
hold the code that replaced them to them bit for bit.
"""

import numpy as np

from router_sim.elements import ElementKind, tunnel_matrix
from router_sim.errors import UndefinedConditioning, UnsupportedSector
from router_sim.fock import (
    CONDITION_EPSILON,
    Sectors,
    normalized_rows,
    pruned,
    row_norms,
    running_sum,
    spectra_of,
)
from router_sim.scenarios import SQRT2, _clamp, _summary_fields


def unitary_with_first_row(rows):
    """``scenarios.unitary_with_first_row`` with its completion columns
    filled by a fancy index from ``arange`` and an argmax compare."""
    n, k = rows.shape
    norms = row_norms(rows)
    rows = np.where(np.abs(norms - 1.0) > 1e-12, rows / norms, rows)
    columns = np.zeros((n, k, k), dtype=complex)
    columns[:, :, 0] = rows.conj()
    others = np.arange(k - 1)
    others = others + (others >= np.argmax(np.abs(rows), axis=-1)[:, None])
    columns[np.arange(n)[:, None], others, np.arange(1, k)] = 1.0
    q, r = np.linalg.qr(columns)
    q[:, :, 0] *= (r[:, 0, 0] / abs(r[:, 0, 0]))[:, None]
    return q.conj().transpose(0, 2, 1)


def steps(plan):
    """The steps of ``plan``'s schedule one router at a time: a router as
    ``(row, ports, swapped)``, a run of tunneling elements as one 3 x 3
    matrix."""
    rows = {m: i for i, m in enumerate(plan.spec.post.modes)}
    cols = {m: i for i, m in enumerate(plan.probe_modes, 1)}
    out, run = [], None
    for element in plan.schedule:
        kind, modes = element.kind, element.modes
        if kind is ElementKind.TUNNEL and rows.keys() >= set(modes):
            if run is None:
                run = np.eye(len(rows), dtype=complex)
            i, j = rows[modes[0]], rows[modes[1]]
            pair = run[i::j - i][:2]
            pair[:] = tunnel_matrix(element.params["theta"]) @ pair
        elif (kind is ElementKind.PQR_IDEAL and modes[2] in rows
              and modes[0] in cols and modes[1] in cols):
            if run is not None:
                out.append(run)
                run = None
            a, b = cols[modes[0]], cols[modes[1]]
            out.append((rows[modes[2]], (a, b), (b, a)))
        else:
            raise UnsupportedSector(f"{kind.value} on {modes}")
    if run is not None:
        out.append(run)
    return out


def propagate(plan, points):
    """``scenarios._propagate`` with each router swapped in place by a
    fancy-index assignment."""
    columns = np.zeros((len(points), 1 + len(plan.probe_modes)),
                       dtype=complex)
    if plan.probe_photon:
        columns[:, 1:1 + len(plan.probes)] = points
    else:
        columns[:, 0] = 1.0
    start = Sectors(plan.spec.pre).one
    scale = np.repeat([1.0] + [SQRT2] * len(plan.probe_modes), 2)
    blocks = pruned(start[:, None] * columns[:, None, :])
    squares = np.hypot(blocks.real, blocks.imag).reshape(len(blocks), -1) ** 2
    norms = np.sqrt(running_sum(squares))[:, None, None]
    blocks = (blocks.view(float) / norms / scale).view(complex)
    for step in steps(plan):
        if type(step) is tuple:
            row, ports, swapped = step
            blocks[:, row, ports] = blocks[:, row, swapped]
        else:
            blocks = step @ blocks
    blocks[:, :, 1:] *= SQRT2
    return pruned(blocks)


def measure(plan, points, joint):
    """``scenarios._measure`` with the blocks ahead of the merge and the
    merged blocks post-selected in two passes."""
    kept = [1 + plan.probe_modes.index(m) for m in plan.kept_ports]
    bra = Sectors(plan.spec.post).one.conj()

    def postselect(joint):
        probes = np.einsum("s,nsp->np", bra, joint)
        return (normalized_rows(pruned(probes)),
                np.sum(np.abs(probes) ** 2, axis=-1))

    spectra = spectra_of(joint)
    premerge, _ = postselect(joint)
    fidelities = np.abs(np.einsum(
        "nk,nk->n", pruned(points).conj(), premerge[:, kept]
    )) ** 2

    if plan.recombine:
        merges = unitary_with_first_row(points.conj())
        merged = joint.copy()
        merged[:, :, kept] = joint[:, :, kept] @ merges.transpose(0, 2, 1)
        joint = pruned(merged)
    probes, p_posts = postselect(joint)
    if np.any(p_posts < CONDITION_EPSILON):
        raise UndefinedConditioning(
            f"post-selection never succeeds in scenario {plan.name}"
        )
    restored = kept[:1] if plan.recombine else kept
    qs = np.sum(np.abs(probes[:, restored]) ** 2, axis=-1)
    values = np.array([p_posts, qs, p_posts * qs, p_posts * (1.0 - qs),
                       1.0 - p_posts, fidelities]).T
    return (_summary_fields(plan.outcome_label), _clamp(values), spectra,
            premerge)
