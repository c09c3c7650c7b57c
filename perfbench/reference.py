"""Reference computations made apart from router_sim, with numpy only.

Two references live here:

* ``TwoPhotonCircuit`` propagates a two-photon state through the linear
  elements of a ``.circuit`` file.  The state is a symmetric mode matrix
  Psi with |psi> = sum_ij Psi_ij a†_i a†_j |0>; a linear element with mode
  matrix U maps Psi to U Psi U^T, the nonlinear-sign gate flips the sign of
  Psi_mm, and a relabel permutes rows and columns.  Fock amplitudes follow
  as 2 Psi_ij for one photon in each of modes i != j and sqrt(2) Psi_ii for
  two photons in mode i.  ``self_check`` tests it against Hong-Ou-Mandel
  interference, norm preservation and the 2x2 permanent rule for linear
  optics (Aaronson & Arkhipov, arXiv:1011.3245).
* ``shutter_tsvf`` gives ABL probabilities and weak values of the
  three-box shutter from its 3-dimensional pre- and post-selected vectors,
  as stated in the paper.

The element conventions (symmetric beamsplitter, exp(-i theta sigma_x)
tunnelling, exp(i phi) phase) are the ones the project documents for its
``.circuit`` format.
"""

from __future__ import annotations

import math

import numpy as np


def bs_matrix(r):
    t = math.sqrt(1.0 - r)
    return np.array([[math.sqrt(r), 1j * t], [1j * t, math.sqrt(r)]])


def tunnel_matrix(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _pattern_holds(photons, pattern):
    """``photons`` is a tuple of occupied mode indices (with repeats)."""
    return all(photons.count(m) == n for m, n in pattern.items())


def _probability(amplitudes, pattern):
    return sum(abs(a) ** 2 for ph, a in amplitudes.items()
               if _pattern_holds(ph, pattern))


class TwoPhotonCircuit:
    """Exact two-photon propagation of one generated circuit.

    ``modes`` lists mode names in declaration order; ``sources`` holds two
    weight maps (one photon each); ``elements`` holds (op, params, modes)
    with op in bs, ps, tunnel, ns, relabel.
    """

    def __init__(self, modes, sources, elements):
        if len(sources) != 2:
            raise ValueError("the reference propagates exactly two photons")
        self.index = {name: i for i, name in enumerate(modes)}
        n = len(modes)
        w1, w2 = (self._vector(src, n) for src in sources)
        psi = 0.5 * (np.outer(w1, w2) + np.outer(w2, w1))
        self.psi = psi / math.sqrt(2.0 * np.sum(np.abs(psi) ** 2))
        for op, params, names in elements:
            self.apply(op, params, [self.index[m] for m in names])

    def _vector(self, weights, n):
        vec = np.zeros(n, dtype=complex)
        for name, w in weights.items():
            vec[self.index[name]] = w
        return vec / np.linalg.norm(vec)

    def apply(self, op, params, pos):
        psi = self.psi
        if op == "ns":
            psi[pos[0], pos[0]] *= -1.0
            return
        if op == "relabel":
            a, b = pos
            psi[[a, b], :] = psi[[b, a], :]
            psi[:, [a, b]] = psi[:, [b, a]]
            return
        if op == "bs":
            u = bs_matrix(params[0])
        elif op == "tunnel":
            u = tunnel_matrix(params[0])
        elif op == "ps":
            u = np.array([[np.exp(1j * params[0])]])
        else:
            raise ValueError(f"no reference for element {op!r}")
        psi[pos, :] = u @ psi[pos, :]
        psi[:, pos] = psi[:, pos] @ u.T

    def norm(self):
        return math.sqrt(2.0 * float(np.sum(np.abs(self.psi) ** 2)))

    def amplitudes(self):
        """Fock amplitudes keyed by the sorted tuple of occupied modes."""
        psi = self.psi
        n = psi.shape[0]
        out = {}
        for i in range(n):
            out[(i, i)] = math.sqrt(2.0) * psi[i, i]
            for j in range(i + 1, n):
                out[(i, j)] = 2.0 * psi[i, j]
        return out

    def report(self, postselects, detects):
        """Probabilities in the order ``router-sim simulate`` prints them.

        ``postselects`` holds ("pattern", {name: count}) or
        ("state", [(name, weight), ...]); ``detects`` holds
        (name, {name: count}).  Returns (postselection probabilities,
        [(detect name, unconditional, [conditional per postselect])]).
        """
        amps = self.amplitudes()
        idx = self.index
        conditioned = []
        post_probs = []
        for kind, payload in postselects:
            if kind == "pattern":
                pattern = {idx[m]: c for m, c in payload.items()}
                kept = {ph: a for ph, a in amps.items()
                        if _pattern_holds(ph, pattern)}
                rest = None
            else:
                sub = [idx[m] for m, _ in payload]
                weights = np.array([w for _, w in payload], dtype=complex)
                weights /= np.linalg.norm(weights)
                rest = [i for i in range(len(idx)) if i not in sub]
                # One photon is projected onto the subsystem state; the
                # other, outside the subsystem, is what remains.
                kept = {}
                for j in rest:
                    kept[(j,)] = sum(
                        w.conjugate() * amps[tuple(sorted((j, k)))]
                        for k, w in zip(sub, weights)
                    )
            p = sum(abs(a) ** 2 for a in kept.values())
            post_probs.append(p)
            conditioned.append((kept, p, rest))
        detections = []
        for name, pattern in detects:
            pattern = {idx[m]: c for m, c in pattern.items()}
            conditional = []
            for kept, p, rest in conditioned:
                sub_pattern = pattern if rest is None else {
                    m: c for m, c in pattern.items() if m in rest
                }
                # As the CLI reports it: a post-selection that never
                # succeeds leaves every conditional detection at 0.
                conditional.append(
                    _probability(kept, sub_pattern) / p if p > 1e-20 else 0.0
                )
            detections.append((name, _probability(amps, pattern), conditional))
        return post_probs, detections


def _permanent2(m):
    return m[0, 0] * m[1, 1] + m[0, 1] * m[1, 0]


def self_check(rng):
    """Check the propagator on cases with known answers; raise on failure."""
    # Hong-Ou-Mandel: one photon in each input of a 50:50 beamsplitter
    # never leaves one photon in each output.
    hom = TwoPhotonCircuit(["a", "b"], [{"a": 1.0}, {"b": 1.0}],
                           [("bs", (0.5,), ("a", "b"))])
    coincidence = hom.amplitudes()[(0, 1)]
    if abs(coincidence) > 1e-15:
        raise AssertionError(f"HOM coincidence amplitude {coincidence}")

    # A random linear network: compose its mode matrix separately, then
    # compare one output amplitude with the 2x2 permanent rule.
    n = 6
    names = [f"m{i}" for i in range(n)]
    elements = []
    u_total = np.eye(n, dtype=complex)
    for _ in range(40):
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        op = ("bs", "tunnel", "ps", "relabel")[int(rng.integers(4))]
        block = np.eye(n, dtype=complex)
        if op == "ps":
            phi = float(rng.uniform(-math.pi, math.pi))
            elements.append(("ps", (phi,), (names[a],)))
            block[a, a] = np.exp(1j * phi)
        elif op == "relabel":
            elements.append(("relabel", (), (names[a], names[b])))
            block[[a, b], :] = block[[b, a], :]
        else:
            x = float(rng.uniform(0.0, 1.0))
            u = bs_matrix(x) if op == "bs" else tunnel_matrix(x)
            elements.append((op, (x,), (names[a], names[b])))
            block[np.ix_([a, b], [a, b])] = u
        u_total = block @ u_total
    s, t = 1, 4
    lin = TwoPhotonCircuit(names, [{names[s]: 1.0}, {names[t]: 1.0}], elements)
    amps = lin.amplitudes()
    for p, q in ((0, 3), (2, 5), (2, 2)):
        perm = _permanent2(u_total[np.ix_([p, q], [s, t])])
        expected = perm if p != q else perm / math.sqrt(2.0)
        if abs(amps[(p, q)] - expected) > 1e-12:
            raise AssertionError(
                f"amplitude {amps[(p, q)]} != permanent rule {expected}"
            )

    # Norm is preserved through every element kind, the NS gate included.
    mixed = elements + [("ns", (), (names[2],)), ("ns", (), (names[5],))]
    mixed += elements[:10]
    src = [{names[0]: 0.6, names[1]: 0.8j}, {names[1]: 1.0, names[3]: 1.0j}]
    full = TwoPhotonCircuit(names, src, mixed)
    if abs(full.norm() - 1.0) > 1e-12:
        raise AssertionError(f"norm drifted to {full.norm()}")


def shutter_tsvf(pre, post, steps, checkpoint):
    """ABL probabilities and weak values of the box projectors A, B, C.

    ``pre`` is the shutter state at the first checkpoint, ``post`` the
    selection after the last of the 3x3 ``steps`` matrices, and the
    checkpoint is the number of steps taken so far.  Returns
    {box: (abl, weak value)}.
    """
    forward = np.asarray(pre, dtype=complex)
    for u in steps[:checkpoint]:
        forward = u @ forward
    backward = np.asarray(post, dtype=complex)
    for u in reversed(steps[checkpoint:]):
        backward = u.conj().T @ backward
    full = np.vdot(backward, forward)
    out = {}
    for k, box in enumerate("ABC"):
        yes = backward[k].conjugate() * forward[k]
        no = full - yes
        out[box] = (abs(yes) ** 2 / (abs(yes) ** 2 + abs(no) ** 2),
                    yes / full)
    return out


def embed_tunnel(theta):
    """3x3 shutter matrix of A-B tunnelling, box C untouched."""
    u = np.eye(3, dtype=complex)
    u[:2, :2] = tunnel_matrix(theta)
    return u
