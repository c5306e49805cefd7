"""Fixed-point solver for the rank-2 level-k functional system.

The difference equations and the L0/L2 expansion equations, together with
weight reversal and the initial condition (z^0 row = 1), determine every
level-k generating function of the three-row family.  The solver fills
coefficient rows in ascending q-degree: all right-hand sides live at
argument zq^2, so they only consult strictly lower rows; within a row the
expansion equations pin the extremal weights and the difference equations
propagate along a worklist.  Failure to determine a value would falsify
the uniqueness claim and raises.
"""

from __future__ import annotations

from . import funceq
from .series import QSeries


def _canon(w: tuple[int, int, int]) -> tuple[int, int, int]:
    r = tuple(reversed(w))
    return min(w, r)


def _weights(k: int) -> list[tuple[int, int, int]]:
    return [(a, b, k - a - b) for a in range(k + 1)
            for b in range(k - a + 1)]


def _equation(check_id: str, **params):
    """A d2-fun (expansion) or d2-nis2 (difference) equation of the
    catalog as (weights of the unshifted terms, left side first; (pz, pq,
    w) of the right side's terms z^pz q^pq X_w(zq^2))."""
    terms = funceq.catalog(check_id, params).terms
    return ([t.series[3] for t in terms if t.subst == (0, 0, 1)],
            [(t.pref[0][1], t.pref[0][3], t.series[3]) for t in terms
             if t.subst != (0, 0, 1)])


def solve_d2_system(k: int, N: int) -> dict[tuple[int, int, int], QSeries]:
    """Solve for all level-k series through order N; returns the full
    weight-indexed family (canonical representatives share storage)."""
    canon_ws = sorted({_canon(w) for w in _weights(k)})
    X: dict[tuple[int, int, int], dict[tuple[int, int], int]] = {
        w: {(0, 0): 1} for w in canon_ws}
    expansions = [_equation("d2-fun", k=k, a=a) for a in range(k + 1)]
    differences = [_equation("d2-nis2", k=k, a=a, b=b)
                   for a in range(k + 1) for b in range(k - a)]

    def coeff(w, dz, dq):
        if dq < 0 or dz < 0 or dz > dq:
            return 0
        return X[_canon(w)].get((dz, dq), 0)

    def rhs_value(inner_terms, dz, d):
        """inner_terms: list of (pz, pq, weight); argument is always zq^2."""
        total = 0
        for (pz, pq, w) in inner_terms:
            dz_in = dz - pz
            d_in = d - pq - 2 * dz_in
            total += coeff(w, dz_in, d_in)
        return total

    for d in range(1, N + 1):
        for dz in range(1, d + 1):
            # an expansion pins its left side, a difference links two sides
            known = {_canon(lhs): rhs_value(inner, dz, d)
                     for (lhs,), inner in expansions}
            edges = [(_canon(lhs), _canon(w), rhs_value(inner, dz, d))
                     for (lhs, w), inner in differences]
            progress = True
            while progress:
                progress = False
                for (wa, wb, val) in edges:
                    ka, kb = wa in known, wb in known
                    if ka and not kb:
                        known[wb] = known[wa] - val
                        progress = True
                    elif kb and not ka:
                        known[wa] = known[wb] + val
                        progress = True
            missing = [w for w in canon_ws if w not in known]
            if missing:
                raise RuntimeError(
                    "system leaves %r undetermined at (dz=%d, d=%d)"
                    % (missing, dz, d))
            for w in canon_ws:
                v = known[w]
                if v:
                    X[w][(dz, d)] = v
    out: dict[tuple[int, int, int], QSeries] = {}
    for w in _weights(k):
        cw = _canon(w)
        out[w] = QSeries({(dz, 0, dq): c
                          for (dz, dq), c in X[cw].items()}, N, 0)
    return out
