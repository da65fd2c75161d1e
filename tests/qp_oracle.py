"""The box-and-rows QP solver of ``fracdyn.mpc`` as it was before its active-set proposal.

``solve_qp`` is the cold-start dual active-set iteration: every solve starts
from the equalities and factors ``J^T N`` by QR on every step.  It is kept
verbatim as the oracle that ``mpc._solve_qp``, started from the list that
``mpc._propose`` offers, must match bit for bit.
"""

import numpy as np

from fracdyn import InfeasibleStateConstraints


def solve_qp(J: np.ndarray, b: np.ndarray, G: np.ndarray, g: np.ndarray, neq: int):
    """Dual active-set QP of Goldfarb and Idnani (Math. Program. 27, 1983).

    Minimises ``1/2 z^T D z + b^T z`` subject to ``G z <= g``, the first
    ``neq`` rows as equalities, where ``J = L^-T`` and ``L L^T = D``.  From
    the minimiser on the equalities it takes the most violated row ``p`` and
    raises its multiplier until the row holds, first dropping any active
    inequality whose multiplier would turn negative.  Each step factors
    ``J^T N`` of the active normals ``N`` by QR and solves afresh for z and
    the active multipliers, ``p`` weighted by its multiplier so far, so
    rounding does not build up.  Returns z and the multipliers of all rows;
    a violated row no dual step can reach proves the rows infeasible.
    """
    active, p, lam_p = list(range(neq)), None, 0.0
    tol = 1e-13 * (1.0 + np.abs(g))
    while True:
        q = len(active)
        Q, R = np.linalg.qr(J.T @ G[active].T, mode="complete")
        c = Q.T @ (J.T @ (b if p is None else b + lam_p * G[p]))
        w = np.linalg.solve(R[:q].T, g[active])
        z = J @ (Q[:, :q] @ w - Q[:, q:] @ c[q:])
        lam = -np.linalg.solve(R[:q], c[:q] + w)
        if p is None:
            viol = G @ z - g - tol
            viol[active] = 0.0
            if not viol.size or viol.max() <= 0.0:
                lam_all = np.zeros(g.size)
                lam_all[active] = lam
                return z, lam_all
            p, lam_p = int(np.argmax(viol)), 0.0
        d = Q.T @ (J.T @ G[p])
        r = np.linalg.solve(R[:q], d[:q])  # per unit of lam_p the active multipliers fall by r
        dd = d[q:] @ d[q:]  # and G[p] @ z by dd
        t2 = (G[p] @ z - g[p]) / dd if dd > 1e-20 * (d @ d) else np.inf
        pos = neq + np.flatnonzero(r[neq:] > 0)
        ratios = np.maximum(lam[pos], 0.0) / r[pos]
        t1 = ratios.min(initial=np.inf)
        if t1 == t2 == np.inf:
            raise InfeasibleStateConstraints(
                f"hard state rows admit no input inside the box (row {p} of G)")
        lam_p += min(t1, t2)
        if t2 <= t1:
            active.append(p)
            p = None
        else:
            del active[pos[np.argmin(ratios)]]
