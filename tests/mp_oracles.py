"""High-precision references for the certified outputs of cesaro_lab,
one per quantity, computed with mpmath from its definition and never
through the program; test_oracles.py holds each to a known value.

Precision rule: each function computes inside mp.workdps at the
precision its docstring states and returns an mpf, so no value depends
on the global mpmath precision, which no test sets.  mpmath rounds each
operation correctly, so a test compares a float x with a reference by
one subtraction, abs(mp.mpf(x) - reference), at any current precision.

The name keeps it apart from perfbench/oracles.py, which the
benchmark's tests import as ``oracles`` from the same sys.path when one
session runs both trees.
"""

from __future__ import annotations

import mpmath as mp

DPS = 50  # digits, unless a docstring says otherwise
CELL_DPS = 70  # for the cell integrals, whose differences cost up to 30 digits


def zeta_runs(starts, values, p):
    """sum_{n >= a_0} (v(n)/n)**p with v(n) = v_j on the run a_j <= n < a_{j+1}
    (the last run infinite), as sum_j v_j**p (zeta(p, a_j) - zeta(p, a_{j+1})).
    DPS digits."""
    with mp.workdps(DPS):
        p, ends = mp.mpf(p), [*starts[1:], None]
        return mp.fsum(mp.mpf(v) ** p * (mp.zeta(p, a) - (0 if b is None else mp.zeta(p, b)))
                       for a, b, v in zip(starts, ends, values))


def seq_norm(pairs, p):
    """The Cesaro sequence norm of (index, coefficient) pairs, exact run
    by run: the running sum of |coefficient| is constant between support
    indices, so it is zeta_runs over them, to the power 1/p.  DPS digits."""
    with mp.workdps(DPS):
        pairs, prefixes = sorted(pairs), []
        for _, c in pairs:
            prefixes.append(abs(mp.mpf(c)) + (prefixes[-1] if prefixes else 0))
        return zeta_runs([i for i, _ in pairs], prefixes, p) ** (1 / mp.mpf(p))


def lp_norm(coeffs, p):
    """(sum |c|**p)**(1/p), the l1 norm at p = 1.  DPS digits."""
    with mp.workdps(DPS):
        return mp.fsum(abs(mp.mpf(c)) ** p for c in coeffs) ** (1 / mp.mpf(p))


def sum_norm(x):
    """The Cesaro-sum norm of a SumElement: the sequence norm of its
    component norms in their stack (lp, or l1 for finite l1).  DPS digits."""
    stack_p = x.stack.p if x.stack.kind == "lp" else 1
    return seq_norm([(slot, lp_norm(vec.coeffs, stack_p)) for slot, vec in x.components], x.p.p)


def cell_integral(F, m, a, b, p):
    """int_a^b ((F + m (t - a)) / t)**p dt (F, m >= 0, 0 < a < b) in
    closed form at CELL_DPS digits.  With y = F/m - a the integrand is
    m**p (1 + y/t)**p.  Where |y/t| <= 1/2 the binomial series in y/t is
    integrated term by term (finite for integer p); nearer the branch
    point t = -y through an incomplete beta function: m**p |y|
    B(v; p + 1, -1) with v = 1 + y/t for y < 0, and m**p y B(s; 1 - p, -1)
    with s = t/(t + y) for y > 0."""
    with mp.workdps(CELL_DPS):
        F, m, a, b, P = map(mp.mpf, (F, m, a, b, p))
        if m == 0:
            return F ** P * (a ** (1 - P) - b ** (1 - P)) / (P - 1)
        y = F / m - a  # >= -a
        if y == 0:
            return m ** P * (b - a)

        def far(t):
            total, coeff, ratio, j = t + P * y * mp.log(t), P, y / t, 1
            while True:
                coeff *= (P - j) / (j + 1)
                j += 1
                term = t * coeff * ratio ** j / (1 - j)
                total += term
                if abs(term) <= mp.eps * abs(total):
                    return total

        def near(t):
            if y < 0:
                v = 1 + y / t
                return -y * v ** (P + 1) / (P + 1) * mp.hyp2f1(P + 1, 2, P + 2, v)
            s = t / (t + y)
            return y * s ** (1 - P) / (1 - P) * mp.hyp2f1(1 - P, 2, 2 - P, s)

        # the series is exact for integer p and y > 0; B(s; 1 - p, -1) has a pole there
        split = a if (y > 0 and P == int(P)) else min(max(a, 2 * abs(y)), b)
        total = far(b) - far(split) if split < b else 0
        if split > a:
            total += near(split) - near(a)
        return m ** P * total


def ces_fun_norm(h, p):
    """The Cesaro function norm of a scalar step function, weighted_l1 at
    p = 1, else cell by cell by cell_integral: 40 significant digits."""
    if p == 1:
        return weighted_l1(h)
    with mp.workdps(CELL_DPS):
        bps, P = [mp.mpf(x) for x in h.partition.breakpoints], mp.mpf(p)
        mags = [abs(mp.mpf(v)) for v in h.values]
        total, F = mags[0] ** P * bps[1], mags[0] * bps[1]
        for k in range(1, len(mags)):
            total += cell_integral(F, mags[k], bps[k], bps[k + 1], P)
            F += mags[k] * (bps[k + 1] - bps[k])
        return total ** (1 / P)


def weighted_l1(h):
    """int_0^1 |h(s)| log(1/s) ds by the antiderivative s - s log s.  DPS digits."""
    with mp.workdps(DPS):
        anti = [mp.mpf(s) * (1 - mp.log(s)) if s else mp.mpf(0) for s in h.partition.breakpoints]
        return mp.fsum(abs(mp.mpf(v)) * (anti[k + 1] - anti[k]) for k, v in enumerate(h.values))


def lebesgue(h, r):
    """(int_0^1 |h|**r)**(1/r) of a scalar step function, r finite.  DPS digits."""
    with mp.workdps(DPS):
        r, cells = mp.mpf(r), h.partition.cells
        return mp.fsum(abs(mp.mpf(v)) ** r * (mp.mpf(b) - a) for v, (a, b) in zip(h.values, cells)) ** (1 / r)


def theta(one_minus_t0, p):
    """int_{t0}^1 t**-p dt for t0 = 1 - d, from the exact d, which fixes
    it where t0 rounds to 1 in floats.  DPS digits."""
    with mp.workdps(DPS):
        d, p = mp.mpf(one_minus_t0), mp.mpf(p)
        return -mp.log1p(-d) if p == 1 else mp.expm1((1 - p) * mp.log1p(-d)) / (p - 1)


def root_shift(c, nu, p, sign=1):
    """c ((1 + sign (nu/c)**p)**(1/p) - 1) by expm1 and log1p, so that no
    digit cancels however small nu/c is.  DPS digits."""
    with mp.workdps(DPS):
        c, nu, p = mp.mpf(c), mp.mpf(nu), mp.mpf(p)
        return c * mp.expm1(mp.log1p(sign * (nu / c) ** p) / p)


def lp_modulus(p, eps, R):
    """The Opial modulus of lp, (R**p + eps**p)**(1/p) - R.  DPS digits."""
    return root_shift(R, eps, p, 1)


def cap(p, R):
    """2**(1 - 1/p) (3R + 1), the cap of nu in the eta recipes.  DPS digits."""
    with mp.workdps(DPS):
        return 2 ** (1 - 1 / mp.mpf(p)) * (3 * mp.mpf(R) + 1)


def omega(nu, p, R):
    """cap - (cap**p - nu**p)**(1/p).  DPS digits."""
    return -root_shift(cap(p, R), nu, p, -1)


def eta33(p, px, tau, M, R, measure, one_minus_t0):
    """The recipe of Theorem 3.3 on a level set of that measure reaching
    t0: w the lp(px) modulus at (tau, M), theta over [t0, 1],
    nu = min((w**p measure**p theta/2)**(1/p), cap), omega, and
    eta = min(omega, 1).  A dict of those five; DPS digits."""
    with mp.workdps(DPS):
        w, th = lp_modulus(px, tau, M), theta(one_minus_t0, p)
        nu = min((w ** p * mp.mpf(measure) ** p * th / 2) ** (1 / mp.mpf(p)), cap(p, R))
        om = omega(nu, p, R)
        return {"w": w, "theta": th, "nu": nu, "omega": om, "eta": min(om, mp.mpf(1))}


def eta34(p, px, r, eps, M, K, R, tau):
    """The recipe of Theorem 3.4: q = p/(p - 1), s = r/p and its conjugate
    s' (1 for an infinite r), Q = min((eps**p/q**p - tau**p)**s'
    K**(-p s'), 1) and t0 = 1 - Q/2, then eta33's chain on the measure Q.
    A dict of Q, t0 and that chain; DPS digits."""
    with mp.workdps(DPS):
        p, r, eps, K, tau = map(mp.mpf, (p, r, eps, K, tau))
        q, s = p / (p - 1), r / p
        sp = mp.mpf(1) if mp.isinf(s) else s / (s - 1)
        Q = min((eps ** p / q ** p - tau ** p) ** sp * K ** (-p * sp), mp.mpf(1))
        return {"Q": Q, "t0": 1 - Q / 2, **eta33(p, px, tau, M, R, Q, Q / 2)}
