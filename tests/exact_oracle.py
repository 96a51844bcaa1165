"""Exact rational evaluation of the coupling double sum at the waist.

An oracle for the accuracy of `lgmodes.sector_coupling` and
`lgmodes.coupling_tensor`: the entry

    T[m, u, n, v] = sum_{j1 j2} c[j1, m, u] M[j1, j2] conj(c[j2, n, v])

at t = 0, M[j1, j2] = 2^{-(j1+j2)/2} Gamma((j1+j2)/2 - 5/6), in exact
arithmetic.  Within a Delta-l sector j1 + j2 is even, so with k = (j1+j2)/2
each weight is Gamma(1/6) times the rational 2^-k (1/6 - 1) (1/6) ... (k -
11/6).  Each coefficient array c[., m, u] is i^e sqrt(q) times rationals:
the product of two one-axis displaced-Fock elements
i^{a-b} sqrt(b!/a!) (-1)^k C(a, b-k) / k! on j = a - b + 2k (a >= b), with
the sign (-1)^(r_m + r_u).  The rational sum is exact, and only
sqrt(q_mu q_nv) Gamma(1/6) and the final value are rounded to floats, so an
entry is good to a few units in the last place however strongly the float
sum cancels.  It shares nothing with the library but the mode ordering.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from turbulink.lgmodes import LGIndex


def _quanta(idx: LGIndex) -> tuple:
    return idx.r + (abs(idx.l) + idx.l) // 2, idx.r + (abs(idx.l) - idx.l) // 2


def _axis(p: int, q: int) -> tuple:
    # (quarter turns, b!/a!, {j: rational}) of one displaced-Fock element
    a, b = max(p, q), min(p, q)
    terms = {a - b + 2 * k: Fraction((-1) ** k * math.comb(a, b - k), math.factorial(k)) for k in range(b + 1)}
    return a - b, Fraction(math.factorial(b), math.factorial(a)), terms


@lru_cache(maxsize=None)
def exact_coefficients(m: LGIndex, u: LGIndex) -> tuple:
    """(e, q, {j: rational}) with c[j, m, u] at t = 0 = i^e sqrt(q) rational[j]."""
    (pm, qm), (pu, qu) = _quanta(m), _quanta(u)
    e1, q1, plus = _axis(pm, pu)
    e2, q2, minus = _axis(qm, qu)
    sign = (-1) ** (m.r + u.r)
    terms = {}
    for j1, x in plus.items():
        for j2, y in minus.items():
            terms[j1 + j2] = terms.get(j1 + j2, 0) + sign * x * y
    return e1 + e2, q1 * q2, terms


@lru_cache(maxsize=None)
def _gamma_ratio(k: int) -> Fraction:
    # 2^-k Gamma(k - 5/6) / Gamma(1/6)
    if k == 0:
        return Fraction(-6, 5)
    value = Fraction(1, 2**k)
    for i in range(1, k):
        value *= Fraction(6 * i - 5, 6)
    return value


@lru_cache(maxsize=None)
def _weighted(n: LGIndex, v: LGIndex, j1: int) -> Fraction:
    # sum_j2 M[j1, j2] / Gamma(1/6) rational[j2] for the pair (n, v)
    terms = exact_coefficients(n, v)[2]
    return sum(_gamma_ratio((j1 + j2) // 2) * x for j2, x in terms.items() if (j1 + j2) % 2 == 0)


def exact_entry(m: LGIndex, u: LGIndex, n: LGIndex, v: LGIndex) -> complex:
    """T[m, u, n, v] at t = 0 as a complex float, 0 off the rule l_m - l_u = l_n - l_v."""
    if m.l - u.l != n.l - v.l:
        return 0j
    e1, q1, left = exact_coefficients(m, u)
    e2, q2, _ = exact_coefficients(n, v)
    total = sum(x * _weighted(n, v, j) for j, x in left.items())
    return 1j ** ((e1 - e2) % 4) * (float(total) * math.sqrt(q1 * q2) * math.gamma(1.0 / 6.0))
