"""Laguerre-Gaussian mode bookkeeping and turbulence coupling tensors.

The scattering integrals need the modal correlation functions
W_{m,n}(K, phi, z): overlaps of two propagated LG modes displaced by a
transverse wavenumber K.  An LG mode (r, l) is the product of two circular
oscillator states with quanta n+- = r + (|l| +- l)/2 (Nienhuis & Allen, PRA
48, 656 (1993)), and a displacement by K acts on each oscillator
separately, so W_{m,n} is e^{-x} times two one-axis displaced-Fock matrix
elements, sqrt(q!/p!) x^{(p-q)/2} L_q^{(p-q)}(x) between quanta p >= q
(Cahill & Glauber, Phys. Rev. 177, 1857 (1969)), x = K^2 a / 8 with
a = (1 + t^2) w_0^2 and t = z / z_R, times the Gouy phase b^{g_m - g_n},
b = (1 + it)/(1 - it), g = r + |l|/2, and e^{i(l_m - l_n) phi}.

Radially integrating W W* against the von Karman spectrum (outer scale sent
to zero, the divergent total-rate piece cancelled analytically) conserves
Delta = l_m - l_n = l_u - l_v and leaves Gamma(-5/6) d_mu d_nv plus
int y^(-5/6) e^-y (W_mu W*_nv - d_mu d_nv) / y dy, y = K^2 a / 4, W without
its Gaussian and d the Kronecker delta: a polynomial of degree below
6 cutoff under the Gauss-Laguerre weight, exact on the 3 cutoff nodes of
`radial_rule`, where each W comes from the Laguerre recurrence (its
power series' Gamma-weighted double sum cancels, to 4.1e-7 of the largest
entry at cutoff 6).  `pair_coupling_blocks`, the one builder of the sum,
forms one Delta-l sector of it for a batch of carrier pairs as one real
GEMM per pair of l-blocks (W is real up to diagonal phases); the
single-wavelength block of each sector is cached and dressed with its phases
at each t (`sector_coupling`), which the propagators use directly and
`coupling_tensor` scatters into the dense tensor.  Two carriers' real block
depends on rho = a1 / mean(a) alone (a2 / mean(a) = 2 - rho), each entry as
P(rho) (rho (2 - rho))^(pi/2), P of degree at most 6 cutoff and pi the
parity of the entry's l-block difference (each D_i entry is s_i^pi times a
polynomial in s_i^2; an entry's two carriers, and its mirror in the even
fold, share pi): `even_ratio_interpolant` interpolates sector 0's even half
from 6 cutoff + 1 Chebyshev points in rho, exact up to rounding (Berrut &
Trefethen, SIAM Rev. 46, 2004).  `free_prop_S` gives the free-propagation
elements in closed form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .turbulence import SPECTRUM_AMPLITUDE, _check_cn2, _check_index, _positive_finite, barycentric_matrix, l_strength
from .turbulence import normalized_distance

# The blocks hold 4e-15 of their largest entry up to cutoff 8, but the dense
# (S, S, S, S) array of `coupling_tensor` takes 1.1 GB at cutoff 6 and 3.3 GB
# at 7, so no coupling is assembled past 6.
MAX_COUPLING_CUTOFF = 6

# k^2 * (radial integral constant): the coupling reads COUPLING_PREFACTOR * l(z)
# times the radial integral of the module docstring
COUPLING_PREFACTOR = SPECTRUM_AMPLITUDE * 16.0 * math.pi**4 * 2.0 ** (-8.0 / 3.0)  # = 8.1000...

# fundamental-mode decay rate is DECAY_CONSTANT * l(z)
DECAY_CONSTANT = COUPLING_PREFACTOR * abs(math.gamma(-5.0 / 6.0))  # = 54.100...


class CouplingCutoffError(ValueError):
    """A coupling asked for beyond `MAX_COUPLING_CUTOFF`."""


@dataclass(frozen=True, order=True)
class LGIndex:
    """Radial index r >= 0 and azimuthal index l of a Laguerre-Gaussian mode."""

    l: int
    r: int

    def __post_init__(self):
        _check_index("l", self.l, signed=True)
        _check_index("r", self.r)

    @property
    def gouy_weight(self) -> float:
        """Half the Gouy-phase order relative to the fundamental: r + |l| / 2."""
        return self.r + 0.5 * abs(self.l)


@dataclass(frozen=True)
class ModeBasis:
    """Truncated LG basis: |l| <= cutoff, 0 <= r <= cutoff.

    Ordering is l ascending then r ascending, fixed so that each l is one
    contiguous l-block of cutoff + 1 modes (a Delta-l sector of a density
    matrix is then a stack of l-blocks), the same on every run and platform.
    """

    cutoff: int
    indices: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "indices", _basis_indices(self.cutoff))

    @property
    def size(self) -> int:
        return (2 * self.cutoff + 1) * (self.cutoff + 1)

    def position(self, idx: LGIndex) -> int:
        if abs(idx.l) > self.cutoff or idx.r > self.cutoff:
            raise KeyError(f"{idx} outside basis cutoff {self.cutoff}")
        return (idx.l + self.cutoff) * (self.cutoff + 1) + idx.r

    @property
    def fundamental(self) -> int:
        """Position of the (r=0, l=0) mode, the first of the l = 0 block."""
        return self.cutoff * (self.cutoff + 1)


@lru_cache(maxsize=16, typed=True)  # as `sector_orders`
def _basis_indices(cutoff: int) -> tuple:
    # a ModeBasis's modes, shared by every basis of the cutoff (LGIndex is frozen)
    _check_index("cutoff", cutoff)
    return tuple(LGIndex(l=l, r=r) for l in range(-cutoff, cutoff + 1) for r in range(cutoff + 1))


def free_prop_S(m: LGIndex, n: LGIndex, z_r: float) -> complex:
    """Free-propagation matrix element: nonzero only for equal azimuthal
    indices with radial indices differing by at most one; pure imaginary.

    Both cases carry the same 1/(2 z_R) normalization; the off-diagonal
    value is fixed by direct evaluation of the defining momentum integral
    (the diagonal case pins the convention).
    """
    if not _positive_finite(z_r):
        raise ValueError(f"z_r must be positive and finite, not {z_r!r}")
    if m.l != n.l:
        return 0j
    l = abs(m.l)
    if m.r == n.r:
        return 1j * (1 + l + 2 * m.r) / (2.0 * z_r)
    if abs(m.r - n.r) == 1:
        r = min(m.r, n.r)
        return 1j * math.sqrt((1.0 + l + r) * (1.0 + r)) / (2.0 * z_r)
    return 0j


@dataclass(frozen=True)
class CouplingTensor:
    """Dense coupling tensor over a mode basis at one evaluation point.

    entries[a, b, c, d] = L_{m_a, n_b, u_c, v_d} with the divergent
    total-rate part delta_mu delta_nv L_T excluded (it cancels identically in
    the propagation equations).
    """

    basis: ModeBasis
    entries: np.ndarray


def sector_blocks(cutoff: int, delta: int) -> tuple:
    """(first row l-block, first column l-block, count) of Delta-l sector
    delta in the basis up to `cutoff`; |delta| is at most 2 cutoff."""
    _check_index("cutoff", cutoff)
    _check_index("delta", delta, signed=True)
    if abs(delta) > 2 * cutoff:
        raise ValueError(f"delta must lie in [-{2 * cutoff}, {2 * cutoff}] at cutoff {cutoff}, not {delta}")
    return max(delta, 0), max(-delta, 0), 2 * cutoff + 1 - abs(delta)


@lru_cache(maxsize=64, typed=True)  # typed: True and 1.0 reach `sector_blocks`, not cutoff 1's entry
def sector_orders(cutoff: int, delta: int) -> tuple:
    """(N_m, N_n), N = 2r + |l|, on each entry (p, r_m, r_n) of sector delta; read-only."""
    lo_row, lo_col, count = sector_blocks(cutoff, delta)
    n = 2 * np.arange(cutoff + 1) + np.abs(np.arange(-cutoff, cutoff + 1))[:, None]  # [l-block, r]
    rows, cols = n[lo_row : lo_row + count].repeat(cutoff + 1), np.tile(n[lo_col : lo_col + count], cutoff + 1).ravel()
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _laguerre_rows(x, alpha, top: int, first=1.0) -> np.ndarray:
    """`first` times L_b^(alpha)(x), stacked over b = 0, ..., top, by the
    three-term recurrence; x, alpha and first broadcast."""
    rows = np.empty((top + 1,) + np.broadcast(x, alpha, first).shape)
    rows[0] = first
    for b in range(top):
        np.multiply(2 * b + 1 + alpha - x, rows[b], out=rows[b + 1])
        if b:
            rows[b + 1] -= (b + alpha) * rows[b - 1]
        rows[b + 1] /= b + 1
    return rows


@lru_cache(maxsize=None, typed=True)  # as `sector_orders`
def radial_rule(count: int) -> tuple:
    """(nodes, weights) of the count-point Gauss-Laguerre rule for
    int_0^inf y^(-5/6) e^-y f(y) dy, exact up to degree 2 count - 1: the
    Jacobi matrix's eigenvalues, and Gamma(n + 1/6) / (n! y L_{n-1}^(1/6)(y)^2),
    n = count, which equals Gamma(n + 1/6) y / (n! (n + 1)^2 L_{n+1}^(-5/6)(y)^2)
    but from a recurrence stable at the smallest node.  Cached, read-only."""
    _check_index("count", count, signed=True)
    if not count >= 1:
        raise ValueError(f"count must be at least 1, not {count!r}")
    k, alpha = np.arange(count), -5.0 / 6.0
    jacobi = np.diag(2 * k + 1 + alpha) + np.diag(np.sqrt(k[1:] * (k[1:] + alpha)), -1)  # eigvalsh reads L
    nodes = np.linalg.eigvalsh(jacobi)
    slope = _laguerre_rows(nodes, alpha + 1, count - 1)[-1]
    weights = math.gamma(count + 1 + alpha) / (math.factorial(count) * nodes * slope**2)
    for array in (nodes, weights):
        array.setflags(write=False)
    return nodes, weights


def _axis_values(x: np.ndarray, top: int) -> np.ndarray:
    # F[b (top + 1) + g, ...] = sqrt(b!/(b+g)!) x^(g/2) L_b^(g)(x) over x's
    # shape for b, g <= top: the one-axis displaced-Fock element between
    # quanta b + g and b without its quarter turns
    g, flat = np.arange(top + 1)[:, None], np.ravel(x)
    powers = np.cumprod(np.concatenate([np.ones((1, flat.size)), np.tile(np.sqrt(flat), (top, 1))]), axis=0)
    rows = _laguerre_rows(flat, g, top, powers)  # [b, g, x]
    factorial = np.array([math.factorial(k) for k in range(2 * top + 1)], dtype=float)
    rows *= np.sqrt(factorial[: top + 1, None] / factorial[np.add.outer(range(top + 1), range(top + 1))])[..., None]
    return rows.reshape((-1,) + np.shape(x))


def pair_coupling_blocks(cutoff: int, delta: int, ratio: np.ndarray, even: bool = False) -> np.ndarray:
    """The real blocks of a batch of carrier pairs at one z, given each
    carrier's a_i / mean(a) as a (2, batch) `ratio`: the coefficient double
    sum on Delta-l sector delta,

        G[(q, r_u, r_v), (p, r_m, r_n)] = sum_{j1 j2} c1[j1, m, u] M[j1, j2] conj(c2[j2, n, v])

    over l_m - l_n = l_u - l_v = delta, M the Gamma weights and p and q the
    sector's l-block pairs (see `sector_blocks`), is conj(d)[:, :, None] *
    real * d[:, None, :] with the diagonal phases d = e^{i(phi1 N_m - phi2 N_n)},
    phi_i = pi/2 + atan t_i and (N_m, N_n) from `sector_orders`; it maps a
    sector, stored as its stack of l-blocks, onto itself.  The real block is
    the radial integral of the module docstring on `radial_rule`'s nodes y_k,
    Gamma(-5/6) e e^T + sum_k w_k (A1[k] A2[k]^T - e e^T) / y_k, A_i[k] carrier
    i's real W_mu at x = s_i^2 y_k / 2, s_i^2 = a_i / mean(a), e the Kronecker
    delta of (m, u): one GEMM D1^T D2 per pair of l-blocks, D_i = diag(sqrt(w
    / y)) (A_i - e), and e h2^T + h1 e^T + Gamma(-5/6) e e^T on the pairs q = p,
    h_i = D_i^T sqrt(w / y).  With `even` (sector 0 only) the map acts on the
    reflection-even half: the first (cutoff + 1)^3 entries (the l-blocks
    l <= 0) of a sector whose l-blocks l and -l are equal; only the row blocks
    l <= 0 are built, each column block with its mirror's added."""
    if even and delta:
        raise ValueError("only sector 0 has a reflection-even half")
    lo_row, lo_col, count = sector_blocks(cutoff, delta)
    if cutoff > MAX_COUPLING_CUTOFF:
        raise CouplingCutoffError(f"coupling blocks are not built beyond cutoff {MAX_COUPLING_CUTOFF}")
    if np.ndim(ratio) != 2 or len(ratio) != 2 or not _positive_finite(np.asarray(ratio)):
        raise ValueError(f"ratio must be a (2, batch) array of positive finite values, not {ratio!r}")
    side, top, batch = cutoff + 1, 2 * cutoff, ratio.shape[1]
    kept = cutoff + 1 if even else count
    nodes, weights = radial_rule(max(1, 3 * cutoff))
    root, size = np.sqrt(weights / nodes), len(nodes)
    # operand entries [carrier, q, p, r_u, r_m]: u = (l-block q, r_u), m = (l-block p, r_m),
    # of the row l-blocks for carrier 1 and the column ones for carrier 2
    lo, q, p, r_u, r_m = np.ix_([lo_row, lo_col], range(kept), range(count), range(side), range(side))
    l_m, l_u = lo + p - cutoff, lo + q - cutoff
    plus_m, plus_u, minus_m, minus_u = (r + np.maximum(s * l, 0) for s in (1, -1) for r, l in ((r_m, l_m), (r_u, l_u)))
    # D is the product of two rows of a table [s F, -s F, F] per carrier, s = sqrt(w / y) and
    # F the `_axis_values`: s F, negated where (-1)^(r_m + r_u) i^{|a-b|} (-i)^{a-b} per axis
    # is -1 (a the quanta of m), and F; for m = u, s (L_p L_q - 1) replaces it (p, q the quanta)
    rows, odd = (top + 1) ** 2, (r_m + r_u + np.minimum(plus_m - plus_u, 0) + np.minimum(minus_m - minus_u, 0)) % 2
    plus, minus = (np.minimum(a, b) * (top + 1) + np.abs(a - b) for a, b in ((plus_m, plus_u), (minus_m, minus_u)))
    offset = 3 * rows * np.arange(2).reshape(2, 1, 1, 1, 1, 1)  # each carrier's table
    gather = (np.stack([plus + odd * rows, minus + 2 * rows], axis=1) + offset).ravel()
    carrier, pu, qu = np.arange(2)[:, None, None], plus_u[:, :, 0, :, 0], minus_u[:, :, 0, :, 0]  # [c, q, r] of m = u
    table, scale = np.empty((2, 3 * rows, batch, size)), np.tile(root, (batch, 1))
    factors = np.empty((2, 2, kept * count * side**2, batch, size))  # [carrier, axis, (q, p, r_u, r_m), b, k]
    same = factors[:, 0].reshape(2, kept * count, side**2, batch, size)[:, :: count + 1]  # the pairs q = p
    product = np.empty((batch, kept, count, side**2, side**2))  # [b, q, p, (r_u, r_m), (r_v, r_n)]
    on_same = product.reshape(batch, kept * count, side**2, side**2)[:, :: count + 1]
    identity = math.gamma(-5.0 / 6.0) * np.eye(side).ravel()

    values = np.moveaxis(_axis_values(x := 0.5 * ratio[..., None] * nodes, top), 1, 0)
    np.multiply(values, scale, out=table[:, :rows])
    np.negative(table[:, :rows], out=table[:, rows : 2 * rows])
    table[:, 2 * rows :] = values
    np.take(table.reshape(-1, batch, size), gather, axis=0, out=factors.reshape(-1, batch, size), mode="clip")
    d = np.multiply(factors[:, 0], factors[:, 1], out=factors[:, 0])  # sqrt(w / y) A
    # D = sqrt(w / y) (A - e): for m = u, L_p L_q - 1 = E_p L_q + E_q with E_n = L_n - 1 =
    # -sqrt(x) sum_{k <= n} F(k, k - 1) / sqrt(k), whose terms have one sign at small x
    terms = values[:, 1 :: top + 1] * (-np.sqrt(x)[:, None] / np.sqrt(np.arange(1.0, top + 2))[:, None, None])
    less = np.concatenate([np.zeros_like(values[:, :1]), np.cumsum(terms[:, :-1], axis=1)], axis=1)
    same[:, :, :: side + 1] = (less[carrier, pu] * values[carrier, qu * (top + 1)] + less[carrier, qu]) * scale
    h = np.einsum("cqibk,k->cbqi", same, root)  # one loop per entry: (m, u) and (u, m) agree to the bit
    d = d.reshape(2, kept, count, side**2, batch, size).transpose(0, 4, 1, 2, 3, 5)
    np.matmul(d[0], d[1].swapaxes(-1, -2), out=product)
    on_same[:, :, :: side + 1] += (h[1] + identity)[:, :, None]  # e (h2 + Gamma e)^T
    on_same[:, :, :, :: side + 1] += h[0][..., None]  # h1 e^T
    if even:  # each column block's mirror, 2 cutoff - p for p < cutoff
        product[:, :, :cutoff] += product[:, :, :cutoff:-1]
    blocks = product.reshape(batch, kept, count, side, side, side, side)[:, :, :kept]
    return blocks.transpose(0, 1, 3, 5, 2, 4, 6).reshape(batch, kept * side**2, kept * side**2)


def even_ratio_interpolant(cutoff: int, spread: float):
    """A function rho -> blocks: for each rho of a 1-D array within `spread` of
    1, the real block of `pair_coupling_blocks(cutoff, 0, ., even=True)` on
    the carriers (rho, 2 - rho), transposed, in one fresh (len(rho), E, E)
    array.  The blocks are built once at 6 cutoff + 1 (1 at spread 0)
    Chebyshev points 1 + spread sin(.), the middle one exactly 1, their odd
    entries divided by sqrt(rho (2 - rho)); a call is one GEMM of barycentric
    weights, times sqrt(rho (2 - rho)) on the odd entries, against them.  A rho
    on a point takes that point's block bit for bit."""
    _check_index("cutoff", cutoff)
    if not 0.0 <= spread < 1.0:
        raise ValueError(f"spread must lie in [0, 1), not {spread!r}")
    count = 6 * cutoff + 1 if spread > 0.0 else 1
    angles = (2 * np.arange(count) + 1 - count) * (0.5 * math.pi / count)
    points, weights = 1.0 + spread * np.sin(angles), np.cos(angles) * (-1.0) ** np.arange(count)
    blocks = pair_coupling_blocks(cutoff, 0, np.stack([points, 2.0 - points]), even=True)
    flat, size = blocks.transpose(0, 2, 1).reshape(count, -1), len(blocks[0])
    block = np.arange(size) // (cutoff + 1) ** 2
    odd = np.subtract.outer(block, block).ravel() % 2 == 1
    stack = np.concatenate([np.where(odd, 0.0, flat), np.where(odd, flat, 0.0) / np.sqrt(points * (2.0 - points))[:, None]])

    def interpolate(ratio: np.ndarray) -> np.ndarray:
        matrix = barycentric_matrix(ratio, points, weights)
        matrix = np.concatenate([matrix, matrix * np.sqrt(ratio * (2.0 - ratio))[:, None]], axis=1)
        return (matrix @ stack).reshape(len(ratio), size, size)

    return interpolate


@lru_cache(maxsize=None, typed=True)  # as `sector_orders`
def _real_sector(cutoff: int, delta: int) -> tuple:
    # (G, N_m - N_n on each sector entry), both read-only: at one wavelength
    # s_i = 1, so the real block is the same at every t, and D1 = D2 = D on
    # sector 0, whose GEMM is D^T D.  G is symmetric: an entry and its
    # mirror are the same sum of the same products
    block = pair_coupling_blocks(cutoff, delta, np.ones((2, 1)))[0]
    orders = np.subtract(*sector_orders(cutoff, delta))
    for array in (block, orders):
        array.setflags(write=False)
    return block, orders


def sector_coupling(cutoff: int, delta: int, t: float) -> np.ndarray:
    """The coefficient double sum on Delta-l sector delta at one wavelength
    and normalized distance t (`pair_coupling_blocks`'s G with c1 = c2):
    conj(d) G d, G the cached real block, d = e^{i(pi/2 + atan t)(N_m - N_n)}
    on each sector entry (p, r_m, r_n) with exact quarter turns (zeros stay 0)."""
    block, orders = _real_sector(cutoff, delta)
    d = np.array([1, 1j, -1, -1j])[orders % 4] * np.exp(1j * math.atan(t) * orders)
    return np.conj(d)[:, None] * block * d


def coupling_tensor(basis: ModeBasis, z: float, cn2: float, w0: float, wavelength: float) -> CouplingTensor:
    """The full tensor L_{m,n,u,v}(z) (total-rate part excluded) at one
    wavelength (m), sector by sector.  A negative or non-finite z, w0 or
    wavelength, or a C_n^2 outside the profile range (0 allowed), is refused."""
    _check_cn2(cn2, allow_zero=True)
    for name, value in (("w0", w0), ("wavelength", wavelength)):
        if not _positive_finite(value):
            raise ValueError(f"{name} must be positive and finite, not {value!r}")
    if not 0 <= z < math.inf:
        raise ValueError(f"z must be finite and >= 0, not {z!r}")
    t = normalized_distance(z, wavelength, w0)
    rate = COUPLING_PREFACTOR * l_strength(z, cn2, wavelength, w0)
    deltas = range(-2 * basis.cutoff, 2 * basis.cutoff + 1)
    blocks = [rate * sector_coupling(basis.cutoff, d, t) for d in deltas]  # guard before allocating
    side = basis.cutoff + 1
    # entries[m, n, u, v] split into (l-block, radial index) pairs
    entries = np.zeros((2 * side - 1, side) * 4, dtype=complex)
    for delta, block in zip(deltas, blocks):
        lo_row, lo_col, count = sector_blocks(basis.cutoff, delta)
        p, q = np.arange(count)[:, None], np.arange(count)[None, :]
        # [q, r_u, r_v, p, r_m, r_n] -> [p, q, r_m, r_n, r_u, r_v]
        block = block.reshape(count, side, side, count, side, side).transpose(3, 0, 4, 5, 1, 2)
        entries[lo_row + p, :, lo_col + p, :, lo_row + q, :, lo_col + q, :] = block
    return CouplingTensor(basis=basis, entries=entries.reshape((basis.size,) * 4))
