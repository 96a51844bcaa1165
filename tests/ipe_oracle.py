"""Earlier forms of `ipe._lawson_loop` and `ipe._step_product`, kept as the
references that the current ones must match bit for bit: the Lawson RK4
loop written one numpy expression per stage, a fresh array for each (on the
operator the caller hands over), and the step maps with their operands
built on every call."""
from __future__ import annotations

import numpy as np


def lawson_loop(apply, u: np.ndarray, factors: tuple) -> np.ndarray:
    """`ipe._lawson_loop` on the coefficients of `ipe._lawson_factors`, with
    N_k x the operator that apply(k, x, out) writes into `out`: per step s,
    with p = N_2s u, k2 = N_2s+1 (a u + b p), k3 = N_2s+1 (a u + half k2),
    k4 = N_2s+2 (c u + d k3) and u <- e u + f p + j (k2 + k3) + k4."""

    def operator(node, x):
        out = np.empty_like(x)
        apply(node, x, out)
        return out

    coefficients, halves = factors
    for s, ((a, b, e, f, d, c, j), half) in enumerate(zip(coefficients, halves)):
        p, au = operator(2 * s, u), a * u
        k2 = operator(2 * s + 1, au + b * p)
        k3 = operator(2 * s + 1, au + half * k2)
        k4 = operator(2 * s + 2, c * u + d * k3)
        u = e * u + f * p + j * (k2 + k3) + k4
    return u


def step_product(rotation: np.ndarray, u: np.ndarray, factors: tuple) -> np.ndarray:
    """An earlier form of `ipe._step_product`, which built its map operands
    (`pick`, `turned`) from the rotation on every call and summed the maps
    into their step-first layout through a transposed output: the product of
    the step maps of `lawson_loop`, with R = rotation,
    P_s = diag(e) + diag(f) R + diag(j) (K2 + K3) + K4, K2 = R (diag(a) + diag(b) R),
    K3 = R (diag(a) + half K2) and K4 = R (diag(c) + diag(d) K3), multiplied
    pairwise."""
    (a, _, _, _, d, c, j), half = factors[0].transpose(1, 2, 0), factors[1]  # each [i, step]
    m, n = len(u), len(half)
    pick = np.zeros((m, m, 2, m))  # pick[(i, k), (0, i)] = 1 and pick[(i, k), (1, i)] = R[i, k]
    pick[range(m), range(m), 0, range(m)] = 1.0
    pick[range(m), :, 1, range(m)] = rotation
    pick, turned = pick.reshape(m * m, 2 * m), (rotation @ pick.reshape(m, -1)).reshape(m * m, 2 * m)
    y, k2, k3, k4 = np.empty((4, m, m, n))
    y_rows, k3_rows, k4_rows = (x.reshape(m, m * n) for x in (y, k3, k4))  # [i, (k, step)]
    y_flat, k2_flat = y.reshape(m * m, n), k2.reshape(m * m, n)  # [(i, k), step]
    np.matmul(turned, factors[0][:, :2].reshape(n, 2 * m).T, out=k2_flat)  # K2, from [a; b]
    np.multiply(k2, half, out=y)
    y_flat[:: m + 1] += a  # the diagonal: Y3
    np.matmul(rotation, y_rows, out=k3_rows)
    np.multiply(k3, d[:, None], out=y)
    y_flat[:: m + 1] += c  # Y4
    np.matmul(rotation, y_rows, out=k4_rows)
    k2 += k3
    k2 *= j[:, None]
    k2 += k4
    np.matmul(pick, factors[0][:, 2:4].reshape(n, 2 * m).T, out=y_flat)  # diag(e) + diag(f) R, from [e; f]
    # the maps step first, their products ping-ponging between two buffers
    total, spare = k3.reshape(n, m, m), k4.reshape(n, m, m)
    np.add(k2, y, out=total.transpose(1, 2, 0))
    while len(total) > 1:
        pairs = len(total) // 2
        np.matmul(total[1 : 2 * pairs : 2], total[: 2 * pairs : 2], out=spare[:pairs])
        spare[pairs : pairs + len(total) % 2] = total[2 * pairs :]
        total, spare = spare[: pairs + len(total) % 2], total
    return total[0] @ u
