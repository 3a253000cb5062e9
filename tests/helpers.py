"""Independent oracles and builders shared by the test suite.

Everything here is computed without touching the package internals:
projection by bisection on the dual threshold and by the full sort and
threshold search, simplex invariance by the tangent-cone condition,
stationary distributions by a dense null space, matrix exponentials, naive
monomial evaluation, exact rates and the exact three-state Dulac field in
``fractions.Fraction``, the oscillator's rates cell by cell, polynomial rates
and drifts contracted by ``np.einsum``, a replicator-mutator cell table, a
cell table's states relabelled, and two-state herding tables with their drift's
roots by ``numpy.roots``.
Values frozen in the tests were produced by these oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg import expm, null_space

from nlmc import GeneratorSpec

CONSUMER_PARAMS = {"b": 1.0, "e": 1.0, "eps": 0.1, "lam": 1.0}
# Rock-paper-scissors whose strategies win 0.1 over the tie payoff 1 and lose 0.9 under it:
# with a little mutation its replicator flow circles the barycentre on a limit cycle.
RPS_GAME = ((1.0, 0.1, 1.1), (1.1, 1.0, 0.1), (0.1, 1.1, 1.0))


def consumer_rest_point() -> np.ndarray:
    """Closed-form rest point of the consumer generator at the default params.

    With b = lam the second chart equation decouples:
    u2^2 + 1.1 u2 - 1 = 0, then u1^2 + 2.1 u1 + u2 - 1 = 0.
    """
    u2 = (-1.1 + math.sqrt(1.21 + 4.0)) / 2.0
    u1 = (-2.1 + math.sqrt(4.41 + 4.0 * (1.0 - u2))) / 2.0
    return np.array([u1, u2, 1.0 - u1 - u2])


def bistable_scalar_drift(m1: float) -> float:
    """Two-state drift of m1 by direct polynomial evaluation.

    f(m1) = (1 - m1) q21(m1) - m1 q12(m1)
          = -(32/3) (m1 - 1/4)(m1 - 1/2)(m1 - 3/4) after expansion.
    """
    q12 = 29.0 / 3.0 * m1**2 - 16.0 * m1 + 22.0 / 3.0
    q21 = m1**2 + m1 + 1.0
    return (1.0 - m1) * q21 - m1 * q12


def random_rate_matrix(rng, s: int, low: float = 0.2, high: float = 1.5, sparsity: float = 0.0):
    """Random conservative rate matrix; all off-diagonal rates in [low, high].

    With sparsity > 0 a fraction of the off-diagonal entries is zeroed (the
    result may then be reducible).
    """
    q = rng.uniform(low, high, size=(s, s))
    if sparsity:
        q[rng.random((s, s)) < sparsity] = 0.0
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def random_distribution(rng, s: int) -> np.ndarray:
    return rng.dirichlet(np.ones(s))


def projection_oracle(v) -> np.ndarray:
    """Euclidean projection onto the simplex by bisection on the threshold.

    g(theta) = sum max(v - theta, 0) is continuous and decreasing, so the
    theta with g(theta) = 1 is found to machine precision by bisection.
    """
    v = np.asarray(v, dtype=float)
    lo = float(v.min()) - 1.0
    hi = float(v.max())
    for _ in range(200):
        theta = 0.5 * (lo + hi)
        if np.maximum(v - theta, 0.0).sum() > 1.0:
            lo = theta
        else:
            hi = theta
    return np.maximum(v - 0.5 * (lo + hi), 0.0)


def sorted_projection_oracle(v) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``(n, S)`` projected by the sort-based threshold search, with no shortcut.

    Each row is sorted in descending order; its threshold is (cumsum - 1) / k
    at the last k whose sorted entry exceeds it (Held, Wolfe and Crowder 1974).
    Returns the rows and their max-norm drifts; the same arithmetic in the same
    order as nlmc's projection, so results agree bit for bit.
    """
    v = np.asarray(v, dtype=float)
    n, s = v.shape
    u = np.sort(v, axis=1)[:, ::-1]
    thresholds = (u.cumsum(axis=1) - 1.0) / np.arange(1, s + 1)
    rho = s - 1 - (u > thresholds)[:, ::-1].argmax(axis=1)
    x = np.maximum(v - thresholds[np.arange(n), rho][:, None], 0.0)
    return x, np.abs(v - x).max(axis=1)


def oscillator_rates_oracle(points) -> np.ndarray:
    """The oscillator's rates ``(n, 3, 3)`` cell by cell, each cell an ``np.where``
    on its own comparison with 1/3 after clamping the point at 1/10."""
    c = np.maximum(np.asarray(points, dtype=float), 0.1)
    third = 1.0 / 3.0
    q = np.zeros((c.shape[0], 3, 3))
    q[:, 0, 2] = np.where(c[:, 1] <= third, (third - c[:, 1]) / c[:, 0], 0.0)
    q[:, 1, 2] = np.where(c[:, 0] >= third, (c[:, 0] - third) / c[:, 1], 0.0)
    q[:, 2, 0] = np.where(c[:, 1] >= third, (c[:, 1] - third) / c[:, 2], 0.0)
    q[:, 2, 1] = np.where(c[:, 0] <= third, (third - c[:, 0]) / c[:, 2], 0.0)
    idx = np.arange(3)
    q[:, idx, idx] = -q.sum(axis=2)
    return q


def einsum_oracle(dimension: int, cells: dict, points) -> tuple[np.ndarray, np.ndarray]:
    """Rates ``(n, S, S)`` and drifts ``(n, S)`` of a polynomial cell table, both
    contracted by ``np.einsum`` in the generator's order: the distinct monomials
    sorted, each the product of its factors from 1.0, one coordinate per unit of
    degree in index order, one coefficient column per entry of Q, and each diagonal
    column set by fancy index to minus its row's off-diagonal columns, summed over
    the table."""
    points = np.asarray(points, dtype=float)
    s = dimension
    monomials = sorted({exps for terms in cells.values() for exps, _ in terms})
    coeffs = np.zeros((len(monomials), s, s))
    for (i, j), terms in cells.items():
        for monomial, coefficient in terms:
            coeffs[monomials.index(monomial), i, j] += coefficient
    idx = np.arange(s)
    coeffs[:, idx, idx] = -coeffs.sum(axis=2)
    values = np.ones((points.shape[0], len(monomials)))
    for t, monomial in enumerate(monomials):
        for k, e in enumerate(monomial):
            for _ in range(e):
                values[:, t] *= points[:, k]
    q = np.einsum("nt,tk->nk", values, coeffs.reshape(-1, s * s)).reshape(-1, s, s)
    return q, np.einsum("ni,nij->nj", points, q)


def fraction_rates(dimension: int, cells: dict, point) -> tuple[list, list]:
    """Exact rates of a cell table at a point of floats, in ``fractions.Fraction``.

    Returns the S x S rates, each diagonal minus its row's cells, and per row the
    sum of the absolute values of its terms (the scale of its rounding)."""
    x = [Fraction(v) for v in point]
    q = [[Fraction(0)] * dimension for _ in range(dimension)]
    scale = [Fraction(0)] * dimension
    for (i, j), terms in cells.items():
        for exponents, coefficient in terms:
            term = Fraction(coefficient)
            for xk, e in zip(x, exponents):
                term *= xk**e
            q[i][j] += term
            scale[i] += abs(term)
    for i in range(dimension):
        q[i][i] = -sum(q[i][j] for j in range(dimension) if j != i)
    return q, scale


def fraction_dulac_field(cells: dict, point) -> Fraction:
    """Exact Dulac field D = tr J - sum_i f_i/m_i of a three-state cell table at an interior
    point of floats, in ``fractions.Fraction``: f = m^T Q(m), J its Jacobian on the chart
    (m1, m2) with m3 eliminated, every partial derivative of a monomial taken by hand."""
    m = [Fraction(v) for v in point]
    # grads[0] is Q itself; grads[1 + k] is dQ/dm_k.
    grads = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(4)]
    for (i, j), terms in cells.items():
        for exponents, coefficient in terms:
            c = Fraction(coefficient)
            grads[0][i][j] += c * math.prod(x**e for x, e in zip(m, exponents))
            for k, ek in enumerate(exponents):
                if ek:
                    lowered = [e - (n == k) for n, e in enumerate(exponents)]
                    grads[1 + k][i][j] += c * ek * math.prod(x**e for x, e in zip(m, lowered))
    for g in grads:
        for i in range(3):
            g[i][i] = -sum(g[i][j] for j in range(3) if j != i)
    q = grads[0]
    f = [sum(m[j] * q[j][i] for j in range(3)) for i in range(3)]

    def df(i, k):  # d f_i / d m_k
        return q[k][i] + sum(m[j] * grads[1 + k][j][i] for j in range(3))

    trace = df(0, 0) - df(0, 2) + df(1, 1) - df(1, 2)
    return trace - sum(f[i] / m[i] for i in range(3))


def rps_mutator_cells(mu: float, a) -> dict:
    """Replicator-mutator cell table on three states: the rate from every j into i is
    mu + m_i (A m)_i, so the drift is replicator dynamics of the game A plus uniform mutation."""
    cells = {}
    for i in range(3):
        terms = [((0, 0, 0), mu)]
        for k in range(3):
            terms.append((tuple((n == i) + (n == k) for n in range(3)), float(a[i][k])))
        cells.update({(j, i): terms for j in range(3) if j != i})
    return cells


def stays_in_simplex(states, drifts) -> bool:
    """Whether every state is on the simplex and its drift lies in the tangent cone there.

    On the simplex: entries at least -1e-9 and mass within 1e-9 of one.  In the
    tangent cone: the drift conserves mass to 1e-10 and pushes no zero
    coordinate (at most 1e-12) below -1e-10, so the flow cannot leave.
    """
    m, y = np.atleast_2d(states), np.atleast_2d(drifts)
    on_simplex = (m.min(axis=1) >= -1e-9) & (np.abs(m.sum(axis=1) - 1.0) <= 1e-9)
    tangent = (np.abs(y.sum(axis=1)) <= 1e-10) & ((m > 1e-12) | (y >= -1e-10)).all(axis=1)
    return bool((on_simplex & tangent).all())


def stationary_oracle(q: np.ndarray) -> np.ndarray:
    """Stationary distribution of a constant rate matrix via its null space."""
    ns = null_space(q.T)
    assert ns.shape[1] == 1, "oracle expects an irreducible rate matrix"
    pi = ns[:, 0]
    return pi / pi.sum()


def expm_oracle(q: np.ndarray, m0, t: float) -> np.ndarray:
    """Marginal law of a constant-rate chain: m(t) = m0^T exp(Q t)."""
    return np.asarray(m0, dtype=float) @ expm(q * t)


def naive_cell_value(terms, point) -> float:
    """Evaluate a monomial table term by term, no vectorization."""
    total = 0.0
    for exponents, coefficient in terms:
        value = float(coefficient)
        for x, e in zip(point, exponents):
            value *= float(x) ** int(e)
        total += value
    return total


def naive_rates(dimension: int, cells: dict, point) -> np.ndarray:
    """Assemble a rate matrix from off-diagonal cell tables, loops only."""
    q = np.zeros((dimension, dimension))
    for (i, j), terms in cells.items():
        q[i, j] = naive_cell_value(terms, point)
    for i in range(dimension):
        q[i, i] = -(q[i].sum() - q[i, i])
    return q


def random_polynomial_cells(rng, s: int, max_degree: int = 3) -> dict:
    """Random off-diagonal monomial tables (raw cells, not validated rates)."""
    cells = {}
    for i in range(s):
        for j in range(s):
            if i == j or rng.random() < 0.25:
                continue
            terms = []
            for _ in range(int(rng.integers(1, 4))):
                degree = int(rng.integers(0, max_degree + 1))
                exponents = tuple(int(e) for e in rng.multinomial(degree, np.ones(s) / s))
                terms.append((exponents, float(rng.uniform(0.1, 2.0))))
            cells[(i, j)] = terms
    return cells


def _herding_cell(rng, target):
    # A base rate, so the chain is irreducible, plus terms that grow
    # with the share of the target state, so some specs are bistable.
    terms = [((0, 0), float(rng.uniform(0.1, 1.0)))]
    for _ in range(int(rng.integers(1, 3))):
        exponents = [0, 0]
        exponents[target] = int(rng.integers(1, 4))
        exponents[1 - target] = int(rng.integers(0, 2))
        terms.append((tuple(exponents), float(rng.uniform(0.5, 10.0))))
    return terms


def two_state_herding_cells(count: int) -> list[dict]:
    """The first ``count`` two-state herding cell tables drawn from rng 2024."""
    rng = np.random.default_rng(2024)
    return [{(0, 1): _herding_cell(rng, 1), (1, 0): _herding_cell(rng, 0)} for _ in range(count)]


def two_state_drift_roots(cells: dict) -> np.ndarray:
    """The real roots in [0, 1] of a two-state cell table's drift f1, by ``numpy.roots``."""
    # The chart m = (m1, 1 - m1) as polynomials in m1.
    m1, m2 = Polynomial([0.0, 1.0]), Polynomial([1.0, -1.0])

    def rate(terms):
        return sum((c * m1**a * m2**b for (a, b), c in terms), Polynomial([0.0]))

    drift = m2 * rate(cells.get((1, 0), ())) - m1 * rate(cells.get((0, 1), ()))
    roots = np.roots(drift.coef[::-1])
    roots = roots[np.abs(roots.imag) <= 1e-9].real
    return roots[(roots >= 0.0) & (roots <= 1.0)]


def relabel(spec, perm):
    """The polynomial spec whose state k is ``spec``'s state ``perm[k]``.

    Its rates at m[perm] are ``spec``'s rates at m with rows and columns
    permuted, Q'(m[perm]) = Q(m)[perm][:, perm]; a point m' of the new labels
    is m'[argsort(perm)] in the old ones.
    """
    new = {old: k for k, old in enumerate(perm)}
    cells = {
        (new[i], new[j]): [(tuple(exps[old] for old in perm), c) for exps, c in terms]
        for (i, j), terms in spec.cells.items()
    }
    return GeneratorSpec(spec.dimension, cells=cells)
