"""Projective and injective tensor norms on finite sup-norm models.

A matrix U is read as an element of ``l_inf(K) (x) l_inf(L)`` with K, L
finite.  Over these models:

* the injective norm is the largest entry in absolute value (the dual
  balls are l_1 with signed coordinate extreme points);
* the projective norm is the supremum of ``<B, U>`` over bilinear forms
  B of norm at most one, and that ball is exactly the polytope cut out
  by the sign constraints ``|eps^T B delta| <= 1``.  Both the supremum
  (certificate form) and the infimum over decompositions into sign
  dyads (synthesis form) are linear programs, solved here with HiGHS;
  the two give independent routes to the same value.

Weakly p-summing norms of vector and matrix families are provided with
the budgets they admit: exact sign enumeration for the weak-1 norm, and
seeded sampling plus local ascent for weak-2 lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Sequence

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

__all__ = [
    "TensorMatrix",
    "DualCertificate",
    "BudgetError",
    "eps_norm",
    "pi_norm",
    "pi_norm_decomposition",
    "pair_dual",
    "weak_p_norm_vec",
    "weak_1_norm_pi",
    "weak_2_norm_pi_lower",
    "canonical_model",
]

MAX_LP_SIDE = 10  # enumeration side: 2^(side-1) sign vectors
MAX_LP_ENTRIES = 1 << 14
MAX_EPIGRAPH_VARS = 1 << 12  # prefer the one-shot l1-epigraph LP below this
MAX_CONSTRAINTS = 1 << 18
MAX_SIGN_FAMILY = 8


class BudgetError(ValueError):
    """The instance exceeds the configured enumeration budget."""


@dataclass(frozen=True)
class TensorMatrix:
    """A matrix with optional row/column labels naming the model points."""

    entries: np.ndarray
    row_labels: tuple = ()
    col_labels: tuple = ()

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.ndim != 2 or arr.size == 0:
            raise ValueError("entries must form a non-empty 2-d matrix")
        if not np.isfinite(arr).all():
            raise ValueError("entries must be finite")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self):
        return self.entries.shape

    def to_json(self):
        return [list(map(float, row)) for row in self.entries]


def _as_array(u) -> np.ndarray:
    if isinstance(u, TensorMatrix):
        return u.entries
    arr = np.asarray(u, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("expected a non-empty 2-d matrix")
    return arr


@dataclass(frozen=True)
class DualCertificate:
    """A bilinear form B with its verified sign-enumeration norm bound.

    For any matrix U of matching shape, ``<B, U> / bound`` is a valid
    lower bound for the projective norm of U.
    """

    matrix: np.ndarray
    bound: float

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=float).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


def _signs(k: int, fix_first: bool = False) -> np.ndarray:
    rows = []
    first = (1,) if fix_first else (-1, 1)
    for head in first:
        for tail in product((-1, 1), repeat=k - 1):
            rows.append((head,) + tail)
    return np.array(rows, dtype=float)


def _check_lp_budget(m: int, n: int):
    if min(m, n) > MAX_LP_SIDE:
        raise BudgetError(
            f"matrix min side {min(m, n)} exceeds the LP budget {MAX_LP_SIDE}"
        )
    if m * n > MAX_LP_ENTRIES:
        raise BudgetError(f"{m}x{n} exceeds the LP size budget {MAX_LP_ENTRIES}")


def eps_norm(u) -> float:
    """Injective norm: the largest entry in absolute value."""
    return float(np.abs(_as_array(u)).max())


def sign_norm(B) -> float:
    """Bilinear-form norm of B over the sup-norm unit balls.

    Equals ``max_eps ||eps^T B||_1``: for a fixed row sign vector the
    optimal column signs align with the resulting row, so only the
    smaller side needs enumeration.  Exact by convexity.
    """
    B = _as_array(B)
    if B.shape[0] > B.shape[1]:
        B = B.T
    m, n = B.shape
    if m > MAX_LP_SIDE:
        raise BudgetError(f"matrix min side {m} exceeds the LP budget {MAX_LP_SIDE}")
    E = _signs(m, fix_first=True)
    return float(np.abs(E @ B).sum(axis=1).max())


class PiSolver:
    """Exact projective-norm solver over one model shape.

    Maximizes ``<B, U>`` over the polytope ``|eps^T B delta| <= 1``.
    For a fixed sign vector eps on the enumerated side, the constraint
    over all delta is exactly ``||B^T eps||_1 <= 1``.  Two equivalent
    routes exploit this:

    * an l1-epigraph formulation (one auxiliary variable per enumerated
      sign vector and column) solved as a single LP, used whenever it
      fits the size budget;
    * cutting planes with the exact separation oracle
      ``delta = sign(B^T eps)``, for long matrices.

    Both produce a certificate feasible for every sign constraint and
    optimal over the full polytope.  A solver instance can be reused
    across matrices of the same shape (sign enumerations, ascent
    iterations); the constraint structure is objective-independent, so
    the epigraph matrix is built once per instance.  Each distinct
    matrix is solved once per instance: HiGHS is deterministic, so a
    repeat (an ascent that returns to a point it has already solved)
    gets the stored value and certificate.
    """

    def __init__(self, m: int, n: int):
        _check_lp_budget(m, n)
        self.m, self.n = m, n
        self.E = _signs(m, fix_first=True)
        self._rows: list[np.ndarray] = []
        self._seen: set = set()
        self._solved: dict[bytes, tuple[float, DualCertificate]] = {}
        self._epigraph = (
            self._build_epigraph() if len(self.E) * n <= MAX_EPIGRAPH_VARS else None
        )

    def _build_epigraph(self):
        # |eps^T B delta| <= 1 for all delta is the l1 bound ||B^T eps||_1 <= 1,
        # written with one absolute-value variable per (eps, column): an
        # exact single LP with no constraint generation.  Row 2*(p*n + j) + s
        # reads sign_s * (eps_p^T B)_j - t_pj <= 0, and row 2*P*n + p reads
        # sum_j t_pj <= 1; columns are B row-major, then t row-major.
        m, n, P = self.m, self.n, len(self.E)
        mn, Pn = m * n, P * n
        t_cols = mn + np.arange(Pn)
        data = np.empty((P, n, 2, m + 1))
        data[..., :m] = self.E[:, None, None, :] * np.array([[1.0], [-1.0]])
        data[..., m] = -1.0
        cols = np.empty((P, n, 2, m + 1), dtype=np.intp)
        cols[..., :m] = np.arange(n)[:, None, None] + n * np.arange(m)
        cols[..., m] = t_cols.reshape(P, n, 1)
        indptr = np.concatenate(
            [
                (m + 1) * np.arange(2 * Pn + 1),
                2 * Pn * (m + 1) + n * np.arange(1, P + 1),
            ]
        )
        A = sparse.csr_matrix(
            (
                np.concatenate([data.reshape(-1), np.ones(Pn)]),
                np.concatenate([cols.reshape(-1), t_cols]),
                indptr,
            ),
            shape=(2 * Pn + P, mn + Pn),
        )
        b = np.concatenate([np.zeros(2 * Pn), np.ones(P)])
        bounds = np.repeat([[-1.0, 1.0], [0.0, 1.0]], [mn, Pn], axis=0)
        return A, b, bounds

    def _add_cut(self, cut: np.ndarray) -> bool:
        key = cut.tobytes()
        if key in self._seen:
            return False
        self._seen.add(key)
        self._rows.append(cut.reshape(-1))
        return True

    def _certificate(self, B: np.ndarray) -> DualCertificate:
        bound = float(np.abs(self.E @ B).sum(axis=1).max())
        return DualCertificate(B, max(bound, 1e-300))

    def solve(self, U: np.ndarray) -> tuple[float, DualCertificate]:
        """Optimal value and certificate; a matrix seen before by this
        solver returns its first answer without a new LP."""
        U = np.asarray(U, dtype=float)
        if U.shape != (self.m, self.n):
            raise ValueError("matrix shape does not match the solver's model")
        key = U.tobytes()
        result = self._solved.get(key)
        if result is None:
            if self._epigraph is not None:
                result = self._solve_epigraph(U)
            else:
                result = self._solve_cutting(U)
            self._solved[key] = result
        return result

    def _solve_epigraph(self, U: np.ndarray) -> tuple[float, DualCertificate]:
        A, b, bounds = self._epigraph
        cost = np.concatenate([-U.reshape(-1), np.zeros(A.shape[1] - U.size)])
        res = linprog(cost, A_ub=A, b_ub=b, bounds=bounds, method="highs")
        if res.status != 0:
            raise RuntimeError(f"projective-norm LP failed: {res.message}")
        B = res.x[: U.size].reshape(self.m, self.n)
        return -float(res.fun), self._certificate(B)

    def _solve_cutting(self, U: np.ndarray) -> tuple[float, DualCertificate]:
        cost = -U.reshape(-1)
        bounds = [(-1.0, 1.0)] * (self.m * self.n)
        if not self._rows:
            for e in self.E:
                row = e @ U
                self._add_cut(np.outer(e, np.sign(row) + (row == 0)))
        value, B = None, None
        for _ in range(300):
            A = np.vstack(self._rows)
            A_ub = np.vstack([A, -A])
            res = linprog(
                cost,
                A_ub=A_ub,
                b_ub=np.ones(A_ub.shape[0]),
                bounds=bounds,
                method="highs",
            )
            if res.status != 0:
                raise RuntimeError(f"projective-norm LP failed: {res.message}")
            B = res.x.reshape(self.m, self.n)
            value = -float(res.fun)
            Z = self.E @ B
            viol = np.abs(Z).sum(axis=1)
            order = np.argsort(viol)[::-1]
            added = 0
            for idx in order[:64]:
                if viol[idx] <= 1 + 1e-9:
                    break
                delta = np.sign(Z[idx]) + (Z[idx] == 0)
                if self._add_cut(np.outer(self.E[idx], delta)):
                    added += 1
            if added == 0:
                if viol.max() > 1 + 1e-6:
                    raise RuntimeError("projective-norm LP stalled above tolerance")
                break
        else:
            raise RuntimeError("projective-norm LP did not converge")
        return value, self._certificate(B)


def pi_norm(u) -> tuple[float, DualCertificate]:
    """Projective norm with an optimal dual certificate.

    One-shot interface over :class:`PiSolver`; the matrix is oriented so
    the smaller side is enumerated, and the returned certificate matches
    the input orientation with an independently re-verified bound.
    """
    U = _as_array(u)
    transposed = U.shape[0] > U.shape[1]
    if transposed:
        U = U.T
    value, cert = PiSolver(*U.shape).solve(U)
    if transposed:
        cert = DualCertificate(cert.matrix.T, cert.bound)
    return value, cert


def pi_norm_decomposition(
    u, *, max_constraints: int = MAX_CONSTRAINTS
) -> tuple[float, list[tuple[float, np.ndarray, np.ndarray]]]:
    """Projective norm via explicit decomposition into sign dyads.

    The unit ball of the projective norm on a finite sup-norm model is
    the convex hull of ``+/- eps (x) delta`` over sign vectors, so the
    norm is the least total weight expressing U as a signed combination
    of such dyads.  This synthesis linear program is the independent
    oracle for :func:`pi_norm`; it also returns the achieving
    decomposition, a certified upper bound.  Unlike the cutting-plane
    supremum it enumerates all dyads up front, so both sides must be
    small.
    """
    U = _as_array(u)
    m, n = U.shape
    if 2 ** (m + n) > max_constraints:
        raise BudgetError(
            f"2^{m + n} sign dyads exceed the budget {max_constraints}"
        )
    E = _signs(m, fix_first=True)
    D = _signs(n)
    dyads = np.einsum("ai,bj->abij", E, D).reshape(-1, m * n).T  # (mn, K)
    K = dyads.shape[1]
    A_eq = np.hstack([dyads, -dyads])
    res = linprog(
        np.ones(2 * K),
        A_eq=A_eq,
        b_eq=U.reshape(-1),
        bounds=[(0, None)] * (2 * K),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"decomposition LP failed: {res.message}")
    lam = res.x[:K] - res.x[K:]
    terms = []
    for k in np.nonzero(np.abs(lam) > 1e-12)[0]:
        a, b = divmod(int(k), D.shape[0])
        terms.append((float(lam[k]), E[a].copy(), D[b].copy()))
    return float(res.fun), terms


def pair_dual(u, cert: DualCertificate) -> float:
    """The pairing ``<B, U>``; divided by the bound it lower-bounds pi."""
    U = _as_array(u)
    if U.shape != cert.matrix.shape:
        raise ValueError("certificate shape does not match the matrix")
    return float(np.sum(cert.matrix * U))


def weak_p_norm_vec(xs: Sequence, p: float) -> float:
    """Weakly p-summing norm of vectors in a finite sup-norm space.

    By convexity the dual-ball supremum is attained at signed
    coordinates, giving the columnwise formula."""
    arr = np.asarray(xs, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected a family of equal-length vectors")
    return float((np.abs(arr) ** p).sum(axis=0).max() ** (1.0 / p))


def weak_1_norm_pi(us: Sequence) -> float:
    """Exact weakly 1-summing norm of matrices under the projective norm.

    Enumerates all sign patterns (the extreme points of the l_inf ball
    of coefficients) and takes the largest projective norm of the
    signed sum."""
    mats = [_as_array(u) for u in us]
    k = len(mats)
    if k > MAX_SIGN_FAMILY:
        raise BudgetError(f"family of {k} exceeds the sign budget {MAX_SIGN_FAMILY}")
    stack = np.stack(mats)
    if stack.shape[1] > stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    solver = PiSolver(*stack.shape[1:])
    best = 0.0
    for signs in product((-1.0, 1.0), repeat=k - 1):
        a = np.array((1.0,) + signs)
        val, _ = solver.solve(np.tensordot(a, stack, axes=1))
        best = max(best, val)
    return best


def weak_2_norm_pi_lower(
    us: Sequence,
    *,
    samples: int = 64,
    seed: int = 0,
    ascent_steps: int = 8,
) -> float:
    """Seeded lower bound for the weakly 2-summing projective norm.

    Evaluates ``pi(sum a_k u_k)`` at unit l_2 coefficient vectors:
    the coordinate directions, ``samples`` random directions, and a few
    steps of certificate-gradient ascent from each.  Deterministic for
    a fixed seed; only ever a lower bound.
    """
    mats = [_as_array(u) for u in us]
    stack = np.stack(mats)
    if stack.shape[1] > stack.shape[2]:
        stack = stack.transpose(0, 2, 1)
    mats = list(stack)
    k = len(mats)
    solver = PiSolver(*stack.shape[1:])
    rng = np.random.default_rng(seed)
    starts = [np.eye(k)[i] for i in range(k)]
    for _ in range(samples):
        v = rng.standard_normal(k)
        norm = np.linalg.norm(v)
        if norm > 0:
            starts.append(v / norm)
    best = 0.0
    for a in starts:
        val, cert = solver.solve(np.tensordot(a, stack, axes=1))
        best = max(best, val)
        for _ in range(ascent_steps):
            g = np.array([float(np.sum(cert.matrix * m)) for m in mats])
            norm = np.linalg.norm(g)
            if norm == 0:
                break
            a_new = g / norm
            new_val, new_cert = solver.solve(np.tensordot(a_new, stack, axes=1))
            if new_val <= val + 1e-12:
                break
            val, cert, a = new_val, new_cert, a_new
            best = max(best, val)
    return best


def canonical_model(u) -> np.ndarray:
    """Drop zero rows/columns and merge duplicates.

    In sup-norm models, repeated or zero coordinates factor through the
    smaller model isometrically, so the projective and injective norms
    are unchanged; this keeps certificate matrices inside the LP budget.
    """
    U = _as_array(u)
    U = U[np.any(U != 0, axis=1)][:, np.any(U != 0, axis=0)]
    if U.size == 0:
        return np.zeros((1, 1))
    U = np.unique(U, axis=0)
    U = np.unique(U, axis=1)
    return U
